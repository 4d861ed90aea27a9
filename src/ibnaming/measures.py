"""Exact information measures over naming systems, in bits.

Complexity is the meaning/word mutual information I(M;W); accuracy is the
word/universe information I(W;U), computed through the Bayesian listener
reconstructions m_hat_w and the prior representation m_0. Terms with zero
probability are skipped exactly (0 log 0 := 0), never clamped, so repeated
calls are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Distribution,
    IBNamingError,
    MeaningSpace,
    NamingSystem,
    ValidationError,
    _alignment_errors,
)

# Finite stand-in for log(0) inside vectorized kernels. Multiplying it by a
# genuine probability (>= 1e-15 after cleaning) yields magnitudes > 1e250,
# which the kernels detect as support violations; multiplying by an exact
# zero yields an exact zero, which is the 0 log 0 convention.
LOG_ZERO = -1e300
_VIOLATION = 1e250
_LN2 = float(np.log(2.0))


class SupportViolationError(IBNamingError):
    """KL divergence requested where p > 0 but q = 0."""


def entropy(d: Distribution | np.ndarray) -> float:
    """Shannon entropy -sum p log2 p in bits."""
    p = d.mass if isinstance(d, Distribution) else np.asarray(d, dtype=np.float64)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def kl_divergence(p: Distribution | np.ndarray, q: Distribution | np.ndarray) -> float:
    """D[p || q] in bits; errors on support violation rather than returning inf."""
    pm = p.mass if isinstance(p, Distribution) else np.asarray(p, dtype=np.float64)
    qm = q.mass if isinstance(q, Distribution) else np.asarray(q, dtype=np.float64)
    if pm.shape != qm.shape:
        raise ValidationError([f"length mismatch: {pm.shape[0]} vs {qm.shape[0]}"])
    bad = np.nonzero((pm > 0) & (qm <= 0))[0]
    if bad.size:
        raise SupportViolationError(
            f"p is positive but q is zero at index {bad[0]} (and {bad.size - 1} more)"
            if bad.size > 1 else f"p is positive but q is zero at index {bad[0]}"
        )
    mask = pm > 0
    ratio = np.divide(pm, qm, out=np.ones_like(pm), where=mask)
    return float(np.sum(pm[mask] * np.log2(ratio[mask])))


def mutual_information_from_joint(joint: np.ndarray) -> float | np.ndarray:
    """MI in bits of a (possibly unnormalized-within-1e-9) joint matrix, or
    of each matrix of a stack (one value per matrix)."""
    j = np.asarray(joint, dtype=np.float64)
    denom = j.sum(axis=-1)[..., :, None] * j.sum(axis=-2)[..., None, :]
    # cells without mass get ratio 1, so they add an exact zero
    ratio = np.divide(j, denom, out=np.ones_like(j), where=j > 0)
    mi = np.sum(j * np.log2(ratio), axis=(-2, -1))
    return float(mi) if mi.ndim == 0 else mi


@dataclass(frozen=True)
class ListenerModel:
    """Bayesian-listener reconstructions m_hat_w, one row per word.

    Rows for words with q(w) = 0 carry no mass and are flagged undefined;
    every expectation skips them.
    """

    reconstructions: np.ndarray
    word_mass: Distribution
    defined: np.ndarray

    def __post_init__(self):
        r = np.array(self.reconstructions, dtype=np.float64, copy=True)
        r.flags.writeable = False
        object.__setattr__(self, "reconstructions", r)
        d = np.array(self.defined, dtype=bool, copy=True)
        d.flags.writeable = False
        object.__setattr__(self, "defined", d)


def _align(sys: NamingSystem, space: MeaningSpace) -> None:
    errors = _alignment_errors(sys, space)
    if errors:
        raise ValidationError(errors)


# ---------------------------------------------------------------------------
# array kernels, in nats; the solver iterates on the same ones. Each takes
# one encoder or a stack of them along a leading axis, and returns one value
# (or row) per encoder.


def _log(a: np.ndarray) -> np.ndarray:
    """Natural log with exact zeros mapped to LOG_ZERO."""
    out = np.full(a.shape, LOG_ZERO)
    np.log(a, out=out, where=a > 0)
    return out


def _listener(p: np.ndarray, enc: np.ndarray, reps: np.ndarray):
    """(q(w), p(m, w), m_hat rows) of the Bayesian listener; words with
    q(w) = 0 get zero rows."""
    qw = p @ enc
    joint = p[:, None] * enc
    # the column of a word with q(w) = 0 is all zeros, so dividing it by 1 zeroes its row
    post = joint / np.where(qw > 0, qw, 1.0)[..., None, :]
    return qw, joint, np.swapaxes(post, -1, -2) @ reps


def _complexity(joint: np.ndarray, log_enc: np.ndarray, log_qw: np.ndarray) -> np.ndarray:
    """I(M;W) = sum_{m,w} p(m, w) (log q(w|m) - log q(w))."""
    return np.einsum("...ij,...ij->...", joint, log_enc - log_qw[..., None, :])


def _accuracy(qw: np.ndarray, mhat: np.ndarray, log_mhat: np.ndarray,
              log_m0: np.ndarray) -> np.ndarray:
    """I(W;U) = sum_w q(w) D[m_hat_w || m_0]; raises on support violation."""
    kl = np.einsum("...ij,...ij->...i", mhat, log_mhat) - mhat @ log_m0
    if np.any(kl > _VIOLATION):
        raise SupportViolationError("reconstruction lacks support where the target has mass")
    # a (1, k) @ (k, 1) product: in 2-D the same bits as qw @ kl
    return (qw[..., None, :] @ kl[..., :, None])[..., 0, 0]


def _distortion(reps: np.ndarray, self_nats: np.ndarray, log_mhat: np.ndarray) -> np.ndarray:
    """D[m || m_hat_w] as a [meaning, word] matrix, from self_nats[m] =
    sum_u m(u) log m(u)."""
    d = reps @ log_mhat.T
    np.subtract(self_nats[:, None], d, out=d)
    return d


# ---------------------------------------------------------------------------
# measures in bits


def bayesian_listener(sys: NamingSystem, space: MeaningSpace) -> ListenerModel:
    """m_hat_w(u) = sum_m q(m|w) m_c(u) with q(m|w) = p(m)q(w|m)/q(w)."""
    _align(sys, space)
    qw, _, mhat = _listener(space.require_need().mass, sys.encoder, space.representations)
    return ListenerModel(mhat, Distribution(qw / qw.sum(), sys.word_labels), qw > 0)


def complexity(sys: NamingSystem, need: Distribution) -> float:
    """I(M;W) = sum_{m,w} p(m) q(w|m) log2(q(w|m)/q(w)) in bits."""
    if len(need) != sys.num_meanings:
        raise ValidationError(
            [f"need has {len(need)} entries, encoder has {sys.num_meanings} meanings"]
        )
    p = need.mass
    return float(_complexity(p[:, None] * sys.encoder, _log(sys.encoder),
                             _log(p @ sys.encoder))) / _LN2


def expected_distortion(sys: NamingSystem, space: MeaningSpace) -> float:
    """E[D[m || m_hat_w]] in bits, expectation under p(m) q(w|m)."""
    _align(sys, space)
    reps = space.representations
    _, joint, mhat = _listener(space.require_need().mass, sys.encoder, reps)
    d = _distortion(reps, np.sum(reps * _log(reps), axis=1), _log(mhat))
    mask = joint > 0
    if np.any(d[mask] > _VIOLATION):
        raise SupportViolationError(
            "a contributing (meaning, word) pair has mass outside its reconstruction's support"
        )
    return float(np.sum(joint[mask] * d[mask])) / _LN2


def accuracy(sys: NamingSystem, space: MeaningSpace) -> float:
    """I(W;U) = sum_w q(w) D[m_hat_w || m_0] in bits."""
    _align(sys, space)
    qw, _, mhat = _listener(space.require_need().mass, sys.encoder, space.representations)
    return float(_accuracy(qw, mhat, _log(mhat), _log(space.prior_representation))) / _LN2


def ib_objective(sys: NamingSystem, space: MeaningSpace, beta: float) -> float:
    """F_beta[q] = I(M;W) - beta * I(W;U)."""
    if beta < 0:
        raise ValidationError([f"beta must be >= 0, got {beta}"])
    return complexity(sys, space.require_need()) - beta * accuracy(sys, space)

