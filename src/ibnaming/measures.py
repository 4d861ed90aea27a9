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

from .core import Distribution, IBNamingError, MeaningSpace, NamingSystem, ValidationError

# Finite stand-in for log(0) inside vectorized kernels. Multiplying it by a
# genuine probability (>= 1e-15 after cleaning) yields magnitudes > 1e250,
# which the kernels detect as support violations; multiplying by an exact
# zero yields an exact zero, which is the 0 log 0 convention.
LOG_ZERO = -1e300
_VIOLATION = 1e250


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


def mutual_information_from_joint(joint: np.ndarray) -> float:
    """MI in bits of a (possibly unnormalized-within-1e-9) joint matrix."""
    j = np.asarray(joint, dtype=np.float64)
    row = j.sum(axis=1)
    col = j.sum(axis=0)
    denom = row[:, None] * col[None, :]
    mask = j > 0
    ratio = np.divide(j, denom, out=np.ones_like(j), where=mask)
    return float(np.sum(j[mask] * np.log2(ratio[mask])))


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
    if sys.num_meanings != space.num_meanings:
        raise ValidationError(
            [f"encoder has {sys.num_meanings} meanings, space has {space.num_meanings}"]
        )
    if sys.meaning_labels != space.meaning_labels:
        i = next(
            i for i, (a, b) in enumerate(zip(sys.meaning_labels, space.meaning_labels)) if a != b
        )
        raise ValidationError(
            [f"meaning label mismatch at index {i}: "
             f"{sys.meaning_labels[i]!r} vs {space.meaning_labels[i]!r}"]
        )


def _listener_arrays(p: np.ndarray, enc: np.ndarray, reps: np.ndarray):
    """Return (q(w), m_hat rows, defined mask); undefined rows are zeroed."""
    qw = p @ enc
    defined = qw > 0
    joint = p[:, None] * enc  # p(m, w)
    post = np.divide(joint, qw[None, :], out=np.zeros_like(joint), where=defined[None, :])
    mhat = post.T @ reps
    mhat[~defined] = 0.0
    return qw, mhat, defined


def bayesian_listener(sys: NamingSystem, space: MeaningSpace) -> ListenerModel:
    """m_hat_w(u) = sum_m q(m|w) m_c(u) with q(m|w) = p(m)q(w|m)/q(w)."""
    _align(sys, space)
    p = space.require_need().mass
    qw, mhat, defined = _listener_arrays(p, sys.encoder, space.representations)
    return ListenerModel(mhat, Distribution(qw / qw.sum(), sys.word_labels), defined)


def _complexity_arrays(p: np.ndarray, enc: np.ndarray, qw: np.ndarray) -> float:
    joint = p[:, None] * enc
    mask = joint > 0
    ratio = np.divide(enc, qw[None, :], out=np.ones_like(enc), where=mask)
    return float(np.sum(joint[mask] * np.log2(ratio[mask])))


def complexity(sys: NamingSystem, need: Distribution) -> float:
    """I(M;W) = sum_{m,w} p(m) q(w|m) log2(q(w|m)/q(w)) in bits."""
    if len(need) != sys.num_meanings:
        raise ValidationError(
            [f"need has {len(need)} entries, encoder has {sys.num_meanings} meanings"]
        )
    p = need.mass
    qw = p @ sys.encoder
    return _complexity_arrays(p, sys.encoder, qw)


def _log2_with_zeros(a: np.ndarray) -> np.ndarray:
    out = np.full_like(a, LOG_ZERO)
    np.log2(a, out=out, where=a > 0)
    return out


def _kl_rows_bits(rows: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """D[rows_i || ref] in bits for each row; raises on support violation."""
    lr = _log2_with_zeros(rows)
    lq = _log2_with_zeros(ref)
    terms = rows * (lr - lq[None, :])  # exact 0 where rows == 0
    kl = terms.sum(axis=1)
    if np.any(kl > _VIOLATION):
        raise SupportViolationError("reconstruction lacks support where the target has mass")
    return kl


def expected_distortion(sys: NamingSystem, space: MeaningSpace) -> float:
    """E[D[m || m_hat_w]] in bits, expectation under p(m) q(w|m)."""
    _align(sys, space)
    p = space.require_need().mass
    reps = space.representations
    qw, mhat, defined = _listener_arrays(p, sys.encoder, reps)
    joint = p[:, None] * sys.encoder
    lr = _log2_with_zeros(reps)
    lh = _log2_with_zeros(mhat)
    self_term = np.sum(reps * lr, axis=1)  # sum_u m log2 m, zeros skipped
    cross = reps @ lh.T  # [meaning, word]
    d = self_term[:, None] - cross
    mask = joint > 0
    if np.any(d[mask] > _VIOLATION):
        raise SupportViolationError(
            "a contributing (meaning, word) pair has mass outside its reconstruction's support"
        )
    return float(np.sum(joint[mask] * d[mask]))


def _accuracy_arrays(qw: np.ndarray, mhat: np.ndarray, m0: np.ndarray) -> float:
    defined = qw > 0
    kl = _kl_rows_bits(mhat[defined], m0)
    return float(np.sum(qw[defined] * kl))


def accuracy(sys: NamingSystem, space: MeaningSpace) -> float:
    """I(W;U) = sum_w q(w) D[m_hat_w || m_0] in bits."""
    _align(sys, space)
    p = space.require_need().mass
    qw, mhat, _ = _listener_arrays(p, sys.encoder, space.representations)
    return _accuracy_arrays(qw, mhat, space.prior_representation)


def ib_objective(sys: NamingSystem, space: MeaningSpace, beta: float) -> float:
    """F_beta[q] = I(M;W) - beta * I(W;U)."""
    if beta < 0:
        raise ValidationError([f"beta must be >= 0, got {beta}"])
    return complexity(sys, space.require_need()) - beta * accuracy(sys, space)

