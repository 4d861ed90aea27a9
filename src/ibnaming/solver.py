"""Frontier solver: self-consistent encoder updates per beta, annealed
across a beta grid.

There is one solve: it starts from an encoder and returns the point a
frontier records, with the encoder the tool writes. ``solve_at_beta`` is
that solve and ``anneal_frontier`` chains it, each beta started from a
recorded encoder, so public solves reproduce a frontier. The sweep cuts its
grid into segments of a few octaves of beta, each chained from the identity
at its top, and solves them at once, one worker per CPU. Every solve runs
at one OpenBLAS thread, so a frontier's bytes depend neither on the core
count nor on the BLAS thread count.

The plain update at a fixed beta alternates three assignments:

    q(w)    <- sum_m p(m) q(w|m)
    m_hat_w <- Bayesian listener reconstruction
    q(w|m)  <- q(w) * exp(-beta * KL_nats[m || m_hat_w]),  rows renormalized

Each plain update is non-increasing in F = I(M;W) - beta * I(W;U). Near
cluster transitions it contracts ever more slowly (critical slowing down),
so the iteration is accelerated: Anderson mixing over the last twenty
row-normalised log-encoders log q(w|m), with the plain step taken instead
whenever a mixed step would raise F.

Stopping rule. The residual of one plain update is measured on the
log-encoder, in the Fisher norm with weights p(m) q(w|m), and the iteration
stops when it is down to the rounding error of that update, the same norm
of the update's terms times a few ulps. So every recorded point is a fixed
point of the plain update as far as floating point can tell, in C and A and
not only in F. The weights sum to 1, so that norm is at most the largest
term; the exact norm is computed only when the residual is within twice
that bound, and the stop decides as if it were computed on every step.

Words whose marginal mass falls below the prune threshold are dropped
mid-iteration. One rule covers mixing and pruning alike: a step that raises
F beyond its rounding is not taken, and a pruned step that does turns
pruning off for the rest of the solve. Words with near-identical
reconstructions are merged, when the iteration would stop and at doubling
intervals during it, and a fresh pass starts on the merged encoder.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import InitVar, dataclass, field, fields

import numpy as np

from .core import IBNamingError, MeaningSpace, NamingSystem, ValidationError
from .measures import _LN2, _accuracy, _align, _complexity, _distortion, _listener, _log
from .workers import _cpu_count, deal, one_blas_thread

# Words count toward the effective category number when their marginal mass
# strictly exceeds this.
DEFAULT_CATEGORY_MASS_THRESHOLD = 1e-5
# Frontier.validate tolerates a point's F up to this many bits above another
# point's line.
_FRONTIER_SLACK = 1e-6
# Reconstruction rows closer than this in max-norm describe the same category.
# A category split across two words is a direction in which C, A and F do
# not move, so the iteration can leave such words up to ~1e-7 apart, while
# distinct categories of the fixtures sit at least 3e-3 apart.
DUPLICATE_ROW_TOL = 1e-6
# Smallest positive beta of the default grid.
BETA_MIN = 0.1
# Log-encoder value of an exact zero of q(w|m).
_LOG_FLOOR = -800.0
# Entries below exp(_EXP_CUT) times their row maximum are set to exact zeros.
_EXP_CUT = -700.0
_EPS = float(np.finfo(np.float64).eps)
# Rounding error of one update, in ulps of the terms it subtracts.
_ROUND_OFF_ULPS = 8.0
# Anderson mixing: past differences kept, the relative cut-off of the small
# least-squares system, and the entries handled per block in double precision.
_ANDERSON_DEPTH = 20
_GRAM_RCOND = 1e-14
_MIX_BLOCK = 4096
# A history restarts with fresh weights once some word's mass q(w) has moved
# by more than this factor from its start. Stale weights overweight a dying
# word, and the mixing then rushes it under the prune threshold: on the
# container grid of 150 betas to 1024, beta = 903.9 lost a category that
# way and ended 1e-6 bits higher in F.
_WEIGHT_DRIFT = 4.0
# Evaluations before the first in-loop check for duplicate words; the checks
# then come at doubling intervals. Merging only at a candidate stop keeps the
# encoders wider for longer: on the seed-1 container-sweep bench instance (12
# betas to 1024, 2-vCPU host) the sweep then needs 1024 evaluations instead of
# 1060, but 2.45 s instead of 1.72 s (median of 5).
_DUPLICATE_CHECK = 16
# The rounding of F, as a share of |C| + beta |A|: a mixed step may raise F
# by this much, and a recorded line must beat a point by more to repair it.
_F_SLACK = 64 * _EPS
# The duplicate-word screen: features compared before a candidate pair's
# full rows, and the differences taken at once (128 KB), which bounds the
# screen's memory when every pair is a candidate.
_SCREEN_FEATURES = 8
_BLOCK_ENTRIES = 1 << 14
# Octaves of beta in one segment of the sweep. Each segment starts from the
# identity: on the paper container grid (1500 betas to 1024, seed-1 bench
# instance) 3-octave segments take 164,363 evaluations against 161,766 for
# one chain, and 68 s on 2 cores against 109 s in one process.
_SEGMENT_OCTAVES = 3


class CategorySelectionError(IBNamingError):
    """No frontier point with the requested number of effective categories."""


class FingerprintMismatchError(IBNamingError):
    """The frontier was computed on a different meaning space."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one frontier computation.

    The grid must be strictly increasing. Iteration at each beta stops once
    the update's residual is at its rounding error (see the module
    docstring). ``max_iterations`` is a hard cap on the evaluations of the
    update map per beta, accelerated and plain alike; a point that reaches
    it is recorded as last evaluated, unconverged. ``convergence_tol`` is
    accepted and ignored: it is not a field, and no file records it.
    """

    beta_grid: tuple[float, ...]
    max_iterations: int = 30_000
    mass_prune_threshold: float = 1e-5
    # for bench/run.py, its only caller, which still passes a tolerance
    convergence_tol: InitVar[float | None] = None

    def __post_init__(self, convergence_tol):
        # plain Python numbers, as frontier_meta.json records them
        object.__setattr__(self, "beta_grid", tuple(float(b) for b in self.beta_grid))
        object.__setattr__(self, "mass_prune_threshold", float(self.mass_prune_threshold))
        errors = []
        if not self.beta_grid:
            errors.append("beta_grid is empty")
        elif not all(np.isfinite(self.beta_grid)):
            errors.append("beta_grid values must be finite")
        elif self.beta_grid[0] < 0:
            errors.append(f"beta_grid values must be >= 0, got {self.beta_grid[0]}")
        if any(b2 <= b1 for b1, b2 in zip(self.beta_grid, self.beta_grid[1:])):
            errors.append("beta_grid must be strictly increasing")
        try:
            if isinstance(self.max_iterations, bool):
                raise TypeError
            object.__setattr__(self, "max_iterations", operator.index(self.max_iterations))
        except TypeError:
            errors.append(f"max_iterations must be an integer, got {self.max_iterations!r}")
        else:
            if self.max_iterations < 1:
                errors.append(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0 <= self.mass_prune_threshold < np.inf:
            errors.append("mass_prune_threshold must be finite and >= 0")
        if errors:
            raise ValidationError(errors)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["beta_grid"] = list(self.beta_grid)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        """Inverse of ``to_dict``; missing optional keys take their defaults
        and unknown keys, such as those of removed fields, are ignored."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


def default_beta_grid(beta_max: float, num_betas: int) -> tuple[float, ...]:
    """Beta 0 plus (num_betas - 1) log-spaced values from BETA_MIN to beta_max;
    every grid ends at beta_max, so two betas are 0 and beta_max."""
    if num_betas < 1:
        raise ValidationError([f"num_betas must be >= 1, got {num_betas}"])
    if not 0 < beta_max < np.inf:
        raise ValidationError([f"beta_max must be finite and > 0, got {beta_max}"])
    if num_betas == 1:
        return (float(beta_max),)
    if beta_max <= BETA_MIN:
        raise ValidationError([f"beta_max must exceed {BETA_MIN}"])
    # geomspace of one value gives its start, not beta_max
    tail = np.geomspace(BETA_MIN, beta_max, num_betas - 1) if num_betas > 2 else [beta_max]
    return (0.0,) + tuple(float(b) for b in tail)


@dataclass(frozen=True)
class FrontierPoint:
    """One solved tradeoff: the optimal encoder at a single beta; its
    fields are a frontier.csv row and the encoder of that row."""

    beta: float
    complexity_bits: float
    accuracy_bits: float
    objective_bits: float
    effective_k: int
    encoder: NamingSystem
    converged: bool
    iterations: int


@dataclass(frozen=True)
class Frontier:
    """Frontier points sorted by beta, bound to one meaning space.

    ``sweep`` says how ``anneal_frontier`` ran, for a run manifest: its
    worker count, whether the BLAS cap took effect, the betas, evaluations
    and seconds of each segment and the repair's solves. It holds wall
    times, so it is not saved, and a loaded frontier has None."""

    points: tuple[FrontierPoint, ...]
    space_fingerprint: str
    config: SolverConfig
    sweep: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def betas(self) -> np.ndarray:
        return np.array([p.beta for p in self.points])

    def validate(self) -> list[str]:
        """Sorted betas, and no point beaten by another recorded encoder.

        Every recorded encoder j is feasible at every beta, so point i is not
        optimal when the line C_j - beta_i * A_j lies below its F. With exact
        values this also makes C and A rise with beta and A concave in C.
        """
        errors: list[str] = []
        b = self.betas
        if np.any(np.diff(b) <= 0):
            errors.append("points are not sorted by strictly increasing beta")
        c = np.array([p.complexity_bits for p in self.points])
        a = np.array([p.accuracy_bits for p in self.points])
        for i in range(len(b)):
            j, low = _lowest_line(c, a, b[i])
            gap = c[i] - b[i] * a[i] - low
            if gap > _FRONTIER_SLACK:
                errors.append(f"point at beta={b[i]:.6g} lies {gap:.3g} bits above the line "
                              f"of the point at beta={b[j]:.6g}")
        return errors


def _lowest_line(c: np.ndarray, a: np.ndarray, beta: float) -> tuple[int, float]:
    """Index and value of the lowest of the lines C_j - beta * A_j at one
    beta: the best recorded encoder there. One row at a time, as its callers
    take it; an n x n array of all rows is 72 MB at 3000 points."""
    lines = c - beta * a
    j = int(np.argmin(lines))
    return j, float(lines[j])


def _check_space(fingerprint: str, space: MeaningSpace) -> None:
    """Reject a space other than the one a frontier was computed on."""
    if fingerprint != space.fingerprint:
        raise FingerprintMismatchError(
            "frontier was computed on a different meaning space "
            f"({fingerprint[:12]}... vs {space.fingerprint[:12]}...)"
        )


# ---------------------------------------------------------------------------
# array-level machinery


def _normalized(logits: np.ndarray) -> np.ndarray:
    """Row-normalise log weights into a log-encoder, in place.

    Weights below exp(_EXP_CUT) times their row maximum become exact zeros
    (log q = _LOG_FLOOR); this also keeps exp() off denormal numbers.
    """
    logits -= logits.max(axis=1, keepdims=True)
    live = logits > _EXP_CUT
    logits -= np.log(np.exp(logits, out=np.zeros_like(logits), where=live)
                     .sum(axis=1, keepdims=True))
    logits[~live] = _LOG_FLOOR
    return logits


def _exp(x: np.ndarray) -> np.ndarray:
    """q from a normalised log-encoder.

    The ``where=`` mask is for speed, not for the values: a plain
    ``np.exp(x)`` gives the same bits (0 mismatches over 4.2M random cells,
    with 0-100% of the entries at ``_LOG_FLOOR``), but exp of an entry at
    the floor underflows on a slow path. At a beta = 1024 container-sweep
    state (192 x 111, 67% of the entries at the floor) plain ``np.exp``
    took 277-367 us and the masked form 41-69 us on a 2-core Xeon with
    numpy 2.4; a dense array of that shape takes 19 us.
    """
    return np.exp(x, out=np.zeros_like(x), where=x > _LOG_FLOOR)


def _log_encoder(q: np.ndarray) -> np.ndarray:
    """Normalised log-encoder of an encoder matrix."""
    x = np.full(q.shape, _LOG_FLOOR)
    np.log(q, out=x, where=q > 0)
    return _normalized(x)


@dataclass
class _Workspace:
    """Per-space constants shared across every beta of a sweep."""

    p: np.ndarray
    reps: np.ndarray
    m0_log: np.ndarray
    self_nats: np.ndarray
    self_max: float  # max |self_nats|

    @classmethod
    def for_space(cls, space: MeaningSpace) -> "_Workspace":
        p = space.require_need().mass
        reps = space.representations
        self_nats = np.sum(reps * _log(reps), axis=1)
        return cls(p, reps, _log(space.prior_representation), self_nats,
                   float(np.max(np.abs(self_nats))))


@dataclass
class _Step:
    """An encoder, its statistics, and the plain update it leads to."""

    q: np.ndarray
    labels: np.ndarray
    qw: np.ndarray
    weights: np.ndarray  # p(m) q(w|m), the Fisher weights
    mhat: np.ndarray
    complexity: float
    accuracy: float
    objective: float
    g: np.ndarray  # log-encoder after one plain update
    f: np.ndarray  # residual: g minus the log-encoder of q
    residual: float  # Fisher norm of f
    # Fisher norm of the rounding error of the update when residual is within
    # _round_off_bound, else that bound: residual <= round_off decides alike
    round_off: float
    pruned: bool

    def point(self, ws: _Workspace, beta: float, meaning_labels: tuple[str, ...],
              iterations: int, converged: bool) -> FrontierPoint:
        """The recorded point of a solve that ends on this step. Its encoder
        is built by ``NamingSystem.create``, as every reader builds one, so
        entries below PROB_FLOOR are exact zeros in memory, on disk and when
        loaded back; categories are counted on it, as ``load_frontier``
        counts them. C, A and F are the solver's own."""
        encoder = NamingSystem.create(self.q, self.labels.tolist(), meaning_labels)
        return FrontierPoint(
            beta=float(beta),
            complexity_bits=self.complexity,
            accuracy_bits=self.accuracy,
            objective_bits=self.objective,
            effective_k=_category_count(ws.p @ encoder.encoder),
            encoder=encoder,
            converged=converged,
            iterations=iterations,
        )


def _plain_update(ws: _Workspace, x: np.ndarray, labels: np.ndarray, beta: float,
                  prune: float) -> _Step:
    """Prune light words, evaluate the normalised log-encoder x (C, A, F),
    and take one plain update, with its residual and rounding error."""
    q = _exp(x)
    # Few n x k arrays are alive at once: the first solve of a sweep, at
    # full width, sets the sweep's peak memory.
    qw, weights, mhat = _listener(ws.p, q, ws.reps)
    keep = (qw >= prune) if prune > 0 else (qw > 0)
    pruned = not keep.all()
    if pruned:
        if not keep.any():
            keep[int(np.argmax(qw))] = True
        x = _normalized(x[:, keep])
        q = _exp(x)
        labels = labels[keep]
        qw, weights, mhat = _listener(ws.p, q, ws.reps)
    log_qw = np.log(qw)
    c = float(_complexity(weights, x, log_qw)) / _LN2
    lh = _log(mhat)
    a = float(_accuracy(qw, mhat, lh, ws.m0_log)) / _LN2
    dist = _distortion(ws.reps, ws.self_nats, lh)
    del lh
    g = dist * -beta
    g += log_qw[None, :]
    g = _normalized(g)
    f = g - x
    residual = _fisher_norm(weights, f)
    round_off = _round_off_bound(ws, dist, log_qw, beta)
    if residual <= round_off:  # only then can the exact norm decide the stop
        round_off = _round_off(ws, weights, dist, log_qw, beta)
    return _Step(q, labels, qw, weights, mhat, c, a, c - beta * a, g, f, residual, round_off,
                 pruned)


def _round_off(ws: _Workspace, weights: np.ndarray, dist: np.ndarray, log_qw: np.ndarray,
               beta: float) -> float:
    """Fisher norm of the rounding error of the update formed from the
    distortion matrix ``dist``, which it overwrites.

    The update forms log q(w) - beta * (self - cross); its rounding error
    scales with the size of those terms, not with the size of the result.
    """
    scale = np.subtract(ws.self_nats[:, None], dist, out=dist)
    np.abs(scale, out=scale)
    np.minimum(scale, 1e100, out=scale)
    scale += np.abs(ws.self_nats)[:, None]
    scale *= beta
    scale += np.abs(log_qw)[None, :]
    return _ROUND_OFF_ULPS * _EPS * _fisher_norm(weights, scale)


def _round_off_bound(ws: _Workspace, dist: np.ndarray, log_qw: np.ndarray,
                     beta: float) -> float:
    """An upper bound of ``_round_off`` from three maxima: its Fisher
    weights sum to 1, so its norm is at most the largest entry of its scale.
    The factor 2 covers the rounding of both."""
    cross = min(max(float(dist.max()), -float(dist.min())) + ws.self_max, 1e100)
    return 2 * _ROUND_OFF_ULPS * _EPS * (beta * (cross + ws.self_max)
                                         + float(np.max(np.abs(log_qw))))


def _fisher_norm(weights: np.ndarray, dx: np.ndarray) -> float:
    """sqrt(sum_mw p(m) q(w|m) dx^2), the local metric of the encoder."""
    return float(np.sqrt(np.einsum("ij,ij,ij->", weights, dx, dx)))


class _Anderson:
    """Anderson mixing (Walker & Ni, 2011) over the last _ANDERSON_DEPTH
    log-encoders.

    Keeps the differences of successive residuals f = G(x) - x and of
    successive updates G(x); ``mix`` returns G(x) minus the combination of
    update differences whose residual differences best cancel f in the
    Fisher norm. The norm's weights w = p(m) q(w|m) are those of the step
    that starts the history: each residual difference is stored already
    multiplied by sqrt(w), and the Gram matrix of the stored rows gains one
    row and column per ``push``, which also takes the right-hand side of
    the next ``mix`` from the same pass, so a push and a mix each read one
    ring buffer once. A step whose word masses have moved by more than
    _WEIGHT_DRIFT from the history's start starts a new history. The state
    is two single-precision ring buffers of _ANDERSON_DEPTH rows of n * k
    entries (single precision is enough for the mixing coefficients), the
    sqrt(w) vector, the small Gram matrix and right-hand side, and one
    double-precision buffer of _ANDERSON_DEPTH * _MIX_BLOCK entries (655 KB)
    that holds the block of a ring buffer being multiplied.
    """

    def __init__(self):
        self.d_res = self.d_map = None
        # entries of rows not yet written are never read
        self.gram = np.zeros((_ANDERSON_DEPTH, _ANDERSON_DEPTH))
        self.block = np.empty(_ANDERSON_DEPTH * _MIX_BLOCK)
        self.clear()

    def clear(self) -> None:
        """Forget the history; the next push starts a new one with its own weights."""
        self.last: tuple[np.ndarray, np.ndarray] | None = None
        self.count = 0
        self.sqrt_w = self.qw0 = self.rhs = None

    @property
    def depth(self) -> int:
        return min(self.count, _ANDERSON_DEPTH)

    def push(self, weights: np.ndarray, qw: np.ndarray, f: np.ndarray,
             g: np.ndarray) -> None:
        """Record a step's residual f and update g; its Fisher weights and
        word masses q(w) count only when the step starts a history."""
        if self.last is not None and np.any((qw > _WEIGHT_DRIFT * self.qw0)
                                            | (_WEIGHT_DRIFT * qw < self.qw0)):
            self.clear()
        if self.last is None:
            self.sqrt_w = np.sqrt(weights).ravel()
            self.qw0 = qw
        else:
            if self.d_res is None or self.d_res.shape[1] != f.size:
                self.d_res = np.empty((_ANDERSON_DEPTH, f.size), np.float32)
                self.d_map = np.empty((_ANDERSON_DEPTH, f.size), np.float32)
            i = self.count % _ANDERSON_DEPTH
            np.multiply(np.subtract(f, self.last[0]).ravel(), self.sqrt_w, out=self.d_res[i],
                        casting="same_kind")
            np.subtract(g.ravel(), self.last[1].ravel(), out=self.d_map[i], casting="same_kind")
            self.count += 1
            m = self.depth
            row, self.rhs = np.zeros(m), np.zeros(m)
            fr = f.ravel()
            for a in range(0, f.size, _MIX_BLOCK):
                block = self._doubles(self.d_res, a)
                row += block @ block[i]
                self.rhs += block @ (self.sqrt_w[a:a + _MIX_BLOCK] * fr[a:a + _MIX_BLOCK])
            self.gram[i, :m] = row
            self.gram[:m, i] = row
        self.last = (f, g)

    def _doubles(self, rows: np.ndarray, a: int) -> np.ndarray:
        """The history's entries a to a + _MIX_BLOCK of a ring buffer, in
        double precision in the block buffer: a contiguous depth x width
        array, as ``astype`` would allocate it."""
        src = rows[:self.depth, a:a + _MIX_BLOCK]
        out = self.block[:src.size].reshape(src.shape)
        np.copyto(out, src)
        return out

    def mix(self) -> np.ndarray:
        """Mixed log-encoder from the last pushed residual f and update g."""
        g = self.last[1]
        m = self.depth
        gram = self.gram[:m, :m]
        # least squares in the Fisher norm, on unit-scaled columns
        scale = np.sqrt(np.diag(gram))
        scale[scale == 0] = 1.0
        coef = np.linalg.lstsq(gram / np.outer(scale, scale), self.rhs / scale,
                               rcond=_GRAM_RCOND)[0] / scale
        out = g.copy()
        flat = out.ravel()
        for a in range(0, flat.size, _MIX_BLOCK):
            flat[a:a + _MIX_BLOCK] -= coef @ self._doubles(self.d_map, a)
        return out


def _fixed_point_loop(ws: _Workspace, init: NamingSystem, beta: float,
                      config: SolverConfig) -> FrontierPoint:
    """Iterate the update map at one beta from the encoder ``init`` and
    return the recorded point: the one solve of ``solve_at_beta`` and of
    the sweep and its repairs in ``anneal_frontier``.

    Steps are Anderson-mixed once a history exists. One rule keeps F from
    rising: a step that raises F above the previous point's F, beyond its
    rounding, is not taken. A mixed step that does is replaced by the plain
    step; a plain step that pruned a word and does is discarded, and the
    solve goes on with pruning off. The first evaluation of each pass is the
    seed itself, unpruned, so F never exceeds F(init). The solve stops on a
    step whose residual is at its rounding error. Duplicate words, looked
    for at that stop and 16, 32, 64, ... evaluations into a pass, leave
    directions in which nothing moves and which slow the mixing down: they
    are merged and a fresh pass starts on the merged encoder. At
    ``max_iterations`` evaluations over all passes, discarded steps
    included, the last evaluated encoder is recorded.
    """
    budget = config.max_iterations
    prune = config.mass_prune_threshold
    q, meaning_labels = init.encoder, init.meaning_labels
    # an object array keeps every name as given; a str array drops trailing NULs
    labels = np.array(init.word_labels, dtype=object)
    evals = 0
    while True:
        # A fresh pass: new Anderson history and checkpoints; the
        # finished pass's arrays go before the merged encoder is evaluated.
        s = s_new = None
        accel = _Anderson()
        start = evals
        next_check = _DUPLICATE_CHECK
        s = _plain_update(ws, _log_encoder(q), labels, beta, 0.0)
        evals += 1
        while True:
            checkpoint = evals - start >= next_check
            if checkpoint:
                next_check *= 2
            stop = s.residual <= s.round_off
            merged = _merge_duplicate_words(s) if checkpoint or stop else None
            if merged is not None and evals < budget:
                break
            if stop and merged is None:
                return s.point(ws, beta, meaning_labels, evals, True)
            if evals >= budget:
                return s.point(ws, beta, meaning_labels, evals, False)
            accel.push(s.weights, s.qw, s.f, s.g)
            ceiling = s.objective + _F_SLACK * (abs(s.complexity) + beta * abs(s.accuracy))
            s_new = None
            if accel.depth:
                s_new = _plain_update(ws, _normalized(accel.mix()), s.labels, beta, prune)
                evals += 1
                if s_new.objective > ceiling:
                    s_new = None  # the mixed step raised F: take the plain step instead
                    accel.clear()
            while s_new is None:
                if evals >= budget:
                    return s.point(ws, beta, meaning_labels, evals, False)
                s_new = _plain_update(ws, s.g, s.labels, beta, prune)
                evals += 1
                if s_new.pruned and prune > 0 and s_new.objective > ceiling:
                    s_new, prune = None, 0.0  # pruning raised F: discard the step
            if s_new.pruned:
                accel.clear()
            s = s_new
        q, labels = merged


def _merge_duplicate_words(s: _Step):
    """Union words whose reconstructions agree within DUPLICATE_ROW_TOL.

    Two rows that close in max-norm project onto a ±1 sign vector within
    U * DUPLICATE_ROW_TOL of each other (U features), so only pairs whose
    projections lie within twice that, which covers the rounding of the
    projections, are candidates. A candidate must also agree within the
    tolerance on the _SCREEN_FEATURES features of widest spread; the pairs
    that do are compared in full. Pairs already in one group are skipped,
    and no step takes more than _BLOCK_ENTRIES differences at once. Each
    group is named by its smallest word, so the groups do not depend on the
    order in which the pairs are found.
    """
    k = s.q.shape[1]
    if k <= 1:
        return None
    mhat = s.mhat
    n_u = mhat.shape[1]
    proj = mhat @ np.resize([1.0, -1.0], n_u)
    order = np.argsort(proj)
    proj = proj[order]
    ends = np.searchsorted(proj, proj + 2 * n_u * DUPLICATE_ROW_TOL, side="right")
    # the candidates of sorted position a are the pairs (a, b), a < b < ends[a]
    counts = ends - np.arange(1, k + 1)
    total = np.cumsum(counts)
    wide = mhat[:, np.argsort(np.ptp(mhat, axis=0))[-_SCREEN_FEATURES:]].T
    group = np.arange(k)
    step = max(1, _BLOCK_ENTRIES // n_u)
    lo = 0
    while lo < k:
        # positions from lo whose candidates fill at most one screen
        hi = max(lo + 1, int(np.searchsorted(
            total, total[lo] - counts[lo] + _BLOCK_ENTRIES // _SCREEN_FEATURES, side="right")))
        c = counts[lo:hi]
        first = np.repeat(np.arange(lo, hi), c)
        second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(c) - c, c)
        i, j = order[first], order[second]
        # a pair already in one group cannot change the groups
        near = group[i] != group[j]
        for col in wide:
            near &= np.abs(col[i] - col[j]) < DUPLICATE_ROW_TOL
        i, j = i[near], j[near]
        while i.size:
            bi, bj, i, j = i[:step], j[:step], i[step:], j[step:]
            close = np.max(np.abs(mhat[bi] - mhat[bj]), axis=1) < DUPLICATE_ROW_TOL
            if close.any():
                for wi, wj in zip(bi[close], bj[close]):
                    low, high = sorted((group[wi], group[wj]))
                    group[group == high] = low
                apart = group[i] != group[j]
                i, j = i[apart], j[apart]
        lo = hi
    names = np.flatnonzero(group == np.arange(k))  # np.unique would import numpy.ma
    if names.size == k:
        return None
    cols = []
    reps = []
    for name in names:
        members = np.flatnonzero(group == name)
        cols.append(s.q[:, members].sum(axis=1))
        reps.append(members[int(np.argmax(s.qw[members]))])
    return np.stack(cols, axis=1), s.labels[reps]


def _category_count(word_mass: np.ndarray) -> int:
    """Number of words whose marginal mass strictly exceeds
    DEFAULT_CATEGORY_MASS_THRESHOLD: a point's effective_k."""
    return int(np.sum(word_mass > DEFAULT_CATEGORY_MASS_THRESHOLD))


def solve_at_beta(space: MeaningSpace, beta: float, init: NamingSystem,
                  config: SolverConfig | None = None) -> FrontierPoint:
    """Solve the tradeoff at one beta from a caller-supplied initial encoder
    and return the point a frontier records: the sweep is this solve
    chained, each beta started from an encoder the tool writes.

    The solve runs at one OpenBLAS thread, as the sweep's do. No step of
    the solve raises F beyond its rounding, so the objective of the result
    never exceeds the objective of ``init``; non-convergence
    within the iteration budget is reported through the ``converged`` flag,
    not an exception.
    """
    if not 0 <= beta < np.inf:
        raise ValidationError([f"beta must be finite and >= 0, got {beta}"])
    _align(init, space)
    if config is None:
        config = SolverConfig(beta_grid=(float(beta),))
    with one_blas_thread():
        return _fixed_point_loop(_Workspace.for_space(space), init, beta, config)


def _segments(grid: tuple[float, ...]) -> list[range]:
    """Index ranges of the sweep's segments, the top one first: the betas of
    one segment share floor(log2(beta) / _SEGMENT_OCTAVES), and beta = 0
    joins the lowest. ``frexp`` gives floor(log2(beta)) exactly."""
    keys = [(math.frexp(b)[1] - 1) // _SEGMENT_OCTAVES if b > 0 else None for b in grid]
    if keys[0] is None and len(keys) > 1:
        keys[0] = keys[1]
    cuts = [0] + [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]] + [len(keys)]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])][::-1]


def anneal_frontier(space: MeaningSpace, config: SolverConfig) -> Frontier:
    """Sweep the beta grid from high to low in segments, each started from
    the identity encoder at its top and each beta from the point just
    recorded above it, then repair the points that the frontier's own
    envelope beats.

    At the largest beta the optimum is near-deterministic, and the sweep
    tracks the solution branch downward as clusters merge away
    (deterministic annealing, Rose 1998). The grid is cut into segments of
    _SEGMENT_OCTAVES octaves of beta, by a rule that reads only the grid, so
    that the segments can be solved at once: they are dealt from a queue,
    the top one first, to one worker per CPU (``workers.deal``), every solve
    at one OpenBLAS thread (``workers.one_blas_thread``). So the frontier's
    bytes depend neither on the core count nor on the BLAS thread count.

    A single chain shows hysteresis (Zaslavsky & Tishby, 2019): it crosses
    cluster-merge transitions late, and on sparse spaces it can keep words
    whose supports the update cannot merge, a metastable branch with F far
    above the optimum. Every recorded encoder j is feasible at every beta,
    where its F is the line C_j - beta * A_j. So, once every segment is in,
    going up the grid, a point that the lowest line at its beta beats by
    more than F's rounding is solved again from that line's encoder, and
    the result replaces it when its F is lower; a repaired point's line can
    repair those above it. Rounds repeat until none keeps a repair. Each
    kept repair lowers an F, and a point is solved from one recorded encoder
    at most once, so the repair ends whether or not its solves converge.
    Every solve is ``solve_at_beta`` from a recorded encoder, so the
    frontier is that call chained down each segment from the identity and
    then from the lines that beat a point.
    """
    ws = _Workspace.for_space(space)
    grid = config.beta_grid
    n_m = space.num_meanings
    identity = NamingSystem(np.eye(n_m), tuple(f"w{i:03d}" for i in range(n_m)),
                            space.meaning_labels)

    def chain(segment: range) -> tuple[list[FrontierPoint], float]:
        """The points of one segment, in grid order, and its wall time."""
        start = time.perf_counter()
        seed, down = identity, []
        for i in reversed(segment):
            down.append(_fixed_point_loop(ws, seed, grid[i], config))
            seed = down[-1].encoder
        return down[::-1], time.perf_counter() - start

    segments = _segments(grid)
    workers = min(_cpu_count(), len(segments))
    with one_blas_thread() as capped:
        chains = deal(chain, segments, [f"sweep worker for betas {grid[s[0]]:.6g} to "
                                        f"{grid[s[-1]]:.6g}" for s in segments], workers)
        points = [p for down, _ in reversed(chains) for p in down]
        start = time.perf_counter()
        repairs = []  # evaluations of each repair solve
        c = np.array([p.complexity_bits for p in points])
        a = np.array([p.accuracy_bits for p in points])
        version = [0] * len(points)  # kept repairs of each point
        tried = set()  # (point, seed point, its version) of each repair solve
        repaired = True
        while repaired:
            repaired = False
            for i, beta in enumerate(grid):
                j, low = _lowest_line(c, a, beta)
                rounding = _F_SLACK * (abs(c[i]) + beta * abs(a[i]))
                if points[i].objective_bits - low <= rounding or (i, j, version[j]) in tried:
                    continue
                tried.add((i, j, version[j]))
                cand = _fixed_point_loop(ws, points[j].encoder, beta, config)
                repairs.append(cand.iterations)
                if cand.objective_bits < points[i].objective_bits:
                    points[i] = cand
                    c[i], a[i] = cand.complexity_bits, cand.accuracy_bits
                    version[i] += 1
                    repaired = True
    sweep = {
        "workers": workers,
        "blas_capped": capped,
        "segments": [{"betas": [grid[s[0]], grid[s[-1]]], "points": len(s),
                      "evaluations": sum(p.iterations for p in down), "seconds": seconds}
                     for s, (down, seconds) in zip(segments, chains)],
        "repair_solves": len(repairs),
        "repair_evaluations": sum(repairs),
        "repair_seconds": time.perf_counter() - start,
    }
    return Frontier(tuple(points), space.fingerprint, config, sweep)


def select_most_informative_with_k(frontier: Frontier, k: int) -> FrontierPoint:
    """Highest-accuracy frontier point with exactly k effective categories."""
    if not frontier.points:
        raise ValidationError(["frontier has no points"])
    best: FrontierPoint | None = None
    seen: set[int] = set()
    for point in frontier.points:  # ascending beta; ties keep the smaller beta
        seen.add(point.effective_k)
        if point.effective_k == k and (best is None or point.accuracy_bits > best.accuracy_bits):
            best = point
    if best is None:
        raise CategorySelectionError(
            f"no frontier point with {k} effective categories "
            f"(available: {sorted(seen)})"
        )
    return best
