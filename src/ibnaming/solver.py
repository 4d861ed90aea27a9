"""Frontier solver: self-consistent encoder updates per beta, annealed
across a beta grid.

The plain update at a fixed beta alternates three assignments:

    q(w)    <- sum_m p(m) q(w|m)
    m_hat_w <- Bayesian listener reconstruction
    q(w|m)  <- q(w) * exp(-beta * KL_nats[m || m_hat_w]),  rows renormalized

Each plain update is non-increasing in F = I(M;W) - beta * I(W;U). Near
cluster transitions it contracts ever more slowly (critical slowing down),
so the iteration is accelerated: Anderson mixing over the last few
row-normalised log-encoders log q(w|m), with the plain step taken instead
whenever a mixed step would raise F.

Stopping rule. The residual of one plain update is measured on the
log-encoder, in the Fisher norm with weights p(m) q(w|m), and a first-order
bound turns it into bits of complexity and accuracy. Runs of plain updates
give the contraction ratio rho once two consecutive ratios agree (a
geometric tail); the largest such rho seen at this beta is used. The
iteration stops when the Aitken estimate of how far C and A still move
under further plain updates, bits * residual / (1 - rho), is below
``convergence_tol``, or when the residual is down to the rounding error of
one update. So every recorded point is a fixed point of the plain update to
that accuracy in C and A, not only in F.

Words whose marginal mass falls below the prune threshold are dropped
mid-iteration (they never come back). Words with near-identical
reconstructions are merged, when the iteration would stop and at doubling
intervals during it, and a fresh pass starts on the merged encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import (
    IBNamingError,
    MeaningSpace,
    NamingSystem,
    ValidationError,
    _freeze,
)
from .measures import _LN2, _accuracy, _complexity, _distortion, _listener, _log

# Words count toward the effective category number when their marginal mass
# strictly exceeds this.
DEFAULT_CATEGORY_MASS_THRESHOLD = 1e-5
# Reconstruction rows closer than this in max-norm describe the same category.
# A category split across two words is a direction in which C, A and F do
# not move, so the stopping rule leaves such words up to ~1e-7 apart, while
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
_ANDERSON_DEPTH = 5
_GRAM_RCOND = 1e-14
_MIX_BLOCK = 4096
# Evaluations before the first in-loop check for duplicate words; the checks
# then come at doubling intervals.
_DUPLICATE_CHECK = 16
# Two contraction ratios of consecutive plain updates that agree within this
# share of 1 - ratio mark a geometric tail.
_STEADY_SPREAD = 0.1
# Plain updates spent confirming a candidate stop before mixing resumes.
_MAX_CONFIRM_STEPS = 8
# A mixed step may raise F by this share of |C| + beta |A| (rounding of F).
_F_SLACK = 64 * _EPS


class CategorySelectionError(IBNamingError):
    """No frontier point with the requested number of effective categories."""


class FingerprintMismatchError(IBNamingError):
    """The frontier was computed on a different meaning space."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one frontier computation.

    The grid must be strictly increasing. Iteration at each beta stops once
    the estimated further movement of complexity and accuracy under plain
    updates is below ``convergence_tol`` bits, or once the update's residual
    is at its rounding error (see the module docstring). ``max_iterations``
    is a hard cap on the evaluations of the update map per beta, accelerated
    and plain alike; a point that reaches it is recorded as last evaluated,
    unconverged.
    """

    beta_grid: tuple[float, ...]
    convergence_tol: float = 1e-10
    max_iterations: int = 30_000
    mass_prune_threshold: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "beta_grid", tuple(float(b) for b in self.beta_grid))
        errors = []
        if not self.beta_grid:
            errors.append("beta_grid is empty")
        elif self.beta_grid[0] < 0:
            errors.append(f"beta_grid values must be >= 0, got {self.beta_grid[0]}")
        if any(b2 <= b1 for b1, b2 in zip(self.beta_grid, self.beta_grid[1:])):
            errors.append("beta_grid must be strictly increasing")
        if self.convergence_tol <= 0:
            errors.append(f"convergence_tol must be > 0, got {self.convergence_tol}")
        if self.max_iterations < 1:
            errors.append(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.mass_prune_threshold < 0:
            errors.append("mass_prune_threshold must be >= 0")
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
    """Beta 0 plus (num_betas - 1) log-spaced values from BETA_MIN to beta_max."""
    if num_betas < 1:
        raise ValidationError([f"num_betas must be >= 1, got {num_betas}"])
    if beta_max <= 0:
        raise ValidationError([f"beta_max must be > 0, got {beta_max}"])
    if num_betas == 1:
        return (float(beta_max),)
    if beta_max <= BETA_MIN:
        raise ValidationError([f"beta_max must exceed {BETA_MIN}"])
    tail = np.geomspace(BETA_MIN, beta_max, num_betas - 1)
    return (0.0,) + tuple(float(b) for b in tail)


@dataclass(frozen=True)
class FrontierPoint:
    """One solved tradeoff: the optimal encoder at a single beta."""

    beta: float
    complexity_bits: float
    accuracy_bits: float
    objective_bits: float
    effective_k: int
    encoder: NamingSystem
    word_mass: np.ndarray
    converged: bool
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "word_mass", _freeze(self.word_mass))


@dataclass(frozen=True)
class Frontier:
    """Frontier points sorted by beta, bound to one meaning space."""

    points: tuple[FrontierPoint, ...]
    space_fingerprint: str
    config: SolverConfig

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def betas(self) -> np.ndarray:
        return np.array([p.beta for p in self.points])

    def validate(self, slack: float = 1e-6) -> list[str]:
        """Monotonicity in beta and concavity of accuracy vs. complexity."""
        errors: list[str] = []
        b = self.betas
        if np.any(np.diff(b) <= 0):
            errors.append("points are not sorted by strictly increasing beta")
        c = np.array([p.complexity_bits for p in self.points])
        a = np.array([p.accuracy_bits for p in self.points])
        for i in np.nonzero(np.diff(c) < -slack)[0]:
            errors.append(
                f"complexity decreases from beta={b[i]:.6g} to beta={b[i + 1]:.6g} "
                f"({c[i]:.9g} -> {c[i + 1]:.9g})"
            )
        for i in np.nonzero(np.diff(a) < -slack)[0]:
            errors.append(
                f"accuracy decreases from beta={b[i]:.6g} to beta={b[i + 1]:.6g} "
                f"({a[i]:.9g} -> {a[i + 1]:.9g})"
            )
        for i in range(1, len(self.points) - 1):
            span = c[i + 1] - c[i - 1]
            if span <= 1e-12:
                continue
            chord = a[i - 1] + (a[i + 1] - a[i - 1]) * (c[i] - c[i - 1]) / span
            if a[i] < chord - slack:
                errors.append(
                    f"accuracy dips below the chord at beta={b[i]:.6g} "
                    f"({a[i]:.9g} < {chord:.9g})"
                )
        return errors


def _check_space(fingerprint: str, space: MeaningSpace) -> None:
    """Reject a space other than the one a frontier was computed on."""
    if fingerprint != space.fingerprint:
        raise FingerprintMismatchError(
            "frontier was computed on a different meaning space "
            f"({fingerprint[:12]}... vs {space.fingerprint[:12]}...)"
        )


# ---------------------------------------------------------------------------
# array-level machinery


@dataclass
class _SolveState:
    q: np.ndarray
    labels: np.ndarray
    qw: np.ndarray
    complexity: float
    accuracy: float
    objective: float
    iterations: int
    converged: bool
    pruned: bool  # some evaluation dropped a word


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
    """q from a normalised log-encoder."""
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

    @classmethod
    def for_space(cls, space: MeaningSpace) -> "_Workspace":
        p = space.require_need().mass
        reps = space.representations
        return cls(p, reps, _log(space.prior_representation), np.sum(reps * _log(reps), axis=1))


@dataclass
class _Step:
    """An encoder, its statistics, and the plain update it leads to."""

    q: np.ndarray
    labels: np.ndarray
    qw: np.ndarray
    mhat: np.ndarray
    complexity: float
    accuracy: float
    objective: float
    g: np.ndarray  # log-encoder after one plain update
    f: np.ndarray  # residual: g minus the log-encoder of q
    residual: float  # Fisher norm of f
    bits: float  # bound on |dC| and |dA| in bits per unit Fisher norm
    round_off: float  # Fisher norm of the rounding error of the update
    pruned: bool

    def state(self, iterations: int, converged: bool, pruned: bool) -> _SolveState:
        return _SolveState(self.q, self.labels, self.qw, self.complexity, self.accuracy,
                           self.objective, iterations, converged, pruned)


def _plain_update(ws: _Workspace, x: np.ndarray, labels: np.ndarray, beta: float,
                  prune: float) -> _Step:
    """Prune light words, evaluate the normalised log-encoder x (C, A, F),
    and take one plain update, with what the stopping rule needs of it."""
    q = _exp(x)
    # Few n x k arrays are alive at once: the first solve of a sweep, at
    # full width, sets the sweep's peak memory.
    qw, weights, mhat = _listener(ws.p, q, ws.reps)  # weights: p(m, w), the Fisher weights
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
    # dC / dlog q(w|m) is x - log q(w) in nats, up to row constants
    bits = _centred_norm(weights, q, x - log_qw[None, :])
    lh = _log(mhat)
    a = float(_accuracy(qw, mhat, lh, ws.m0_log)) / _LN2
    dist = _distortion(ws.reps, ws.self_nats, lh)
    del lh
    # dA / dlog q(w|m) is -dist / ln 2 up to row constants
    bits = max(bits, _centred_norm(weights, q, dist)) / _LN2
    g = dist * -beta
    g += log_qw[None, :]
    # The update forms log q(w) - beta * (self - cross); its rounding error
    # scales with the size of those terms, not with the size of the result.
    scale = np.subtract(ws.self_nats[:, None], dist, out=dist)  # reuses dist
    np.abs(scale, out=scale)
    np.minimum(scale, 1e100, out=scale)
    scale += np.abs(ws.self_nats)[:, None]
    scale *= beta
    scale += np.abs(log_qw)[None, :]
    round_off = _ROUND_OFF_ULPS * _EPS * _fisher_norm(weights, scale)
    del dist, scale, weights
    g = _normalized(g)
    f = g - x
    residual = _fisher_norm(ws.p[:, None] * q, f)
    return _Step(q, labels, qw, mhat, c, a, c - beta * a, g, f, residual, bits, round_off,
                 pruned)


def _fisher_norm(weights: np.ndarray, dx: np.ndarray) -> float:
    """sqrt(sum_mw p(m) q(w|m) dx^2), the local metric of the encoder."""
    return float(np.sqrt(np.einsum("ij,ij,ij->", weights, dx, dx)))


def _centred_norm(weights: np.ndarray, q: np.ndarray, grad: np.ndarray) -> float:
    """Fisher norm of grad minus its row means under q, over entries q > 0."""
    g = np.minimum(grad, 1e100)
    g[q == 0] = 0.0
    g -= np.einsum("ij,ij->i", q, g)[:, None]
    return _fisher_norm(weights, g)


class _Anderson:
    """Anderson mixing (Walker & Ni, 2011) over the last few log-encoders.

    Keeps the differences of successive residuals f = G(x) - x and of
    successive updates G(x); ``mix`` returns G(x) minus the combination of
    update differences whose residual differences best cancel f. The
    differences live in two preallocated single-precision ring buffers:
    single precision is enough for the mixing coefficients, and the buffers
    keep the solver's memory flat.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.last: tuple[np.ndarray, np.ndarray] | None = None
        self.count = 0
        self.d_res = self.d_map = None

    @property
    def depth(self) -> int:
        return min(self.count, _ANDERSON_DEPTH)

    def push(self, f: np.ndarray, g: np.ndarray) -> None:
        if self.last is not None:
            if self.d_res is None or self.d_res.shape[1] != f.size:
                self.d_res = np.empty((_ANDERSON_DEPTH, f.size), np.float32)
                self.d_map = np.empty((_ANDERSON_DEPTH, f.size), np.float32)
            i = self.count % _ANDERSON_DEPTH
            np.subtract(f.ravel(), self.last[0].ravel(), out=self.d_res[i], casting="same_kind")
            np.subtract(g.ravel(), self.last[1].ravel(), out=self.d_map[i], casting="same_kind")
            self.count += 1
        self.last = (f, g)

    def mix(self, weights: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Mixed log-encoder; weights are the Fisher weights p(m) q(w|m)."""
        m = self.depth
        res, maps = self.d_res[:m], self.d_map[:m]
        gram = np.zeros((m, m))
        rhs = np.zeros(m)
        w, fr = weights.ravel(), f.ravel()
        # blocks of entries keep the double-precision copies small
        for a in range(0, w.size, _MIX_BLOCK):
            block = res[:, a:a + _MIX_BLOCK].astype(np.float64)
            weighted = block * w[a:a + _MIX_BLOCK]
            gram += weighted @ block.T
            rhs += weighted @ fr[a:a + _MIX_BLOCK]
        # least squares in the Fisher norm, on unit-scaled columns
        scale = np.sqrt(np.diag(gram))
        scale[scale == 0] = 1.0
        coef = np.linalg.lstsq(gram / np.outer(scale, scale), rhs / scale,
                               rcond=_GRAM_RCOND)[0] / scale
        out = g.copy()
        flat = out.ravel()
        for a in range(0, flat.size, _MIX_BLOCK):
            flat[a:a + _MIX_BLOCK] -= coef @ maps[:, a:a + _MIX_BLOCK].astype(np.float64)
        return out


def _fixed_point_loop(ws: _Workspace, q: np.ndarray, labels: np.ndarray, beta: float,
                      config: SolverConfig, prune: float) -> _SolveState:
    """Iterate the update map at one beta from the encoder q.

    Steps are Anderson-mixed, except that a run of plain updates confirms
    a candidate stop, and that a mixed step which raises F (beyond its
    rounding) is replaced by the plain step. The stopping rule is described
    in the module docstring. Duplicate words, looked for at a candidate stop
    and 16, 32, 64, ... evaluations into a pass, leave directions in which
    nothing moves and which slow the mixing down: they are merged and a
    fresh pass starts on the merged encoder. At ``max_iterations``
    evaluations over all passes the last evaluated state is returned.
    """
    tol, budget = config.convergence_tol, config.max_iterations
    evals = 0
    pruned = False
    while True:
        # A fresh pass: new Anderson history, run, rho and checkpoints; the
        # finished pass's arrays go before the merged encoder is evaluated.
        s = s_new = None
        accel = _Anderson()
        run: list[float] = []  # residuals along the current run of plain updates
        rho = 0.0  # largest steady contraction ratio of the plain update seen
        start = evals
        next_check = _DUPLICATE_CHECK
        s = _plain_update(ws, _log_encoder(q), labels, beta, prune)
        evals += 1
        while True:
            pruned |= s.pruned
            checkpoint = evals - start >= next_check
            if checkpoint:
                next_check *= 2
            run.append(s.residual)
            steady = False
            if len(run) >= 3 and run[-3] > 0 and run[-2] > 0:
                r1, r2 = run[-2] / run[-3], run[-1] / run[-2]
                steady = r2 < 1 and abs(r2 - r1) <= _STEADY_SPREAD * (1 - r2)
                if steady:
                    rho = max(rho, r2)
            tail = s.bits * s.residual / (1 - rho)  # Aitken estimate of the further move of C and A
            stop = s.residual <= s.round_off or (steady and tail < tol)
            merged = _merge_duplicate_words(s) if checkpoint or stop else None
            if merged is not None and evals < budget:
                break
            if stop and merged is None:
                return s.state(evals, True, pruned)
            if evals >= budget:
                return s.state(evals, False, pruned)
            accel.push(s.f, s.g)
            s_new = None
            if accel.depth and not (tail < tol and len(run) <= _MAX_CONFIRM_STEPS):
                s_new = _plain_update(ws, _normalized(accel.mix(ws.p[:, None] * s.q, s.f, s.g)),
                                      s.labels, beta, prune)
                evals += 1
                run = []
                if s_new.objective > s.objective + _F_SLACK * (abs(s.complexity)
                                                               + beta * abs(s.accuracy)):
                    pruned |= s_new.pruned
                    s_new = None  # the mixed step raised F: take the plain step instead
                    accel.clear()
                    run = [s.residual]
                    if evals >= budget:
                        return s.state(evals, False, pruned)
            if s_new is None:
                s_new = _plain_update(ws, s.g, s.labels, beta, prune)
                evals += 1
            if s_new.pruned:
                accel.clear()
                run = []
            s = s_new
        q, labels = merged


def _merge_duplicate_words(s: _Step):
    """Union words whose reconstructions agree within DUPLICATE_ROW_TOL."""
    k = s.q.shape[1]
    if k <= 1:
        return None
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    mhat = s.mhat
    for i in range(k - 1):
        close = np.nonzero(np.max(np.abs(mhat[i + 1:] - mhat[i]), axis=1) < DUPLICATE_ROW_TOL)[0]
        for off in close:
            ri, rj = find(i), find(int(off) + i + 1)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    roots = [find(i) for i in range(k)]
    if len(set(roots)) == k:
        return None
    groups: dict[int, list[int]] = {}
    for i, r in enumerate(roots):
        groups.setdefault(r, []).append(i)
    order = sorted(groups)  # keep original column order via lowest member index
    cols = []
    labels = []
    for r in order:
        members = groups[r]
        cols.append(s.q[:, members].sum(axis=1))
        rep = members[int(np.argmax(s.qw[members]))]
        labels.append(s.labels[rep])
    return np.stack(cols, axis=1), np.asarray(labels)


def _solve_arrays(ws: _Workspace, q0: np.ndarray, labels0: np.ndarray, beta: float,
                  config: SolverConfig) -> _SolveState:
    state = _fixed_point_loop(ws, q0, labels0, beta, config, config.mass_prune_threshold)
    # Unless some evaluation pruned a word, the unpruned run would repeat this one.
    if state.pruned and config.mass_prune_threshold > 0 and state.objective > (
            _plain_update(ws, _log_encoder(q0), labels0, beta, 0.0).objective + 1e-9):
        # pruning lifted the objective past the warm start; retry unpruned
        alt = _fixed_point_loop(ws, q0, labels0, beta, config, 0.0)
        if alt.objective < state.objective:
            state = alt
    return state


def _make_point(state: _SolveState, beta: float, word_names: tuple[str, ...],
                meaning_labels: tuple[str, ...]) -> FrontierPoint:
    labels = tuple(word_names[i] for i in state.labels)
    encoder = NamingSystem(state.q, labels, meaning_labels)
    return FrontierPoint(
        beta=float(beta),
        complexity_bits=state.complexity,
        accuracy_bits=state.accuracy,
        objective_bits=state.objective,
        effective_k=int(np.sum(state.qw > DEFAULT_CATEGORY_MASS_THRESHOLD)),
        encoder=encoder,
        word_mass=state.qw,
        converged=state.converged,
        iterations=state.iterations,
    )


def solve_at_beta(space: MeaningSpace, beta: float, init: NamingSystem,
                  config: SolverConfig | None = None) -> FrontierPoint:
    """Solve the tradeoff at one beta from a caller-supplied initial encoder.

    The objective of the result never exceeds the objective of ``init``;
    non-convergence within the iteration budget is reported through the
    ``converged`` flag, not an exception.
    """
    if beta < 0:
        raise ValidationError([f"beta must be >= 0, got {beta}"])
    if init.meaning_labels != space.meaning_labels:
        raise ValidationError(["init encoder meaning labels do not match the space"])
    if config is None:
        config = SolverConfig(beta_grid=(float(beta),) if beta > 0 else (0.0,))
    ws = _Workspace.for_space(space)
    state = _solve_arrays(ws, init.encoder, np.arange(init.num_words), beta, config)
    return _make_point(state, beta, init.word_labels, space.meaning_labels)


def anneal_frontier(space: MeaningSpace, config: SolverConfig) -> Frontier:
    """Sweep the beta grid from high to low, warm-starting each beta from
    its neighbor.

    The sweep starts from the identity encoder at the largest beta, where
    the optimum is near-deterministic, and tracks the solution branch
    downward as clusters merge away (deterministic annealing, Rose 1998).

    A single sweep shows hysteresis (Zaslavsky & Tishby, 2019): it crosses
    cluster-merge transitions late, and on sparse spaces it can keep words
    whose supports the update cannot merge, a metastable branch with F far
    above the optimum. So one reverse pass follows, from low to high beta:
    it re-solves every point from the neighbor it has just passed and keeps
    the candidate when its objective is lower, so each point is the better
    of the two branches that reach it.
    """
    ws = _Workspace.for_space(space)
    n_m = space.num_meanings
    grid = config.beta_grid
    word_names = tuple(f"w{i:03d}" for i in range(n_m))

    q, labels = np.eye(n_m), np.arange(n_m)
    states: list[_SolveState | None] = [None] * len(grid)
    for gi in range(len(grid) - 1, -1, -1):
        states[gi] = _solve_arrays(ws, q, labels, grid[gi], config)
        q, labels = states[gi].q, states[gi].labels

    for gi in range(1, len(grid)):  # the reverse pass
        src = states[gi - 1]
        cand = _solve_arrays(ws, src.q, src.labels, grid[gi], config)
        if cand.objective < states[gi].objective - 1e-15:
            states[gi] = cand

    points = tuple(
        _make_point(states[gi], grid[gi], word_names, space.meaning_labels)
        for gi in range(len(grid))
    )
    return Frontier(points, space.fingerprint, config)


def fixed_point_delta(space: MeaningSpace, point: FrontierPoint) -> float:
    """|change in F_beta| after one extra plain update of a recorded point.

    F is stationary at a fixed point, so this is a weak check: it stays tiny
    while C and A still drift. What pins C and A is the solver's stopping
    rule; to test it, keep iterating from the point at a tight tolerance
    and compare complexity and accuracy.
    """
    ws = _Workspace.for_space(space)
    labels = np.arange(point.encoder.num_words)
    s0 = _plain_update(ws, _log_encoder(point.encoder.encoder), labels, point.beta, 0.0)
    s1 = _plain_update(ws, s0.g, s0.labels, point.beta, 0.0)
    return abs(s1.objective - s0.objective)


def effective_category_count(point: FrontierPoint,
                             threshold: float = DEFAULT_CATEGORY_MASS_THRESHOLD) -> int:
    """Number of words whose marginal mass strictly exceeds the threshold."""
    return int(np.sum(point.word_mass > threshold))


def select_most_informative_with_k(frontier: Frontier, k: int,
                                   threshold: float = DEFAULT_CATEGORY_MASS_THRESHOLD
                                   ) -> FrontierPoint:
    """Highest-accuracy frontier point with exactly k effective categories."""
    if not frontier.points:
        raise ValidationError(["frontier has no points"])
    best: FrontierPoint | None = None
    seen: set[int] = set()
    for point in frontier.points:  # ascending beta; ties keep the smaller beta
        count = effective_category_count(point, threshold)
        seen.add(count)
        if count == k and (best is None or point.accuracy_bits > best.accuracy_bits):
            best = point
    if best is None:
        raise CategorySelectionError(
            f"no frontier point with {k} effective categories "
            f"(available: {sorted(seen)})"
        )
    return best
