"""Evaluating naming systems against a frontier.

A system is scored by sliding along the frontier grid: at each beta the
per-beta-normalized objective gap eps(beta) = (F_beta[q] - F*_beta) / beta is
computed, and the minimizing grid point yields the fitted beta, the
inefficiency, and the matched optimal encoder for the gNID comparison.
The fit takes a stack of encoders along a leading axis and scores them all
with one pass of the array kernels of ``measures``: ``fit_beta`` fits a
stack of one, and permutation baselines fit meaning-shuffled variants of
the system in stacked chunks. Mixture complexity scores a two-language joint
encoder over a language-tagged (disjoint) word alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Distribution,
    MeaningSpace,
    NamingSystem,
    ValidationError,
)
from .measures import (
    _LN2,
    _accuracy,
    _align,
    _complexity,
    _listener,
    _log,
    complexity,
    mutual_information_from_joint,
)
from .solver import (
    DEFAULT_CATEGORY_MASS_THRESHOLD,
    Frontier,
    FrontierPoint,
    _check_space,
    select_most_informative_with_k,
)

# Entries of float64 (256 KB) in the largest stacked temporary of a baseline
# chunk, an (n, k) or (k, U) array per sample. Chunks four times larger are
# no faster, and they raise the peak memory of a 10,000-sample baseline on
# 192 meanings by 4 MB.
_STACK_ENTRIES = 2**15


@dataclass(frozen=True)
class EfficiencyReport:
    """Where one naming system sits relative to the theoretical limit."""

    complexity_bits: float
    accuracy_bits: float
    fitted_beta: float
    inefficiency_bits: float
    gnid: float
    matched_point: FrontierPoint
    matched_index: int

    def to_json_dict(self) -> dict:
        p = self.matched_point
        return {
            "complexity_bits": self.complexity_bits,
            "accuracy_bits": self.accuracy_bits,
            "fitted_beta": self.fitted_beta,
            "inefficiency_bits": self.inefficiency_bits,
            "gnid": self.gnid,
            "matched_point": {
                "index": self.matched_index,
                "beta": p.beta,
                "complexity_bits": p.complexity_bits,
                "accuracy_bits": p.accuracy_bits,
                "objective_bits": p.objective_bits,
                "effective_k": p.effective_k,
            },
        }


@dataclass(frozen=True)
class BaselineSummary:
    """Mean +/- population SD of inefficiency and gNID over permuted systems."""

    num_samples: int
    inefficiency_mean: float
    inefficiency_sd: float
    gnid_mean: float
    gnid_sd: float
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "num_samples": self.num_samples,
            "inefficiency_mean": self.inefficiency_mean,
            "inefficiency_sd": self.inefficiency_sd,
            "gnid_mean": self.gnid_mean,
            "gnid_sd": self.gnid_sd,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CategoryProfile:
    """One category: its mass, dominant meanings, and dominant features."""

    word_label: str
    mass: float
    top_meanings: tuple[tuple[str, float], ...]
    top_features: tuple[tuple[str, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "word": self.word_label,
            "mass": self.mass,
            "top_meanings": [[lab, p] for lab, p in self.top_meanings],
            "top_features": [[lab, p] for lab, p in self.top_features],
        }


class _StackFit:
    """Fits stacks of encoders, (B, n, k) arrays over one space, against one
    frontier; every check on the space and the frontier runs once, here."""

    def __init__(self, space: MeaningSpace, frontier: Frontier):
        _check_space(frontier.space_fingerprint, space)
        if not frontier.points:
            raise ValidationError(["frontier has no points"])
        self.index = np.array([i for i, p in enumerate(frontier.points) if p.beta > 0])
        if not self.index.size:
            raise ValidationError(["frontier has no points with beta > 0"])
        self.betas = np.array([frontier.points[i].beta for i in self.index])
        self.objectives = np.array([frontier.points[i].objective_bits for i in self.index])
        self.points = frontier.points
        self.p = space.require_need().mass
        self.reps = space.representations
        self.log_m0 = _log(space.prior_representation)
        self.self_information: dict[int, float] = {}  # I(W2;W2') per matched point

    def __call__(self, enc: np.ndarray) -> tuple[np.ndarray, ...]:
        """Complexity, accuracy, eps, matched point index and gNID, one
        entry per encoder."""
        qw, joint, mhat = _listener(self.p, enc, self.reps)
        c = _complexity(joint, _log(enc), _log(qw)) / _LN2
        a = _accuracy(qw, mhat, _log(mhat), self.log_m0) / _LN2
        # one row per encoder, one column per point with beta > 0; argmin
        # takes the first minimum, so ties go to the smaller beta
        eps = (c[:, None] - self.betas * a[:, None] - self.objectives) / self.betas
        best = self.index[np.argmin(eps, axis=1)]
        g = np.empty(len(enc))
        for i in np.unique(best):
            rows = best == i
            matched = self.points[i].encoder.encoder
            if i not in self.self_information:
                self.self_information[i] = float(_self_information(matched, self.p))
            g[rows] = _gnid(enc[rows], matched, self.p, self.self_information[i])
        return c, a, eps.min(axis=1), best, g


def fit_beta(sys: NamingSystem, space: MeaningSpace, frontier: Frontier) -> EfficiencyReport:
    """Fit beta_l by minimizing eps(beta) over the frontier grid.

    Ties go to the smaller beta. The gNID is measured against the matched
    point's encoder. This is the permutation baseline's fit, on a stack of
    one encoder.
    """
    fit = _StackFit(space, frontier)
    _align(sys, space)
    c, a, eps, index, g = fit(sys.encoder[None])
    point = frontier.points[index[0]]
    return EfficiencyReport(
        complexity_bits=float(c[0]),
        accuracy_bits=float(a[0]),
        fitted_beta=point.beta,
        inefficiency_bits=float(eps[0]),
        gnid=float(g[0]),
        matched_point=point,
        matched_index=int(index[0]),
    )


def _self_information(enc: np.ndarray, p: np.ndarray) -> float | np.ndarray:
    """I(W;W') in bits of two independent draws from each encoder."""
    return mutual_information_from_joint(np.swapaxes(enc, -1, -2) @ (p[:, None] * enc))


def _gnid(enc: np.ndarray, other: np.ndarray, p: np.ndarray, other_self: float) -> np.ndarray:
    """gNID of each encoder of a (B, n, k) stack against one encoder whose
    self-information is ``other_self`` bits."""
    cross = mutual_information_from_joint(np.swapaxes(enc, -1, -2) @ (p[:, None] * other))
    denom = np.maximum(_self_information(enc, p), other_self)
    informative = denom > 1e-15
    ratio = np.divide(cross, denom, out=np.zeros_like(denom), where=informative)
    return np.where(informative, 1.0 - ratio, 0.0)


def gnid(sys1: NamingSystem, sys2: NamingSystem, need: Distribution) -> float:
    """Generalized NID between two systems over a shared meaning set.

    1 - I(W1;W2) / max(I(W1;W1'), I(W2;W2')), all joints taken through the
    need distribution; the self-joints use two independent draws of the same
    system. Returns 0 when both self-informations vanish (two trivially
    identical non-informative systems).

    The value is at most 1 and is non-negative whenever either system is
    deterministic; for two noisy systems whose noise aligns, the cross
    information can exceed both self-informations and the value dips below
    zero. No clamping is applied.
    """
    if sys1.meaning_labels != sys2.meaning_labels:
        raise ValidationError(["systems are defined over different meaning sets"])
    if len(need) != sys1.num_meanings:
        raise ValidationError(
            [f"need has {len(need)} entries, systems have {sys1.num_meanings} meanings"]
        )
    # canonical argument order makes gnid(a, b) bit-identical to gnid(b, a)
    first, second = sorted(
        (sys1, sys2),
        key=lambda s: (s.num_words, s.word_labels, s.encoder.tobytes()),
    )
    p = need.mass
    other_self = _self_information(second.encoder, p)
    return float(_gnid(first.encoder[None], second.encoder, p, other_self)[0])


def permutation_baseline(sys: NamingSystem, space: MeaningSpace, frontier: Frontier,
                         num_samples: int, seed: int,
                         include_identity: bool = False) -> BaselineSummary:
    """Fit hypothetical systems q'(w|m) = q(w|pi(m)) for random permutations pi.

    Each sample draws its permutation from an independent stream keyed by the
    sample index, so the summary is reproducible regardless of evaluation
    order. With ``include_identity`` sample 0 uses the identity permutation
    (a plumbing diagnostic: its fit must equal the unpermuted system's).

    The samples are fitted in chunks: one stacked (B, n, k) array of
    permuted encoders at a time, sized from the shapes so that the largest
    stacked temporary stays near 256 KB. The chunking decides only how many
    samples share a stack, never which permutation a sample gets.
    """
    if num_samples < 1:
        raise ValidationError([f"num_samples must be >= 1, got {num_samples}"])
    if seed < 0:
        raise ValidationError([f"seed must be >= 0, got {seed}"])
    fit = _StackFit(space, frontier)
    _align(sys, space)
    n, k = sys.encoder.shape
    chunk = max(1, _STACK_ENTRIES // max(n * k, k * space.num_universe))

    def permutation(i: int) -> np.ndarray:
        if include_identity and i == 0:
            return np.arange(n)
        stream = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        return np.random.default_rng(stream).permutation(n)

    eps = np.empty(num_samples)
    gn = np.empty(num_samples)
    for start in range(0, num_samples, chunk):
        stop = min(start + chunk, num_samples)
        perms = np.array([permutation(i) for i in range(start, stop)])
        _, _, eps[start:stop], _, gn[start:stop] = fit(sys.encoder[perms])
    return BaselineSummary(
        num_samples=num_samples,
        inefficiency_mean=float(eps.mean()),
        inefficiency_sd=float(eps.std()),
        gnid_mean=float(gn.mean()),
        gnid_sd=float(gn.std()),
        seed=seed,
    )


def mixture_complexity(sys_a: NamingSystem, sys_b: NamingSystem, need: Distribution,
                       weight: float = 0.5) -> float:
    """Complexity of the joint encoder that speaks language A with
    probability ``weight`` and language B otherwise.

    Word alphabets are made disjoint by language tagging, so the result
    equals weight * I_A + (1 - weight) * I_B exactly.
    """
    if sys_a.meaning_labels != sys_b.meaning_labels:
        raise ValidationError(["systems are defined over different meaning sets"])
    if not 0.0 <= weight <= 1.0:
        raise ValidationError([f"weight must be in [0, 1], got {weight}"])
    words = tuple(f"a:{w}" for w in sys_a.word_labels) + tuple(
        f"b:{w}" for w in sys_b.word_labels
    )
    joint = np.hstack([weight * sys_a.encoder, (1.0 - weight) * sys_b.encoder])
    return complexity(NamingSystem(joint, words, sys_a.meaning_labels), need)


def category_profiles(point: FrontierPoint, space: MeaningSpace, top_n: int = 5,
                      threshold: float = DEFAULT_CATEGORY_MASS_THRESHOLD
                      ) -> tuple[CategoryProfile, ...]:
    """One profile per above-threshold word, heaviest category first.

    Meanings are ranked by q(m|w) and features by the reconstruction
    m_hat_w(u); ties keep the original index order. Lists are capped at the
    number of available meanings/features.
    """
    sys = point.encoder
    _align(sys, space)
    qw, joint, mhat = _listener(space.require_need().mass, sys.encoder, space.representations)
    profiles = []
    for j in np.argsort(-qw, kind="stable"):
        if qw[j] <= threshold:
            continue
        post = joint[:, j] / qw[j]
        m_top = np.argsort(-post, kind="stable")[:top_n]
        f_top = np.argsort(-mhat[j], kind="stable")[:top_n]
        profiles.append(CategoryProfile(
            word_label=sys.word_labels[j],
            mass=float(qw[j]),
            top_meanings=tuple((space.meaning_labels[i], float(post[i])) for i in m_top),
            top_features=tuple((space.universe_labels[i], float(mhat[j, i])) for i in f_top),
        ))
    return tuple(profiles)


@dataclass(frozen=True)
class HierarchyLayer:
    k: int
    beta: float
    complexity_bits: float
    accuracy_bits: float
    profiles: tuple[CategoryProfile, ...]


@dataclass(frozen=True)
class HierarchyReport:
    """Category hierarchy read off the frontier, one layer per requested k."""

    layers: tuple[HierarchyLayer, ...]

    def to_json_dict(self) -> dict:
        return {
            "layers": [
                {
                    "k": layer.k,
                    "beta": layer.beta,
                    "complexity_bits": layer.complexity_bits,
                    "accuracy_bits": layer.accuracy_bits,
                    "categories": [prof.to_json_dict() for prof in layer.profiles],
                }
                for layer in self.layers
            ]
        }

    def to_text(self) -> str:
        lines = []
        for layer in self.layers:
            lines.append(
                f"k={layer.k}  beta={layer.beta:.6g}  "
                f"complexity={layer.complexity_bits:.4f} bits  "
                f"accuracy={layer.accuracy_bits:.4f} bits"
            )
            for prof in layer.profiles:
                lines.append(f"  [{prof.word_label}] mass={prof.mass:.4f}")
                lines.append(
                    "    classes:  "
                    + ", ".join(f"{lab} ({p:.3f})" for lab, p in prof.top_meanings)
                )
                lines.append(
                    "    features: "
                    + ", ".join(f"{lab} ({p:.3f})" for lab, p in prof.top_features)
                )
            lines.append("")
        return "\n".join(lines)


def hierarchy_report(frontier: Frontier, ks, space: MeaningSpace, top_n: int = 5,
                     threshold: float = DEFAULT_CATEGORY_MASS_THRESHOLD) -> HierarchyReport:
    """Most informative k-category system for each requested k, ascending."""
    layers = []
    for k in sorted(set(int(k) for k in ks)):
        point = select_most_informative_with_k(frontier, k, threshold)
        layers.append(HierarchyLayer(
            k=k,
            beta=point.beta,
            complexity_bits=point.complexity_bits,
            accuracy_bits=point.accuracy_bits,
            profiles=category_profiles(point, space, top_n, threshold),
        ))
    return HierarchyReport(tuple(layers))
