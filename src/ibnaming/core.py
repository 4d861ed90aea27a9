"""Probability types for discrete communication analyses.

A meaning space holds one mental representation per meaning, each a
distribution m_c(u) over a shared feature universe, plus a need
distribution p(m) over the meanings. A naming system is a row-stochastic
encoder q(w|m) from meanings to words. Everything downstream (information
measures, the frontier solver, efficiency evaluation) consumes these types.

Construction conventions: the ``create`` classmethods validate untrusted
input on one private float64 copy: they zero out sub-1e-15 noise, validate
the frozen copy as the returned instance, then renormalize rows that are
within tolerance of 1. Direct dataclass construction skips value checks and
is meant for internal, already-normalized arrays; it keeps a read-only
float64 array that owns its data and copies anything else, so a writeable
array or a view is never aliased. ``validate_meaning_space`` and
``validate_naming_system`` report violations on any instance without
raising.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

ROW_SUM_TOL = 1e-9
# Entries smaller than this are denormal noise from file round-trips and are
# treated as exact zeros before any log is taken.
PROB_FLOOR = 1e-15
# Rows already summing to 1 within this are left bit-identical on load, so a
# write/read cycle preserves content hashes.
RENORM_SKIP_TOL = 1e-13


class IBNamingError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(IBNamingError):
    """Invalid probability object; carries the full list of violations."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _freeze(a, dtype=np.float64) -> np.ndarray:
    """``a`` itself if it is a read-only ``dtype`` array owning its data,
    otherwise a read-only copy of it."""
    if (type(a) is np.ndarray and a.dtype == dtype and a.flags.owndata
            and not a.flags.writeable):
        return a
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _checked(cls, a, ndim: int, validate, *rest):
    """``cls(a, *rest)`` from untrusted input, on one private copy of ``a``:
    sub-PROB_FLOOR magnitudes are zeroed, every violation ``validate`` finds
    is raised, then rows off 1 by more than RENORM_SKIP_TOL are divided out."""
    out = np.array(a, dtype=np.float64, ndmin=ndim)
    if not out.flags.owndata:  # ndmin viewed a lower-dimensional input
        out = out.copy()
    out[(out < PROB_FLOOR) & (out > -PROB_FLOOR)] = 0.0
    out.flags.writeable = False
    made = cls(out, *rest)
    errors = validate(made)
    if errors:
        raise ValidationError(errors)
    sums = out.sum(axis=-1, keepdims=True)
    out.flags.writeable = True
    np.divide(out, sums, out=out, where=np.abs(sums - 1.0) > RENORM_SKIP_TOL)
    out.flags.writeable = False
    return made


def _check_rows(matrix: np.ndarray, what: str, errors: list[str]) -> None:
    if not np.all(np.isfinite(matrix)):
        errors.append(f"{what} contains non-finite entries")
        return
    neg = np.argwhere(matrix < 0)
    for i, j in neg[:8]:
        errors.append(f"{what}[{i},{j}] = {matrix[i, j]:.6g} is negative")
    sums = matrix.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
    for i in bad[:8]:
        errors.append(f"{what} row {i} sums to {sums[i]:.6g}")


def _check_labels(labels: tuple[str, ...], n: int, what: str, errors: list[str]) -> None:
    if len(labels) != n:
        errors.append(f"{what}: {len(labels)} labels for {n} entries")
    if len(set(labels)) != len(labels):
        dup = sorted({x for x in labels if labels.count(x) > 1})
        errors.append(f"duplicate {what.rstrip('s')} {dup[0]!r}")


@dataclass(frozen=True)
class Distribution:
    """Probability mass over a labeled finite support."""

    mass: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "mass", _freeze(self.mass))
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return self.mass.shape[0]

    def validate(self) -> list[str]:
        errors: list[str] = []
        if self.mass.ndim != 1:
            return [f"mass must be a vector, got shape {self.mass.shape}"]
        if not np.all(np.isfinite(self.mass)):
            errors.append("mass contains non-finite entries")
        else:
            for i in np.nonzero(self.mass < 0)[0][:8]:
                errors.append(f"mass[{i}] = {self.mass[i]:.6g} is negative")
            s = self.mass.sum()
            if abs(s - 1.0) > ROW_SUM_TOL:
                errors.append(f"mass sums to {s:.6g}")
        _check_labels(self.labels, len(self), "labels", errors)
        return errors

    @classmethod
    def create(cls, mass, labels) -> "Distribution":
        """Validate untrusted input and renormalize the within-tolerance sum."""
        return _checked(cls, mass, 1, cls.validate, labels)

    @classmethod
    def uniform(cls, labels) -> "Distribution":
        labels = tuple(labels)
        n = len(labels)
        return cls(np.full(n, 1.0 / n), labels)


@dataclass(frozen=True)
class MeaningSpace:
    """Mental representations over a feature universe plus a need prior.

    ``representations`` has one row per meaning; row c is the distribution
    m_c(u) over the universe. ``need`` may be None while a space is under
    construction (e.g. straight out of similarity data) but must be attached
    before any information measure or solve.
    """

    representations: np.ndarray
    universe_labels: tuple[str, ...]
    meaning_labels: tuple[str, ...]
    need: Distribution | None = None

    def __post_init__(self):
        object.__setattr__(self, "representations", _freeze(self.representations))
        object.__setattr__(self, "universe_labels", tuple(self.universe_labels))
        object.__setattr__(self, "meaning_labels", tuple(self.meaning_labels))

    @property
    def num_meanings(self) -> int:
        return self.representations.shape[0]

    @property
    def num_universe(self) -> int:
        return self.representations.shape[1]

    def require_need(self) -> Distribution:
        if self.need is None:
            raise ValidationError(["meaning space has no need distribution attached"])
        return self.need

    @cached_property
    def prior_representation(self) -> np.ndarray:
        """m_0(u): the need-weighted average representation."""
        return _freeze(self.require_need().mass @ self.representations)

    @cached_property
    def mutual_information(self) -> float:
        """I(M;U) in bits, computed once per space."""
        from .measures import mutual_information_from_joint

        p = self.require_need().mass
        return mutual_information_from_joint(p[:, None] * self.representations)

    @cached_property
    def fingerprint(self) -> str:
        """Content hash binding frontiers to the exact space they were built on."""
        h = hashlib.sha256()
        h.update(b"meaning-space-v1")
        h.update(repr((self.num_meanings, self.num_universe)).encode())
        for lab in self.meaning_labels + self.universe_labels:
            h.update(lab.encode("utf-8") + b"\x1f")
        h.update(self.representations.tobytes())
        if self.need is None:
            h.update(b"need:none")
        else:
            h.update(self.need.mass.tobytes())
        return h.hexdigest()

    @classmethod
    def create(cls, representations, universe_labels, meaning_labels,
               need: Distribution | None = None) -> "MeaningSpace":
        return _checked(cls, representations, 2, validate_meaning_space,
                        universe_labels, meaning_labels, need)


@dataclass(frozen=True)
class NamingSystem:
    """Row-stochastic encoder q(w|m) with word and meaning labels."""

    encoder: np.ndarray
    word_labels: tuple[str, ...]
    meaning_labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "encoder", _freeze(np.atleast_2d(self.encoder)))
        object.__setattr__(self, "word_labels", tuple(self.word_labels))
        object.__setattr__(self, "meaning_labels", tuple(self.meaning_labels))

    @property
    def num_meanings(self) -> int:
        return self.encoder.shape[0]

    @property
    def num_words(self) -> int:
        return self.encoder.shape[1]

    @classmethod
    def create(cls, encoder, word_labels, meaning_labels) -> "NamingSystem":
        return _checked(cls, encoder, 2, validate_naming_system, word_labels, meaning_labels)


def validate_meaning_space(space: MeaningSpace) -> list[str]:
    """Collect every invariant violation; an empty list means ok."""
    errors: list[str] = []
    reps = space.representations
    if reps.ndim != 2 or reps.shape[0] < 1 or reps.shape[1] < 1:
        errors.append(f"representations must be a non-empty matrix, got shape {reps.shape}")
        return errors
    _check_rows(reps, "representations", errors)
    _check_labels(space.meaning_labels, space.num_meanings, "meaning labels", errors)
    _check_labels(space.universe_labels, space.num_universe, "universe labels", errors)
    if space.need is not None:
        errors += [f"need: {e}" for e in space.need.validate()]
        if len(space.need) != space.num_meanings:
            errors.append(
                f"need has {len(space.need)} entries for {space.num_meanings} meanings"
            )
    return errors


def validate_naming_system(sys: NamingSystem, space: MeaningSpace | None = None) -> list[str]:
    """Check row-stochasticity and, when a space is given, exact label alignment."""
    errors: list[str] = []
    enc = sys.encoder
    if enc.ndim != 2 or enc.shape[0] < 1 or enc.shape[1] < 1:
        errors.append(f"encoder must be a non-empty matrix, got shape {enc.shape}")
        return errors
    _check_rows(enc, "encoder", errors)
    _check_labels(sys.word_labels, sys.num_words, "word labels", errors)
    _check_labels(sys.meaning_labels, sys.num_meanings, "meaning labels", errors)
    if space is not None:
        errors += _alignment_errors(sys, space)
    return errors


def _alignment_errors(sys: NamingSystem, space: MeaningSpace) -> list[str]:
    """The first way the encoder's meaning rows differ from the space's, if any."""
    if sys.num_meanings != space.num_meanings:
        return [f"encoder has {sys.num_meanings} meanings, space has {space.num_meanings}"]
    if sys.meaning_labels != space.meaning_labels:
        for i, (a, b) in enumerate(zip(sys.meaning_labels, space.meaning_labels)):
            if a != b:
                return [f"meaning label mismatch at index {i}: {a!r} vs {b!r}"]
    return []


def marginal_word_distribution(sys: NamingSystem, need: Distribution) -> Distribution:
    """q(w) = sum_m p(m) q(w|m)."""
    if len(need) != sys.num_meanings:
        raise ValidationError(
            [f"need has {len(need)} entries, encoder has {sys.num_meanings} meanings"]
        )
    qw = need.mass @ sys.encoder
    return Distribution(qw / qw.sum(), sys.word_labels)
