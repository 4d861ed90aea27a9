"""Build meaning spaces, need priors, and naming systems from raw domain data.

Two ingestion routes mirror the two kinds of source material: similarity
judgments between objects (rows become softmax distributions over the object
set itself) and feature-norm tables (rows are conditional feature
probabilities, with a familiarity-based need). Naming systems come from
participant counts, and the least-informative prior ties a set of naming
systems back to a need distribution over meanings.

File formats (all UTF-8, header row required):
  similarity CSV   first column label, remaining columns scores, header labels
  naming TSV/CSV   columns meaning_label, word_label, count[, condition]
  feature CSV      first column class label, header feature labels, values in [0,1]
  familiarity CSV  columns class_label, score
  prior CSV        columns meaning_label, probability
  space CSV        header "meaning" + universe labels, one row per meaning
  encoder CSV      header "meaning" + word labels, one row per meaning
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    Distribution,
    IBNamingError,
    MeaningSpace,
    NamingSystem,
    ValidationError,
    _freeze,
)


class IterativeScalingError(IBNamingError):
    """The least-informative-prior fit failed to reach its residual target."""


@dataclass(frozen=True)
class SimilarityMatrix:
    """Square, symmetric similarity scores between domain objects."""

    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        object.__setattr__(self, "labels", tuple(self.labels))

    @classmethod
    def create(cls, values, labels) -> "SimilarityMatrix":
        v = np.atleast_2d(np.asarray(values, dtype=np.float64))
        errors = []
        if v.shape[0] != v.shape[1]:
            errors.append(f"similarity matrix must be square, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            errors.append("similarity matrix contains non-finite entries")
        elif v.shape[0] == v.shape[1] and not np.allclose(v, v.T, rtol=0, atol=1e-9):
            i, j = np.argwhere(np.abs(v - v.T) > 1e-9)[0]
            errors.append(f"similarity matrix is asymmetric at ({i},{j})")
        labels = tuple(labels)
        if len(labels) != v.shape[0]:
            errors.append(f"{len(labels)} labels for {v.shape[0]} rows")
        if errors:
            raise ValidationError(errors)
        return cls(v, labels)


@dataclass(frozen=True)
class NamingCounts:
    """Raw (meaning, word, count) naming-task tallies for one condition."""

    rows: tuple[tuple[str, str, int], ...]
    condition: str | None = None

    @classmethod
    def create(cls, rows, condition: str | None = None) -> "NamingCounts":
        clean = []
        errors = []
        for m, w, c in rows:
            c = int(c)
            if c < 0:
                errors.append(f"negative count {c} for ({m!r}, {w!r})")
            clean.append((str(m).strip(), str(w).strip(), c))
        counts = cls(tuple(clean), condition)
        for m, t in counts.meaning_totals().items():
            if t < 1:
                errors.append(f"meaning {m!r} has zero total count")
        if not clean:
            errors.append("no count rows")
        if errors:
            raise ValidationError(errors)
        return counts

    def meaning_totals(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for m, _, c in self.rows:
            totals[m] = totals.get(m, 0) + c
        return totals


@dataclass(frozen=True)
class FeatureTable:
    """Conditional feature probabilities p(u|c) plus per-class familiarity."""

    values: np.ndarray
    class_labels: tuple[str, ...]
    feature_labels: tuple[str, ...]
    familiarity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        object.__setattr__(self, "familiarity", _freeze(self.familiarity))
        object.__setattr__(self, "class_labels", tuple(self.class_labels))
        object.__setattr__(self, "feature_labels", tuple(self.feature_labels))

    @classmethod
    def create(cls, values, class_labels, feature_labels, familiarity) -> "FeatureTable":
        v = np.atleast_2d(np.asarray(values, dtype=np.float64))
        fam = np.asarray(familiarity, dtype=np.float64)
        errors = []
        if not np.all(np.isfinite(v)):
            errors.append("feature table contains non-finite entries")
        elif np.any(v < 0) or np.any(v > 1):
            i, j = np.argwhere((v < 0) | (v > 1))[0]
            errors.append(f"feature probability out of [0,1] at ({i},{j}): {v[i, j]:.6g}")
        if len(tuple(class_labels)) != v.shape[0]:
            errors.append(f"{len(tuple(class_labels))} class labels for {v.shape[0]} rows")
        if len(tuple(feature_labels)) != v.shape[1]:
            errors.append(f"{len(tuple(feature_labels))} feature labels for {v.shape[1]} columns")
        if fam.shape != (v.shape[0],):
            errors.append("familiarity must hold one score per class")
        elif np.any(~np.isfinite(fam)) or np.any(fam < 0):
            errors.append("familiarity scores must be finite and >= 0")
        if errors:
            raise ValidationError(errors)
        return cls(v, tuple(class_labels), tuple(feature_labels), fam)


# ---------------------------------------------------------------------------
# construction operations


def meaning_space_from_similarity(simm: SimilarityMatrix, gamma: float | None = None,
                                  include_diagonal: bool = True) -> MeaningSpace:
    """Softmax rows m_c(u) = exp(gamma * sim(c,u)) / Z_c over the object set.

    When gamma is not given it defaults to the reciprocal of the population
    standard deviation of the similarity scores (all n^2 entries; set
    ``include_diagonal=False`` to leave the diagonal out of that estimate).
    The need distribution is left unset.
    """
    v = simm.values
    if gamma is None:
        pool = v if include_diagonal else v[~np.eye(v.shape[0], dtype=bool)]
        sd = float(np.std(pool))
        if sd <= 0:
            raise ValidationError(
                ["similarity matrix has zero standard deviation; pass gamma explicitly"]
            )
        gamma = 1.0 / sd
    logits = gamma * v
    logits = logits - logits.max(axis=1, keepdims=True)
    rows = np.exp(logits)
    rows /= rows.sum(axis=1, keepdims=True)
    return MeaningSpace.create(rows, simm.labels, simm.labels, need=None)


def naming_system_from_counts(counts: NamingCounts, meaning_order=None,
                              word_order=None) -> NamingSystem:
    """q(w|m) = count(m,w) / total(m) over the union of observed words."""
    table: dict[tuple[str, str], int] = {}
    for m, w, c in counts.rows:
        table[(m, w)] = table.get((m, w), 0) + c
    meanings = tuple(meaning_order) if meaning_order is not None else tuple(
        sorted({m for m, _, _ in counts.rows})
    )
    words = tuple(word_order) if word_order is not None else tuple(
        sorted({w for _, w, _ in counts.rows})
    )
    matrix = np.zeros((len(meanings), len(words)))
    mindex = {m: i for i, m in enumerate(meanings)}
    windex = {w: j for j, w in enumerate(words)}
    for (m, w), c in table.items():
        if m not in mindex:
            raise ValidationError(
                [f"count row for meaning {m!r} not present in the requested meaning order"]
            )
        if w not in windex:
            raise ValidationError(
                [f"count row for word {w!r} not present in the requested word order"]
            )
        matrix[mindex[m], windex[w]] = c
    totals = matrix.sum(axis=1)
    zero = np.nonzero(totals == 0)[0]
    if zero.size:
        raise ValidationError([f"meaning {meanings[i]!r} has zero total count" for i in zero])
    return NamingSystem.create(matrix / totals[:, None], words, meanings)


def naming_weights_from_counts(counts: NamingCounts, meaning_order) -> np.ndarray:
    """Per-meaning share of the total count, aligned to ``meaning_order``."""
    totals = counts.meaning_totals()
    missing = [m for m in meaning_order if m not in totals]
    if missing:
        raise ValidationError([f"meaning {missing[0]!r} has no counts"])
    w = np.array([totals[m] for m in meaning_order], dtype=np.float64)
    return w / w.sum()


def li_prior(systems, epsilon: float = 0.001, meaning_weights=None, tol: float = 1e-9,
             max_iterations: int = 100_000, damping: float = 0.5) -> Distribution:
    """Least-informative need prior consistent with observed word frequencies.

    For each system the maximum-entropy p(m) subject to
    sum_m p(m) q(w|m) = phat(w) is fit by damped iterative scaling on the
    exponential family p(m) proportional to exp(sum_w lambda_w q(w|m)).
    phat(w) is the count-weighted word frequency; without weights every
    meaning counts equally. The per-language priors are averaged uniformly,
    then epsilon is added everywhere and the result renormalized.
    """
    systems = list(systems)
    if not systems:
        raise ValidationError(["li_prior needs at least one naming system"])
    labels = systems[0].meaning_labels
    for s in systems[1:]:
        if s.meaning_labels != labels:
            raise ValidationError(["all systems must share one ordered meaning set"])
    if epsilon < 0:
        raise ValidationError([f"epsilon must be >= 0, got {epsilon}"])
    if max_iterations < 1:
        raise ValidationError([f"max_iterations must be >= 1, got {max_iterations}"])
    n = len(labels)
    if meaning_weights is None:
        weights = [np.full(n, 1.0 / n) for _ in systems]
    else:
        weights = [np.asarray(w, dtype=np.float64) for w in meaning_weights]
        if len(weights) != len(systems):
            raise ValidationError(["one weight vector per system is required"])
        for w in weights:
            if w.shape != (n,) or np.any(w < 0) or w.sum() <= 0:
                raise ValidationError(["meaning weights must be non-negative length-n vectors"])
        weights = [w / w.sum() for w in weights]

    priors = []
    for sys, w in zip(systems, weights):
        enc = sys.encoder
        target = w @ enc
        lam = np.zeros(sys.num_words)
        for _ in range(max_iterations):
            logp = enc @ lam
            logp -= logp.max()
            p = np.exp(logp)
            p /= p.sum()
            ew = p @ enc
            resid = float(np.max(np.abs(ew - target)))
            if resid < tol:
                break
            ok = (target > 0) & (ew > 0)
            lam += damping * np.log(np.divide(target, ew, out=np.ones_like(ew), where=ok))
        else:
            raise IterativeScalingError(
                f"LI prior fit did not reach residual {tol:g} within "
                f"{max_iterations} iterations (residual {resid:.3g})"
            )
        priors.append(p)
    avg = np.mean(priors, axis=0)
    reg = avg + epsilon
    return Distribution(reg / reg.sum(), labels)


def meaning_space_from_features(table: FeatureTable) -> MeaningSpace:
    """Rows are p(u|c) renormalized; need is proportional to familiarity."""
    sums = table.values.sum(axis=1)
    zero = np.nonzero(sums == 0)[0]
    if zero.size:
        raise ValidationError(
            [f"class {table.class_labels[i]!r} has no nonzero feature probability" for i in zero]
        )
    if table.familiarity.sum() <= 0:
        raise ValidationError(["familiarity scores sum to zero"])
    need = Distribution.create(table.familiarity / table.familiarity.sum(), table.class_labels)
    return MeaningSpace.create(
        table.values / sums[:, None], table.feature_labels, table.class_labels, need
    )


def attach_need(space: MeaningSpace, need) -> MeaningSpace:
    """Return the space with a need distribution set.

    ``need`` is either the literal string "uniform" or a Distribution whose
    labels match the space's meanings (any order; entries are realigned).
    """
    if isinstance(need, str):
        if need != "uniform":
            raise ValidationError([f"unknown need spec {need!r} (expected 'uniform' or a prior)"])
        return replace(space, need=Distribution.uniform(space.meaning_labels))
    if len(need) != space.num_meanings:
        raise ValidationError(
            [f"need has {len(need)} entries for {space.num_meanings} meanings"]
        )
    if need.labels == space.meaning_labels:
        return replace(space, need=need)
    if set(need.labels) == set(space.meaning_labels):
        index = {lab: i for i, lab in enumerate(need.labels)}
        perm = [index[lab] for lab in space.meaning_labels]
        return replace(space, need=Distribution(need.mass[perm], space.meaning_labels))
    missing = sorted(set(space.meaning_labels) - set(need.labels))
    raise ValidationError([f"need is missing meaning {missing[0]!r}"])


def reorder_naming_system(sys: NamingSystem, meaning_labels) -> NamingSystem:
    """Reorder encoder rows to the given meaning order; error on set mismatch."""
    meaning_labels = tuple(meaning_labels)
    if sys.meaning_labels == meaning_labels:
        return sys
    if set(sys.meaning_labels) != set(meaning_labels):
        missing = sorted(set(meaning_labels) - set(sys.meaning_labels))
        extra = sorted(set(sys.meaning_labels) - set(meaning_labels))
        what = []
        if missing:
            what.append(f"missing meaning {missing[0]!r}")
        if extra:
            what.append(f"unknown meaning {extra[0]!r}")
        raise ValidationError(
            [f"naming system does not cover the meaning set: {', '.join(what)}"]
        )
    index = {lab: i for i, lab in enumerate(sys.meaning_labels)}
    perm = [index[lab] for lab in meaning_labels]
    return NamingSystem(sys.encoder[perm], sys.word_labels, meaning_labels)


# ---------------------------------------------------------------------------
# file IO


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_rows(path: Path, delimiter: str | None = None) -> list[list[str]]:
    path = Path(path)
    if delimiter is None:
        delimiter = "\t" if path.suffix.lower() == ".tsv" else ","
    with open(path, newline="", encoding="utf-8") as f:
        rows = [row for row in csv.reader(f, delimiter=delimiter) if row]
    if not rows:
        raise ValidationError([f"{path}: file is empty"])
    width = len(rows[0])
    ragged = [i for i, row in enumerate(rows) if len(row) != width]
    if ragged:
        raise ValidationError(
            [f"{path}: line {ragged[0] + 1} has {len(rows[ragged[0]])} cells, "
             f"header has {width}"]
        )
    return rows


def _float_cell(cell: str, path: Path, line: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValidationError([f"{path}: line {line}: {cell!r} is not a number"])


def _float_matrix(rows: list[list[str]], path: Path) -> np.ndarray:
    return np.array([
        [_float_cell(x, path, i + 2) for x in row[1:]]
        for i, row in enumerate(rows[1:])
    ])


def _note_renormalized(sums: np.ndarray, path: Path, notes: list[str] | None) -> None:
    if notes is None:
        return
    dev = np.abs(sums - 1.0)
    bad = int(np.sum(dev > 1e-12))
    if bad:
        notes.append(f"{Path(path).name}: renormalized {bad} rows (max deviation {dev.max():.3g})")


def read_similarity_csv(path) -> SimilarityMatrix:
    path = Path(path)
    rows = _read_rows(path)
    labels = [c.strip() for c in rows[0][1:]]
    row_labels = [row[0].strip() for row in rows[1:]]
    if row_labels != labels:
        raise ValidationError(
            [f"{path}: row labels do not match header labels (square matrix required)"]
        )
    return SimilarityMatrix.create(_float_matrix(rows, path), labels)


def read_naming_counts(path) -> NamingCounts:
    path = Path(path)
    rows = _read_rows(path)
    header = [c.strip() for c in rows[0]]
    required = ["meaning_label", "word_label", "count"]
    if header[: len(required)] != required:
        raise ValidationError(
            [f"{path}: header must start with {','.join(required)}, got {','.join(header)}"]
        )
    has_condition = len(header) > 3 and header[3] == "condition"
    data = []
    conditions = set()
    for row in rows[1:]:
        try:
            count = int(row[2])
        except ValueError:
            raise ValidationError([f"{path}: count {row[2]!r} is not an integer"])
        data.append((row[0], row[1], count))
        if has_condition and len(row) > 3 and row[3].strip():
            conditions.add(row[3].strip())
    condition = conditions.pop() if len(conditions) == 1 else None
    return NamingCounts.create(data, condition)


def read_feature_table(features_path, familiarity_path) -> FeatureTable:
    features_path = Path(features_path)
    rows = _read_rows(features_path)
    feature_labels = [c.strip() for c in rows[0][1:]]
    class_labels = [row[0].strip() for row in rows[1:]]
    values = _float_matrix(rows, features_path)
    fam_rows = _read_rows(Path(familiarity_path))
    scores = {
        row[0].strip(): _float_cell(row[1], Path(familiarity_path), i + 2)
        for i, row in enumerate(fam_rows[1:])
    }
    missing = [c for c in class_labels if c not in scores]
    if missing:
        raise ValidationError(
            [f"{familiarity_path}: no familiarity score for class {missing[0]!r}"]
        )
    fam = [scores[c] for c in class_labels]
    return FeatureTable.create(values, class_labels, feature_labels, fam)


def read_prior_csv(path) -> Distribution:
    path = Path(path)
    rows = _read_rows(path)
    labels = [row[0].strip() for row in rows[1:]]
    mass = [_float_cell(row[1], path, i + 2) for i, row in enumerate(rows[1:])]
    return Distribution.create(mass, labels)


def write_prior_csv(d: Distribution, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["meaning_label", "probability"])
        for lab, x in zip(d.labels, d.mass):
            w.writerow([lab, _fmt(x)])


def _read_matrix_csv(path, create, notes: list[str] | None):
    """Space or encoder CSV, built by ``create(values, column_labels, meaning_labels)``."""
    path = Path(path)
    rows = _read_rows(path)
    columns = [c.strip() for c in rows[0][1:]]
    meanings = [row[0].strip() for row in rows[1:]]
    values = _float_matrix(rows, path)
    _note_renormalized(values.sum(axis=1), path, notes)
    return create(values, columns, meanings)


def _write_matrix_csv(path, values: np.ndarray, columns, meanings) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["meaning", *columns])
        for lab, row in zip(meanings, values):
            w.writerow([lab, *(_fmt(x) for x in row)])


def read_space_csv(path, notes: list[str] | None = None) -> MeaningSpace:
    return _read_matrix_csv(path, MeaningSpace.create, notes)


def write_space_csv(space: MeaningSpace, path) -> None:
    _write_matrix_csv(path, space.representations, space.universe_labels,
                      space.meaning_labels)


def read_encoder_csv(path, notes: list[str] | None = None) -> NamingSystem:
    return _read_matrix_csv(path, NamingSystem.create, notes)


def write_encoder_csv(sys: NamingSystem, path) -> None:
    _write_matrix_csv(path, sys.encoder, sys.word_labels, sys.meaning_labels)
