"""Build meaning spaces, need priors, and naming systems from raw domain data.

Two ingestion routes mirror the two kinds of source material: similarity
judgments between objects (rows become softmax distributions over the object
set itself) and feature-norm tables (rows are conditional feature
probabilities, with a familiarity-based need). Naming systems come from
participant counts, and the least-informative prior ties a set of naming
systems back to a need distribution over meanings.

File formats (all UTF-8, header row required, every row as wide as the header;
blank lines are skipped, and an error names the file and the physical line).
Tables are streamed: a reader parses one row at a time, so no table's cells
are ever held all at once, and the file is closed however the parse ends.
Every table but the naming counts is a label column and one or more columns
of numbers, with one or more data rows and no row label twice; every cell
right of the label column is parsed as a number, so a prior or familiarity
file may carry more columns of numbers, but only its second column is read:
  similarity CSV   first column label, remaining columns scores, header labels
  naming TSV/CSV   columns meaning_label, word_label, count[, condition]
  feature CSV      first column class label, header feature labels, values in [0,1]
  familiarity CSV  columns class_label, score
  prior CSV        columns meaning_label, probability
  space CSV        header "meaning" + universe labels, one row per meaning
  encoder CSV      header "meaning" + word labels, one row per meaning
  frontier.csv     one row per frontier point (see ``frontier_io``)
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    Distribution,
    IBNamingError,
    MeaningSpace,
    NamingSystem,
    RENORM_SKIP_TOL,
    ValidationError,
    _freeze,
)

# li_prior's fit: the largest word-frequency residual it stops at, the share
# of the log-ratio correction each step applies, and the step budget.
_LI_TOL = 1e-9
_LI_DAMPING = 0.5
_LI_MAX_ITERATIONS = 100_000


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
    ``include_diagonal=False`` to leave the diagonal out of that estimate);
    a given gamma must be finite and > 0. The need distribution is left unset.
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
    elif not 0 < gamma < np.inf:
        raise ValidationError([f"gamma must be finite and > 0, got {gamma}"])
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


def li_prior(systems, epsilon: float = 0.001, meaning_weights=None) -> Distribution:
    """Least-informative need prior consistent with observed word frequencies.

    For each system the maximum-entropy p(m) subject to
    sum_m p(m) q(w|m) = phat(w) is fit by damped iterative scaling on the
    exponential family p(m) proportional to exp(sum_w lambda_w q(w|m)).
    phat(w) is the count-weighted word frequency; without weights every
    meaning counts equally. The per-language priors are averaged uniformly,
    then epsilon (finite and >= 0) is added everywhere and the result
    renormalized.
    """
    systems = list(systems)
    if not systems:
        raise ValidationError(["li_prior needs at least one naming system"])
    labels = systems[0].meaning_labels
    for s in systems[1:]:
        if s.meaning_labels != labels:
            raise ValidationError(["all systems must share one ordered meaning set"])
    if not 0 <= epsilon < np.inf:
        raise ValidationError([f"epsilon must be finite and >= 0, got {epsilon}"])
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
        for _ in range(_LI_MAX_ITERATIONS):
            logp = enc @ lam
            logp -= logp.max()
            p = np.exp(logp)
            p /= p.sum()
            ew = p @ enc
            resid = float(np.max(np.abs(ew - target)))
            if resid < _LI_TOL:
                break
            ok = (target > 0) & (ew > 0)
            lam += _LI_DAMPING * np.log(np.divide(target, ew, out=np.ones_like(ew), where=ok))
        else:
            raise IterativeScalingError(
                f"LI prior fit did not reach residual {_LI_TOL:g} within "
                f"{_LI_MAX_ITERATIONS} iterations (residual {resid:.3g})"
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
    perm = _realign(need.labels, space.meaning_labels, "need")
    return replace(space, need=Distribution(need.mass[perm], space.meaning_labels))


def reorder_naming_system(sys: NamingSystem, meaning_labels) -> NamingSystem:
    """Reorder encoder rows to the given meaning order; error on set mismatch."""
    meaning_labels = tuple(meaning_labels)
    if sys.meaning_labels == meaning_labels:
        return sys
    perm = _realign(sys.meaning_labels, meaning_labels, "naming system")
    return NamingSystem(sys.encoder[perm], sys.word_labels, meaning_labels)


def _realign(labels, order, what: str) -> list[int]:
    """The indices that put ``labels`` in ``order``; when the two sets differ,
    the error names ``what`` and its first missing and unknown meaning."""
    if set(labels) != set(order):
        missing = sorted(set(order) - set(labels))[:1]
        extra = sorted(set(labels) - set(order))[:1]
        parts = [f"missing meaning {m!r}" for m in missing] + [
            f"unknown meaning {m!r}" for m in extra]
        raise ValidationError([f"{what} does not cover the meaning set: {', '.join(parts)}"])
    index = {lab: i for i, lab in enumerate(labels)}
    return [index[lab] for lab in order]


# ---------------------------------------------------------------------------
# file IO


def _fmt(x: float) -> str:
    """The shortest round-trip repr of ``x`` without the ``.0`` of an
    integral value: 0.0 is ``0``, -0.0 is ``-0``, 1.0 is ``1``; 0.5, 1e-300,
    1e+16, inf and nan are their repr. Every reader parses the short form to
    the bits it parsed from the repr."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def _read_table(path):
    """Yield the header of a UTF-8 CSV (tab-separated if .tsv), then each
    non-blank data row, as wide as the header, with the physical line it
    ends on; a row is read only when it is asked for. A leading byte-order
    mark, as spreadsheets write one, is not part of the header. ``_parse``
    closes the file however its parse ends."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.reader(f, delimiter="\t" if path.suffix.lower() == ".tsv" else ",")
            rows = filter(None, reader)  # blank lines read as []
            header = next(rows, None)
            if header is None:
                raise ValidationError([f"{path}: file is empty"])
            yield header
            for row in rows:
                if len(row) != len(header):
                    raise ValidationError([f"{path}: line {reader.line_num} has {len(row)} "
                                           f"cells, header has {len(header)}"])
                yield row, reader.line_num
    except UnicodeDecodeError:
        # the error's offset counts from the start of the chunk being decoded;
        # UTF-8 never encodes a character with a \n or \r byte, so lines decode apart
        for line, raw in enumerate(path.read_bytes().splitlines(), 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ValidationError([f"{path}: line {line}: byte {raw[e.start]:#04x} "
                                       "is not UTF-8 text"]) from None
        raise


def _parse(path, parse):
    """``parse(header, rows, path)`` of the ``_read_table`` table at ``path``,
    where ``rows`` yields each data row with its line; the file is closed
    when ``parse`` returns or raises, read to its end or not."""
    path = Path(path)
    table = _read_table(path)
    try:
        return parse(next(table), table, path)
    finally:
        table.close()


def _write_table(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` as a UTF-8 CSV with \\n line ends."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _write_json(path, payload) -> None:
    """``payload`` as JSON with sorted keys, an indent of 2 and a final newline."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _labelled(header: list[str], rows, path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """The column labels, the row labels and the rows x columns numbers of a
    ``_read_table`` table whose first column holds the labels, parsed a row
    at a time; the header must have a column after the label column, a data
    row must follow it, and no row label may repeat."""
    if len(header) < 2:
        raise ValidationError([f"{path}: the header has no column after the label column"])
    labels: dict[str, int] = {}  # row label -> its line, in row order
    values = []
    for row, line in rows:
        try:
            values.append(np.fromiter(map(float, row[1:]), np.float64, len(row) - 1))
        except ValueError:
            for cell in row[1:]:  # name the first cell that is not a number
                try:
                    float(cell)
                except ValueError:
                    raise ValidationError(
                        [f"{path}: line {line}: {cell!r} is not a number"]) from None
        label = row[0].strip()
        if label in labels:
            raise ValidationError(
                [f"{path}: line {line}: label {label!r} is also on line {labels[label]}"])
        labels[label] = line
    if not values:
        raise ValidationError([f"{path}: the header is followed by no data row"])
    return [c.strip() for c in header[1:]], list(labels), np.array(values)


def read_similarity_csv(path) -> SimilarityMatrix:
    path = Path(path)
    labels, row_labels, values = _parse(path, _labelled)
    if row_labels != labels:
        raise ValidationError(
            [f"{path}: row labels do not match header labels (square matrix required)"]
        )
    return SimilarityMatrix.create(values, labels)


def read_naming_counts(path) -> NamingCounts:
    return _parse(path, _naming_counts)


def _naming_counts(header: list[str], rows, path: Path) -> NamingCounts:
    header = [c.strip() for c in header]
    required = ["meaning_label", "word_label", "count"]
    if header[: len(required)] != required:
        raise ValidationError(
            [f"{path}: header must start with {','.join(required)}, got {','.join(header)}"]
        )
    has_condition = len(header) > 3 and header[3] == "condition"
    data = []
    conditions = set()
    for row, line in rows:
        try:
            count = int(row[2])
        except ValueError:
            raise ValidationError([f"{path}: line {line}: count {row[2]!r} is not an integer"])
        data.append((row[0], row[1], count))
        if has_condition and row[3].strip():
            conditions.add(row[3].strip())
    condition = conditions.pop() if len(conditions) == 1 else None
    return NamingCounts.create(data, condition)


def read_feature_table(features_path, familiarity_path) -> FeatureTable:
    feature_labels, class_labels, values = _parse(features_path, _labelled)
    _, scored, fam = _parse(familiarity_path, _labelled)
    scores = dict(zip(scored, fam[:, 0].tolist()))
    missing = [c for c in class_labels if c not in scores]
    if missing:
        raise ValidationError(
            [f"{familiarity_path}: no familiarity score for class {missing[0]!r}"]
        )
    fam = [scores[c] for c in class_labels]
    return FeatureTable.create(values, class_labels, feature_labels, fam)


def read_prior_csv(path) -> Distribution:
    _, labels, values = _parse(path, _labelled)
    return Distribution.create(values[:, 0], labels)


def write_prior_csv(d: Distribution, path) -> None:
    _write_table(path, ["meaning_label", "probability"],
                 ([lab, _fmt(x)] for lab, x in zip(d.labels, d.mass)))


def _matrix(table, path: Path, create, notes: list[str] | None):
    """Space or encoder from its ``_labelled`` columns, meanings and values,
    built by ``create(values, column_labels, meaning_labels)``."""
    columns, meanings, values = table
    if notes is not None:
        dev = np.abs(values.sum(axis=1) - 1.0)
        bad = int(np.sum(dev > RENORM_SKIP_TOL))
        if bad:
            notes.append(f"{path.name}: renormalized {bad} rows (max deviation {dev.max():.3g})")
    return create(values, columns, meanings)


# _fmt of the only integral values a probability takes
_INTEGRAL = {0.0: "0", 1.0: "1"}


def _write_matrix_csv(path, values: np.ndarray, columns, meanings) -> None:
    # each cell is _fmt of its value: 0.0 and 1.0 are looked up, the rest
    # are repr; a -0.0, which only an array built without create holds,
    # looks up as 0 and reloads to the +0.0 that create makes of it.
    # Converting a row at a time keeps a whole space out of one list.
    _write_table(path, ["meaning", *columns],
                 ([lab, *[_INTEGRAL.get(x) or repr(x) for x in row.tolist()]]
                  for lab, row in zip(meanings, values)))


def read_space_csv(path, notes: list[str] | None = None) -> MeaningSpace:
    return _matrix(_parse(path, _labelled), Path(path), MeaningSpace.create, notes)


def write_space_csv(space: MeaningSpace, path) -> None:
    _write_matrix_csv(path, space.representations, space.universe_labels,
                      space.meaning_labels)


def read_encoder_csv(path, notes: list[str] | None = None) -> NamingSystem:
    return _matrix(_parse(path, _labelled), Path(path), NamingSystem.create, notes)


def read_naming_system(path, notes: list[str] | None = None) -> NamingSystem:
    """Naming counts if the first header cell is ``meaning_label``,
    otherwise an encoder matrix; the file is read once."""
    path = Path(path)
    table = _parse(path, lambda header, *rest: (
        _naming_counts if header[0].strip() == "meaning_label" else _labelled)(header, *rest))
    if isinstance(table, NamingCounts):
        return naming_system_from_counts(table)
    return _matrix(table, path, NamingSystem.create, notes)


def write_encoder_csv(sys: NamingSystem, path) -> None:
    _write_matrix_csv(path, sys.encoder, sys.word_labels, sys.meaning_labels)
