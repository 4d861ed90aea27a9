"""Random instance builders shared by the tests; all draws are caller-seeded."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ibnaming import (
    Distribution,
    FrontierPoint,
    MeaningSpace,
    NamingSystem,
    SolverConfig,
    solve_at_beta,
)
from ibnaming.frontier_io import ENCODER_DIR, FRONTIER_CSV
from ibnaming.solver import _Workspace, _log_encoder, _plain_update


def random_space(rng: np.random.Generator, n_meanings: int | None = None,
                 n_universe: int | None = None, sparse: bool = False) -> MeaningSpace:
    n_m = int(n_meanings if n_meanings is not None else rng.integers(2, 7))
    n_u = int(n_universe if n_universe is not None else rng.integers(2, 8))
    reps = rng.dirichlet(np.ones(n_u), size=n_m)
    if sparse:
        # knock out some cells but keep at least one per row
        mask = rng.random(reps.shape) < 0.3
        for i in range(n_m):
            if mask[i].all():
                mask[i, rng.integers(n_u)] = False
        reps = np.where(mask, 0.0, reps)
        reps /= reps.sum(axis=1, keepdims=True)
    need = rng.dirichlet(np.ones(n_m))
    labels = tuple(f"m{i}" for i in range(n_m))
    return MeaningSpace.create(
        reps, tuple(f"u{i}" for i in range(n_u)), labels,
        Distribution.create(need, labels),
    )


def random_system(rng: np.random.Generator, space: MeaningSpace,
                  n_words: int | None = None) -> NamingSystem:
    n_w = int(n_words if n_words is not None else rng.integers(1, 6))
    enc = rng.dirichlet(np.ones(n_w), size=space.num_meanings)
    return NamingSystem.create(enc, tuple(f"w{i}" for i in range(n_w)),
                               space.meaning_labels)


def identity_system(space: MeaningSpace) -> NamingSystem:
    n = space.num_meanings
    return NamingSystem.create(np.eye(n), tuple(f"w{i}" for i in range(n)),
                               space.meaning_labels)


def single_word_system(space: MeaningSpace) -> NamingSystem:
    return NamingSystem.create(np.ones((space.num_meanings, 1)), ("w0",),
                               space.meaning_labels)


def continued_ca_move(space: MeaningSpace, point: FrontierPoint) -> float:
    """Largest change of complexity or accuracy, in bits, when the solver
    keeps iterating from a recorded point, pruning off."""
    config = SolverConfig(beta_grid=(point.beta,), mass_prune_threshold=0.0)
    moved = solve_at_beta(space, point.beta, point.encoder, config)
    return max(abs(moved.complexity_bits - point.complexity_bits),
               abs(moved.accuracy_bits - point.accuracy_bits))


def fixed_point_delta(space: MeaningSpace, point: FrontierPoint) -> float:
    """|change in F_beta| after one extra plain update of a recorded point.

    F is stationary at a fixed point, so this is a weak check: it stays tiny
    while C and A still drift; ``continued_ca_move`` pins those.
    """
    ws = _Workspace.for_space(space)
    labels = np.arange(point.encoder.num_words)
    s0 = _plain_update(ws, _log_encoder(point.encoder.encoder), labels, point.beta, 0.0)
    s1 = _plain_update(ws, s0.g, s0.labels, point.beta, 0.0)
    return abs(s1.objective - s0.objective)


def write_animal_instance(out: Path, n_classes: int = 60, n_features: int = 500,
                          n_groups: int = 8, seed: int = 0) -> tuple[Path, Path]:
    """An animal-shaped instance for ``make-space``: features.csv, where
    each group of classes raises its own random block of features above a
    small floor, and familiarity.csv. The defaults make products wide
    enough (60 words at the top of the sweep, 500 features) that OpenBLAS
    gives other bits under one and two threads."""
    rng = np.random.default_rng(seed)
    values = 0.02 + rng.uniform(-0.015, 0.015, (n_classes, n_features))
    group = np.arange(n_classes) % n_groups
    width = n_features // (n_groups + 2)
    for g in range(n_groups):
        cols = rng.choice(n_features, width, replace=False)
        rows = np.flatnonzero(group == g)
        values[np.ix_(rows, cols)] = rng.uniform(0.45, 0.95, (rows.size, width))
    labels = [f"c{i:03d}" for i in range(n_classes)]
    features, familiarity = out / "features.csv", out / "familiarity.csv"
    with open(features, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["class", *(f"f{j:03d}" for j in range(n_features))])
        writer.writerows([lab, *(repr(float(x)) for x in row)]
                         for lab, row in zip(labels, np.round(values, 3)))
    with open(familiarity, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["class_label", "score"])
        writer.writerows([lab, repr(float(x))]
                         for lab, x in zip(labels, np.round(rng.uniform(2, 9, n_classes), 2)))
    return features, familiarity


def rewrite_float_cells_as_repr(front: Path) -> None:
    """Rewrite the float cells of a saved frontier's CSVs as ``repr`` writes
    them, ``0.0`` and ``1.0`` included: the form frontiers were saved in
    before integral values lost their ``.0``."""
    def rewrite(path: Path, first: int, stop) -> None:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        for row in rows[1:]:
            row[first:stop] = [repr(float(x)) for x in row[first:stop]]
        with open(path, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)

    rewrite(front / FRONTIER_CSV, 0, 4)  # beta, complexity, accuracy, objective
    for path in sorted((front / ENCODER_DIR).glob("*.csv")):
        rewrite(path, 1, None)
