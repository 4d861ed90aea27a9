"""Frontier persistence.

A frontier lives in a directory:

    frontier.csv          beta, complexity_bits, accuracy_bits, objective_bits,
                          effective_k, converged, iterations  (one row per point)
    frontier_meta.json    solver config (with the beta grid), space fingerprint,
                          tool version
    encoders/             point_00000.csv, ...: the encoder of each row, in order

Every analysis reads the encoders, so a frontier is always saved with them
and always loaded against the meaning space it was computed on; loading
checks the rows against the grid and each encoder against the space and
its row.
Floats are written with shortest round-trip repr so reloading reproduces
the exact bits; nothing time-dependent is written here (timestamps belong to
run manifests), which keeps reruns byte-identical.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .core import MeaningSpace, ValidationError, _alignment_errors
from .ingest import _fmt, read_encoder_csv, write_encoder_csv
from .measures import complexity
from .solver import (
    Frontier,
    FrontierPoint,
    SolverConfig,
    _check_space,
    effective_category_count,
)

FRONTIER_CSV = "frontier.csv"
FRONTIER_META = "frontier_meta.json"
ENCODER_DIR = "encoders"
_COLUMNS = ["beta", "complexity_bits", "accuracy_bits", "objective_bits",
            "effective_k", "converged", "iterations"]
# An encoder belongs to its row when its complexity matches the row's within
# this many bits; a recomputation agrees to about 1e-14.
_COMPLEXITY_TOL = 1e-9


def save_frontier(frontier: Frontier, out_dir) -> dict[str, Path]:
    """Write the CSV, the metadata and the encoders; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / FRONTIER_CSV
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(_COLUMNS)
        for p in frontier.points:
            w.writerow([
                _fmt(p.beta), _fmt(p.complexity_bits), _fmt(p.accuracy_bits),
                _fmt(p.objective_bits), p.effective_k,
                "true" if p.converged else "false", p.iterations,
            ])
    from . import __version__

    meta = {
        "tool_version": __version__,
        "space_fingerprint": frontier.space_fingerprint,
        "config": frontier.config.to_dict(),
        "num_points": len(frontier.points),
    }
    meta_path = out / FRONTIER_META
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    enc_dir = out / ENCODER_DIR
    enc_dir.mkdir(exist_ok=True)
    for i, p in enumerate(frontier.points):
        write_encoder_csv(p.encoder, enc_dir / f"point_{i:05d}.csv")
    return {"csv": csv_path, "meta": meta_path, "encoders": enc_dir}


def frontier_files(path) -> list[Path]:
    """The files of the frontier directory ``path``: its CSV, its metadata
    and its encoders, in order."""
    base = Path(path)
    return [base / FRONTIER_CSV, base / FRONTIER_META,
            *sorted((base / ENCODER_DIR).glob("point_*.csv"))]


def load_frontier(path, space: MeaningSpace) -> Frontier:
    """Load a frontier directory computed on ``space``.

    Any other space is rejected. Row i of frontier.csv must hold beta i of
    the grid in frontier_meta.json, and its encoder, encoders/point_i.csv,
    must have the space's meaning rows in order and match the row: the same
    effective_k and the same complexity within 1e-9 bits, both recomputed
    from the space's need, as are the word masses. Metadata written with an
    ``"encoders"`` key loads unchanged.
    """
    base = Path(path)
    csv_path = base / FRONTIER_CSV
    if not csv_path.exists():
        raise ValidationError([f"{csv_path}: frontier CSV not found"])
    meta_path = base / FRONTIER_META
    if not meta_path.exists():
        raise ValidationError([f"{meta_path}: frontier metadata not found"])
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        config = SolverConfig.from_dict(meta["config"])
        fingerprint = str(meta["space_fingerprint"])
    except (ValueError, KeyError, TypeError, ValidationError) as e:
        raise ValidationError([f"{meta_path}: malformed frontier metadata "
                               f"({type(e).__name__}: {e})"]) from None
    _check_space(fingerprint, space)

    with open(csv_path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != _COLUMNS:
        raise ValidationError([f"{csv_path}: expected the header {','.join(_COLUMNS)}"])

    grid, need = config.beta_grid, space.need.mass
    points = []
    for i, row in enumerate(rows[1:]):
        try:
            if len(row) != len(_COLUMNS) or row[5] not in ("true", "false"):
                raise ValueError(f"malformed row {row}")
            beta, c, a, obj = (float(x) for x in row[:4])
            effective_k, iterations = int(row[4]), int(row[6])
            if i >= len(grid):
                raise ValueError(f"row beyond the {len(grid)} betas of the grid")
            if beta != grid[i]:
                raise ValueError(f"beta {beta!r} is not beta {i} of the grid, {grid[i]!r}")
        except ValueError as e:
            raise ValidationError([f"{csv_path}, line {i + 2}: {e}"]) from None
        enc_path = base / ENCODER_DIR / f"point_{i:05d}.csv"
        encoder = read_encoder_csv(enc_path)
        errors = _alignment_errors(encoder, space)
        if errors:
            raise ValidationError([f"{enc_path}: {e}" for e in errors])
        point = FrontierPoint(
            beta=beta, complexity_bits=c, accuracy_bits=a, objective_bits=obj,
            effective_k=effective_k, encoder=encoder, word_mass=need @ encoder.encoder,
            converged=row[5] == "true", iterations=iterations,
        )
        encoder_k = effective_category_count(point)
        encoder_c = complexity(encoder, space.need)
        if encoder_k != effective_k or abs(encoder_c - c) > _COMPLEXITY_TOL:
            raise ValidationError([
                f"{enc_path}: the encoder has {encoder_k} categories and complexity "
                f"{encoder_c!r} bits, but line {i + 2} of {FRONTIER_CSV} records "
                f"effective_k {effective_k} and {c!r} bits"])
        points.append(point)
    if len(points) < len(grid):
        raise ValidationError([f"{csv_path}, line {len(rows) + 1}: the file ends after "
                               f"{len(points)} rows, but the grid has {len(grid)} betas"])
    return Frontier(tuple(points), fingerprint, config)
