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
Floats are written in their shortest round-trip repr, with the ``.0`` of
an integral value dropped (``ingest._fmt``: 0.0 is ``0``, 1.0 is ``1``), so
reloading reproduces the exact bits, and frontiers written with the ``.0``
load to the same bits. Encoders are built by ``NamingSystem.create`` both
when the solver records them and when they are read, so entries below
``core.PROB_FLOOR`` are stored as ``0``, the value every reader loads, and
a loaded frontier saves to the same bytes. Nothing time-dependent is written
here (timestamps belong to run manifests), which keeps reruns
byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import MeaningSpace, ValidationError, _alignment_errors
from .ingest import (_fmt, _parse, _write_json, _write_table, read_encoder_csv,
                     write_encoder_csv)
from .measures import complexity
from .solver import Frontier, FrontierPoint, SolverConfig, _category_count, _check_space

FRONTIER_CSV = "frontier.csv"
FRONTIER_META = "frontier_meta.json"
ENCODER_DIR = "encoders"
_COLUMNS = ["beta", "complexity_bits", "accuracy_bits", "objective_bits",
            "effective_k", "converged", "iterations"]
# An encoder belongs to its row when its complexity matches the row's within
# this many bits; a recomputation agrees to about 1e-14.
_COMPLEXITY_TOL = 1e-9


def save_frontier(frontier: Frontier, out_dir) -> dict[str, Path]:
    """Write the CSV, the metadata and the encoders, in place of any encoders
    already in the directory; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / FRONTIER_CSV
    _write_table(csv_path, _COLUMNS, ([
        _fmt(p.beta), _fmt(p.complexity_bits), _fmt(p.accuracy_bits),
        _fmt(p.objective_bits), p.effective_k, "true" if p.converged else "false",
        p.iterations] for p in frontier.points))
    from . import __version__

    meta_path = out / FRONTIER_META
    _write_json(meta_path, {
        "tool_version": __version__,
        "space_fingerprint": frontier.space_fingerprint,
        "config": frontier.config.to_dict(),
        "num_points": len(frontier.points),
    })
    enc_dir = out / ENCODER_DIR
    enc_dir.mkdir(exist_ok=True)
    # encoders an earlier, longer frontier left here would join frontier_files
    for stale in list(enc_dir.glob("point_*.csv")):
        stale.unlink()
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
    from the space's need. Metadata written with an ``"encoders"`` key loads
    unchanged.
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

    grid, need = config.beta_grid, space.need.mass

    def read_points(header, rows, csv_path):
        if header != _COLUMNS:
            raise ValidationError([f"{csv_path}: expected the header {','.join(_COLUMNS)}"])
        points, line = [], 1
        for i, (row, line) in enumerate(rows):
            try:
                if row[5] not in ("true", "false"):
                    raise ValueError(f"malformed row {row}")
                beta, c, a, obj = (float(x) for x in row[:4])
                effective_k, iterations = int(row[4]), int(row[6])
                if i >= len(grid):
                    raise ValueError(f"row beyond the {len(grid)} betas of the grid")
                if beta != grid[i]:
                    raise ValueError(f"beta {beta!r} is not beta {i} of the grid, {grid[i]!r}")
            except ValueError as e:
                raise ValidationError([f"{csv_path}, line {line}: {e}"]) from None
            enc_path = base / ENCODER_DIR / f"point_{i:05d}.csv"
            encoder = read_encoder_csv(enc_path)
            errors = _alignment_errors(encoder, space)
            if errors:
                raise ValidationError([f"{enc_path}: {e}" for e in errors])
            encoder_k = _category_count(need @ encoder.encoder)
            encoder_c = complexity(encoder, space.need)
            if encoder_k != effective_k or abs(encoder_c - c) > _COMPLEXITY_TOL:
                raise ValidationError([
                    f"{enc_path}: the encoder has {encoder_k} categories and complexity "
                    f"{encoder_c!r} bits, but line {line} of {FRONTIER_CSV} records "
                    f"effective_k {effective_k} and {c!r} bits"])
            points.append(FrontierPoint(
                beta=beta, complexity_bits=c, accuracy_bits=a, objective_bits=obj,
                effective_k=effective_k, encoder=encoder, converged=row[5] == "true",
                iterations=iterations,
            ))
        if len(points) < len(grid):
            raise ValidationError([f"{csv_path}, line {line + 1}: the file ends after "
                                   f"{len(points)} rows, but the grid has {len(grid)} betas"])
        return points

    points = _parse(csv_path, read_points)
    return Frontier(tuple(points), fingerprint, config)
