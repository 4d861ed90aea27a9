"""Frontier persistence.

A frontier lives in a directory:

    frontier.csv          beta, complexity_bits, accuracy_bits, objective_bits,
                          effective_k, converged, iterations  (one row per point)
    frontier_meta.json    solver config, space fingerprint, tool version
    encoders/             optional sidecar, one encoder CSV per point

Floats are written with shortest round-trip repr so reloading reproduces the
exact bits; nothing time-dependent is written here (timestamps belong to run
manifests), which keeps reruns byte-identical.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .core import MeaningSpace, ValidationError, _alignment_errors
from .ingest import _fmt, read_encoder_csv, write_encoder_csv
from .solver import Frontier, FrontierPoint, SolverConfig, _check_space

FRONTIER_CSV = "frontier.csv"
FRONTIER_META = "frontier_meta.json"
ENCODER_DIR = "encoders"
_COLUMNS = ["beta", "complexity_bits", "accuracy_bits", "objective_bits",
            "effective_k", "converged", "iterations"]


def save_frontier(frontier: Frontier, out_dir, write_encoders: bool = True) -> dict[str, Path]:
    """Write CSV + metadata (+ encoder sidecar); returns the written paths."""
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
        "encoders": ENCODER_DIR if write_encoders else None,
    }
    meta_path = out / FRONTIER_META
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    paths = {"csv": csv_path, "meta": meta_path}
    if write_encoders:
        enc_dir = out / ENCODER_DIR
        enc_dir.mkdir(exist_ok=True)
        for i, p in enumerate(frontier.points):
            if p.encoder is None:
                raise ValidationError([f"point {i} has no encoder to write"])
            write_encoder_csv(p.encoder, enc_dir / f"point_{i:05d}.csv")
        paths["encoders"] = enc_dir
    return paths


def load_frontier(path, space: MeaningSpace | None = None) -> Frontier:
    """Load a frontier directory (or its frontier.csv path).

    Encoders are read from the sidecar, if the frontier has one. Pass the
    meaning space the frontier was computed on (any other is rejected) to
    recover word masses for effective-category queries and hierarchies;
    each encoder's meaning rows must then match the space's, in order.
    """
    path = Path(path)
    base = path.parent if path.is_file() else path
    csv_path = base / FRONTIER_CSV if not path.is_file() else path
    if not csv_path.exists():
        raise ValidationError([f"{csv_path}: frontier CSV not found"])
    meta_path = base / FRONTIER_META
    if not meta_path.exists():
        raise ValidationError([f"{meta_path}: frontier metadata not found"])
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        config = SolverConfig.from_dict(meta["config"])
        fingerprint = str(meta["space_fingerprint"])
        enc_dir = base / meta["encoders"] if meta.get("encoders") else None
    except (ValueError, KeyError, TypeError, ValidationError) as e:
        raise ValidationError([f"{meta_path}: malformed frontier metadata "
                               f"({type(e).__name__}: {e})"]) from None
    if space is not None:
        _check_space(fingerprint, space)

    with open(csv_path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != _COLUMNS:
        raise ValidationError([f"{csv_path}: expected the header {','.join(_COLUMNS)}"])

    need = space.need.mass if space is not None else None
    points = []
    for i, row in enumerate(rows[1:]):
        try:
            if len(row) != len(_COLUMNS) or row[5] not in ("true", "false"):
                raise ValueError(f"malformed row {row}")
            beta, c, a, obj = (float(x) for x in row[:4])
            effective_k, iterations = int(row[4]), int(row[6])
        except ValueError as e:
            raise ValidationError([f"{csv_path}, line {i + 2}: {e}"]) from None
        encoder = None
        word_mass = None
        if enc_dir is not None:
            enc_path = enc_dir / f"point_{i:05d}.csv"
            encoder = read_encoder_csv(enc_path)
            if need is not None:
                errors = _alignment_errors(encoder, space)
                if errors:
                    raise ValidationError([f"{enc_path}: {e}" for e in errors])
                word_mass = need @ encoder.encoder
        points.append(FrontierPoint(
            beta=beta, complexity_bits=c, accuracy_bits=a, objective_bits=obj,
            effective_k=effective_k, encoder=encoder, word_mass=word_mass,
            converged=row[5] == "true", iterations=iterations,
        ))
    return Frontier(tuple(points), fingerprint, config)
