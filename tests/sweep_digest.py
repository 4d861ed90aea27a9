"""Digest of one frontier sweep, to compare a solver change against its parent.

    export PYTHONPATH=src
    python tests/sweep_digest.py --space space.csv --need prior.csv \\
        --beta-max 1024 --num-betas 12 --out after.json
    python tests/sweep_digest.py --compare before.json after.json [--identical]

A digest file maps each grid (space, need, beta_max x num_betas, solver
defaults) to the evaluations its frontier records, the number of repair
solves (every solve after the segments' chains down the grid, kept or not)
and their evaluations, the evaluations of ``solve_at_beta`` chained down
each segment from the identity, the unconverged points, the largest gap of
a point's F above the lowest line C_j - beta A_j of any recorded point, C,
A and effective_k per point, the bytes and sha256 of the saved frontier
files, and the OpenBLAS kernel, whether the sweep's one-thread cap took
effect and its worker count. ``--compare`` prints per grid the largest
|dC| and |dA|, the largest rise of a point's F, the effective_k flips, the
evaluations, the repair solves, the gaps and whether the hashes match, and
exits 1 on a flip; it warns when the two digests come from different
kernels, as an evaluation count means nothing without its kernel. With
``--identical`` it also exits 1 when a grid's hashes or evaluation counts
differ: the gate of a change that must keep every bit.
"""

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

import ibnaming as ib
from ibnaming import solver, workers
from ibnaming.frontier_io import frontier_files
from ibnaming.ingest import read_prior_csv, read_space_csv


def digest(space_path: str, need: str, beta_max: float, num_betas: int) -> dict:
    space = read_space_csv(space_path)
    space = ib.attach_need(space, ib.Distribution.uniform(space.meaning_labels)
                           if need == "uniform" else read_prior_csv(need))
    config = ib.SolverConfig(beta_grid=ib.default_beta_grid(beta_max, num_betas))
    front = ib.anneal_frontier(space, config)
    n = space.num_meanings
    identity = ib.NamingSystem.create(np.eye(n), tuple(f"w{i:03d}" for i in range(n)),
                                      space.meaning_labels)
    chain = 0
    for segment in solver._segments(config.beta_grid):
        init = identity
        for i in reversed(segment):
            point = ib.solve_at_beta(space, config.beta_grid[i], init, config)
            chain, init = chain + point.iterations, point.encoder
    with tempfile.TemporaryDirectory() as tmp:
        ib.save_frontier(front, tmp)
        files = [(path.name.encode(), path.read_bytes()) for path in frontier_files(tmp)]
    column = {key: [getattr(p, key) for p in front.points]
              for key in ("beta", "effective_k", "complexity_bits", "accuracy_bits")}
    c, a = np.array(column["complexity_bits"]), np.array(column["accuracy_bits"])
    gap = max(ci - b * ai - np.min(c - b * a) for b, ci, ai in zip(column["beta"], c, a))
    return {"evaluations": sum(p.iterations for p in front.points),
            "repair_solves": front.sweep["repair_solves"],
            "repair_evaluations": front.sweep["repair_evaluations"],
            "chain_evaluations": chain,
            "blas_kernel": workers.blas_kernel(), "blas_capped": front.sweep["blas_capped"],
            "workers": front.sweep["workers"],
            "unconverged": sum(not p.converged for p in front.points),
            "envelope_gap_bits": float(gap), **column,
            "frontier_bytes": sum(len(data) for _, data in files),
            "sha256": hashlib.sha256(b"\0".join(b"\0".join(f) for f in files)).hexdigest()}


_EVALUATION_COUNTS = ("evaluations", "repair_solves", "repair_evaluations",
                      "chain_evaluations")


def compare(before: dict, after: dict, identical: bool = False) -> int:
    failed = False
    for grid in sorted(before.keys() & after.keys()):
        a, b = before[grid], after[grid]
        if a.get("blas_kernel") != b.get("blas_kernel"):
            kernels = [d.get("blas_kernel") or "unrecorded" for d in (a, b)]
            print(f"warning: {grid}: OpenBLAS kernels differ ({kernels[0]} -> {kernels[1]}), "
                  f"so the evaluation counts are not comparable")
        dc, da = (float(np.max(np.abs(np.subtract(a[key], b[key]))))
                  for key in ("complexity_bits", "accuracy_bits"))
        betas = np.array(a["beta"])
        rise = float(np.max(np.subtract(b["complexity_bits"], betas * b["accuracy_bits"])
                            - np.subtract(a["complexity_bits"], betas * a["accuracy_bits"])))
        flips = [f"{beta:.6g}" for beta, ka, kb in zip(a["beta"], a["effective_k"],
                                                        b["effective_k"]) if ka != kb]
        same = a["sha256"] == b["sha256"] and all(a.get(key) == b.get(key)
                                                  for key in _EVALUATION_COUNTS)
        failed |= bool(flips) or (identical and not same)
        print(f"{grid}: max|dC| {dc:.3g}, max|dA| {da:.3g}, max F rise {rise:.3g}, "
              f"effective_k flips at [{', '.join(flips)}], evaluations {a['evaluations']} -> "
              f"{b['evaluations']}, repair solves {a.get('repair_solves')} -> "
              f"{b.get('repair_solves')} ({a.get('repair_evaluations')} -> "
              f"{b.get('repair_evaluations')} evaluations), unconverged {a['unconverged']} -> "
              f"{b['unconverged']}, envelope gap {a.get('envelope_gap_bits', float('nan')):.3g}"
              f" -> {b.get('envelope_gap_bits', float('nan')):.3g} bits, "
              f"hashes {'match' if a['sha256'] == b['sha256'] else 'differ'}")
    return int(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--identical", action="store_true",
                        help="with --compare, also exit 1 when hashes or evaluation counts differ")
    parser.add_argument("--space")
    parser.add_argument("--need", default="uniform")
    parser.add_argument("--beta-max", type=float, default=1024.0)
    parser.add_argument("--num-betas", type=int, default=12)
    parser.add_argument("--out", help="add the digest to this file, replacing an older one "
                                      "of the same grid, instead of printing it")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*(json.loads(Path(p).read_text()) for p in args.compare),
                       identical=args.identical)
    if args.space is None:
        parser.error("--space is required without --compare")
    out = {f"{args.space} {args.need} {args.beta_max:g}x{args.num_betas}":
           digest(args.space, args.need, args.beta_max, args.num_betas)}
    if args.out is None:
        print(json.dumps(out, indent=1))
    else:
        old = json.loads(Path(args.out).read_text()) if Path(args.out).exists() else {}
        Path(args.out).write_text(json.dumps({**old, **out}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
