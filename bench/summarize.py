"""Fold the per-run results files into one BENCH_<label>.json.

Run from the repository root after a set of benchmark runs:

    python3 bench/summarize.py --label seed --out bench/results/BENCH_seed.json

For every workload and metric it keeps the median, the quartiles, the spread
(interquartile distance over the median) and the number of runs, split into
untraced (end-to-end) and traced (per-layer) runs, plus the environment of
the newest run and the self time per layer of every traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "runs": len(values), "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out |= {"q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
    return out


def summarize(results_dir: Path, label: str) -> dict:
    runs = [json.loads(p.read_text()) for p in sorted(results_dir.glob("*.json"))]
    runs = [r for r in runs if not r.get("smoke")]
    summary: dict = {"label": label, "workloads": {}}
    for run in sorted(runs, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        w = summary["workloads"].setdefault(run["workload"], {})
        part = w.setdefault("per_layer" if run["trace"] else "end_to_end",
                           {"seeds": [], "metrics": {}})
        part["seeds"].append(run["seed"])
        for name, m in run["metrics"].items():
            entry = part["metrics"].setdefault(name, {"unit": m["unit"], "values": []})
            entry["values"].append(m["value"])
        if run["trace"]:
            w.setdefault("self_time_s", {})[str(run["seed"])] = run["self_time_s"]
        summary["environment"] = run["environment"]
    for w in summary["workloads"].values():
        for part in ("end_to_end", "per_layer"):
            for entry in w.get(part, {}).get("metrics", {}).values():
                entry |= _stats(entry.pop("values"))
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--results", default=".bench_work/results")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    summary = summarize(Path(args.results), args.label)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
