"""Regenerate golden outputs for the bundled fixtures.

Run from the repository root after regen_fixtures.py:

    python tests/regen_golden.py            # rewrite tests/golden/*.json
    python tests/regen_golden.py --compare  # report what would change, write nothing

The comparison lists every value that differs from the committed golden by
more than the golden tests' tolerance (GOLDEN_ATOL), and exits with status 1
if there is any. For a frontier complexity or accuracy it also prints the
limit reached by iterating on from the fresh point with pruning off, and
says which of the old and new values is closer to it. Each changed
effective_k and each moved hierarchy layer comes with the figures that
explain it.

The frozen values come from two sources: the library pipeline itself (for
determinism checks at loose float tolerance) and the brute-force oracle (for
optimality bounds: the solver must match or beat the best enumerated encoder
at every probe beta, and no enumerated encoder may dip below the frontier).
At this scale the oracle enumerates all 4^10 deterministic four-word
encoders; the soft simplex grid is exercised at the smaller scales covered
by the oracle acceptance test.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

import ibnaming as ib
from ibnaming.ingest import read_feature_table, read_naming_counts, read_similarity_csv

import oracle

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

CONTAINER_BETA_MAX = 64.0
CONTAINER_NUM_BETAS = 150
ANIMAL_BETA_MAX = 8192.0
ANIMAL_NUM_BETAS = 200
BASELINE_SAMPLES = 100
BASELINE_SEED = 7
# indices into the frontier grid probed against the oracle
ORACLE_GRID_INDICES = [15, 35, 55, 75, 90, 105, 120, 130, 140, 149]
ORACLE_WORDS = 4
# tolerance of the golden tests (assert_close in test_acceptance.py)
GOLDEN_ATOL = 1e-6


def frontier_summary(front: ib.Frontier) -> dict:
    return {
        "betas": [p.beta for p in front.points],
        "complexity_bits": [p.complexity_bits for p in front.points],
        "accuracy_bits": [p.accuracy_bits for p in front.points],
        "objective_bits": [p.objective_bits for p in front.points],
        "effective_k": [p.effective_k for p in front.points],
        "converged": [p.converged for p in front.points],
    }


def oracle_block(space: ib.MeaningSpace, front: ib.Frontier) -> dict:
    p = space.need.mass
    reps = space.representations
    probe_betas = np.array([front.points[i].beta for i in ORACLE_GRID_INDICES])
    grid_betas = np.array([pt.beta for pt in front.points if pt.beta > 0])
    grid_objectives = np.array([pt.objective_bits for pt in front.points if pt.beta > 0])
    best = np.full(len(probe_betas), np.inf)
    worst_margin = np.inf
    for stack in oracle.deterministic_encoders(space.num_meanings, ORACLE_WORDS):
        c, a = oracle.batch_tradeoffs(p, reps, stack)
        f = c[:, None] - a[:, None] * probe_betas[None, :]
        best = np.minimum(best, f.min(axis=0))
        fg = c[:, None] - a[:, None] * grid_betas[None, :]
        margin = (fg - grid_objectives[None, :]) / grid_betas[None, :]
        worst_margin = min(worst_margin, float(margin.min()))
    return {
        "probe_indices": ORACLE_GRID_INDICES,
        "probe_betas": probe_betas.tolist(),
        "det_best_objective_bits": best.tolist(),
        "worst_margin": worst_margin,
        "num_words": ORACLE_WORDS,
    }


def container_pipeline():
    sim = read_similarity_csv(FIXTURES / "similarity.csv")
    space0 = ib.meaning_space_from_similarity(sim)
    order = space0.meaning_labels
    systems = {}
    weights = []
    for key, fname in (("langA", "naming_a.tsv"), ("langB", "naming_b.tsv")):
        counts = read_naming_counts(FIXTURES / fname)
        systems[key] = ib.naming_system_from_counts(counts, meaning_order=order)
        weights.append(ib.naming_weights_from_counts(counts, order))
    prior = ib.li_prior(list(systems.values()), epsilon=0.001, meaning_weights=weights)
    space = ib.attach_need(space0, prior)
    cfg = ib.SolverConfig(
        beta_grid=ib.default_beta_grid(CONTAINER_BETA_MAX, CONTAINER_NUM_BETAS)
    )
    front = ib.anneal_frontier(space, cfg)
    return space, prior, systems, front


def container_golden() -> dict:
    return container_payload(*container_pipeline())


def container_payload(space, prior, systems, front) -> dict:
    assert front.validate() == []
    evals = {
        key: ib.fit_beta(sys, space, front).to_json_dict()
        for key, sys in systems.items()
    }
    base = ib.permutation_baseline(systems["langA"], space, front,
                                   BASELINE_SAMPLES, BASELINE_SEED)
    mix = ib.mixture_complexity(systems["langA"], systems["langB"], space.need, 0.5)
    return {
        "config": {"beta_max": CONTAINER_BETA_MAX, "num_betas": CONTAINER_NUM_BETAS},
        "prior": {"labels": list(prior.labels), "mass": prior.mass.tolist()},
        "space_mutual_information": space.mutual_information,
        "frontier": frontier_summary(front),
        "eval": evals,
        "baseline_langA": base.to_json_dict(),
        "mixture": {
            "weight": 0.5,
            "joint_bits": mix,
            "complexity_langA": ib.complexity(systems["langA"], space.need),
            "complexity_langB": ib.complexity(systems["langB"], space.need),
        },
        "oracle": oracle_block(space, front),
    }


def animal_pipeline():
    table = read_feature_table(FIXTURES / "features.csv", FIXTURES / "familiarity.csv")
    space = ib.meaning_space_from_features(table)
    cfg = ib.SolverConfig(beta_grid=ib.default_beta_grid(ANIMAL_BETA_MAX, ANIMAL_NUM_BETAS))
    return space, ib.anneal_frontier(space, cfg)


def animal_golden() -> dict:
    return animal_payload(*animal_pipeline())


def animal_payload(space, front) -> dict:
    assert front.validate() == []
    report = ib.hierarchy_report(front, [1, 2, 3, 4], space, top_n=5)
    return {
        "config": {"beta_max": ANIMAL_BETA_MAX, "num_betas": ANIMAL_NUM_BETAS},
        "need": {"labels": list(space.need.labels), "mass": space.need.mass.tolist()},
        "space_mutual_information": space.mutual_information,
        "frontier": frontier_summary(front),
        "hierarchy": report.to_json_dict(),
        "oracle": oracle_block(space, front),
    }


def _changed(old, new, path=""):
    """(path, old, new) for every leaf that differs beyond GOLDEN_ATOL."""
    if isinstance(old, dict):
        for key in sorted(set(old) | set(new)):
            if key not in old or key not in new:
                yield f"{path}.{key}", old.get(key), new.get(key)
            else:
                yield from _changed(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _changed(a, b, f"{path}[{i}]")
    elif isinstance(old, (bool, str, list)) or old is None or isinstance(new, (bool, str, list)):
        if old != new:
            yield path, old, new
    elif abs(old - new) > GOLDEN_ATOL:
        yield path, old, new


def _limit(space: ib.MeaningSpace, point: ib.FrontierPoint) -> ib.FrontierPoint:
    config = ib.SolverConfig(beta_grid=(point.beta,), mass_prune_threshold=0.0)
    return ib.solve_at_beta(space, point.beta, point.encoder, config)


def _smallest_gap(space: ib.MeaningSpace, point: ib.FrontierPoint) -> float:
    """Smallest max-norm distance between reconstructions of counted words."""
    listener = ib.bayesian_listener(point.encoder, space)
    word_mass = space.need.mass @ point.encoder.encoder
    rows = listener.reconstructions[word_mass > ib.DEFAULT_CATEGORY_MASS_THRESHOLD]
    if len(rows) < 2:
        return float("inf")
    gaps = np.abs(rows[:, None, :] - rows[None, :, :]).max(axis=2)
    return float(gaps[np.triu_indices(len(rows), 1)].min())


def compare(name: str, payload: dict, space: ib.MeaningSpace, front: ib.Frontier) -> int:
    """Print how payload differs from the committed golden file, and why;
    returns the number of values that differ beyond GOLDEN_ATOL."""
    old = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    print(f"== {name}")
    fo, fn = old["frontier"], payload["frontier"]
    limits: dict[int, ib.FrontierPoint] = {}
    closer = farther = 0
    worst_old = worst_new = 0.0
    for key in ("complexity_bits", "accuracy_bits"):
        for i, (a, b) in enumerate(zip(fo[key], fn[key])):
            if abs(a - b) <= GOLDEN_ATOL:
                continue
            if i not in limits:
                limits[i] = _limit(space, front.points[i])
            lim = getattr(limits[i], key)
            ok = abs(b - lim) < abs(a - lim)
            closer += ok
            farther += not ok
            worst_old = max(worst_old, abs(a - lim))
            worst_new = max(worst_new, abs(b - lim))
            print(f"  {key}[{i}] beta={fn['betas'][i]:.6g}: golden {a:.10f} new {b:.10f} "
                  f"limit {lim:.10f} -> {'new' if ok else 'GOLDEN'} is closer")
    print(f"  C/A: {closer + farther} changed, new closer to the limit in {closer}; "
          f"largest |golden - limit| {worst_old:.2e}, largest |new - limit| {worst_new:.2e}")
    for i, (a, b) in enumerate(zip(fo["effective_k"], fn["effective_k"])):
        if a == b:
            continue
        point = front.points[i]
        limit = _limit(space, point)
        dc = abs(fo["complexity_bits"][i] - fn["complexity_bits"][i])
        why = (f"the golden counted {a - b} more word(s) than the limit keeps" if b < a
               else f"the golden counted {b - a} fewer word(s) than the limit keeps")
        if dc > GOLDEN_ATOL:
            why += f"; C moved by {dc:.2e}"
        gap = _smallest_gap(space, point)
        print(f"  effective_k[{i}] beta={point.beta:.6g}: golden {a} new {b} limit "
              f"{limit.effective_k}; {why}; counted words of the new point are "
              + (f"at least {gap:.2e} apart" if np.isfinite(gap) else "a single word"))
    if "hierarchy" in payload:
        for lo, ln in zip(old["hierarchy"]["layers"], payload["hierarchy"]["layers"]):
            if abs(lo["beta"] - ln["beta"]) <= GOLDEN_ATOL:
                continue
            i = fn["betas"].index(ln["beta"])
            print(f"  hierarchy k={ln['k']}: golden beta={lo['beta']:.6g} "
                  f"(A={lo['accuracy_bits']:.7f}) -> new beta={ln['beta']:.6g} "
                  f"(A={ln['accuracy_bits']:.7f}); at the new beta the golden counted "
                  f"k={fo['effective_k'][i]}, the new run counts k={fn['effective_k'][i]}")
    shown = (".frontier.complexity_bits[", ".frontier.accuracy_bits[", ".frontier.effective_k[")
    changed = list(_changed(old, payload))
    for path, a, b in changed:
        if not path.startswith(shown):
            print(f"  {path}: golden {a!r} new {b!r}")
    print(f"  {len(changed)} changed")
    return len(changed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", action="store_true",
                        help="report changes against the committed goldens; write nothing")
    args = parser.parse_args(argv)
    GOLDEN.mkdir(exist_ok=True)
    c_space, prior, systems, c_front = container_pipeline()
    a_space, a_front = animal_pipeline()
    runs = (("container.json", container_payload(c_space, prior, systems, c_front),
             c_space, c_front),
            ("animal.json", animal_payload(a_space, a_front), a_space, a_front))
    changed = 0
    for name, payload, space, front in runs:
        if args.compare:
            changed += compare(name, payload, space, front)
            continue
        (GOLDEN / name).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                                   encoding="utf-8")
        print(f"wrote {GOLDEN / name}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
