"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5 and 6 need the real container / animal datasets, which are not
bundled; point IBNAMING_CONTAINER_DATA / IBNAMING_ANIMAL_DATA at directories
holding them (file schemas in the README) to run the full reproductions.
Without the data those two are skipped and criterion 7 replaces them with
golden-file runs on the bundled synthetic fixtures, whose expected values
were produced by the brute-force oracle and a frozen reference run.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ibnaming as ib
from ibnaming.cli import main as cli_main
from ibnaming.ingest import read_feature_table, read_naming_counts, read_similarity_csv

import oracle
import regen_golden
import sweep_digest
from conftest import FIXTURES, GOLDEN
from helpers import continued_ca_move, fixed_point_delta, random_space, random_system


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    print(f"[criterion {number}] PASS: {description}")


# ---------------------------------------------------------------------------
# criterion 1: property suite, no external data


class TestCriterion1Properties:
    N = 200

    def test_information_identities(self):
        with criterion(1, "DPI, distortion identity, KL, label invariance, "
                          "gNID symmetry, frontier shape (>=200 instances each)"):
            rng = np.random.default_rng(101)
            for i in range(self.N):
                space = random_space(rng, sparse=(i % 3 == 0))
                sys = random_system(rng, space)
                c = ib.complexity(sys, space.need)
                a = ib.accuracy(sys, space)
                assert a <= c + 1e-9
                assert a <= space.mutual_information + 1e-9
                assert abs((space.mutual_information - a)
                           - ib.expected_distortion(sys, space)) <= 1e-9

            rng = np.random.default_rng(102)
            for _ in range(self.N):
                n = int(rng.integers(2, 8))
                p = rng.dirichlet(np.ones(n))
                q = rng.dirichlet(np.ones(n))
                assert ib.kl_divergence(p, q) >= 0.0
                assert ib.kl_divergence(p, p) <= 1e-12

            rng = np.random.default_rng(103)
            for _ in range(self.N):
                space = random_space(rng)
                sys = random_system(rng, space)
                c = ib.complexity(sys, space.need)
                perm = rng.permutation(sys.num_words)
                shuffled = ib.NamingSystem(sys.encoder[:, perm],
                                           tuple(sys.word_labels[j] for j in perm),
                                           sys.meaning_labels)
                assert abs(ib.complexity(shuffled, space.need) - c) <= 1e-12

            rng = np.random.default_rng(104)
            for _ in range(self.N):
                space = random_space(rng)
                s1 = random_system(rng, space)
                s2 = random_system(rng, space)
                g12 = ib.gnid(s1, s2, space.need)
                assert abs(g12 - ib.gnid(s2, s1, space.need)) <= 1e-12
                assert ib.gnid(s1, s1, space.need) <= 1e-9
                perm = rng.permutation(s1.num_words)
                relabeled = ib.NamingSystem(s1.encoder[:, perm],
                                            tuple(f"z{j}" for j in range(s1.num_words)),
                                            s1.meaning_labels)
                assert abs(ib.gnid(relabeled, s2, space.need) - g12) <= 1e-9

    def test_frontier_monotone_concave(self):
        with criterion(1, "frontier monotonicity and concavity over 200 instances; "
                          "every point a converged fixed point (continued iteration "
                          "moves C and A by < 1e-8 bits)"):
            rng = np.random.default_rng(105)
            for _ in range(self.N):
                space = random_space(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
                cfg = ib.SolverConfig(beta_grid=ib.default_beta_grid(32.0, 20),
                                      max_iterations=4000)
                front = ib.anneal_frontier(space, cfg)
                assert front.validate() == []
                for point in front.points:
                    assert point.converged
                    assert continued_ca_move(space, point) < 1e-8


# ---------------------------------------------------------------------------
# criterion 2: brute-force oracle at desk scale


class TestCriterion2Oracle:
    INSTANCES = 20
    PROBE_BETAS = np.array([0.2, 0.5, 1.0, 1.5, 2.5, 4.0, 8.0, 16.0, 48.0, 128.0])

    def test_solver_matches_brute_force(self):
        with criterion(2, f"solver within 1e-3 of brute force on {self.INSTANCES} "
                          "instances at 10 betas; all oracle encoders above the "
                          "frontier (eps >= -1e-6)"):
            rng = np.random.default_rng(202)
            for i in range(self.INSTANCES):
                n_m = int(rng.integers(2, 5))
                n_u = int(rng.integers(2, 6))
                n_w = int(rng.integers(2, 4))
                space = random_space(rng, n_m, n_u)
                filler = np.geomspace(0.05, 128.0, 30)
                grid = sorted({0.0, *self.PROBE_BETAS.tolist(), *filler.tolist()})
                cfg = ib.SolverConfig(beta_grid=tuple(grid), max_iterations=8000)
                front = ib.anneal_frontier(space, cfg)
                solver_f = {p.beta: p.objective_bits for p in front.points}

                grid_betas = np.array([p.beta for p in front.points if p.beta > 0])
                grid_obj = np.array([p.objective_bits for p in front.points
                                     if p.beta > 0])
                best, worst_margin = oracle.scan(
                    space.need.mass, space.representations, n_w, self.PROBE_BETAS,
                    grid_betas=grid_betas, grid_objectives=grid_obj,
                )
                for beta, bound in zip(self.PROBE_BETAS, best):
                    assert solver_f[float(beta)] <= bound + 1e-3, (
                        f"instance {i}: solver {solver_f[float(beta)]:.8f} vs "
                        f"oracle {bound:.8f} at beta={beta}"
                    )
                assert worst_margin >= -1e-6, f"instance {i}: margin {worst_margin}"


# ---------------------------------------------------------------------------
# criterion 3: fixed-point residuals


class TestCriterion3FixedPoint:
    def test_extra_update_is_stationary(self):
        with criterion(3, "converged points change F by < 1e-10 under one extra "
                          "update, and C and A by < 1e-8 under continued iteration "
                          "(random instances + both fixture pipelines)"):
            rng = np.random.default_rng(303)
            for _ in range(5):
                space = random_space(rng, int(rng.integers(3, 6)), int(rng.integers(3, 6)))
                cfg = ib.SolverConfig(beta_grid=ib.default_beta_grid(64.0, 30),
                                      max_iterations=8000)
                front = ib.anneal_frontier(space, cfg)
                for point in front.points:
                    assert point.converged
                    assert fixed_point_delta(space, point) < 1e-10
                    assert continued_ca_move(space, point) < 1e-8

            c_space, _, _, c_front = regen_golden.container_pipeline()
            for space, front in ((c_space, c_front), regen_golden.animal_pipeline()):
                for point in front.points:
                    assert point.converged, f"beta={point.beta}"
                    assert fixed_point_delta(space, point) < 1e-10
                    assert continued_ca_move(space, point) < 1e-8, f"beta={point.beta}"


# ---------------------------------------------------------------------------
# criterion 4: CLI determinism


class TestCriterion4Determinism:
    @staticmethod
    def tree_bytes(root: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and "manifest" not in p.name
        }

    def test_frontier_and_baseline_byte_identical(self, tmp_path):
        with criterion(4, "frontier and baseline outputs byte-identical across "
                          "two runs with the same seed"):
            runner = CliRunner()

            def invoke(args):
                result = runner.invoke(cli_main, args, catch_exceptions=False)
                assert result.exit_code == 0, result.output

            space = tmp_path / "space.csv"
            prior = tmp_path / "prior.csv"
            invoke(["make-space", "--similarity", str(FIXTURES / "similarity.csv"),
                    "--out", str(space)])
            invoke(["make-prior", "--naming", str(FIXTURES / "naming_a.tsv"),
                    "--naming", str(FIXTURES / "naming_b.tsv"),
                    "--space", str(space), "--out", str(prior)])
            front_args = ["frontier", "--space", str(space), "--need", str(prior),
                          "--beta-max", "32", "--num-betas", "40"]
            invoke(front_args + ["--out", str(tmp_path / "f1")])
            invoke(front_args + ["--out", str(tmp_path / "f2")])
            assert self.tree_bytes(tmp_path / "f1") == self.tree_bytes(tmp_path / "f2")

            base_args = ["baseline", "--system", str(FIXTURES / "naming_a.tsv"),
                         "--space", str(space), "--need", str(prior),
                         "--frontier", str(tmp_path / "f1"),
                         "--samples", "40", "--seed", "17"]
            invoke(base_args + ["--out", str(tmp_path / "b1.json")])
            invoke(base_args + ["--out", str(tmp_path / "b2.json")])
            assert (tmp_path / "b1.json").read_bytes() == (tmp_path / "b2.json").read_bytes()


# ---------------------------------------------------------------------------
# criteria 5 and 6: conditional reproductions on the real datasets


CONTAINER_ENV = "IBNAMING_CONTAINER_DATA"
ANIMAL_ENV = "IBNAMING_ANIMAL_DATA"

TABLE1 = {  # condition -> (inefficiency, gnid)
    "dutch_monolingual": (0.16, 0.11),
    "dutch_bilingual": (0.17, 0.12),
    "french_monolingual": (0.18, 0.11),
    "french_bilingual": (0.17, 0.09),
}
TABLE1_BASELINE = {  # language -> (eps mean, gnid mean)
    "dutch": (0.29, 0.59),
    "french": (0.31, 0.56),
}

FISH_NAMES = {
    "carp", "eel", "goldfish", "herring", "pike", "piranha", "plaice", "ray",
    "salmon", "sardine", "shark", "sole", "squid", "stickleback", "swordfish",
    "trout", "tuna", "anchovy", "cod", "dolphin", "whale", "orca",
}
WUG_NAMES = {
    "ant", "bee", "beetle", "bumblebee", "butterfly", "caterpillar", "centipede",
    "cockroach", "cricket", "earthworm", "flea", "fly", "grasshopper", "ladybug",
    "leech", "louse", "maggot", "mosquito", "moth", "slug", "snail", "spider",
    "wasp", "worm", "woodworm", "dragonfly", "earwig", "millipede",
}
BIRD_NAMES = {
    "blackbird", "canary", "chicken", "crow", "cuckoo", "dove", "duck", "eagle",
    "falcon", "goose", "gull", "heron", "magpie", "ostrich", "owl", "parakeet",
    "parrot", "peacock", "pelican", "penguin", "pheasant", "pigeon", "robin",
    "rooster", "seagull", "sparrow", "stork", "swallow", "swan", "turkey",
    "vulture", "woodpecker", "wren",
}
MAMMAL_NAMES = {
    "bat", "bear", "beaver", "bison", "boar", "camel", "cat", "cow", "deer",
    "dog", "donkey", "dromedary", "elephant", "fox", "giraffe", "goat",
    "hamster", "hare", "hedgehog", "hippopotamus", "horse", "kangaroo", "lion",
    "llama", "monkey", "mouse", "mule", "pig", "polar bear", "pony", "rabbit",
    "rat", "rhinoceros", "sheep", "squirrel", "tiger", "wolf", "zebra",
}


def _majority(names, vocabulary) -> bool:
    hits = sum(1 for n in names if n.lower().strip() in vocabulary)
    return hits > len(names) / 2


@pytest.mark.skipif(CONTAINER_ENV not in os.environ,
                    reason=f"set {CONTAINER_ENV} to the container data directory")
class TestCriterion5ContainerReproduction:
    def test_table1_reproduction(self):
        with criterion(5, "container naming reproduces the reference inefficiency/"
                          "gNID table within tolerance"):
            root = Path(os.environ[CONTAINER_ENV])
            sim = read_similarity_csv(root / "similarity.csv")
            space0 = ib.meaning_space_from_similarity(sim)
            order = space0.meaning_labels
            systems = {}
            mono_systems, mono_weights = [], []
            for cond in TABLE1:
                counts = read_naming_counts(root / f"naming_{cond}.tsv")
                systems[cond] = ib.naming_system_from_counts(counts, meaning_order=order)
                if cond.endswith("monolingual"):
                    mono_systems.append(systems[cond])
                    mono_weights.append(ib.naming_weights_from_counts(counts, order))
            prior = ib.li_prior(mono_systems, epsilon=0.001,
                                meaning_weights=mono_weights)
            space = ib.attach_need(space0, prior)
            cfg = ib.SolverConfig(beta_grid=ib.default_beta_grid(1024.0, 1500))
            front = ib.anneal_frontier(space, cfg)

            reports = {}
            try:
                for cond, (eps_ref, gnid_ref) in TABLE1.items():
                    rep = ib.fit_beta(systems[cond], space, front)
                    reports[cond] = rep
                    assert rep.inefficiency_bits == pytest.approx(eps_ref, abs=0.03), cond
                    assert rep.gnid == pytest.approx(gnid_ref, abs=0.03), cond
                    assert rep.fitted_beta == pytest.approx(1.2, abs=0.15), cond
            except AssertionError:
                # the reference values are sensitive to the LI-prior recipe;
                # report the uniform-need cross-check before failing
                uspace = ib.attach_need(space0, "uniform")
                ufront = ib.anneal_frontier(uspace, cfg)
                print("uniform-need cross-check (inefficiency / gNID / beta_l):")
                for cond in TABLE1:
                    urep = ib.fit_beta(systems[cond], uspace, ufront)
                    print(f"  {cond}: {urep.inefficiency_bits:.3f} / "
                          f"{urep.gnid:.3f} / {urep.fitted_beta:.3f}")
                raise

            for lang, (eps_ref, gnid_ref) in TABLE1_BASELINE.items():
                summary = ib.permutation_baseline(
                    systems[f"{lang}_monolingual"], space, front, 10_000, seed=7
                )
                assert summary.inefficiency_mean == pytest.approx(eps_ref, abs=0.04), lang
                assert summary.gnid_mean == pytest.approx(gnid_ref, abs=0.04), lang

            mix_mono = ib.mixture_complexity(systems["dutch_monolingual"],
                                             systems["french_monolingual"],
                                             space.need, 0.5)
            mix_bil = ib.mixture_complexity(systems["dutch_bilingual"],
                                            systems["french_bilingual"],
                                            space.need, 0.5)
            reduction_pct = 100.0 * (1.0 - mix_bil / mix_mono)
            assert reduction_pct == pytest.approx(0.16, abs=0.1)


@pytest.mark.skipif(ANIMAL_ENV not in os.environ,
                    reason=f"set {ANIMAL_ENV} to the animal data directory")
class TestCriterion6AnimalReproduction:
    def test_hierarchy_reproduction(self):
        with criterion(6, "animal hierarchy reproduces the fish / wug / bird-mammal "
                          "layers with reference category masses"):
            root = Path(os.environ[ANIMAL_ENV])
            table = read_feature_table(root / "features.csv", root / "familiarity.csv")
            space = ib.meaning_space_from_features(table)
            assert space.num_meanings == 113 and space.num_universe == 757
            cfg = ib.SolverConfig(beta_grid=ib.default_beta_grid(2.0 ** 13, 3000))
            front = ib.anneal_frontier(space, cfg)
            report = ib.hierarchy_report(front, [1, 2, 3, 4], space, top_n=5)
            layers = {layer.k: layer for layer in report.layers}

            k2_names = [[m for m, _ in prof.top_meanings]
                        for prof in layers[2].profiles]
            assert any(_majority(names, FISH_NAMES) for names in k2_names)

            k3 = layers[3].profiles
            fish = [p for p in k3 if _majority([m for m, _ in p.top_meanings], FISH_NAMES)]
            wug = [p for p in k3 if _majority([m for m, _ in p.top_meanings], WUG_NAMES)]
            birdmam = [
                p for p in k3
                if _majority([m for m, _ in p.top_meanings], BIRD_NAMES | MAMMAL_NAMES)
            ]
            assert fish and wug and birdmam
            assert birdmam[0].mass == pytest.approx(0.8, abs=0.05)
            assert wug[0].mass == pytest.approx(0.14, abs=0.05)

            k4 = layers[4].profiles
            birds = [p for p in k4 if _majority([m for m, _ in p.top_meanings], BIRD_NAMES)]
            mammals = [p for p in k4
                       if _majority([m for m, _ in p.top_meanings], MAMMAL_NAMES)]
            assert birds and mammals


# ---------------------------------------------------------------------------
# criterion 7: golden-file runs on the bundled synthetic fixtures


def assert_close(actual, expected, path="", atol=1e-6):
    if isinstance(expected, dict):
        assert set(actual) == set(expected), f"{path}: keys differ"
        for key in expected:
            assert_close(actual[key], expected[key], f"{path}.{key}", atol)
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), f"{path}: length differs"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{path}[{i}]", atol)
    elif isinstance(expected, bool) or expected is None or isinstance(expected, str):
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"
    elif isinstance(expected, (int, float)):
        assert actual == pytest.approx(expected, abs=atol), (
            f"{path}: {actual!r} != {expected!r}"
        )
    else:
        raise AssertionError(f"{path}: unhandled golden type {type(expected)}")


class TestCriterion7Golden:
    def test_container_pipeline_matches_golden(self):
        with criterion(7, "container fixture pipeline matches golden outputs and "
                          "the frozen oracle bounds"):
            golden = json.loads((GOLDEN / "container.json").read_text())
            fresh = regen_golden.container_golden()
            assert_close(fresh, golden)
            # solver at the probe betas must match-or-beat the enumerated bound
            for idx, bound in zip(golden["oracle"]["probe_indices"],
                                  golden["oracle"]["det_best_objective_bits"]):
                assert fresh["frontier"]["objective_bits"][idx] <= bound + 1e-3
            assert fresh["oracle"]["worst_margin"] >= -1e-6

    def test_animal_pipeline_matches_golden(self):
        with criterion(7, "animal fixture pipeline matches golden hierarchy and "
                          "the frozen oracle bounds"):
            golden = json.loads((GOLDEN / "animal.json").read_text())
            fresh = regen_golden.animal_golden()
            assert_close(fresh, golden)
            for idx, bound in zip(golden["oracle"]["probe_indices"],
                                  golden["oracle"]["det_best_objective_bits"]):
                assert fresh["frontier"]["objective_bits"][idx] <= bound + 1e-3
            assert fresh["oracle"]["worst_margin"] >= -1e-6
            ks = [layer["k"] for layer in fresh["hierarchy"]["layers"]]
            assert ks == [1, 2, 3, 4]


def test_golden_compare_counts_every_change(tmp_path, monkeypatch, capsys):
    # regen_golden.py --compare exits 1 when this count is not 0
    golden = {"frontier": {"betas": [1.0], "complexity_bits": [0.5], "accuracy_bits": [0.25],
                           "effective_k": [2]},
              "space_mutual_information": 1.0, "labels": ["a"]}
    (tmp_path / "x.json").write_text(json.dumps(golden))
    monkeypatch.setattr(regen_golden, "GOLDEN", tmp_path)
    assert regen_golden.compare("x.json", golden, None, None) == 0
    moved = {**golden, "space_mutual_information": 1.0 + 2 * regen_golden.GOLDEN_ATOL,
             "labels": ["b"]}
    assert regen_golden.compare("x.json", moved, None, None) == 2
    assert capsys.readouterr().out.splitlines()[-1] == "  2 changed"


def test_sweep_digest_identical_gate(capsys):
    # --compare exits 1 on an effective_k flip; --identical also on a hash
    # or an evaluation count that moved
    grid = {"beta": [0.0, 1.0], "effective_k": [1, 2], "complexity_bits": [0.0, 0.5],
            "accuracy_bits": [0.0, 0.25], "evaluations": 9, "repair_solves": 1,
            "repair_evaluations": 3, "chain_evaluations": 9, "unconverged": 0,
            "envelope_gap_bits": 0.0, "sha256": "ab"}
    before = {"g": grid}
    for change, flipped in (({}, False), ({"sha256": "cd"}, False),
                            ({"chain_evaluations": 10}, False), ({"repair_evaluations": 4}, False),
                            ({"effective_k": [1, 3]}, True)):
        after = {"g": grid | change}
        assert sweep_digest.compare(before, after) == int(flipped)
        assert sweep_digest.compare(before, after, identical=True) == int(bool(change))
    capsys.readouterr()
    # the repair solves and the largest rise of F are printed
    sweep_digest.compare(before, {"g": grid | {"repair_solves": 2, "repair_evaluations": 4,
                                               "complexity_bits": [0.0, 0.75]}})
    out = capsys.readouterr().out
    assert "max F rise 0.25," in out and "repair solves 1 -> 2 (3 -> 4 evaluations)" in out
    assert "warning" not in out
    # an evaluation count means nothing without its kernel: a warning, not a failure
    kernel = {"g": grid | {"blas_kernel": "SkylakeX"}}
    assert sweep_digest.compare(kernel, {"g": grid | {"blas_kernel": "Haswell"}}) == 0
    assert sweep_digest.compare(before, kernel) == 0
    assert capsys.readouterr().out.splitlines()[::2] == [
        "warning: g: OpenBLAS kernels differ (SkylakeX -> Haswell), so the evaluation counts "
        "are not comparable",
        "warning: g: OpenBLAS kernels differ (unrecorded -> SkylakeX), so the evaluation counts "
        "are not comparable"]
