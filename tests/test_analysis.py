import dataclasses
import os
import signal
import subprocess
import textwrap
from pathlib import Path
from sys import executable

import numpy as np
import pytest

from ibnaming import (
    CategorySelectionError,
    Distribution,
    FingerprintMismatchError,
    Frontier,
    FrontierPoint,
    IBNamingError,
    MeaningSpace,
    NamingSystem,
    SolverConfig,
    ValidationError,
    accuracy,
    anneal_frontier,
    category_profiles,
    complexity,
    default_beta_grid,
    fit_beta,
    gnid,
    hierarchy_report,
    mixture_complexity,
    permutation_baseline,
    solve_at_beta,
)
from ibnaming import analysis
from conftest import assert_no_child_left
from helpers import identity_system, random_space, random_system


def make_frontier(space, beta_max=32.0, num=40, **kwargs):
    kwargs.setdefault("max_iterations", 8000)
    cfg = SolverConfig(beta_grid=default_beta_grid(beta_max, num), **kwargs)
    return anneal_frontier(space, cfg)


# Objectives tried on each side of the real-valued tie, in ulps, and betas tried.
_TIE_ULPS = 8
_TIE_BETAS = 256


def _tying_point(c: float, a: float, eps: float, last_beta: float) -> tuple[float, float]:
    """(beta, objective) of a point past ``last_beta`` whose eps, computed as
    fit_beta computes it, (c - beta * a - objective) / beta, equals ``eps``.

    A tie need not exist at a given beta: the differences c - beta * a -
    objective lie on the grid of the objective's ulp, which can be coarser
    than beta * ulp(eps). At a power-of-two beta the subtraction and the
    division are both exact, so an eps whose last mantissa bit is odd never
    ties there. So each beta gets a fixed window of objectives around the
    real-valued tie, and the betas spread over [2, 4) times ``last_beta`` in
    golden-ratio steps, which puts each at an unrelated offset to that grid.
    """
    for j in range(_TIE_BETAS):
        beta = 2 * last_beta * (1 + (j * 0.6180339887498949) % 1)
        below = above = c - beta * a - beta * eps
        for _ in range(_TIE_ULPS + 1):
            for obj in (below, above):
                if (c - beta * a - obj) / beta == eps:
                    return beta, float(obj)
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
    pytest.fail(f"no objective within {_TIE_ULPS} ulps ties eps = {eps!r} "
                f"(c = {c!r}, a = {a!r}) at {_TIE_BETAS} betas from {2 * last_beta}")


class TestFitBeta:
    def test_own_encoder_is_efficient(self, rng):
        space = random_space(rng, 4, 5)
        front = make_frontier(space)
        for point in front.points[::7]:
            if point.beta <= 0:
                continue
            report = fit_beta(point.encoder, space, front)
            assert report.inefficiency_bits <= 1e-6
            assert report.gnid <= 1e-6

    def test_fingerprint_mismatch_rejected(self, rng):
        space = random_space(rng, 4, 5)
        other = random_space(rng, 4, 5)
        front = make_frontier(space)
        sys = random_system(rng, other, 3)
        with pytest.raises(FingerprintMismatchError):
            fit_beta(sys, other, front)

    def test_reports_positive_inefficiency(self, rng):
        space = random_space(rng, 5, 5)
        front = make_frontier(space)
        for _ in range(10):
            sys = random_system(rng, space)
            report = fit_beta(sys, space, front)
            assert report.inefficiency_bits >= -1e-6
            assert report.gnid <= 1 + 1e-9
            assert report.fitted_beta > 0
            assert report.matched_point is front.points[report.matched_index]

    def test_ties_go_to_the_smaller_beta(self, rng):
        space = random_space(rng, 4, 5)
        front = make_frontier(space)
        sys = random_system(rng, space, 3)
        report = fit_beta(sys, space, front)
        c, a, eps = report.complexity_bits, report.accuracy_bits, report.inefficiency_bits
        # one more point, past the end of the grid, whose eps equals the best exactly
        beta, obj = _tying_point(c, a, eps, front.points[-1].beta)
        tied = dataclasses.replace(report.matched_point, beta=beta, objective_bits=obj)
        extended = Frontier(front.points + (tied,), front.space_fingerprint, front.config)
        again = fit_beta(sys, space, extended)
        assert again.inefficiency_bits == eps
        assert again.matched_index == report.matched_index

    def test_frontier_without_positive_beta_rejected(self, rng):
        space = random_space(rng, 3, 3)
        front = make_frontier(space, beta_max=16, num=20)
        sys = random_system(rng, space, 2)
        empty = dataclasses.replace(front, points=())
        with pytest.raises(ValidationError, match="frontier has no points$"):
            fit_beta(sys, space, empty)
        beta_zero = dataclasses.replace(front, points=front.points[:1])
        assert beta_zero.points[0].beta == 0
        with pytest.raises(ValidationError, match="frontier has no points with beta > 0"):
            fit_beta(sys, space, beta_zero)

    def test_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma: 1.1 MB on the first fit of an eval or
        # baseline process
        script = textwrap.dedent("""
            import sys
            import numpy as np
            import ibnaming as ib
            labels = ("m0", "m1", "m2")
            reps = np.array([[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.2, 0.7]])
            space = ib.MeaningSpace.create(reps, ("u0", "u1", "u2"), labels,
                                           ib.Distribution.uniform(labels))
            front = ib.anneal_frontier(space, ib.SolverConfig(ib.default_beta_grid(16, 5)))
            system = ib.NamingSystem.create(np.eye(3), ("a", "b", "c"), labels)
            print("numpy.ma" in sys.modules, end=" ")
            ib.fit_beta(system, space, front)
            print("numpy.ma" in sys.modules)
        """)
        src = str(Path(analysis.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run([executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, check=True)
        assert done.stdout == "False False\n", done.stderr

    def test_json_dict_is_serializable(self, rng):
        import json

        space = random_space(rng, 3, 3)
        front = make_frontier(space, beta_max=16, num=20)
        report = fit_beta(random_system(rng, space, 2), space, front)
        payload = json.dumps(report.to_json_dict(), sort_keys=True)
        assert "fitted_beta" in payload


class TestGnid:
    def test_word_relabeling_invariant(self, rng):
        space = random_space(rng, 4, 4)
        sys = random_system(rng, space, 3)
        perm = rng.permutation(3)
        relabeled = NamingSystem(sys.encoder[:, perm],
                                 tuple(f"x{i}" for i in range(3)),
                                 sys.meaning_labels)
        assert gnid(sys, relabeled, space.need) == pytest.approx(0.0, abs=1e-9)

    def test_identity_vs_constant_is_one(self):
        labels = ("m0", "m1")
        need = Distribution.create([0.5, 0.5], labels)
        ident = NamingSystem.create(np.eye(2), ("w0", "w1"), labels)
        const = NamingSystem.create(np.ones((2, 1)), ("v0",), labels)
        assert gnid(ident, const, need) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self, rng):
        space = random_space(rng, 5, 4)
        a = random_system(rng, space, 3)
        b = random_system(rng, space, 4)
        assert gnid(a, b, space.need) == pytest.approx(gnid(b, a, space.need), abs=1e-12)

    def test_self_zero(self, rng):
        space = random_space(rng, 4, 4)
        a = random_system(rng, space, 3)
        assert gnid(a, a, space.need) <= 1e-9

    def test_two_constant_systems(self):
        labels = ("m0", "m1")
        need = Distribution.create([0.5, 0.5], labels)
        c1 = NamingSystem.create(np.ones((2, 1)), ("w0",), labels)
        c2 = NamingSystem.create(np.ones((2, 1)), ("v0",), labels)
        assert gnid(c1, c2, need) == 0.0

    def test_never_exceeds_one(self, rng):
        space = random_space(rng)
        for _ in range(100):
            a = random_system(rng, space)
            b = random_system(rng, space)
            assert gnid(a, b, space.need) <= 1 + 1e-9

    def test_nonnegative_against_deterministic_system(self, rng):
        # self-information of a deterministic system is maximal, so the
        # normalized value stays in [0, 1] whenever one side is deterministic
        space = random_space(rng, 4, 4)
        for _ in range(50):
            soft = random_system(rng, space)
            assert gnid(identity_system(space), soft, space.need) >= -1e-9

    def test_soft_pairs_can_dip_below_zero(self):
        # characterization: aligned noise across two soft systems makes the
        # cross information exceed both self-informations (no clamping)
        rng = np.random.default_rng(104)
        seen_negative = False
        for _ in range(200):
            space = random_space(rng)
            a = random_system(rng, space)
            b = random_system(rng, space)
            if gnid(a, b, space.need) < -1e-9:
                seen_negative = True
                break
        assert seen_negative

    def test_meaning_set_mismatch(self, rng):
        a = NamingSystem.create(np.eye(2), ("w0", "w1"), ("m0", "m1"))
        b = NamingSystem.create(np.eye(2), ("w0", "w1"), ("m1", "m0"))
        with pytest.raises(ValidationError):
            gnid(a, b, Distribution.create([0.5, 0.5], ("m0", "m1")))

    def test_need_of_wrong_length(self):
        a = NamingSystem.create(np.eye(2), ("w0", "w1"), ("m0", "m1"))
        need = Distribution.uniform(("m0", "m1", "m2"))
        with pytest.raises(ValidationError,
                           match="need has 3 entries, systems have 2 meanings"):
            gnid(a, a, need)


class TestPermutationBaseline:
    def test_uniform_need_preserves_complexity(self, rng):
        labels = tuple(f"m{i}" for i in range(5))
        space = MeaningSpace.create(rng.dirichlet(np.ones(4), size=5),
                                    tuple(f"u{i}" for i in range(4)), labels,
                                    Distribution.uniform(labels))
        sys = random_system(rng, space, 3)
        base = complexity(sys, space.need)
        for i in range(20):
            perm = np.random.default_rng(
                np.random.SeedSequence(entropy=4, spawn_key=(i,))).permutation(5)
            permuted = NamingSystem(sys.encoder[perm], sys.word_labels, labels)
            assert complexity(permuted, space.need) == pytest.approx(base, abs=1e-12)

    def test_reproducible(self, rng):
        space = random_space(rng, 4, 4)
        front = make_frontier(space, beta_max=16, num=25)
        sys = random_system(rng, space, 3)
        s1 = permutation_baseline(sys, space, front, 25, seed=13)
        s2 = permutation_baseline(sys, space, front, 25, seed=13)
        assert s1 == s2

    def test_population_sd(self, rng):
        space = random_space(rng, 4, 4)
        front = make_frontier(space, beta_max=16, num=25)
        sys = random_system(rng, space, 3)
        summary = permutation_baseline(sys, space, front, 30, seed=5)
        assert summary.inefficiency_sd >= 0
        assert summary.num_samples == 30

    def test_rejects_zero_samples(self, rng):
        space = random_space(rng, 3, 3)
        front = make_frontier(space, beta_max=8, num=15)
        with pytest.raises(ValidationError):
            permutation_baseline(random_system(rng, space, 2), space, front, 0, seed=1)

    def test_rejects_negative_seed(self, rng):
        space = random_space(rng, 3, 3)
        front = make_frontier(space, beta_max=8, num=15)
        with pytest.raises(ValidationError, match="seed"):
            permutation_baseline(random_system(rng, space, 2), space, front, 5, seed=-1)


def _scalar_fit(sys, space, front):
    """(eps, gnid, matched index) by the definition: one grid point at a time,
    strict < so that ties keep the smaller beta."""
    c, a = complexity(sys, space.need), accuracy(sys, space)
    best_eps, best = np.inf, None
    for i, p in enumerate(front.points):
        eps = (c - p.beta * a - p.objective_bits) / p.beta if p.beta > 0 else np.inf
        if eps < best_eps:
            best_eps, best = eps, i
    return best_eps, gnid(sys, front.points[best].encoder, space.need), best


class TestStackedBaseline:
    """The baseline fits its samples in stacks; each sample must get the fit
    that fit_beta gives its permuted system alone."""

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_matches_one_fit_per_sample(self, rng, monkeypatch, sparse, chunk):
        space = random_space(rng, 6, 5, sparse=sparse)
        front = make_frontier(space, beta_max=16, num=25)
        sys = random_system(rng, space, 4)
        # stacks of `chunk` samples: three full stacks and a remainder of 4
        monkeypatch.setattr(analysis, "_STACK_ENTRIES", chunk * 6 * 4)
        num_samples, seed = 3 * chunk + 4, 11
        eps, gn = np.empty(num_samples), np.empty(num_samples)
        for i in range(num_samples):
            perm = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(i,))).permutation(6)
            permuted = NamingSystem(sys.encoder[perm], sys.word_labels, sys.meaning_labels)
            report = fit_beta(permuted, space, front)
            eps[i], gn[i] = report.inefficiency_bits, report.gnid
            scalar_eps, scalar_gnid, index = _scalar_fit(permuted, space, front)
            assert report.matched_index == index
            assert abs(eps[i] - scalar_eps) <= 1e-12
            assert abs(gn[i] - scalar_gnid) <= 1e-12
        summary = permutation_baseline(sys, space, front, num_samples, seed)
        assert summary.num_samples == num_samples
        assert abs(summary.inefficiency_mean - eps.mean()) <= 1e-12
        assert abs(summary.inefficiency_sd - eps.std()) <= 1e-12
        assert abs(summary.gnid_mean - gn.mean()) <= 1e-12
        assert abs(summary.gnid_sd - gn.std()) <= 1e-12


class _Injected(Exception):
    pass


class TestForkedBaseline:
    """The baseline splits its chunks into runs, one per CPU, and fits all but
    the first in forked children; the summary must not depend on the split."""

    @pytest.fixture
    def instance(self, rng):
        space = random_space(rng, 6, 5)
        return random_system(rng, space, 4), space, make_frontier(space, beta_max=16, num=25)

    # 11 samples in chunks of 2, 4, 6 and 12 samples: 6, 3, 2 and 1 chunks,
    # the last of each short
    @pytest.mark.parametrize("chunk", [2, 4, 6, 12])
    def test_summary_independent_of_cpu_count(self, instance, monkeypatch, forks, chunk):
        sys, space, front = instance
        monkeypatch.setattr(analysis, "_STACK_ENTRIES", chunk * 6 * 4)
        summaries = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(analysis, "_cpu_count", lambda: cpus)
            forks.clear()
            summaries[cpus] = permutation_baseline(sys, space, front, 11, seed=3)
            assert len(forks) == min(cpus, -(-11 // chunk)) - 1
            assert_no_child_left()
        one = dataclasses.asdict(summaries[1])
        for cpus in (2, 3):
            for name, value in dataclasses.asdict(summaries[cpus]).items():
                assert value == one[name], (cpus, name)

    def test_child_result_larger_than_a_pipe_buffer(self, instance, monkeypatch, forks):
        sys, space, front = instance
        # 9,000 samples in 2 runs: the child sends 4,500 x 2 floats, 72 KB
        monkeypatch.setattr(analysis, "_STACK_ENTRIES", 500 * 6 * 4)
        monkeypatch.setattr(analysis, "_cpu_count", lambda: 1)
        one = permutation_baseline(sys, space, front, 9000, seed=8)
        monkeypatch.setattr(analysis, "_cpu_count", lambda: 2)
        assert permutation_baseline(sys, space, front, 9000, seed=8) == one
        assert len(forks) == 1
        assert_no_child_left()

    def _fail_in(self, monkeypatch, child: bool, how, cpus: int = 3):
        """11 samples in chunks of 2 on ``cpus`` processes, with the stacked fit
        calling ``how()`` first in each child if ``child``, else in the parent."""
        parent, fit = os.getpid(), analysis._StackFit.__call__

        def failing_fit(self, *args):
            if (os.getpid() != parent) == child:
                how()
            return fit(self, *args)

        monkeypatch.setattr(analysis._StackFit, "__call__", failing_fit)
        monkeypatch.setattr(analysis, "_STACK_ENTRIES", 2 * 6 * 4)
        monkeypatch.setattr(analysis, "_cpu_count", lambda: cpus)

    @staticmethod
    def _raise():
        raise _Injected("injected failure")

    def test_child_exception_surfaces_in_parent(self, instance, monkeypatch, forks):
        self._fail_in(monkeypatch, True, self._raise)
        with pytest.raises(IBNamingError, match="samples 4 to 7 failed: _Injected: injected"):
            permutation_baseline(*instance, 11, seed=3)
        assert len(forks) == 2
        assert_no_child_left()

    def test_killed_child_surfaces_in_parent(self, instance, monkeypatch, forks):
        self._fail_in(monkeypatch, True, lambda: os.kill(os.getpid(), signal.SIGKILL), cpus=2)
        with pytest.raises(IBNamingError, match="killed by signal 9"):
            permutation_baseline(*instance, 11, seed=3)
        assert_no_child_left()

    def test_parent_exception_reaps_children(self, instance, monkeypatch, forks):
        self._fail_in(monkeypatch, False, self._raise)
        with pytest.raises(_Injected, match="injected failure"):
            permutation_baseline(*instance, 11, seed=3)
        assert len(forks) == 2
        assert_no_child_left()


class TestMixtureComplexity:
    def test_relabeled_copy_keeps_complexity(self, rng):
        space = random_space(rng, 4, 4)
        sys = random_system(rng, space, 3)
        copy = NamingSystem(sys.encoder, ("x0", "x1", "x2"), sys.meaning_labels)
        assert mixture_complexity(sys, copy, space.need, 0.5) == pytest.approx(
            complexity(sys, space.need), abs=1e-12
        )

    def test_two_deterministic_systems_one_bit(self):
        labels = ("m0", "m1")
        need = Distribution.create([0.5, 0.5], labels)
        a = NamingSystem.create(np.eye(2), ("w0", "w1"), labels)
        b = NamingSystem.create(np.eye(2)[::-1], ("v0", "v1"), labels)
        assert mixture_complexity(a, b, need, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_equals_weighted_average(self, rng):
        space = random_space(rng)
        for _ in range(50):
            a = random_system(rng, space)
            b = random_system(rng, space)
            w = float(rng.random())
            expected = w * complexity(a, space.need) + (1 - w) * complexity(b, space.need)
            assert mixture_complexity(a, b, space.need, w) == pytest.approx(
                expected, abs=1e-9
            )

    def test_weight_bounds(self, rng):
        space = random_space(rng, 3, 3)
        a = random_system(rng, space, 2)
        with pytest.raises(ValidationError):
            mixture_complexity(a, a, space.need, 1.5)

    def test_meaning_set_mismatch(self):
        a = NamingSystem.create(np.eye(2), ("w0", "w1"), ("m0", "m1"))
        b = NamingSystem.create(np.eye(2), ("w0", "w1"), ("m1", "m0"))
        with pytest.raises(ValidationError, match="different meaning sets"):
            mixture_complexity(a, b, Distribution.uniform(("m0", "m1")))


class TestCategoryProfiles:
    def test_identity_profiles(self, rng):
        space = random_space(rng, 4, 6)
        point = solve_at_beta(space, 512.0, identity_system(space))
        profiles = category_profiles(point, space, top_n=3)
        assert len(profiles) == 4
        by_word = {p.word_label: p for p in profiles}
        for j, word in enumerate(point.encoder.word_labels):
            top_label, top_prob = by_word[word].top_meanings[0]
            assert top_prob == pytest.approx(1.0, abs=1e-6)

    def test_masses_sorted_and_lengths(self, rng):
        space = random_space(rng, 6, 6)
        front = make_frontier(space, beta_max=16, num=25)
        point = front.points[len(front.points) // 2]
        profiles = category_profiles(point, space, top_n=4)
        masses = [p.mass for p in profiles]
        assert masses == sorted(masses, reverse=True)
        for prof in profiles:
            assert len(prof.top_meanings) == 4
            assert len(prof.top_features) == 4
            probs = [x for _, x in prof.top_meanings]
            assert probs == sorted(probs, reverse=True)
            assert all(p <= 1 + 1e-12 for p in probs)

    def test_light_words_have_no_profile(self):
        # "light" has mass 0.5 * 2e-5, DEFAULT_CATEGORY_MASS_THRESHOLD itself
        labels = ("m0", "m1")
        space = MeaningSpace.create(np.array([[0.8, 0.2], [0.3, 0.7]]), ("u0", "u1"), labels,
                                    Distribution.uniform(labels))
        enc = NamingSystem.create([[1 - 2e-5, 2e-5], [1.0, 0.0]], ("heavy", "light"), labels)
        point = FrontierPoint(0.0, 0.0, 0.0, 0.0, 1, enc, True, 1)
        assert [p.word_label for p in category_profiles(point, space)] == ["heavy"]

    @pytest.mark.parametrize("top_n", [0, -1])
    def test_top_n_below_one_rejected(self, rng, top_n):
        # a slice [:-1] would drop the last meaning and [:0] would list none
        space = random_space(rng, 4, 6)
        point = solve_at_beta(space, 512.0, identity_system(space))
        with pytest.raises(ValidationError, match="top_n must be >= 1"):
            category_profiles(point, space, top_n=top_n)


class TestHierarchyReport:
    def test_single_layer_k1(self, rng):
        space = random_space(rng, 4, 5)
        front = make_frontier(space)
        report = hierarchy_report(front, [1], space)
        assert len(report.layers) == 1
        assert report.layers[0].k == 1
        assert len(report.layers[0].profiles) == 1

    def test_unreachable_k_names_it(self, rng):
        space = random_space(rng, 3, 3)
        front = make_frontier(space, beta_max=16, num=20)
        with pytest.raises(CategorySelectionError, match="17"):
            hierarchy_report(front, [1, 17], space)

    def test_layers_ascend_and_render(self, rng):
        space = random_space(rng, 5, 5)
        front = make_frontier(space)
        ks = sorted({p.effective_k for p in front.points})[:3]
        report = hierarchy_report(front, ks, space)
        assert [layer.k for layer in report.layers] == ks
        text = report.to_text()
        assert f"k={ks[0]}" in text
        payload = report.to_json_dict()
        assert len(payload["layers"]) == len(ks)
