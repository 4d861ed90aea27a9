import dataclasses

import numpy as np
import pytest

from ibnaming import (
    CategorySelectionError,
    Distribution,
    FingerprintMismatchError,
    Frontier,
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
from helpers import identity_system, random_space, random_system


def make_frontier(space, beta_max=32.0, num=40, **kwargs):
    kwargs.setdefault("max_iterations", 8000)
    cfg = SolverConfig(beta_grid=default_beta_grid(beta_max, num), **kwargs)
    return anneal_frontier(space, cfg)


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
        beta = 2 * front.points[-1].beta
        obj = c - beta * a - beta * eps
        while (c - beta * a - obj) / beta != eps:
            obj = np.nextafter(obj, np.inf if (c - beta * a - obj) / beta > eps else -np.inf)
        tied = dataclasses.replace(report.matched_point, beta=beta, objective_bits=float(obj))
        extended = Frontier(front.points + (tied,), front.space_fingerprint, front.config)
        again = fit_beta(sys, space, extended)
        assert again.inefficiency_bits == eps
        assert again.matched_index == report.matched_index

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


class TestPermutationBaseline:
    def test_identity_sample_matches_actual(self, rng):
        space = random_space(rng, 5, 4)
        front = make_frontier(space, beta_max=16, num=25)
        sys = random_system(rng, space, 3)
        actual = fit_beta(sys, space, front)
        summary = permutation_baseline(sys, space, front, 1, seed=9,
                                       include_identity=True)
        assert summary.inefficiency_mean == actual.inefficiency_bits
        assert summary.gnid_mean == actual.gnid

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
    @pytest.mark.parametrize("include_identity", [False, True])
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_matches_one_fit_per_sample(self, rng, monkeypatch, sparse, include_identity,
                                        chunk):
        space = random_space(rng, 6, 5, sparse=sparse)
        front = make_frontier(space, beta_max=16, num=25)
        sys = random_system(rng, space, 4)
        # stacks of `chunk` samples: three full stacks and a remainder of 4
        monkeypatch.setattr(analysis, "_STACK_ENTRIES", chunk * 6 * 4)
        num_samples, seed = 3 * chunk + 4, 11
        eps, gn = np.empty(num_samples), np.empty(num_samples)
        for i in range(num_samples):
            if include_identity and i == 0:
                perm = np.arange(6)
            else:
                perm = np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(i,))).permutation(6)
            permuted = NamingSystem(sys.encoder[perm], sys.word_labels, sys.meaning_labels)
            report = fit_beta(permuted, space, front)
            eps[i], gn[i] = report.inefficiency_bits, report.gnid
            scalar_eps, scalar_gnid, index = _scalar_fit(permuted, space, front)
            assert report.matched_index == index
            assert abs(eps[i] - scalar_eps) <= 1e-12
            assert abs(gn[i] - scalar_gnid) <= 1e-12
        summary = permutation_baseline(sys, space, front, num_samples, seed,
                                       include_identity=include_identity)
        assert summary.num_samples == num_samples
        assert abs(summary.inefficiency_mean - eps.mean()) <= 1e-12
        assert abs(summary.inefficiency_sd - eps.std()) <= 1e-12
        assert abs(summary.gnid_mean - gn.mean()) <= 1e-12
        assert abs(summary.gnid_sd - gn.std()) <= 1e-12


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
