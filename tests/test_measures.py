import numpy as np
import pytest

import oracle
from ibnaming import (
    Distribution,
    MeaningSpace,
    NamingSystem,
    SupportViolationError,
    ValidationError,
    accuracy,
    bayesian_listener,
    complexity,
    entropy,
    expected_distortion,
    ib_objective,
    kl_divergence,
)
from ibnaming.measures import LOG_ZERO, _log
from helpers import identity_system, random_space, random_system, single_word_system


def make_space(reps, need):
    n_m, n_u = np.asarray(reps).shape
    labels = tuple(f"m{i}" for i in range(n_m))
    return MeaningSpace.create(reps, tuple(f"u{i}" for i in range(n_u)), labels,
                               Distribution.create(need, labels))


class TestLog:
    """_log takes the plain log when no entry is zero, NaN or negative, and
    gives the bits of the masked form either way."""

    @staticmethod
    def masked(a):
        out = np.full(a.shape, LOG_ZERO)
        np.log(a, out=out, where=a > 0)
        return out

    @pytest.mark.parametrize("case", ["positive", "zeros", "nan", "negative", "stack"])
    def test_same_bits_as_masked_form(self, rng, case):
        # magnitudes from subnormal to huge
        a = np.exp(rng.uniform(-744.0, 709.0, (113, 757)))
        if case == "zeros":
            a[rng.random(a.shape) < 0.3] = 0.0
        elif case == "nan":
            a[5, 17] = np.nan
        elif case == "negative":
            a[9, 3] = -0.5
        elif case == "stack":
            a = rng.dirichlet(np.ones(50), size=(4, 30))
        assert _log(a).tobytes() == self.masked(a).tobytes()

    def test_nan_and_zero_map_to_log_zero(self):
        out = _log(np.array([0.5, np.nan, 0.0, -0.0]))
        assert out[0] == np.log(0.5)
        assert list(out[1:]) == [LOG_ZERO] * 3

    def test_empty(self):
        assert _log(np.zeros((0, 3))).shape == (0, 3)


class TestEntropy:
    def test_uniform_four(self):
        assert entropy(Distribution.create(np.ones(4) / 4, list("abcd"))) == 2.0

    def test_point_mass(self):
        assert entropy(Distribution.create([1.0, 0.0], ["a", "b"])) == 0.0

    def test_quarter_three_quarters(self):
        d = Distribution.create([0.25, 0.75], ["a", "b"])
        assert entropy(d) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_bounds(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            d = Distribution.create(rng.dirichlet(np.ones(n)), [f"x{i}" for i in range(n)])
            h = entropy(d)
            assert -1e-12 <= h <= np.log2(n) + 1e-12


class TestKLDivergence:
    def test_equal_is_zero(self):
        p = Distribution.create([0.3, 0.7], ["a", "b"])
        assert kl_divergence(p, p) == 0.0

    def test_hand_value(self):
        p = Distribution.create([1.0, 0.0], ["a", "b"])
        q = Distribution.create([0.5, 0.5], ["a", "b"])
        assert kl_divergence(p, q) == pytest.approx(1.0, abs=1e-15)

    def test_support_violation_raises(self):
        p = Distribution.create([0.5, 0.5], ["a", "b"])
        q = Distribution.create([1.0, 0.0], ["a", "b"])
        with pytest.raises(SupportViolationError):
            kl_divergence(p, q)

    def test_nonnegative_and_zero_iff_equal(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            kl = kl_divergence(p, q)
            assert kl >= 0.0
            if kl <= 1e-12:
                np.testing.assert_allclose(p, q, atol=1e-6)
            assert kl_divergence(p, p) <= 1e-12


class TestComplexity:
    def test_single_word_is_zero(self):
        space = make_space(np.eye(3), np.ones(3) / 3)
        assert complexity(single_word_system(space), space.need) == 0.0

    def test_identity_uniform_four(self):
        space = make_space(np.eye(4), np.ones(4) / 4)
        assert complexity(identity_system(space), space.need) == pytest.approx(2.0, abs=1e-12)

    def test_soft_two_meaning_instance(self):
        # oracle-first: brute-force joint MI fixes the expected value
        need = Distribution.create([0.25, 0.75], ["m0", "m1"])
        sys = NamingSystem.create([[1.0, 0.0], [0.5, 0.5]], ("w0", "w1"), ("m0", "m1"))
        expected = oracle.joint_mi_bits(need.mass[:, None] * sys.encoder)
        assert expected == pytest.approx(0.2044340029249649, abs=1e-12)
        assert complexity(sys, need) == pytest.approx(expected, abs=1e-12)

    def test_bounds_and_label_invariance(self, rng):
        for _ in range(200):
            space = random_space(rng)
            sys = random_system(rng, space)
            c = complexity(sys, space.need)
            assert -1e-12 <= c <= min(entropy(space.need), np.log2(sys.num_words)) + 1e-9
            perm = rng.permutation(sys.num_words)
            shuffled = NamingSystem(sys.encoder[:, perm],
                                    tuple(sys.word_labels[j] for j in perm),
                                    sys.meaning_labels)
            assert complexity(shuffled, space.need) == pytest.approx(c, abs=1e-12)

    def test_matches_oracle(self, rng):
        for _ in range(50):
            space = random_space(rng)
            sys = random_system(rng, space)
            assert complexity(sys, space.need) == pytest.approx(
                oracle.complexity_of(space.need.mass, sys.encoder), abs=1e-11
            )


class TestBayesianListener:
    def test_identity_reproduces_rows(self, rng):
        space = random_space(rng, 4, 5)
        lm = bayesian_listener(identity_system(space), space)
        np.testing.assert_allclose(lm.reconstructions, space.representations, atol=1e-12)

    def test_single_word_gives_prior(self, rng):
        space = random_space(rng, 4, 5)
        lm = bayesian_listener(single_word_system(space), space)
        np.testing.assert_allclose(lm.reconstructions[0], space.prior_representation,
                                   atol=1e-12)

    def test_two_meaning_merge_is_mean(self):
        reps = np.array([[0.8, 0.2], [0.2, 0.8]])
        space = make_space(reps, [0.5, 0.5])
        sys = single_word_system(space)
        lm = bayesian_listener(sys, space)
        np.testing.assert_allclose(lm.reconstructions[0], reps.mean(axis=0), atol=1e-15)

    def test_zero_mass_word_flagged_undefined(self):
        space = make_space(np.eye(2), [0.5, 0.5])
        sys = NamingSystem(np.array([[1.0, 0.0], [1.0, 0.0]]), ("w0", "w1"),
                           space.meaning_labels)
        lm = bayesian_listener(sys, space)
        assert lm.defined.tolist() == [True, False]
        assert lm.reconstructions[1].sum() == 0.0


class TestExpectedDistortion:
    def test_identity_is_zero(self, rng):
        space = random_space(rng, 4, 4)
        assert expected_distortion(identity_system(space), space) == pytest.approx(0.0, abs=1e-12)

    def test_single_word_equals_space_mi(self, rng):
        space = random_space(rng, 5, 4)
        assert expected_distortion(single_word_system(space), space) == pytest.approx(
            space.mutual_information, abs=1e-10
        )

    def test_three_meaning_two_word_matches_oracle(self, rng):
        for _ in range(20):
            space = random_space(rng, 3, 4)
            sys = random_system(rng, space, 2)
            assert expected_distortion(sys, space) == pytest.approx(
                oracle.expected_distortion_of(space.need.mass, sys.encoder,
                                              space.representations),
                abs=1e-10,
            )


class TestAccuracy:
    def test_single_word_is_zero(self, rng):
        space = random_space(rng, 4, 5)
        assert accuracy(single_word_system(space), space) == pytest.approx(0.0, abs=1e-12)

    def test_identity_gives_space_mi(self, rng):
        space = random_space(rng, 4, 5)
        assert accuracy(identity_system(space), space) == pytest.approx(
            space.mutual_information, abs=1e-10
        )

    def test_random_system_matches_joint_oracle(self, rng):
        for _ in range(50):
            space = random_space(rng, 4, 5)
            sys = random_system(rng, space, 2)
            assert accuracy(sys, space) == pytest.approx(
                oracle.accuracy_of(space.need.mass, sys.encoder, space.representations),
                abs=1e-10,
            )

    def test_deterministic_bits(self, rng):
        space = random_space(rng)
        sys = random_system(rng, space)
        assert accuracy(sys, space) == accuracy(sys, space)


class TestInformationIdentities:
    def test_dpi_and_distortion_identity(self, rng):
        for i in range(200):
            space = random_space(rng, sparse=(i % 3 == 0))
            sys = random_system(rng, space)
            c = complexity(sys, space.need)
            a = accuracy(sys, space)
            assert a <= c + 1e-9
            assert a <= space.mutual_information + 1e-9
            assert space.mutual_information - a == pytest.approx(
                expected_distortion(sys, space), abs=1e-9
            )


class TestIBObjective:
    def test_beta_zero_equals_complexity(self, rng):
        space = random_space(rng)
        sys = random_system(rng, space)
        assert ib_objective(sys, space, 0.0) == complexity(sys, space.need)

    def test_single_word_zero_any_beta(self, rng):
        space = random_space(rng, 4, 4)
        sys = single_word_system(space)
        for beta in (0.0, 1.0, 7.5, 1024.0):
            assert ib_objective(sys, space, beta) == pytest.approx(0.0, abs=1e-12)

    def test_identity_uniform_four_beta_one(self):
        space = make_space(np.eye(4), np.ones(4) / 4)
        sys = identity_system(space)
        assert ib_objective(sys, space, 1.0) == pytest.approx(
            2.0 - space.mutual_information, abs=1e-12
        )

    def test_negative_beta_rejected(self, rng):
        space = random_space(rng)
        sys = random_system(rng, space)
        with pytest.raises(ValidationError):
            ib_objective(sys, space, -0.5)
