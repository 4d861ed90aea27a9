import tracemalloc

import numpy as np
import pytest

from ibnaming import (
    Distribution,
    MeaningSpace,
    NamingSystem,
    ValidationError,
    attach_need,
    marginal_word_distribution,
    validate_meaning_space,
    validate_naming_system,
)

from helpers import random_space, random_system


def uniform2():
    return Distribution.create([0.5, 0.5], ["m0", "m1"])


class TestDistribution:
    def test_create_valid(self):
        d = Distribution.create([0.25, 0.75], ["a", "b"])
        assert d.mass.sum() == pytest.approx(1.0, abs=1e-15)
        assert d.labels == ("a", "b")

    def test_negative_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            Distribution.create([1.1, -0.1], ["a", "b"])

    def test_bad_sum_rejected(self):
        with pytest.raises(ValidationError, match="sums to"):
            Distribution.create([0.4, 0.4], ["a", "b"])

    def test_matrix_rejected(self):
        # a 2x2 mass summing to 1 used to come back row-normalized, summing to 2
        with pytest.raises(ValidationError, match=r"mass must be a vector, got shape \(2, 2\)"):
            Distribution.create(np.full((2, 2), 0.25), ["a", "b"])

    def test_within_tolerance_renormalized(self):
        d = Distribution.create([0.5 + 4e-10, 0.5], ["a", "b"])
        assert abs(d.mass.sum() - 1.0) < 1e-15

    def test_denormal_noise_zeroed(self):
        d = Distribution.create([1.0 - 1e-16, 1e-16], ["a", "b"])
        assert d.mass[1] == 0.0

    def test_immutable(self):
        d = uniform2()
        with pytest.raises(ValueError):
            d.mass[0] = 0.9


class TestMeaningSpaceValidation:
    def test_identity_rows_ok(self):
        space = MeaningSpace(np.eye(2), ("u0", "u1"), ("m0", "m1"), uniform2())
        assert validate_meaning_space(space) == []

    def test_row_sum_violation_reported(self):
        space = MeaningSpace(np.array([[0.4, 0.5], [0.5, 0.5]]),
                             ("u0", "u1"), ("m0", "m1"), uniform2())
        errors = validate_meaning_space(space)
        assert any("row 0 sums to 0.9" in e for e in errors)

    def test_negative_entry_names_cell(self):
        space = MeaningSpace(np.array([[1.1, -0.1], [0.5, 0.5]]),
                             ("u0", "u1"), ("m0", "m1"), uniform2())
        errors = validate_meaning_space(space)
        assert any("representations[0,1]" in e and "negative" in e for e in errors)

    def test_need_length_mismatch(self):
        space = MeaningSpace(np.eye(3), ("u0", "u1", "u2"), ("m0", "m1", "m2"), uniform2())
        errors = validate_meaning_space(space)
        assert any("need has 2 entries for 3 meanings" in e for e in errors)

    def test_validation_is_pure(self):
        space = MeaningSpace(np.array([[0.4, 0.5], [0.5, 0.5]]),
                             ("u0", "u1"), ("m0", "m1"), uniform2())
        before = space.representations.tobytes()
        first = validate_meaning_space(space)
        second = validate_meaning_space(space)
        assert first == second
        assert space.representations.tobytes() == before

    def test_create_raises_on_violations(self):
        with pytest.raises(ValidationError):
            MeaningSpace.create([[0.4, 0.5]], ("u0", "u1"), ("m0",))

    def test_fingerprint_sensitive_to_need(self):
        base = MeaningSpace.create(np.eye(2), ("u0", "u1"), ("m0", "m1"), uniform2())
        other = MeaningSpace.create(np.eye(2), ("u0", "u1"), ("m0", "m1"),
                                    Distribution.create([0.25, 0.75], ["m0", "m1"]))
        assert base.fingerprint != other.fingerprint
        again = MeaningSpace.create(np.eye(2), ("u0", "u1"), ("m0", "m1"), uniform2())
        assert base.fingerprint == again.fingerprint


class TestNamingSystemValidation:
    def make_space3(self):
        labels = ("m0", "m1", "m2")
        return MeaningSpace.create(np.eye(3), ("u0", "u1", "u2"), labels,
                                   Distribution.create(np.ones(3) / 3, labels))

    def test_identity_encoder_ok(self):
        space = self.make_space3()
        sys = NamingSystem.create(np.eye(3), ("w0", "w1", "w2"), space.meaning_labels)
        assert validate_naming_system(sys, space) == []

    def test_duplicate_word_label(self):
        # each message names its label once
        sys = NamingSystem(np.eye(2), ("w0", "w0"), ("m1", "m1"))
        assert validate_naming_system(sys) == [
            "duplicate word label 'w0'", "duplicate meaning label 'm1'"]
        with pytest.raises(ValidationError) as e:
            Distribution.create([0.5, 0.5], ["m0", "m0"])
        assert e.value.errors == ["duplicate label 'm0'"]

    def test_permuted_meaning_order_reported(self):
        space = self.make_space3()
        sys = NamingSystem(np.eye(3), ("w0", "w1", "w2"), ("m0", "m2", "m1"))
        errors = validate_naming_system(sys, space)
        assert any("label mismatch at index 1" in e for e in errors)


class TestMarginalWordDistribution:
    def test_identity_uniform(self):
        labels = tuple(f"m{i}" for i in range(4))
        need = Distribution.create(np.ones(4) / 4, labels)
        sys = NamingSystem.create(np.eye(4), tuple(f"w{i}" for i in range(4)), labels)
        out = marginal_word_distribution(sys, need)
        np.testing.assert_allclose(out.mass, 0.25, atol=1e-15)

    def test_single_word_point_mass(self):
        labels = ("m0", "m1")
        need = uniform2()
        sys = NamingSystem.create([[1.0, 0.0], [1.0, 0.0]], ("w0", "w1"), labels)
        out = marginal_word_distribution(sys, need)
        np.testing.assert_allclose(out.mass, [1.0, 0.0], atol=0)

    def test_hand_computed_product(self):
        labels = ("m0", "m1")
        need = Distribution.create([0.25, 0.75], labels)
        sys = NamingSystem.create([[1.0, 0.0], [0.5, 0.5]], ("w0", "w1"), labels)
        out = marginal_word_distribution(sys, need)
        np.testing.assert_allclose(out.mass, [0.625, 0.375], atol=1e-15)

    def test_dimension_mismatch(self):
        sys = NamingSystem.create(np.eye(2), ("w0", "w1"), ("m0", "m1"))
        with pytest.raises(ValidationError):
            marginal_word_distribution(sys, Distribution.create(np.ones(3) / 3,
                                                                ["a", "b", "c"]))

    def test_output_always_valid(self, rng):
        for _ in range(200):
            space = random_space(rng)
            sys = random_system(rng, space)
            out = marginal_word_distribution(sys, space.need)
            assert out.validate() == []


def traced_peak(make) -> int:
    """tracemalloc peak, in bytes, of one call of ``make`` after a warm-up call."""
    make()
    tracemalloc.start()
    try:
        make()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneCopy:
    """``create`` builds on one private copy of its input, and direct
    construction copies exactly what a caller could still write to."""

    N, K = 113, 757  # the animal domain's classes and features

    @pytest.fixture
    def matrix(self, rng):
        a = rng.random((self.N, self.K))
        return a / a.sum(axis=1, keepdims=True)

    @pytest.mark.parametrize("cls", [MeaningSpace, NamingSystem])
    def test_matrix_create_peak(self, matrix, cls):
        columns = tuple(f"c{j}" for j in range(self.K))
        meanings = tuple(f"m{i}" for i in range(self.N))
        assert traced_peak(lambda: cls.create(matrix, columns, meanings)) <= 1.5 * matrix.nbytes

    def test_distribution_create_peak(self, rng):
        mass = rng.random(self.N * self.K)
        mass /= mass.sum()
        labels = tuple(f"m{i}" for i in range(mass.size))
        # the duplicate-label check hashes every label; that set is not the array's
        label_set = traced_peak(lambda: set(labels))
        assert traced_peak(lambda: Distribution.create(mass, labels)) <= (
            1.5 * mass.nbytes + label_set)

    def test_attach_need_shares_representations(self, rng):
        space = random_space(rng, 4, 5)
        for need in (space.need, "uniform"):
            assert attach_need(space, need).representations is space.representations

    def test_lower_dimensional_input_renormalized(self):
        # ndmin widens these inputs through a view, which must not be the array renormalized
        sys = NamingSystem.create([0.5 + 4e-10, 0.5], ("w0", "w1"), ("m0",))
        assert sys.encoder.shape == (1, 2)
        assert abs(sys.encoder.sum() - 1.0) < 1e-15
        assert Distribution.create(1.0 + 4e-10, ["a"]).mass.tolist() == [1.0]

    def test_created_array_is_kept_by_construction(self):
        d = uniform2()
        assert Distribution(d.mass, d.labels).mass is d.mass

    @pytest.mark.parametrize("view", [False, True], ids=["writeable", "read-only-view"])
    def test_caller_array_is_copied(self, view):
        caller = np.array([[0.5, 0.5], [0.0, 1.0]])
        given = caller[:] if view else caller
        given.flags.writeable = not view  # a read-only view of a writeable array
        sys = NamingSystem(given, ("w0", "w1"), ("m0", "m1"))
        caller[0] = [1.0, 0.0]
        np.testing.assert_array_equal(sys.encoder, [[0.5, 0.5], [0.0, 1.0]])
