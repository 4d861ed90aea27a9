import warnings

import numpy as np
import pytest

import oracle
import regen_golden
from ibnaming import (
    CategorySelectionError,
    Distribution,
    MeaningSpace,
    NamingSystem,
    SolverConfig,
    ValidationError,
    accuracy,
    anneal_frontier,
    complexity,
    default_beta_grid,
    effective_category_count,
    fixed_point_delta,
    ib_objective,
    select_most_informative_with_k,
    solve_at_beta,
)
from helpers import continued_ca_move, identity_system, random_space, random_system


def small_config(grid, **kwargs):
    kwargs.setdefault("max_iterations", 8000)
    return SolverConfig(beta_grid=tuple(grid), **kwargs)


class TestBetaGrid:
    def test_log_grid_shape(self):
        grid = default_beta_grid(1024.0, 1500)
        assert len(grid) == 1500
        assert grid[0] == 0.0
        assert grid[1] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(1024.0)
        assert all(b2 > b1 for b1, b2 in zip(grid, grid[1:]))

    def test_errors(self):
        with pytest.raises(ValidationError):
            default_beta_grid(-1.0, 10)
        with pytest.raises(ValidationError):
            default_beta_grid(10.0, 0)
        with pytest.raises(ValidationError):
            default_beta_grid(0.1, 5)


class TestSolverConfig:
    def test_grid_must_increase(self):
        with pytest.raises(ValidationError):
            SolverConfig(beta_grid=(0.0, 1.0, 1.0))

    def test_negative_beta_rejected(self):
        with pytest.raises(ValidationError):
            SolverConfig(beta_grid=(-0.5, 1.0))

    def test_round_trips_through_dict(self):
        cfg = SolverConfig(beta_grid=(0.0, 1.0, 2.0), convergence_tol=1e-8,
                           max_iterations=500, mass_prune_threshold=1e-6)
        assert SolverConfig.from_dict(cfg.to_dict()) == cfg
        # optional keys fall back to the field defaults
        assert SolverConfig.from_dict({"beta_grid": [0.0, 1.0]}) == SolverConfig((0.0, 1.0))
        # frontier metadata written before the sweep options were removed
        old = cfg.to_dict() | {"restarts": 0, "seed": 0, "anneal_direction": "high-to-low",
                               "max_clusters": None}
        assert SolverConfig.from_dict(old) == cfg


class TestSolveAtBeta:
    def test_beta_zero_collapses(self, rng):
        space = random_space(rng, 4, 5)
        point = solve_at_beta(space, 0.0, identity_system(space))
        assert point.complexity_bits <= 1e-9
        assert point.effective_k == 1
        assert point.converged

    def test_high_beta_keeps_information(self, rng):
        space = random_space(rng, 4, 6)
        point = solve_at_beta(space, 1024.0, identity_system(space))
        assert point.accuracy_bits == pytest.approx(space.mutual_information, abs=1e-3)
        assert point.converged

    def test_three_meaning_two_word_matches_oracle(self, rng):
        # brute force: all deterministic encoders plus a 50^3-row simplex grid
        for _ in range(5):
            space = random_space(rng, 3, 3)
            init = random_system(rng, space, 2)
            point = solve_at_beta(space, 2.0, init,
                                  small_config((2.0,), mass_prune_threshold=0.0))
            best, _ = oracle.scan(space.need.mass, space.representations, 2,
                                  np.array([2.0]), resolution=49)
            assert point.objective_bits <= best[0] + 1e-3

    def test_objective_never_exceeds_init(self, rng):
        cases = []
        for _ in range(30):
            space = random_space(rng)
            cases.append((space, random_system(rng, space), float(rng.uniform(0, 8))))
        # two meanings needed less than the prune threshold: pruning their words
        # lifts F above F(init), so the unpruned retry has to keep the promise
        space = random_space(rng, 6, 6)
        need = Distribution.create([0.25, 0.25, 0.25, 0.25 - 2e-6, 1e-6, 1e-6],
                                   space.meaning_labels)
        space = MeaningSpace.create(space.representations, space.universe_labels,
                                    space.meaning_labels, need)
        cases.append((space, identity_system(space), 1000.0))
        for space, init, beta in cases:
            point = solve_at_beta(space, beta, init, small_config((max(beta, 0.1),)))
            f_init = ib_objective(init, space, beta)
            assert point.objective_bits <= f_init + 1e-9

    def test_objective_identity_holds(self, rng):
        space = random_space(rng)
        point = solve_at_beta(space, 3.0, identity_system(space))
        assert point.objective_bits == pytest.approx(
            point.complexity_bits - 3.0 * point.accuracy_bits, abs=1e-9
        )

    def test_negative_beta_rejected(self, rng):
        space = random_space(rng)
        with pytest.raises(ValidationError):
            solve_at_beta(space, -1.0, identity_system(space))

    def test_nonconvergence_flagged_not_raised(self, rng):
        space = random_space(rng, 5, 5)
        cfg = SolverConfig(beta_grid=(2.0,), max_iterations=1, convergence_tol=1e-14)
        point = solve_at_beta(space, 2.0, identity_system(space), cfg)
        assert point.converged is False
        # duplicate words from the first evaluation on: running out of budget
        # must not buy a merge and one more evaluation
        reps = random_space(rng, 6, 5).representations.copy()
        reps[1], reps[3] = reps[0], reps[2]
        labels = tuple(f"m{i}" for i in range(6))
        space = MeaningSpace.create(reps, tuple(f"u{i}" for i in range(5)), labels,
                                    Distribution.uniform(labels))
        for max_iterations in (1, 2):
            cfg = SolverConfig(beta_grid=(5.0,), max_iterations=max_iterations)
            point = solve_at_beta(space, 5.0, identity_system(space), cfg)
            assert point.converged is False
            assert point.iterations <= max_iterations


class TestAnnealFrontier:
    def test_beta_zero_endpoint_trivial(self, rng):
        space = random_space(rng, 4, 4)
        front = anneal_frontier(space, small_config(default_beta_grid(16, 30)))
        assert front.points[0].beta == 0.0
        assert front.points[0].complexity_bits <= 1e-9

    def test_same_seed_bit_identical(self, rng):
        space = random_space(rng, 4, 4)
        cfg = small_config(default_beta_grid(16, 25))
        f1 = anneal_frontier(space, cfg)
        f2 = anneal_frontier(space, cfg)
        for p1, p2 in zip(f1.points, f2.points):
            assert p1.objective_bits == p2.objective_bits
            assert p1.encoder.word_labels == p2.encoder.word_labels
            assert p1.encoder.encoder.tobytes() == p2.encoder.encoder.tobytes()

    def test_monotone_and_concave(self, rng):
        for sparse in (False,) * 5 + (True,) * 3:
            space = random_space(rng, sparse=sparse)
            front = anneal_frontier(space, small_config(default_beta_grid(32, 40)))
            assert front.validate() == []
            # the solver and the measures agree on every recorded point
            for point in front.points:
                assert abs(point.complexity_bits
                           - complexity(point.encoder, space.need)) <= 1e-12
                assert abs(point.accuracy_bits - accuracy(point.encoder, space)) <= 1e-12
                assert abs(point.objective_bits
                           - ib_objective(point.encoder, space, point.beta)) <= 1e-12

    def test_no_point_dominated(self, rng):
        space = random_space(rng, 5, 6)
        front = anneal_frontier(space, small_config(default_beta_grid(32, 40)))
        c = np.array([p.complexity_bits for p in front.points])
        a = np.array([p.accuracy_bits for p in front.points])
        dominated = (c[:, None] > c[None, :] + 1e-6) & (a[:, None] < a[None, :] - 1e-6)
        assert not dominated.any()

    def test_duplicate_meanings_merge(self):
        reps = np.array([[0.7, 0.2, 0.1], [0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
        labels = ("m0", "m1", "m2")
        space = MeaningSpace.create(reps, ("u0", "u1", "u2"), labels,
                                    Distribution.create(np.ones(3) / 3, labels))
        front = anneal_frontier(space, small_config((0.0, 1.0, 64.0)))
        # identical meanings can never be told apart: at most 2 categories
        assert front.points[-1].effective_k == 2

    def test_fingerprint_recorded(self, rng):
        space = random_space(rng, 3, 3)
        front = anneal_frontier(space, small_config((0.0, 1.0, 4.0)))
        assert front.space_fingerprint == space.fingerprint

    def test_no_floating_point_warnings(self, rng):
        # exact zeros, near-singular mixing and beta up to 8192 must not
        # surface as overflow or invalid-value warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            regen_golden.animal_pipeline()
            space = random_space(rng, 5, 6, sparse=True)
            front = anneal_frontier(space, small_config(default_beta_grid(1024, 30)))
        # the sweep alone keeps support-locked words at low beta; the reverse
        # pass must bring those points down to the one-word optimum
        assert front.validate() == []


class TestFixedPoint:
    def test_one_extra_update_is_stationary(self, rng):
        for _ in range(3):
            space = random_space(rng, 5, 5)
            front = anneal_frontier(space, small_config(default_beta_grid(32, 25)))
            for point in front.points:
                if point.converged:
                    assert fixed_point_delta(space, point) < 1e-10

    def test_continued_iteration_pins_complexity_and_accuracy(self, rng):
        # F is stationary at the optimum, so the check above cannot see C and A
        # still moving; the stopping rule bounds that movement by the tolerance
        for _ in range(3):
            space = random_space(rng, 5, 5)
            front = anneal_frontier(space, small_config(default_beta_grid(32, 25)))
            for point in front.points:
                assert point.converged
                assert continued_ca_move(space, point) < 1e-8


class TestEffectiveCategories:
    def test_single_word(self, rng):
        space = random_space(rng, 3, 3)
        point = solve_at_beta(space, 0.0, identity_system(space))
        assert effective_category_count(point) == 1

    def test_identity_four_uniform(self):
        labels = tuple(f"m{i}" for i in range(4))
        space = MeaningSpace.create(np.eye(4), tuple(f"u{i}" for i in range(4)), labels,
                                    Distribution.create(np.ones(4) / 4, labels))
        point = solve_at_beta(space, 64.0, identity_system(space))
        assert effective_category_count(point, 1e-5) == 4

    def test_threshold_is_strict(self):
        point_mass = np.array([0.5, 0.5])
        from ibnaming.solver import FrontierPoint

        encoder = NamingSystem.create(np.eye(2), ("w0", "w1"), ("m0", "m1"))
        point = FrontierPoint(1.0, 0.0, 0.0, 0.0, 2, encoder, point_mass, True, 1)
        assert effective_category_count(point, 0.5) == 0


class TestSelectMostInformative:
    def make_frontier(self, rng):
        space = random_space(rng, 4, 5)
        return space, anneal_frontier(space, small_config(default_beta_grid(64, 40)))

    def test_k_one_is_trivial_end(self, rng):
        space, front = self.make_frontier(rng)
        point = select_most_informative_with_k(front, 1)
        assert point.complexity_bits <= 1e-9

    def test_unreachable_k_lists_available(self, rng):
        space, front = self.make_frontier(rng)
        with pytest.raises(CategorySelectionError, match=r"no frontier point with 9"):
            select_most_informative_with_k(front, 9)

    def test_picks_max_accuracy(self, rng):
        space, front = self.make_frontier(rng)
        ks = {effective_category_count(p) for p in front.points}
        for k in ks:
            chosen = select_most_informative_with_k(front, k)
            best = max(p.accuracy_bits for p in front.points
                       if effective_category_count(p) == k)
            assert chosen.accuracy_bits == best
