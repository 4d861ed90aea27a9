import json
import math
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
import regen_golden
from ibnaming import (
    CategorySelectionError,
    Distribution,
    Frontier,
    FrontierPoint,
    MeaningSpace,
    NamingSystem,
    SolverConfig,
    ValidationError,
    accuracy,
    anneal_frontier,
    complexity,
    default_beta_grid,
    ib_objective,
    select_most_informative_with_k,
    solve_at_beta,
)
from ibnaming import solver
from ibnaming.solver import (
    _ANDERSON_DEPTH,
    _F_SLACK,
    _MIX_BLOCK,
    _SCREEN_FEATURES,
    _WEIGHT_DRIFT,
    DEFAULT_CATEGORY_MASS_THRESHOLD,
    DUPLICATE_ROW_TOL,
    _Anderson,
    _category_count,
    _lowest_line,
    _merge_duplicate_words,
)
from helpers import (continued_ca_move, fixed_point_delta, identity_system, random_space,
                     random_system)


def small_config(grid, **kwargs):
    kwargs.setdefault("max_iterations", 8000)
    return SolverConfig(beta_grid=tuple(grid), **kwargs)


def sparse_space(seed: int) -> MeaningSpace:
    """A random sparse space of 3 to 6 meanings and 3 to 7 features."""
    r = np.random.default_rng(seed)
    return random_space(r, int(r.integers(3, 7)), int(r.integers(3, 8)), sparse=True)


def replayed_sweep(space: MeaningSpace, config: SolverConfig):
    """``anneal_frontier`` through public calls: ``solve_at_beta`` down each
    segment of the grid from the identity at its top, a segment being the
    betas of one floor(log2(beta) / 3) with beta = 0 in the lowest, then
    rounds up the grid that solve each point again from the encoder of the
    lowest recorded line at its beta, when that line beats its F by more
    than F's rounding and the point was not solved from that encoder
    before, keeping results with a lower F, until a round keeps none.
    Returns the primary points, the final points and the number of repair
    solves."""
    n = space.num_meanings
    identity = NamingSystem.create(np.eye(n), tuple(f"w{i:03d}" for i in range(n)),
                                   space.meaning_labels)
    grid = config.beta_grid
    # frexp's exponent is floor(log2(beta)) + 1, exactly
    segment = [(math.frexp(beta)[1] - 1) // 3 if beta > 0 else None for beta in grid]
    segment[0] = segment[min(1, len(grid) - 1)]
    primary = list(grid)
    for i in reversed(range(len(grid))):
        init = identity if i == len(grid) - 1 or segment[i] != segment[i + 1] else init
        primary[i] = solve_at_beta(space, grid[i], init, config)
        init = primary[i].encoder
    points, tried, kept = list(primary), [], True
    while kept:
        kept = False
        for i, beta in enumerate(config.beta_grid):
            lines = [p.complexity_bits - beta * p.accuracy_bits for p in points]
            j = int(np.argmin(lines))
            point, seed = points[i], points[j]
            rounding = _F_SLACK * (abs(point.complexity_bits) + beta * abs(point.accuracy_bits))
            if (point.objective_bits - lines[j] <= rounding
                    or any(t == i and s is seed for t, s in tried)):
                continue
            tried.append((i, seed))
            cand = solve_at_beta(space, beta, seed.encoder, config)
            if cand.objective_bits < point.objective_bits:
                points[i], kept = cand, True
    return primary, points, len(tried)


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

    @pytest.mark.parametrize("beta_max", [np.inf, np.nan])
    @pytest.mark.parametrize("num_betas", [1, 10])
    def test_non_finite_beta_max_rejected(self, beta_max, num_betas):
        with pytest.raises(ValidationError, match="finite"):
            default_beta_grid(beta_max, num_betas)

    def test_one_beta_is_beta_max(self):
        assert default_beta_grid(0.05, 1) == (0.05,)

    def test_two_betas_end_at_beta_max(self):
        assert default_beta_grid(64.0, 2) == (0.0, 64.0)


class TestSolverConfig:
    def test_grid_must_increase(self):
        with pytest.raises(ValidationError):
            SolverConfig(beta_grid=(0.0, 1.0, 1.0))

    def test_negative_beta_rejected(self):
        with pytest.raises(ValidationError):
            SolverConfig(beta_grid=(-0.5, 1.0))

    @pytest.mark.parametrize("grid", [(0.0, np.inf), (np.nan,), (0.0, np.nan, 1.0),
                                      (-np.inf, 0.0)])
    def test_non_finite_beta_rejected(self, grid):
        with pytest.raises(ValidationError, match="finite"):
            SolverConfig(beta_grid=grid)

    # neither NaN nor inf is JSON, and frontier_meta.json records the threshold
    @pytest.mark.parametrize("kwargs, message", [
        ({"beta_grid": ()}, "beta_grid is empty"),
        ({"beta_grid": (1.0,), "max_iterations": 0}, "max_iterations must be >= 1, got 0"),
        *(({"beta_grid": (1.0,), "max_iterations": value},
           f"max_iterations must be an integer, got {value!r}")
          for value in (2.5, True, np.float64(50.0))),
        *(({"beta_grid": (1.0,), "mass_prune_threshold": value},
           "mass_prune_threshold must be finite and >= 0") for value in (-1e-5, np.nan, np.inf)),
    ], ids=["empty-grid", "no-iterations", "fractional-iterations", "bool-iterations",
            "float-iterations", "negative-threshold", "nan-threshold", "inf-threshold"])
    def test_field_messages(self, kwargs, message):
        with pytest.raises(ValidationError) as caught:
            SolverConfig(**kwargs)
        assert caught.value.errors == [message]

    def test_round_trips_through_dict(self):
        cfg = SolverConfig(beta_grid=(0.0, 1.0, 2.0), max_iterations=500,
                           mass_prune_threshold=1e-6)
        assert SolverConfig.from_dict(cfg.to_dict()) == cfg
        # optional keys fall back to the field defaults
        assert SolverConfig.from_dict({"beta_grid": [0.0, 1.0]}) == SolverConfig((0.0, 1.0))
        # frontier metadata written before the sweep options were removed
        old = cfg.to_dict() | {"restarts": 0, "seed": 0, "anneal_direction": "high-to-low",
                               "max_clusters": None}
        assert SolverConfig.from_dict(old) == cfg

    def test_numpy_scalars_become_python_numbers(self):
        # frontier_meta.json records both fields, and json cannot write numpy scalars
        cfg = SolverConfig(beta_grid=(0.0, 1.0), max_iterations=np.int64(50),
                           mass_prune_threshold=np.float32(1e-5))
        assert type(cfg.max_iterations) is int and cfg.max_iterations == 50
        assert type(cfg.mass_prune_threshold) is float
        assert cfg.mass_prune_threshold == float(np.float32(1e-5))
        assert SolverConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_tolerance_is_accepted_and_ignored(self):
        cfg = SolverConfig(beta_grid=(1.0,), convergence_tol=1e-300)
        assert cfg == SolverConfig(beta_grid=(1.0,))
        assert "convergence_tol" not in cfg.to_dict()
        # frontier metadata written while the tolerance was a field
        assert SolverConfig.from_dict(cfg.to_dict() | {"convergence_tol": 1e-12}) == cfg


class TestSolveAtBeta:
    @pytest.mark.parametrize("beta", [np.inf, np.nan, -1.0])
    def test_invalid_beta_rejected(self, rng, beta):
        space = random_space(rng, 3, 3)
        with pytest.raises(ValidationError, match="beta must be finite and >= 0"):
            solve_at_beta(space, beta, identity_system(space))

    def test_word_names_kept_as_given(self, rng):
        # numpy's str arrays would drop the trailing NUL and merge the names
        space = random_space(rng, 3, 3)
        init = NamingSystem.create(np.eye(3), ("w\x00", "w", " w "), space.meaning_labels)
        point = solve_at_beta(space, 1024.0, init)
        assert point.encoder.word_labels == init.word_labels

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
        # lifts F above F(init), so the step rule has to discard that step
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

    def test_pruning_never_raises_f(self):
        # From the 4-word point at beta = 8.881, a plain step at beta = 6.446
        # prunes a word and raises F. A solve that keeps that step ends below
        # F(init) but 6.9e-9 bits above the unpruned solve.
        labels = ("m0", "m1", "m2", "m3")
        reps = [[0.6491480677990255, 0.05251346859616501, 0.2017208473579063,
                 0.03339949225141805, 0.06321812399548528],
                [0.0034868851583459634, 0.15276246770309987, 0.04617313733252473,
                 0.10342963667784151, 0.6941478731281879],
                [0.3068434769341026, 0.12499667086383937, 0.001079655144633645,
                 0.49239034015788696, 0.0746898568995376],
                [0.1821171137506494, 0.2778630562608522, 0.26988010722526573,
                 0.029221906005762247, 0.24091781675747057]]
        need = [0.006833119200062214, 0.18960256483778032, 0.543354673882032,
                0.2602096420801254]
        space = MeaningSpace.create(np.array(reps), tuple(f"u{i}" for i in range(5)), labels,
                                    Distribution.create(need, labels))
        encoder = [[0.8012881652830774, 1.4552552851178884e-12, 0.0003289290539643698,
                    0.19838290566150296],
                   [2.1887480323027596e-09, 0.9966508149506291, 2.424084342952021e-06,
                    0.003346758776279665],
                   [2.214231719430137e-07, 1.0921155482664992e-08, 0.9999968058094156,
                    2.961846256935898e-06],
                   [8.427824927294005e-05, 5.361542060902765e-05, 2.0452306660579525e-07,
                    0.9998619018070515]]
        init = NamingSystem.create(np.array(encoder), ("w0", "w1", "w2", "w3"), labels)
        beta = 6.4457726644567765
        pruned = solve_at_beta(space, beta, init)
        unpruned = solve_at_beta(space, beta, init,
                                 SolverConfig(beta_grid=(beta,), mass_prune_threshold=0.0))
        assert pruned.objective_bits <= unpruned.objective_bits + 1e-12

    @pytest.mark.parametrize("threshold", [1e-5, 0.9])
    def test_every_budget_keeps_the_promise(self, rng, threshold):
        # some caps fall right after a rejected step; at 0.9 every word is
        # below the threshold, and each pruned step is discarded
        space, beta = random_space(rng, 5, 5), 16.0
        init = identity_system(space)
        f_init = ib_objective(init, space, beta)
        full = solve_at_beta(space, beta, init,
                             small_config((beta,), mass_prune_threshold=threshold))
        assert full.converged
        for max_iterations in range(1, full.iterations + 1):
            cfg = small_config((beta,), max_iterations=max_iterations,
                               mass_prune_threshold=threshold)
            point = solve_at_beta(space, beta, init, cfg)
            assert point.iterations <= max_iterations
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

    def test_misaligned_init_rejected(self, rng):
        # the same check as every measure: order first, then the labels
        space = random_space(rng, 3, 3)
        labels = space.meaning_labels
        permuted = NamingSystem.create(np.eye(3), ("w0", "w1", "w2"), labels[::-1])
        with pytest.raises(ValidationError,
                           match=f"meaning label mismatch at index 0: {labels[2]!r} vs "
                                 f"{labels[0]!r}"):
            solve_at_beta(space, 1.0, permuted)
        short = NamingSystem.create(np.eye(2), ("w0", "w1"), labels[:2])
        with pytest.raises(ValidationError, match="encoder has 2 meanings, space has 3"):
            solve_at_beta(space, 1.0, short)

    def test_nonconvergence_flagged_not_raised(self, rng):
        space = random_space(rng, 5, 5)
        cfg = SolverConfig(beta_grid=(2.0,), max_iterations=1)
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

    def test_no_step_outlives_its_solve(self, rng, monkeypatch):
        # so the sweep holds recorded points only, never a solver's encoder
        # beside them: every step of a solve, the one its point is built
        # from included, is gone when the solve returns
        refs, alive = [], []
        plain_update, solve = solver._plain_update, solver._fixed_point_loop

        def tracked_update(*args):
            step = plain_update(*args)
            refs.append(weakref.ref(step))
            return step

        def tracked_solve(*args):
            point = solve(*args)
            alive.append(sum(ref() is not None for ref in refs))
            return point

        monkeypatch.setattr(solver, "_plain_update", tracked_update)
        monkeypatch.setattr(solver, "_fixed_point_loop", tracked_solve)
        monkeypatch.setattr(solver, "_cpu_count", lambda: 1)  # every solve in this process
        grid = default_beta_grid(16, 6)
        anneal_frontier(random_space(rng, 4, 4), small_config(grid))
        assert refs and alive == [0] * len(grid)  # no point needs a repair

    def test_sweep_is_solve_at_beta_chained(self):
        # every solve of the sweep starts from an encoder the tool records,
        # so public solves down the grid from the identity, then from the
        # lines that beat a point, give the same frontier to the bit; the
        # dense space needs no repair, and the rng-9 repair starts from a
        # 3-word encoder and takes 4 evaluations
        config = SolverConfig(beta_grid=default_beta_grid(64, 15), max_iterations=6000)
        for space, repairs in ((random_space(np.random.default_rng(0)), 0),
                               (sparse_space(7), 7), (sparse_space(9), 1)):
            front = anneal_frontier(space, config)
            _, chained, solves = replayed_sweep(space, config)
            assert solves == repairs
            for got, want in zip(front.points, chained, strict=True):
                assert ((got.complexity_bits, got.accuracy_bits, got.objective_bits,
                         got.iterations)
                        == (want.complexity_bits, want.accuracy_bits, want.objective_bits,
                            want.iterations))
                assert got.encoder.word_labels == want.encoder.word_labels
                assert got.encoder.encoder.tobytes() == want.encoder.encoder.tobytes()

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
        # the primary pass alone keeps support-locked words at low beta; the
        # repair must bring those points down to the one-word optimum
        assert front.validate() == []


class TestLowestLine:
    # lines C_j - beta * A_j of points at beta 1, 2 and 3
    c = np.array([1.0, 1.0, 2.0])
    a = np.array([0.5, 1.0, 1.5])

    def test_beaten_by_a_line_from_a_higher_beta(self):
        # at beta = 1 the lines are 0.5, 0 and 0.5: the beta = 2 point's
        # encoder beats the beta = 1 point's own
        assert _lowest_line(self.c, self.a, 1.0) == (1, 0.0)

    def test_beaten_by_a_line_from_a_lower_beta(self):
        c, a = np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.9, 1.2])
        j, low = _lowest_line(c, a, 3.0)
        assert j == 1 and low == pytest.approx(-1.7, abs=1e-15)

    def test_a_tie_goes_to_the_lower_beta(self):
        # at beta = 2 the lines are 0, -1 and -1
        assert _lowest_line(self.c, self.a, 2.0) == (1, -1.0)

    def test_validate_names_the_higher_beta(self):
        front = TestFrontierValidate.frontier((1.0, 2.0, 3.0), self.c, self.a)
        assert front.validate() == [
            "point at beta=1 lies 0.5 bits above the line of the point at beta=2"]


class TestFrontierValidate:
    @staticmethod
    def frontier(betas, complexities, accuracies):
        encoder = NamingSystem.create(np.ones((1, 1)), ("w0",), ("m0",))
        points = [FrontierPoint(beta=b, complexity_bits=c, accuracy_bits=a,
                                objective_bits=c - b * a, effective_k=1, encoder=encoder,
                                converged=True, iterations=1)
                  for b, c, a in zip(betas, complexities, accuracies)]
        return Frontier(tuple(points), "fp", small_config(sorted(betas)))

    def test_unsorted_betas(self):
        front = self.frontier((0.0, 2.0, 1.0), (0.0, 1.0, 2.0), (0.0, 1.0, 2.0))
        assert front.validate() == [
            "points are not sorted by strictly increasing beta",
            "point at beta=2 lies 1 bits above the line of the point at beta=1"]

    def test_complexity_decrease(self):
        # the second drop, 5e-7 bits, is inside the slack
        front = self.frontier((1.0, 2.0, 3.0), (1.0, 0.5, 0.5 - 5e-7), (0.5, 0.5, 0.5))
        assert front.validate() == [
            "point at beta=1 lies 0.5 bits above the line of the point at beta=3"]

    def test_accuracy_decrease(self):
        # the second drop, 5e-7 bits, is inside the slack
        front = self.frontier((1.0, 2.0, 3.0), (0.5, 1.0, 1.0), (0.5, 0.25, 0.25 - 5e-7))
        assert front.validate() == [
            "point at beta=2 lies 1 bits above the line of the point at beta=1",
            "point at beta=3 lies 1.25 bits above the line of the point at beta=1"]

    def test_dip_below_the_chord(self):
        front = self.frontier((1.0, 2.0, 3.0), (0.0, 1.0, 2.0), (0.0, 0.25, 1.0))
        assert front.validate() == [
            "point at beta=2 lies 0.5 bits above the line of the point at beta=1"]

    def test_beaten_by_a_line_while_monotone_and_concave(self):
        # C and A rise and A is concave in C, but at beta = 3 the encoder of
        # the beta = 2 point reaches F = 1 - 3 * 0.9 = -1.7 < 2 - 3 * 1.2
        front = self.frontier((1.0, 2.0, 3.0), (0.0, 1.0, 2.0), (0.0, 0.9, 1.2))
        assert front.validate() == [
            "point at beta=3 lies 0.1 bits above the line of the point at beta=2"]

    def test_primary_pass_alone_is_caught(self):
        # the primary pass alone keeps support-locked words at low beta on
        # this sparse space, far above the one-word optimum; the repair
        # brings them down
        space = sparse_space(7)
        config = SolverConfig(beta_grid=default_beta_grid(64, 15))
        primary, _, _ = replayed_sweep(space, config)
        errors = Frontier(tuple(primary), space.fingerprint, config).validate()
        assert len(errors) == 7 and " lies 1.2" in " ".join(errors), errors
        assert anneal_frontier(space, config).validate() == []

    @pytest.mark.parametrize("seed, max_iterations", [(7, 30_000), (22, 3)])
    def test_repair_lowers_f_only(self, seed, max_iterations):
        # the repair keeps a solve only when it lowers F, and solves a point
        # from one recorded encoder at most once, so it ends even when its
        # solves stop at the cap: with 3 evaluations, 17 of the rng-22
        # repair solves are unconverged and 8 of them are kept
        space = sparse_space(seed)
        config = SolverConfig(beta_grid=default_beta_grid(64, 15),
                              max_iterations=max_iterations)
        front = anneal_frontier(space, config)
        primary, _, solves = replayed_sweep(space, config)
        assert solves > 0
        for point, first in zip(front.points, primary, strict=True):
            assert point.objective_bits <= first.objective_bits
        if max_iterations == 3:
            assert sum(not p.converged for p in front.points) > 0
        else:
            assert front.validate() == []


def _all_pairs_groups(mhat: np.ndarray) -> list[list[int]]:
    """Reference: the words of each duplicate group, every pair of
    reconstruction rows compared, groups ordered by their smallest word."""
    k = mhat.shape[0]
    group = list(range(k))
    for i in range(k):
        for j in range(i + 1, k):
            if np.max(np.abs(mhat[j] - mhat[i])) < DUPLICATE_ROW_TOL:
                gi, gj = group[i], group[j]
                group = [min(gi, gj) if g in (gi, gj) else g for g in group]
    return [[w for w in range(k) if group[w] == g] for g in sorted(set(group))]


class TestDuplicateWords:
    """The projection screen of _merge_duplicate_words finds exactly the
    groups that comparing every pair of reconstruction rows finds."""

    @staticmethod
    def merged(rng, mhat):
        """Check the merge against every pair compared, with the default
        blocks and with blocks of one pair."""
        k = mhat.shape[0]
        step = SimpleNamespace(q=rng.dirichlet(np.ones(k), size=7), mhat=mhat,
                               qw=rng.dirichlet(np.ones(k)), labels=np.arange(k) + 100)
        groups = _all_pairs_groups(mhat)
        for entries in (solver._BLOCK_ENTRIES, 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver, "_BLOCK_ENTRIES", entries)
                result = _merge_duplicate_words(step)
            if len(groups) == k:
                assert result is None
            else:
                cols, labels = result
                expected = np.stack([step.q[:, g].sum(axis=1) for g in groups], axis=1)
                assert cols.tobytes() == expected.tobytes()
                assert list(labels) == [step.labels[g[int(np.argmax(step.qw[g]))]]
                                        for g in groups]
        return groups

    @staticmethod
    def same_group(groups, *words):
        return any(set(words) <= set(g) for g in groups)

    @pytest.mark.parametrize("n_u", [2, 9, 757])
    def test_planted_duplicates(self, rng, n_u):
        for _ in range(10):
            mhat = rng.dirichlet(np.ones(n_u), size=30)
            for i, j in rng.integers(30, size=(8, 2)):
                mhat[j] = mhat[i] + rng.uniform(-0.9, 0.9, n_u) * DUPLICATE_ROW_TOL
            self.merged(rng, mhat)

    def test_chain_is_one_word(self, rng):
        signs = np.resize([1.0, -1.0], 40)
        mhat = rng.dirichlet(np.ones(40), size=12)
        mhat[5] = mhat[9] + 0.8 * DUPLICATE_ROW_TOL * signs
        mhat[2] = mhat[5] + 0.8 * DUPLICATE_ROW_TOL * signs
        assert np.max(np.abs(mhat[9] - mhat[2])) >= DUPLICATE_ROW_TOL
        groups = self.merged(rng, mhat)
        assert self.same_group(groups, 2, 5, 9)
        assert len(groups) == 10

    def test_projection_worst_case(self, rng):
        # every feature differs in the direction of the sign vector, so the
        # projections are as far apart as two duplicate rows allow
        n_u = 757
        mhat = rng.dirichlet(np.ones(n_u), size=20)
        mhat[11] = mhat[3] + 0.999 * DUPLICATE_ROW_TOL * np.resize([1.0, -1.0], n_u)
        assert self.same_group(self.merged(rng, mhat), 3, 11)

    def test_pairs_at_the_tolerance(self, rng):
        mhat = rng.dirichlet(np.ones(25), size=10)
        mhat[4] = mhat[1]
        mhat[4, 7] += DUPLICATE_ROW_TOL * (1 - 1e-6)
        mhat[6] = mhat[0]
        mhat[6, 3] += DUPLICATE_ROW_TOL * (1 + 1e-6)
        groups = self.merged(rng, mhat)
        assert self.same_group(groups, 1, 4)
        assert not self.same_group(groups, 0, 6)

    def test_all_rows_equal(self, rng):
        mhat = np.tile(rng.dirichlet(np.ones(6)), (9, 1))
        assert self.merged(rng, mhat) == [list(range(9))]

    @staticmethod
    def level_rows(rng, k, n_u, step):
        """k rows whose projections onto the ±1 sign vector all coincide:
        each raises a base row on two features of opposite sign."""
        mhat = np.tile(rng.dirichlet(np.ones(n_u)), (k, 1))
        pairs = rng.integers(n_u // 2, size=k)
        mhat[np.arange(k), 2 * pairs] += step
        mhat[np.arange(k), 2 * pairs + 1] += step
        return mhat

    def test_every_pair_a_candidate(self, rng):
        n_u = 40
        mhat = self.level_rows(rng, 60, n_u, 1e-3 * rng.random(60))
        mhat[[7, 31, 44]] = mhat[12] + 0.5 * DUPLICATE_ROW_TOL
        proj = mhat @ np.resize([1.0, -1.0], n_u)
        assert np.ptp(proj) < 2 * n_u * DUPLICATE_ROW_TOL
        groups = self.merged(rng, mhat)
        assert self.same_group(groups, 7, 12, 31, 44)
        assert len(groups) == 57

    def test_wide_features_agree_but_not_the_rest(self, rng):
        # the screen passes these pairs; only the full rows tell them apart
        n_u = 30
        mhat = 0.02 + 1e-3 * rng.random((40, n_u))
        mhat[:, :_SCREEN_FEATURES] = rng.random((40, _SCREEN_FEATURES))
        for i, j in ((1, 2), (5, 9), (20, 33)):
            mhat[j] = mhat[i]
            mhat[j, _SCREEN_FEATURES + j % 5] += 3 * DUPLICATE_ROW_TOL
        mhat[25] = mhat[26] + 0.5 * DUPLICATE_ROW_TOL
        groups = self.merged(rng, mhat)
        assert not any(self.same_group(groups, *pair) for pair in ((1, 2), (5, 9), (20, 33)))
        assert self.same_group(groups, 25, 26)

    def test_group_chained_across_blocks(self, rng):
        # neighbours within the tolerance, next-but-one neighbours not: the
        # group is one chain of 49 close pairs, which blocks of one pair
        # join one at a time
        n_chain = 50
        mhat = rng.dirichlet(np.ones(20), size=n_chain + 10)
        chain = rng.permutation(n_chain + 10)[:n_chain]
        mhat[chain] = mhat[chain[0]]
        mhat[chain, 0] += 0.6 * DUPLICATE_ROW_TOL * np.arange(n_chain)
        groups = self.merged(rng, mhat)
        assert self.same_group(groups, *chain)
        assert len(groups) == 11


class TestFixedPoint:
    def test_converged_solves_end_at_the_rounding_floor(self, monkeypatch):
        # the one stop: a solve is converged only on a step whose residual
        # is down to the rounding error of the update
        ends = []
        point = solver._Step.point

        def recording(step, *args):
            converged = args[-1]
            ends.append((converged, step.residual <= step.round_off))
            return point(step, *args)

        monkeypatch.setattr(solver._Step, "point", recording)
        monkeypatch.setattr(solver, "_cpu_count", lambda: 1)  # every solve in this process
        space = random_space(np.random.default_rng(0))
        anneal_frontier(space, SolverConfig(beta_grid=default_beta_grid(64, 15),
                                            max_iterations=6000))
        assert len(ends) == 15 and all(converged for converged, _ in ends)
        assert all(at_floor for _, at_floor in ends)

    def test_one_extra_update_is_stationary(self, rng):
        for _ in range(3):
            space = random_space(rng, 5, 5)
            front = anneal_frontier(space, small_config(default_beta_grid(32, 25)))
            for point in front.points:
                if point.converged:
                    assert fixed_point_delta(space, point) < 1e-10

    def test_continued_iteration_pins_complexity_and_accuracy(self, rng):
        # F is stationary at the optimum, so the check above cannot see C and A
        # still moving; stopping at the rounding floor pins them as well
        for _ in range(3):
            space = random_space(rng, 5, 5)
            front = anneal_frontier(space, small_config(default_beta_grid(32, 25)))
            for point in front.points:
                assert point.converged
                assert continued_ca_move(space, point) < 1e-8

    def test_default_tolerance_pins_fixture_points(self):
        # every point of both fixture pipelines is within 1e-11 bits of the
        # limit of continued iteration in C and A (largest measured move
        # 2.9e-14)
        c_space, _, _, c_front = regen_golden.container_pipeline()
        for space, front in ((c_space, c_front), regen_golden.animal_pipeline()):
            for point in front.points:
                assert continued_ca_move(space, point) < 1e-11, f"beta={point.beta}"


class TestRoundOffBound:
    """The exact rounding-error norm is computed only when the residual is
    within its bound; the bound never lies below it, so no stop changes."""

    @staticmethod
    def recording(monkeypatch) -> list[tuple]:
        """Record (residual, round_off, bound, exact, clamped) for every
        evaluation, recomputing the bound and the exact norm of each step."""
        seen = []
        plain_update = solver._plain_update

        def checked(ws, x, labels, beta, prune):
            s = plain_update(ws, x, labels, beta, prune)
            dist = solver._distortion(ws.reps, ws.self_nats, solver._log(s.mhat))
            log_qw = np.log(s.qw)
            clamped = np.max(np.abs(dist)) + ws.self_max > 1e100
            bound = solver._round_off_bound(ws, dist, log_qw, beta)
            exact = solver._round_off(ws, s.weights, dist, log_qw, beta)
            seen.append((s.residual, s.round_off, bound, exact, clamped))
            return s

        monkeypatch.setattr(solver, "_plain_update", checked)
        return seen

    @pytest.mark.parametrize("sparse", [False, True])
    def test_bound_is_never_below_the_exact_norm(self, rng, monkeypatch, sparse):
        seen = self.recording(monkeypatch)
        for beta in (0.0, 1.0, 64.0, 8192.0):
            for _ in range(3):
                space = random_space(rng, 7, 9, sparse=sparse)
                solve_at_beta(space, beta, identity_system(space), small_config((beta,)))
        assert len(seen) > 24  # more than one evaluation per solve
        assert all(bound >= exact for _, _, bound, exact, _ in seen)
        # reconstructions with exact zeros put LOG_ZERO terms in the distortion
        assert any(clamped for *_, clamped in seen) == sparse

    @pytest.mark.parametrize("sparse", [False, True])
    def test_sweep_stops_as_with_the_exact_norm(self, rng, monkeypatch, sparse):
        seen = self.recording(monkeypatch)
        monkeypatch.setattr(solver, "_cpu_count", lambda: 1)  # every solve in this process
        anneal_frontier(random_space(rng, 8, 10, sparse=sparse),
                        small_config(default_beta_grid(64, 15)))
        assert all((res <= round_off) == (res <= exact) for res, round_off, _, exact, _ in seen)
        # the exact norm is the one stored whenever it was computed
        within = [round_off == exact for res, round_off, bound, exact, _ in seen if res <= bound]
        assert all(within) and 0 < len(within) < len(seen)


class TestAnderson:
    # more entries than one block, so the blocked sums are exercised
    SHAPE = (90, 50)

    def pushed(self, rng, steps):
        """An Anderson history after ``steps`` pushes of random steps, with
        the first step's weights and the residual of each step."""
        accel = _Anderson()
        assert np.prod(self.SHAPE) > _MIX_BLOCK
        weights = rng.dirichlet(np.ones(np.prod(self.SHAPE))).reshape(self.SHAPE)
        qw = weights.sum(axis=0)
        residuals = []
        for i in range(steps):
            f, g = rng.standard_normal(self.SHAPE), rng.standard_normal(self.SHAPE)
            # only the step that starts the history sets the weights
            accel.push(weights if i == 0 else rng.random(self.SHAPE), qw, f, g)
            residuals.append(f)
        return accel, weights, residuals

    def test_ring_buffer_wraps(self, rng):
        steps = _ANDERSON_DEPTH + 7
        accel, weights, residuals = self.pushed(rng, steps)
        assert accel.count == steps - 1
        assert accel.depth == _ANDERSON_DEPTH
        # the newest difference sits at slot (count - 1) mod depth, weighted
        # by the square root of the first step's weights
        newest = np.sqrt(weights) * (residuals[-1] - residuals[-2])
        np.testing.assert_array_equal(accel.d_res[(accel.count - 1) % _ANDERSON_DEPTH],
                                      newest.ravel().astype(np.float32))

    def test_gram_matches_stored_rows(self, rng):
        accel, _, _ = self.pushed(rng, _ANDERSON_DEPTH + 7)
        rows = accel.d_res.astype(np.float64)
        expected = rows @ rows.T  # every entry, the diagonal included
        scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
        assert np.all(np.abs(accel.gram - expected) <= 1e-12 * scale)

    def test_mix_is_least_squares(self, rng):
        accel, _, _ = self.pushed(rng, _ANDERSON_DEPTH + 7)
        f, g = accel.last
        rows, maps = accel.d_res.astype(np.float64), accel.d_map.astype(np.float64)
        coef = np.linalg.lstsq(rows.T, accel.sqrt_w * f.ravel(), rcond=None)[0]
        np.testing.assert_allclose(accel.mix().ravel(), g.ravel() - coef @ maps,
                                   rtol=0, atol=1e-10)

    def test_clear_takes_fresh_weights(self, rng):
        accel, _, _ = self.pushed(rng, 5)
        accel.clear()
        weights = rng.random(self.SHAPE)
        accel.push(weights, weights.sum(axis=0), rng.standard_normal(self.SHAPE),
                   rng.standard_normal(self.SHAPE))
        assert accel.depth == 0
        np.testing.assert_array_equal(accel.sqrt_w, np.sqrt(weights).ravel())

    @pytest.mark.parametrize("factor", [0.99 / _WEIGHT_DRIFT, 0.99 * _WEIGHT_DRIFT,
                                        1.01 / _WEIGHT_DRIFT, 1.01 * _WEIGHT_DRIFT])
    def test_word_mass_drift_restarts_history(self, rng, factor):
        accel, _, _ = self.pushed(rng, 5)
        weights = rng.random(self.SHAPE)
        qw = accel.qw0.copy()
        qw[3] *= factor  # one word's mass moves by this factor
        accel.push(weights, qw, rng.standard_normal(self.SHAPE),
                   rng.standard_normal(self.SHAPE))
        restarted = not 1 / _WEIGHT_DRIFT <= factor <= _WEIGHT_DRIFT
        assert accel.depth == (0 if restarted else 5)
        assert (accel.qw0 is qw) == restarted


class TestEffectiveCategories:
    def test_single_word(self, rng):
        space = random_space(rng, 3, 3)
        point = solve_at_beta(space, 0.0, identity_system(space))
        assert point.effective_k == 1

    def test_identity_four_uniform(self):
        labels = tuple(f"m{i}" for i in range(4))
        space = MeaningSpace.create(np.eye(4), tuple(f"u{i}" for i in range(4)), labels,
                                    Distribution.create(np.ones(4) / 4, labels))
        point = solve_at_beta(space, 64.0, identity_system(space))
        assert point.effective_k == 4

    def test_threshold_is_strict(self):
        # a word with mass exactly DEFAULT_CATEGORY_MASS_THRESHOLD does not count
        t = DEFAULT_CATEGORY_MASS_THRESHOLD
        assert _category_count(np.array([t, 1 - t])) == 1
        assert _category_count(np.array([np.nextafter(t, 1), 1 - t])) == 2


class TestSelectMostInformative:
    def make_frontier(self, rng):
        space = random_space(rng, 4, 5)
        return space, anneal_frontier(space, small_config(default_beta_grid(64, 40)))

    def test_k_one_is_trivial_end(self, rng):
        space, front = self.make_frontier(rng)
        point = select_most_informative_with_k(front, 1)
        assert point.complexity_bits <= 1e-9

    def test_empty_frontier_rejected(self):
        empty = Frontier((), "fingerprint", SolverConfig(beta_grid=(1.0,)))
        with pytest.raises(ValidationError, match="frontier has no points"):
            select_most_informative_with_k(empty, 1)

    def test_unreachable_k_lists_available(self, rng):
        space, front = self.make_frontier(rng)
        with pytest.raises(CategorySelectionError, match=r"no frontier point with 9"):
            select_most_informative_with_k(front, 9)

    def test_picks_max_accuracy(self, rng):
        space, front = self.make_frontier(rng)
        ks = {p.effective_k for p in front.points}
        for k in ks:
            chosen = select_most_informative_with_k(front, k)
            best = max(p.accuracy_bits for p in front.points
                       if p.effective_k == k)
            assert chosen.accuracy_bits == best
