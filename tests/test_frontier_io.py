import dataclasses
import json
import shutil

import numpy as np
import pytest

from ibnaming import (
    DEFAULT_CATEGORY_MASS_THRESHOLD,
    Distribution,
    Frontier,
    MeaningSpace,
    SolverConfig,
    ValidationError,
    anneal_frontier,
    default_beta_grid,
    fit_beta,
    load_frontier,
    save_frontier,
    solver,
)
from ibnaming.core import PROB_FLOOR
from ibnaming.frontier_io import _COLUMNS, frontier_files
from ibnaming.ingest import read_space_csv, write_space_csv
from helpers import random_space, random_system, rewrite_float_cells_as_repr


@pytest.fixture
def computed(rng):
    space = random_space(rng, 4, 5)
    cfg = SolverConfig(beta_grid=default_beta_grid(16.0, 20), max_iterations=6000)
    return space, anneal_frontier(space, cfg)


@pytest.fixture
def sub_floor(rng, monkeypatch):
    """A frontier whose solves end with encoder entries in (0, PROB_FLOOR)."""
    solved = []
    point = solver._Step.point

    def recording(step, *args):
        solved.append(step.q)
        return point(step, *args)

    monkeypatch.setattr(solver._Step, "point", recording)
    monkeypatch.setattr(solver, "_cpu_count", lambda: 1)  # every solve in this process
    space = random_space(rng, 6, 8)
    front = anneal_frontier(space, SolverConfig(beta_grid=default_beta_grid(64.0, 20),
                                                max_iterations=6000))
    assert sum(np.sum((q > 0) & (q < PROB_FLOOR)) for q in solved) > 0
    return space, front


def test_point_fields_are_a_row_and_its_encoder():
    # a field that is not written to disk could not survive a save and load
    names = [f.name for f in dataclasses.fields(solver.FrontierPoint)]
    assert sorted(names) == sorted([*_COLUMNS, "encoder"])


class TestRoundTrip:
    def test_values_exact(self, computed, tmp_path):
        space, front = computed
        save_frontier(front, tmp_path)
        loaded = load_frontier(tmp_path, space=space)
        assert loaded.space_fingerprint == front.space_fingerprint
        assert loaded.config == front.config
        for a, b in zip(front.points, loaded.points):
            assert a.beta == b.beta
            assert a.complexity_bits == b.complexity_bits
            assert a.accuracy_bits == b.accuracy_bits
            assert a.objective_bits == b.objective_bits
            assert a.effective_k == b.effective_k
            assert a.converged == b.converged
            assert a.iterations == b.iterations
            np.testing.assert_array_equal(a.encoder.encoder, b.encoder.encoder)
            assert a.encoder.word_labels == b.encoder.word_labels

    def test_shorter_frontier_removes_stale_encoders(self, computed, tmp_path):
        # the files a manifest hashes are the files a load reads
        space, front = computed
        save_frontier(front, tmp_path)
        short = dataclasses.replace(front, points=front.points[:8], config=SolverConfig(
            beta_grid=front.config.beta_grid[:8], max_iterations=6000))
        save_frontier(short, tmp_path)
        assert [f.name for f in frontier_files(tmp_path)[2:]] == [
            f"point_{i:05d}.csv" for i in range(8)]
        assert len(load_frontier(tmp_path, space=space)) == 8

    def test_sub_floor_entries_round_trip_exactly(self, sub_floor, tmp_path):
        space, front = sub_floor
        save_frontier(front, tmp_path / "saved")
        loaded = load_frontier(tmp_path / "saved", space)
        for a, b in zip(front.points, loaded.points, strict=True):
            assert not np.any((a.encoder.encoder > 0) & (a.encoder.encoder < PROB_FLOOR))
            assert a.encoder.encoder.tobytes() == b.encoder.encoder.tobytes()
            assert a.encoder.word_labels == b.encoder.word_labels
        save_frontier(loaded, tmp_path / "resaved")
        saved = frontier_files(tmp_path / "saved")
        resaved = frontier_files(tmp_path / "resaved")
        assert [f.name for f in saved] == [f.name for f in resaved]
        for a, b in zip(saved, resaved):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_frontier_saved_with_repr_cells_loads_the_same(self, computed, tmp_path):
        # frontiers saved before 0.0 and 1.0 were written as 0 and 1 load to
        # the same bits, and save to the compact bytes
        space, front = computed
        compact, old, resaved = tmp_path / "compact", tmp_path / "old", tmp_path / "resaved"
        save_frontier(front, compact)
        shutil.copytree(compact, old)
        rewrite_float_cells_as_repr(old)
        assert [f.read_bytes() for f in frontier_files(old)] != [
            f.read_bytes() for f in frontier_files(compact)]
        loaded = load_frontier(old, space)
        for a, b in zip(load_frontier(compact, space).points, loaded.points, strict=True):
            assert (np.array([a.beta, a.complexity_bits, a.accuracy_bits, a.objective_bits])
                    .tobytes() == np.array([b.beta, b.complexity_bits, b.accuracy_bits,
                                            b.objective_bits]).tobytes())
            assert (a.effective_k, a.iterations) == (b.effective_k, b.iterations)
            assert a.encoder.encoder.tobytes() == b.encoder.encoder.tobytes()
        save_frontier(loaded, resaved)
        assert [f.read_bytes() for f in frontier_files(resaved)] == [
            f.read_bytes() for f in frontier_files(compact)]

    def test_word_mass_recomputed_with_space(self, computed, tmp_path):
        space, front = computed
        save_frontier(front, tmp_path)
        loaded = load_frontier(tmp_path, space=space)
        for a, b in zip(front.points, loaded.points):
            assert b.effective_k == a.effective_k

    def test_fit_beta_on_loaded_frontier(self, computed, tmp_path, rng):
        space, front = computed
        save_frontier(front, tmp_path)
        loaded = load_frontier(tmp_path, space=space)
        sys = random_system(rng, space, 3)
        a = fit_beta(sys, space, front)
        b = fit_beta(sys, space, loaded)
        assert a.fitted_beta == b.fitted_beta
        assert a.inefficiency_bits == b.inefficiency_bits
        assert a.gnid == pytest.approx(b.gnid, abs=1e-12)

    def test_missing_csv_rejected(self, computed, tmp_path):
        space, front = computed
        save_frontier(front, tmp_path)
        (tmp_path / "frontier.csv").unlink()
        with pytest.raises(ValidationError, match="frontier.csv: frontier CSV not found"):
            load_frontier(tmp_path, space)

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: ["beta,complexity_bits\n", *lines[1:]],
         "frontier.csv: expected the header beta,complexity_bits,"),
        (lambda lines: [lines[0], lines[1].replace(",true,", ",yes,"), *lines[2:]],
         "frontier.csv, line 2: malformed row"),
        (lambda lines: [*lines, lines[-1]],
         "frontier.csv, line 22: row beyond the 20 betas of the grid"),
    ], ids=["header", "converged-cell", "extra-row"])
    def test_malformed_csv_rejected(self, computed, tmp_path, edit, message):
        space, front = computed
        save_frontier(front, tmp_path)
        csv_path = tmp_path / "frontier.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        assert ",true," in lines[1]
        csv_path.write_text("".join(edit(lines)))
        with pytest.raises(ValidationError, match=message):
            load_frontier(tmp_path, space)

    def test_missing_metadata_rejected(self, computed, tmp_path):
        space, front = computed
        save_frontier(front, tmp_path)
        (tmp_path / "frontier_meta.json").unlink()
        with pytest.raises(ValidationError, match="metadata"):
            load_frontier(tmp_path, space)

    def test_truncated_tail_rejected(self, computed, tmp_path):
        space, front = computed
        save_frontier(front, tmp_path)
        csv_path = tmp_path / "frontier.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines[:-1]))
        with pytest.raises(ValidationError, match=f"frontier.csv, line {len(lines)}: "
                                                  f"the file ends after {len(front) - 1} rows"):
            load_frontier(tmp_path, space)

    def test_blank_lines_between_rows_skipped(self, computed, tmp_path):
        space, front = computed
        blank, resaved = tmp_path / "blank", tmp_path / "resaved"
        save_frontier(front, tmp_path)
        save_frontier(front, blank)
        csv_path = blank / "frontier.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join([*lines[:3], "\n", *lines[3:], "\n"]))
        # a loaded frontier saves to the bytes it was read from
        save_frontier(load_frontier(blank, space), resaved)
        assert [f.read_bytes() for f in frontier_files(resaved)] == [
            f.read_bytes() for f in frontier_files(tmp_path)]

    def test_metadata_with_encoders_key_loads(self, computed, tmp_path):
        space, front = computed
        save_frontier(front, tmp_path)
        meta_path = tmp_path / "frontier_meta.json"
        meta = json.loads(meta_path.read_text())
        assert "encoders" not in meta
        meta["encoders"] = "encoders"
        meta_path.write_text(json.dumps(meta))
        loaded = load_frontier(tmp_path, space)
        assert [p.beta for p in loaded.points] == [p.beta for p in front.points]


def test_word_at_the_category_threshold_loads_back(tmp_path):
    # the solver's q(w) of w000 is 0.5 * (2e-5 + 9e-16) > 1e-5, but the
    # written encoder holds 0 for the 9e-16 below PROB_FLOOR; the point must
    # count the word as load_frontier counts it on that encoder
    labels = ("m0", "m1")
    space = MeaningSpace.create(np.array([[0.8, 0.2], [0.3, 0.7]]), ("u0", "u1"), labels,
                                Distribution.uniform(labels))
    q = np.array([[2e-5, 1 - 2e-5], [9e-16, 1 - 9e-16]])
    ws = solver._Workspace.for_space(space)
    step = solver._plain_update(ws, solver._log_encoder(q),
                                np.array(["w000", "w001"], dtype=object), 1.0, 0.0)
    assert 0 < step.q[1, 0] < PROB_FLOOR
    assert step.qw[0] > DEFAULT_CATEGORY_MASS_THRESHOLD
    point = step.point(ws, 1.0, labels, 1, True)
    assert point.effective_k == 1
    save_frontier(Frontier((point,), space.fingerprint, SolverConfig(beta_grid=(1.0,))),
                  tmp_path)
    assert load_frontier(tmp_path, space).points[0].effective_k == 1


class TestSpaceFingerprintStability:
    def test_fingerprint_survives_write_read(self, tmp_path, rng):
        space = random_space(rng, 5, 6)
        path = tmp_path / "space.csv"
        write_space_csv(space, path)
        loaded = read_space_csv(path)
        from ibnaming import attach_need

        reloaded = attach_need(loaded, space.need)
        assert reloaded.fingerprint == space.fingerprint
