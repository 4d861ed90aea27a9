import json

import numpy as np
import pytest

from ibnaming import (
    SolverConfig,
    ValidationError,
    anneal_frontier,
    default_beta_grid,
    effective_category_count,
    fit_beta,
    load_frontier,
    save_frontier,
)
from ibnaming.ingest import read_space_csv, write_space_csv
from helpers import random_space, random_system


@pytest.fixture
def computed(rng):
    space = random_space(rng, 4, 5)
    cfg = SolverConfig(beta_grid=default_beta_grid(16.0, 20), max_iterations=6000)
    return space, anneal_frontier(space, cfg)


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

    def test_word_mass_recomputed_with_space(self, computed, tmp_path):
        space, front = computed
        save_frontier(front, tmp_path)
        loaded = load_frontier(tmp_path, space=space)
        for a, b in zip(front.points, loaded.points):
            np.testing.assert_allclose(b.word_mass, a.word_mass, atol=1e-12)
            assert effective_category_count(b) == effective_category_count(a)

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


class TestSpaceFingerprintStability:
    def test_fingerprint_survives_write_read(self, tmp_path, rng):
        space = random_space(rng, 5, 6)
        path = tmp_path / "space.csv"
        write_space_csv(space, path)
        loaded = read_space_csv(path)
        from ibnaming import attach_need

        reloaded = attach_need(loaded, space.need)
        assert reloaded.fingerprint == space.fingerprint
