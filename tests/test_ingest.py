import re
import tracemalloc

import numpy as np
import pytest

from ibnaming import (
    Distribution,
    FeatureTable,
    IterativeScalingError,
    MeaningSpace,
    NamingCounts,
    NamingSystem,
    SimilarityMatrix,
    ValidationError,
    attach_need,
    li_prior,
    meaning_space_from_features,
    meaning_space_from_similarity,
    naming_system_from_counts,
    naming_weights_from_counts,
    reorder_naming_system,
)
from ibnaming import ingest
from ibnaming.ingest import (
    read_encoder_csv,
    read_feature_table,
    read_naming_counts,
    read_naming_system,
    read_prior_csv,
    read_similarity_csv,
    read_space_csv,
    write_encoder_csv,
    write_prior_csv,
    write_space_csv,
)
from helpers import random_space, random_system


@pytest.fixture
def opened(monkeypatch):
    """Every file object that ``ingest`` opens, in order."""
    files = []

    def tracking_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(ingest, "open", tracking_open, raising=False)
    return files


class TestSimilaritySpace:
    def test_softmax_row_hand_value(self):
        sim = SimilarityMatrix.create(np.diag([2.0, 2.0, 2.0]), ("a", "b", "c"))
        space = meaning_space_from_similarity(sim, gamma=1.0)
        z = np.exp(2.0) + 2.0
        np.testing.assert_allclose(space.representations[0],
                                   [np.exp(2.0) / z, 1 / z, 1 / z], atol=1e-12)
        assert space.representations[0][0] == pytest.approx(0.786986, abs=1e-5)
        assert space.representations[0][1] == pytest.approx(0.106507, abs=1e-5)

    def test_constant_matrix_with_explicit_gamma_uniform(self):
        sim = SimilarityMatrix.create(np.full((3, 3), 5.0), ("a", "b", "c"))
        space = meaning_space_from_similarity(sim, gamma=1.0)
        np.testing.assert_allclose(space.representations, 1.0 / 3.0, atol=1e-15)

    def test_constant_matrix_without_gamma_errors(self):
        sim = SimilarityMatrix.create(np.full((3, 3), 5.0), ("a", "b", "c"))
        with pytest.raises(ValidationError, match="gamma"):
            meaning_space_from_similarity(sim)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, float("nan"), float("inf")])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        sim = SimilarityMatrix.create(np.diag([2.0, 1.0]), ("a", "b"))
        with pytest.raises(ValidationError, match=f"gamma must be finite and > 0, got {gamma}"):
            meaning_space_from_similarity(sim, gamma=gamma)

    def test_rows_positive_and_normalized(self, rng):
        v = rng.random((6, 6)) * 10
        sim = SimilarityMatrix.create((v + v.T) / 2, tuple(f"c{i}" for i in range(6)))
        space = meaning_space_from_similarity(sim)
        assert np.all(space.representations > 0)
        np.testing.assert_allclose(space.representations.sum(axis=1), 1.0, atol=1e-12)
        assert space.need is None

    def test_gamma_defaults_to_inverse_population_sd(self, rng):
        v = rng.random((4, 4))
        sim = SimilarityMatrix.create((v + v.T) / 2, tuple("abcd"))
        explicit = meaning_space_from_similarity(sim, gamma=1.0 / np.std(sim.values))
        default = meaning_space_from_similarity(sim)
        np.testing.assert_array_equal(default.representations, explicit.representations)

    def test_shift_invariance(self, rng):
        v = rng.random((5, 5))
        sim = SimilarityMatrix.create((v + v.T) / 2, tuple(f"c{i}" for i in range(5)))
        shifted = SimilarityMatrix.create(sim.values + 3.7, sim.labels)
        a = meaning_space_from_similarity(sim, gamma=2.0)
        b = meaning_space_from_similarity(shifted, gamma=2.0)
        np.testing.assert_allclose(a.representations, b.representations, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        v = rng.random((5, 5))
        sim = SimilarityMatrix.create((v + v.T) / 2, tuple(f"c{i}" for i in range(5)))
        perm = rng.permutation(5)
        permuted = SimilarityMatrix.create(sim.values[np.ix_(perm, perm)],
                                           tuple(sim.labels[i] for i in perm))
        a = meaning_space_from_similarity(sim, gamma=1.5)
        b = meaning_space_from_similarity(permuted, gamma=1.5)
        np.testing.assert_allclose(b.representations,
                                   a.representations[np.ix_(perm, perm)], atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError, match="asymmetric"):
            SimilarityMatrix.create([[1.0, 2.0], [3.0, 1.0]], ("a", "b"))


class TestNamingCounts:
    def test_point_mass_row(self):
        counts = NamingCounts.create([("o1", "kopp", 16), ("o2", "kopp", 8),
                                      ("o2", "burk", 8)])
        sys = naming_system_from_counts(counts)
        i = sys.meaning_labels.index("o1")
        j = sys.word_labels.index("kopp")
        assert sys.encoder[i, j] == 1.0

    def test_even_split(self):
        counts = NamingCounts.create([("o1", "a", 16), ("o1", "b", 16)])
        sys = naming_system_from_counts(counts)
        np.testing.assert_allclose(sys.encoder[0], [0.5, 0.5], atol=0)

    def test_zero_total_meaning_rejected(self):
        with pytest.raises(ValidationError, match="zero total count"):
            NamingCounts.create([("o1", "a", 0)])

    def test_counts_round_trip(self, rng):
        rows = []
        meanings = [f"o{i}" for i in range(6)]
        words = ["w1", "w2", "w3"]
        expect = {}
        for m in meanings:
            for w in words:
                c = int(rng.integers(0, 9))
                expect[(m, w)] = c
                if c:
                    rows.append((m, w, c))
            if not any(expect[(m, w)] for w in words):
                expect[(m, "w1")] = 1
                rows.append((m, "w1", 1))
        counts = NamingCounts.create(rows)
        sys = naming_system_from_counts(counts, meaning_order=meanings, word_order=words)
        totals = counts.meaning_totals()
        rebuilt = sys.encoder * np.array([totals[m] for m in meanings])[:, None]
        for i, m in enumerate(meanings):
            for j, w in enumerate(words):
                assert rebuilt[i, j] == pytest.approx(expect[(m, w)], abs=1e-9)

    def test_weights_from_counts(self):
        counts = NamingCounts.create([("o1", "a", 3), ("o2", "a", 1)])
        np.testing.assert_allclose(naming_weights_from_counts(counts, ["o1", "o2"]),
                                   [0.75, 0.25], atol=0)


class TestLIPrior:
    def test_non_informative_encoder_gives_uniform(self):
        enc = np.tile([0.3, 0.7], (4, 1))
        sys = NamingSystem.create(enc, ("w0", "w1"), tuple(f"m{i}" for i in range(4)))
        prior = li_prior([sys], epsilon=0.0)
        np.testing.assert_allclose(prior.mass, 0.25, atol=1e-9)

    def test_bijective_encoder_recovers_word_frequencies(self):
        labels = ("m0", "m1", "m2")
        sys = NamingSystem.create(np.eye(3), ("w0", "w1", "w2"), labels)
        weights = np.array([0.6, 0.3, 0.1])
        eps = 0.001
        prior = li_prior([sys], epsilon=eps, meaning_weights=[weights])
        expected = (weights + eps) / (1 + 3 * eps)
        np.testing.assert_allclose(prior.mass, expected, atol=1e-8)

    def test_two_language_average_satisfies_constraints(self, rng):
        labels = tuple(f"m{i}" for i in range(5))
        sys_a = NamingSystem.create(rng.dirichlet(np.ones(3), size=5),
                                    ("a0", "a1", "a2"), labels)
        sys_b = NamingSystem.create(rng.dirichlet(np.ones(2), size=5),
                                    ("b0", "b1"), labels)
        per_language = []
        for sys in (sys_a, sys_b):
            p = li_prior([sys], epsilon=0.0)
            target = np.full(5, 0.2) @ sys.encoder
            np.testing.assert_allclose(p.mass @ sys.encoder, target, atol=1e-8)
            per_language.append(p.mass)
        both = li_prior([sys_a, sys_b], epsilon=0.0)
        np.testing.assert_allclose(both.mass, np.mean(per_language, axis=0), atol=1e-8)

    def test_positive_and_normalized_with_epsilon(self, rng):
        space = random_space(rng, 5, 4)
        sys = random_system(rng, space, 3)
        prior = li_prior([sys], epsilon=0.001)
        assert np.all(prior.mass > 0)
        assert abs(prior.mass.sum() - 1.0) < 1e-12

    def test_mismatched_meaning_sets_rejected(self):
        a = NamingSystem.create(np.eye(2), ("w0", "w1"), ("m0", "m1"))
        b = NamingSystem.create(np.eye(2), ("w0", "w1"), ("m1", "m0"))
        with pytest.raises(ValidationError):
            li_prior([a, b])

    def test_iteration_cap_raises(self, monkeypatch):
        labels = tuple(f"m{i}" for i in range(5))
        sys = NamingSystem.create(np.eye(5), tuple(f"w{i}" for i in range(5)), labels)
        weights = np.array([0.5, 0.2, 0.1, 0.1, 0.1])
        monkeypatch.setattr(ingest, "_LI_MAX_ITERATIONS", 1)
        with pytest.raises(IterativeScalingError, match="within 1 iterations"):
            li_prior([sys], meaning_weights=[weights])

    @pytest.mark.parametrize("epsilon", [-0.001, float("nan"), float("inf")])
    def test_epsilon_must_be_finite_and_non_negative(self, epsilon):
        sys = NamingSystem.create(np.eye(2), ("w0", "w1"), ("m0", "m1"))
        with pytest.raises(ValidationError, match=f"epsilon must be finite and >= 0, got {epsilon}"):
            li_prior([sys], epsilon=epsilon)


class TestFeatureSpace:
    def make_table(self):
        values = np.array([
            [0.9, 0.0, 0.1],
            [0.0, 0.8, 0.0],
            [0.4, 0.4, 0.4],
        ])
        return FeatureTable.create(values, ("c0", "c1", "c2"), ("f0", "f1", "f2"),
                                   [2.0, 2.0, 2.0])

    def test_single_nonzero_feature_is_point_mass(self):
        space = meaning_space_from_features(self.make_table())
        np.testing.assert_allclose(space.representations[1], [0.0, 1.0, 0.0], atol=0)

    def test_equal_familiarity_uniform_need(self):
        space = meaning_space_from_features(self.make_table())
        np.testing.assert_allclose(space.need.mass, 1.0 / 3.0, atol=1e-15)

    def test_zero_row_rejected(self):
        table = FeatureTable.create([[0.0, 0.0], [0.5, 0.5]], ("c0", "c1"),
                                    ("f0", "f1"), [1.0, 1.0])
        with pytest.raises(ValidationError, match="c0"):
            meaning_space_from_features(table)

    def test_row_ranking_preserved(self, rng):
        values = rng.random((6, 8))
        table = FeatureTable.create(values, tuple(f"c{i}" for i in range(6)),
                                    tuple(f"f{i}" for i in range(8)),
                                    rng.random(6) + 0.1)
        space = meaning_space_from_features(table)
        for i in range(6):
            np.testing.assert_array_equal(np.argsort(values[i]),
                                          np.argsort(space.representations[i]))

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ValidationError, match="out of"):
            FeatureTable.create([[1.2, 0.0]], ("c0",), ("f0", "f1"), [1.0])


class TestAttachNeed:
    def test_uniform(self, rng):
        space = random_space(rng, 5, 4)
        out = attach_need(space, "uniform")
        np.testing.assert_allclose(out.need.mass, 0.2, atol=0)

    def test_verbatim_when_labels_match(self, rng):
        space = random_space(rng, 4, 4)
        need = Distribution.create([0.1, 0.2, 0.3, 0.4], space.meaning_labels)
        out = attach_need(space, need)
        assert out.need is need

    def test_reorders_by_label(self, rng):
        space = random_space(rng, 3, 3)
        shuffled = tuple(reversed(space.meaning_labels))
        need = Distribution.create([0.5, 0.3, 0.2], shuffled)
        out = attach_need(space, need)
        assert out.need.labels == space.meaning_labels
        assert out.need.mass[0] == 0.2

    def test_length_mismatch(self, rng):
        space = random_space(rng, 3, 3)
        with pytest.raises(ValidationError, match="3 meanings"):
            attach_need(space, Distribution.create([0.5, 0.5], ("x", "y")))

    def test_label_mismatch(self, rng):
        space = random_space(rng, 2, 3)
        with pytest.raises(ValidationError, match="need does not cover the meaning set: "
                           r"missing meaning '.+', unknown meaning 'x'"):
            attach_need(space, Distribution.create([0.5, 0.5], ("x", "y")))


class TestAlignment:
    def test_align_reorders_rows(self, rng):
        space = random_space(rng, 4, 3)
        sys = random_system(rng, space, 2)
        perm = rng.permutation(4)
        shuffled = NamingSystem(sys.encoder[perm],
                                sys.word_labels,
                                tuple(space.meaning_labels[i] for i in perm))
        aligned = reorder_naming_system(shuffled, space.meaning_labels)
        np.testing.assert_array_equal(aligned.encoder, sys.encoder)

    def test_align_rejects_wrong_set(self, rng):
        space = random_space(rng, 3, 3)
        sys = NamingSystem.create(np.eye(3), ("w0", "w1", "w2"), ("x0", "x1", "x2"))
        with pytest.raises(ValidationError):
            reorder_naming_system(sys, space.meaning_labels)


class TestFileIO:
    def test_similarity_round_trip(self, tmp_path, rng):
        v = rng.random((4, 4)) * 10
        sim = SimilarityMatrix.create((v + v.T) / 2, ("a", "b", "c", "d"))
        path = tmp_path / "sim.csv"
        with open(path, "w") as f:
            f.write("label," + ",".join(sim.labels) + "\n")
            for lab, row in zip(sim.labels, sim.values):
                f.write(lab + "," + ",".join(repr(float(x)) for x in row) + "\n")
        loaded = read_similarity_csv(path)
        np.testing.assert_array_equal(loaded.values, sim.values)
        assert loaded.labels == sim.labels

    def test_naming_counts_tsv(self, tmp_path):
        path = tmp_path / "naming.tsv"
        path.write_text(
            "meaning_label\tword_label\tcount\tcondition\n"
            "o1\tkopp\t12\tdutch_mono\n"
            "o1\tburk\t4\tdutch_mono\n"
            "o2\tburk\t16\tdutch_mono\n"
        )
        counts = read_naming_counts(path)
        assert counts.condition == "dutch_mono"
        sys = naming_system_from_counts(counts)
        assert sys.encoder[0].tolist() == [0.25, 0.75]

    def test_naming_counts_header_required(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("object\tword\tn\no1\tkopp\t3\n")
        with pytest.raises(ValidationError, match="header"):
            read_naming_counts(path)

    def test_non_integer_count_rejected(self, tmp_path):
        path = tmp_path / "bad2.tsv"
        path.write_text("meaning_label\tword_label\tcount\no1\tkopp\t3.5\n")
        with pytest.raises(ValidationError, match="not an integer"):
            read_naming_counts(path)

    def test_space_round_trip_exact(self, tmp_path, rng):
        space = random_space(rng, 5, 7)
        path = tmp_path / "space.csv"
        write_space_csv(space, path)
        loaded = read_space_csv(path)
        np.testing.assert_array_equal(loaded.representations, space.representations)
        assert loaded.meaning_labels == space.meaning_labels
        assert loaded.universe_labels == space.universe_labels

    def test_space_with_a_byte_order_mark_loads_the_same(self, tmp_path, rng):
        # spreadsheets save "CSV UTF-8" with a BOM in front of the header
        space = random_space(rng, 5, 7)
        path = tmp_path / "space.csv"
        write_space_csv(space, path)
        marked = tmp_path / "space_bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        loaded = attach_need(read_space_csv(marked), space.need)
        assert loaded.fingerprint == space.fingerprint

    def test_prior_round_trip_exact(self, tmp_path, rng):
        prior = Distribution.create(rng.dirichlet(np.ones(6)),
                                    tuple(f"m{i}" for i in range(6)))
        path = tmp_path / "prior.csv"
        write_prior_csv(prior, path)
        loaded = read_prior_csv(path)
        np.testing.assert_array_equal(loaded.mass, prior.mass)

    def test_encoder_round_trip_exact(self, tmp_path, rng):
        space = random_space(rng, 4, 3)
        sys = random_system(rng, space, 3)
        path = tmp_path / "enc.csv"
        write_encoder_csv(sys, path)
        loaded = read_encoder_csv(path)
        np.testing.assert_array_equal(loaded.encoder, sys.encoder)
        assert loaded.word_labels == sys.word_labels

    def test_non_numeric_matrix_cell_named(self, tmp_path):
        path = tmp_path / "space.csv"
        path.write_text("meaning,u0,u1,u2\nm0,0.5,0.25,0.25\nm1,0.5,oops,0.25\n")
        with pytest.raises(ValidationError, match=r"space.csv: line 3: 'oops' is not a number"):
            read_space_csv(path)

    # each file has a blank line 3, so the bad cell on line 4 is the third
    # non-blank line; the reader gets the directory of the files
    @pytest.mark.parametrize("name, text, read, message", [
        ("space.csv", "meaning,u0,u1\nm0,0.5,0.5\n\nm1,x,0.5\n",
         lambda d: read_space_csv(d / "space.csv"), "line 4: 'x' is not a number"),
        ("prior.csv", "meaning_label,probability\nm0,0.5\n\nm1,x\n",
         lambda d: read_prior_csv(d / "prior.csv"), "line 4: 'x' is not a number"),
        ("features.csv", "class,f0,f1\nc0,0.5,0.5\n\nc1,x,0.5\n",
         lambda d: read_feature_table(d / "features.csv", d / "familiarity.csv"),
         "line 4: 'x' is not a number"),
        ("familiarity.csv", "class_label,score\nc0,1\n\nc1,x\n",
         lambda d: read_feature_table(d / "features.csv", d / "familiarity.csv"),
         "line 4: 'x' is not a number"),
        ("naming.tsv", "meaning_label\tword_label\tcount\no1\tkopp\t3\n\no2\tburk\tz\n",
         lambda d: read_naming_counts(d / "naming.tsv"), "line 4: count 'z' is not an integer"),
        ("space.csv", "meaning,u0,u1\nm0,0.5,0.5\n\nm1,0.5\n",
         lambda d: read_space_csv(d / "space.csv"), "line 4 has 2 cells, header has 3"),
        ("familiarity.csv", "class_label,score\nc0,1\n\nc0,2\n",
         lambda d: read_feature_table(d / "features.csv", d / "familiarity.csv"),
         "line 4: label 'c0' is also on line 2"),
    ], ids=["space", "prior", "features", "familiarity", "naming-count", "ragged-row",
            "repeated-label"])
    def test_errors_name_the_physical_line(self, tmp_path, name, text, read, message):
        (tmp_path / "features.csv").write_text("class,f0,f1\nc0,0.5,0.5\nc1,0.25,0.5\n")
        (tmp_path / "familiarity.csv").write_text("class_label,score\nc0,1\nc1,2\n")
        (tmp_path / name).write_text(text)
        with pytest.raises(ValidationError, match=re.escape(f"{tmp_path / name}: {message}")):
            read(tmp_path)

    def test_matrix_cells_written_as_float_repr(self, tmp_path):
        enc = np.array([[0.1, 0.2, 0.7], [1 / 3, 2 / 3, 0.0], [1e-300, 0.5, 0.5 - 1e-300],
                        [0.0, 1.0, 0.0]])
        sys = NamingSystem(enc, ("a", "b", "c"), ("m0", "m1", "m2", "m3"))
        path = tmp_path / "enc.csv"
        write_encoder_csv(sys, path)
        assert path.read_text() == (
            "meaning,a,b,c\nm0,0.1,0.2,0.7\nm1,0.3333333333333333,0.6666666666666666,0\n"
            "m2,1e-300,0.5,0.5\nm3,0,1,0\n")
        assert read_encoder_csv(path).encoder.tobytes() == NamingSystem.create(
            enc, sys.word_labels, sys.meaning_labels).encoder.tobytes()

    @pytest.mark.parametrize("x, text", [
        (0.0, "0"), (-0.0, "-0"), (1.0, "1"), (1024.0, "1024"), (0.5, "0.5"),
        (1 / 3, "0.3333333333333333"), (1e-300, "1e-300"), (1e16, "1e+16"),
        (float("inf"), "inf"), (float("nan"), "nan")])
    def test_fmt_drops_only_the_dot_zero_of_finite_integral_values(self, x, text):
        assert ingest._fmt(x) == text
        # the same bits back, sign of zero included
        assert np.float64(float(text)).tobytes() == np.float64(x).tobytes()
        # a finite integral value loses the .0 of its repr; 1e+16 has none
        integral = np.isfinite(x) and x == int(x)
        assert repr(x) == (text + ".0" if integral and "e" not in text else text)

    @pytest.mark.parametrize("write, read", [
        (lambda m, path: write_encoder_csv(NamingSystem(m, ("a", "b"), ("m0", "m1")), path),
         lambda path: read_encoder_csv(path).encoder),
        (lambda m, path: write_space_csv(MeaningSpace(m, ("a", "b"), ("m0", "m1")), path),
         lambda path: read_space_csv(path).representations),
    ], ids=["encoder", "space"])
    def test_negative_zero_cell_reloads_as_before(self, tmp_path, write, read):
        # only a matrix built without create holds -0.0; it is written as 0,
        # and reloads to the +0.0 that create made of the -0.0 text
        path = tmp_path / "m.csv"
        write(np.array([[-0.0, 1.0], [0.5, 0.5]]), path)
        assert path.read_text().splitlines()[1] == "m0,0,1"
        old = tmp_path / "old.csv"
        old.write_text("meaning,a,b\nm0,-0.0,1.0\nm1,0.5,0.5\n")
        assert read(path).tobytes() == read(old).tobytes()
        assert read(path)[0, 0].tobytes() == np.float64(0.0).tobytes()

    def test_renormalization_noted(self, tmp_path):
        # the second row is off by 5e-13: below 1e-12, but core still divides it out
        path = tmp_path / "space.csv"
        for row, deviation in [("m0,0.5000000001,0.5", "1e-10"),
                               ("m0,0.5000000000005,0.5", "5e-13")]:
            path.write_text(f"meaning,u0,u1\n{row}\nm1,0.5,0.5\n")
            notes: list[str] = []
            space = read_space_csv(path, notes=notes)
            assert notes == [f"space.csv: renormalized 1 rows (max deviation {deviation})"]
            assert space.representations[0].sum() == pytest.approx(1.0, abs=1e-15)


class TestStreaming:
    """Tables are parsed a row at a time, and the file is closed however the
    parse ends."""

    ROWS = 300

    def long_table(self, tmp_path, last: str):
        """A space CSV of ROWS rows with a blank line after row 150 and
        ``last`` as its final row, on line ROWS + 2."""
        rows = [f"m{i},0.5,0.5" for i in range(self.ROWS - 1)] + [last]
        path = tmp_path / "space.csv"
        path.write_text("\n".join(["meaning,u0,u1", *rows[:150], "", *rows[150:]]) + "\n")
        return path

    @pytest.mark.parametrize("last, message", [
        ("m299,0.5,x", "line 302: 'x' is not a number"),
        ("m299,0.5", "line 302 has 2 cells, header has 3"),
    ], ids=["bad-cell", "ragged-row"])
    def test_last_row_errors_name_the_physical_line(self, tmp_path, opened, last, message):
        path = self.long_table(tmp_path, last)
        with pytest.raises(ValidationError) as e:
            read_space_csv(path)
        assert e.value.errors == [f"{path}: {message}"]
        assert [f.closed for f in opened] == [True]

    def test_early_error_closes_the_file(self, tmp_path, opened):
        path = self.long_table(tmp_path, "m299,0.5,0.5")
        path.write_text(path.read_text().replace("m1,0.5,0.5", "m1,0.5,oops"))
        with pytest.raises(ValidationError, match=re.escape(f"{path}: line 3: 'oops'")):
            read_space_csv(path)
        assert [f.closed for f in opened] == [True]

    @pytest.mark.parametrize("kind", ["counts", "matrix"])
    def test_naming_system_file_is_opened_once(self, tmp_path, opened, kind):
        path = tmp_path / "system.csv"
        if kind == "counts":
            path.write_text("meaning_label,word_label,count\nm0,a,3\nm1,b,1\n")
        else:
            path.write_text("meaning,a,b\nm0,1.0,0.0\nm1,0.0,1.0\n")
        system = read_naming_system(path)
        assert system.encoder.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert len(opened) == 1 and opened[0].closed

    def test_space_read_peak_is_a_few_arrays(self, tmp_path, rng):
        # the paper's animal shape; a string held per cell would peak
        # near fifteen times the array
        path = tmp_path / "space.csv"
        write_space_csv(random_space(rng, 113, 757), path)
        tracemalloc.start()
        try:
            space = read_space_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * space.representations.nbytes
