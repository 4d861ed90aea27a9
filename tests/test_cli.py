import csv
import errno
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import click
from click.testing import CliRunner

from ibnaming import IBNamingError, analysis, solver, workers
from ibnaming.cli import main
from ibnaming.ingest import (
    _fmt,
    naming_system_from_counts,
    read_naming_counts,
    read_similarity_csv,
    write_encoder_csv,
)

from conftest import FIXTURES
from helpers import write_animal_instance


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def build_container_pipeline(runner, root: Path, num_betas: int = 60,
                             beta_max: float = 32.0) -> dict[str, Path]:
    paths = {
        "space": root / "space.csv",
        "prior": root / "prior.csv",
        "front": root / "front",
    }
    run_ok(runner, ["make-space", "--similarity", str(FIXTURES / "similarity.csv"),
                    "--out", str(paths["space"])])
    run_ok(runner, ["make-prior",
                    "--naming", str(FIXTURES / "naming_a.tsv"),
                    "--naming", str(FIXTURES / "naming_b.tsv"),
                    "--space", str(paths["space"]), "--out", str(paths["prior"])])
    run_ok(runner, ["frontier", "--space", str(paths["space"]),
                    "--need", str(paths["prior"]),
                    "--beta-max", str(beta_max), "--num-betas", str(num_betas),
                    "--out", str(paths["front"])])
    return paths


def naming_a_as_matrix(path: Path) -> Path:
    """The fixture naming_a.tsv written as an encoder matrix CSV."""
    write_encoder_csv(naming_system_from_counts(
        read_naming_counts(FIXTURES / "naming_a.tsv")), path)
    return path


def with_bom(path: Path, out: Path) -> Path:
    """``path`` with a UTF-8 byte-order mark in front, as spreadsheets save CSV."""
    out.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return out


class TestPipelineComposability:
    def test_make_space_feeds_frontier(self, runner, tmp_path):
        paths = build_container_pipeline(runner, tmp_path, num_betas=40)
        front_csv = paths["front"] / "frontier.csv"
        assert front_csv.exists()
        assert len(front_csv.read_text().splitlines()) == 41  # header + points
        meta = json.loads((paths["front"] / "frontier_meta.json").read_text())
        assert meta["num_points"] == 40
        assert (paths["front"] / "manifest.json").exists()
        assert len(list((paths["front"] / "encoders").glob("*.csv"))) == 40

    def test_every_number_written_in_its_shortest_exact_form(self, runner, tmp_path):
        paths = build_container_pipeline(runner, tmp_path, num_betas=12)
        tables = [paths["space"], paths["prior"], paths["front"] / "frontier.csv",
                  *sorted((paths["front"] / "encoders").glob("*.csv"))]
        cells = []
        for path in tables:
            with open(path, newline="") as f:
                for row in list(csv.reader(f))[1:]:
                    for cell in row:
                        try:
                            cells.append((path.name, cell, _fmt(float(cell))))
                        except ValueError:  # a label or a converged flag
                            pass
        assert "0" in {cell for _, cell, _ in cells}
        assert [c for c in cells if c[1] != c[2]] == []

    def test_make_space_exclude_diagonal(self, runner, tmp_path):
        similarity = FIXTURES / "similarity.csv"
        values = read_similarity_csv(similarity).values
        gamma = float(1 / np.std(values[~np.eye(len(values), dtype=bool)]))
        spaces = {name: tmp_path / f"{name}.csv" for name in ("excluded", "explicit", "default")}
        run_ok(runner, ["make-space", "--similarity", str(similarity), "--exclude-diagonal",
                        "--out", str(spaces["excluded"])])
        run_ok(runner, ["make-space", "--similarity", str(similarity), "--gamma", repr(gamma),
                        "--out", str(spaces["explicit"])])
        run_ok(runner, ["make-space", "--similarity", str(similarity),
                        "--out", str(spaces["default"])])
        assert spaces["excluded"].read_bytes() == spaces["explicit"].read_bytes()
        assert spaces["excluded"].read_bytes() != spaces["default"].read_bytes()

    def test_frontier_names_unconverged_betas(self, runner, tmp_path):
        space = tmp_path / "space.csv"
        run_ok(runner, ["make-space", "--similarity", str(FIXTURES / "similarity.csv"),
                        "--out", str(space)])
        front = tmp_path / "front"
        result = run_ok(runner, ["frontier", "--space", str(space), "--need", "uniform",
                                 "--beta-max", "32", "--num-betas", "8",
                                 "--max-iterations", "3", "--out", str(front)])
        rows = (front / "frontier.csv").read_text().splitlines()[1:]
        unconverged = [f"{float(r.split(',')[0]):.6g}" for r in rows
                       if r.split(",")[5] == "false"]
        assert unconverged
        assert (f"({len(unconverged)} did not converge, at beta {', '.join(unconverged)})"
                in result.output)

    def test_eval_and_baseline(self, runner, tmp_path):
        paths = build_container_pipeline(runner, tmp_path, num_betas=40)
        out = tmp_path / "eval.json"
        result = run_ok(runner, ["eval", "--system", str(FIXTURES / "naming_a.tsv"),
                                 "--space", str(paths["space"]),
                                 "--need", str(paths["prior"]),
                                 "--frontier", str(paths["front"]),
                                 "--out", str(out)])
        assert "beta_l=" in result.output
        payload = json.loads(out.read_text())
        assert payload["inefficiency_bits"] >= -1e-6
        assert (tmp_path / "eval.json.manifest.json").exists()

        bout = tmp_path / "base.json"
        run_ok(runner, ["baseline", "--system", str(FIXTURES / "naming_a.tsv"),
                        "--space", str(paths["space"]), "--need", str(paths["prior"]),
                        "--frontier", str(paths["front"]),
                        "--samples", "10", "--seed", "7", "--out", str(bout)])
        summary = json.loads(bout.read_text())
        assert summary["num_samples"] == 10
        assert summary["seed"] == 7

    def test_manifests_hash_every_frontier_file(self, runner, tmp_path):
        paths = build_container_pipeline(runner, tmp_path, num_betas=12)
        front = paths["front"]
        common = ["--space", str(paths["space"]), "--need", str(paths["prior"]),
                  "--frontier", str(front)]
        system = ["--system", str(FIXTURES / "naming_a.tsv")]

        def frontier_inputs() -> list[dict[str, str]]:
            found = []
            for args, out in ((["eval", *system, *common], "--out"),
                              (["baseline", *system, *common, "--samples", "3",
                                "--seed", "1"], "--out"),
                              (["hierarchy", *common, "--k", "1"], "--out-json")):
                target = tmp_path / f"{args[0]}.json"
                run_ok(runner, [*args, out, str(target)])
                manifest = tmp_path / f"{args[0]}.json.manifest.json"
                inputs = json.loads(manifest.read_text())["inputs"]
                found.append({k: v for k, v in inputs.items() if Path(k).parent in
                              (front, front / "encoders")})
            return found

        before = frontier_inputs()
        expected = {front / "frontier.csv", front / "frontier_meta.json",
                    *(front / "encoders" / f"point_{i:05d}.csv" for i in range(12))}
        for inputs in before:
            assert {Path(k) for k in inputs} == expected
        # a word renamed: the encoder still loads, but its file has changed
        edited = front / "encoders" / "point_00005.csv"
        header, *rows = edited.read_text().splitlines(keepends=True)
        edited.write_text("meaning,renamed\n" + "".join(rows))
        for old, new in zip(before, frontier_inputs()):
            assert {k for k in old if old[k] != new[k]} == {str(edited)}

    def test_gnid_and_mixture(self, runner, tmp_path):
        out = tmp_path / "g.json"
        result = run_ok(runner, ["gnid",
                                 "--system-a", str(FIXTURES / "naming_a.tsv"),
                                 "--system-b", str(FIXTURES / "naming_b.tsv"),
                                 "--need", "uniform", "--out", str(out)])
        value = json.loads(out.read_text())["gnid"]
        assert 0.0 <= value <= 1.0
        assert repr(value) in result.output

        result = run_ok(runner, ["mixture",
                                 "--system-a", str(FIXTURES / "naming_a.tsv"),
                                 "--system-b", str(FIXTURES / "naming_b.tsv"),
                                 "--need", "uniform", "--weight", "0.5"])
        assert "mixture_complexity_bits" in result.output

    def test_gnid_and_mixture_realign_a_permuted_prior(self, runner, tmp_path):
        paths = build_container_pipeline(runner, tmp_path, num_betas=2)
        header, *rows = paths["prior"].read_text().splitlines(keepends=True)
        permuted = tmp_path / "permuted_prior.csv"
        permuted.write_text(header + "".join(rows[::-1]))
        values = {}
        for prior in (paths["prior"], permuted):
            for command, key in (("gnid", "gnid"), ("mixture", "mixture_complexity_bits")):
                out = tmp_path / f"{command}_{prior.stem}.json"
                run_ok(runner, [command, "--system-a", str(FIXTURES / "naming_a.tsv"),
                                "--system-b", str(FIXTURES / "naming_b.tsv"),
                                "--need", str(prior), "--out", str(out)])
                values.setdefault(command, []).append(json.loads(out.read_text())[key])
        for same, reordered in values.values():
            assert reordered == pytest.approx(same, abs=1e-12)

    def test_eval_reads_a_frontier_encoder_as_a_matrix(self, runner, tmp_path):
        paths = build_container_pipeline(runner, tmp_path, num_betas=40)
        out = tmp_path / "eval.json"
        run_ok(runner, ["eval",
                        "--system", str(paths["front"] / "encoders" / "point_00030.csv"),
                        "--space", str(paths["space"]), "--need", str(paths["prior"]),
                        "--frontier", str(paths["front"]), "--out", str(out)])
        assert abs(json.loads(out.read_text())["inefficiency_bits"]) <= 1e-9

    def test_make_prior_reads_counts_with_a_byte_order_mark(self, runner, tmp_path):
        space = tmp_path / "space.csv"
        run_ok(runner, ["make-space", "--similarity", str(FIXTURES / "similarity.csv"),
                        "--out", str(space)])
        priors = []
        for name, naming in (("plain", FIXTURES / "naming_a.tsv"),
                             ("bom", with_bom(FIXTURES / "naming_a.tsv",
                                              tmp_path / "naming_a.tsv"))):
            priors.append(tmp_path / f"prior_{name}.csv")
            run_ok(runner, ["make-prior", "--naming", str(naming), "--space", str(space),
                            "--out", str(priors[-1])])
        assert priors[1].read_bytes() == priors[0].read_bytes()

    def test_eval_reads_counts_with_a_byte_order_mark(self, runner, tmp_path):
        # the BOM must not hide the counts header and send the file to the
        # encoder-matrix reader
        paths = build_container_pipeline(runner, tmp_path, num_betas=12)
        results = []
        for name, naming in (("plain", FIXTURES / "naming_a.tsv"),
                             ("bom", with_bom(FIXTURES / "naming_a.tsv",
                                              tmp_path / "naming_a.tsv"))):
            out = tmp_path / f"eval_{name}.json"
            run_ok(runner, ["eval", "--system", str(naming), "--space", str(paths["space"]),
                            "--need", str(paths["prior"]), "--frontier", str(paths["front"]),
                            "--out", str(out)])
            results.append(json.loads(out.read_text()))
        assert results[1] == results[0]

    def test_gnid_pairs_counts_with_a_matrix(self, runner, tmp_path):
        matrix = naming_a_as_matrix(tmp_path / "naming_a_matrix.csv")
        # the counts with every cell quoted, as csv.QUOTE_ALL writes them
        quoted = tmp_path / "naming_a_quoted.tsv"
        with open(FIXTURES / "naming_a.tsv", newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f, delimiter="\t"))
        with open(quoted, "w", newline="", encoding="utf-8") as f:
            csv.writer(f, delimiter="\t", quoting=csv.QUOTE_ALL,
                       lineterminator="\n").writerows(rows)
        values = []
        for system_b in (FIXTURES / "naming_a.tsv", matrix, quoted):
            out = tmp_path / f"gnid_{system_b.stem}.json"
            run_ok(runner, ["gnid", "--system-a", str(FIXTURES / "naming_b.tsv"),
                            "--system-b", str(system_b), "--need", "uniform",
                            "--out", str(out)])
            values.append(json.loads(out.read_text())["gnid"])
        assert 0.0 < values[0] <= 1.0
        assert values[1] == pytest.approx(values[0], abs=1e-12)
        assert values[2] == values[0]

    def test_matrix_with_a_counts_header_exits_one(self, runner, tmp_path):
        matrix = naming_a_as_matrix(tmp_path / "matrix.csv")
        matrix.write_text("meaning_label" + matrix.read_text()[len("meaning"):])
        result = runner.invoke(main, ["gnid", "--system-a", str(matrix),
                                      "--system-b", str(FIXTURES / "naming_b.tsv"),
                                      "--need", "uniform"])
        assert result.exit_code == 1, result.output
        assert "header must start with meaning_label,word_label,count" in result.output

    def test_hierarchy(self, runner, tmp_path):
        space = tmp_path / "aspace.csv"
        need = tmp_path / "aneed.csv"
        front = tmp_path / "afront"
        run_ok(runner, ["make-space", "--features", str(FIXTURES / "features.csv"),
                        "--familiarity", str(FIXTURES / "familiarity.csv"),
                        "--out", str(space), "--need-out", str(need)])
        run_ok(runner, ["frontier", "--space", str(space), "--need", str(need),
                        "--beta-max", "512", "--num-betas", "80",
                        "--out", str(front)])
        hout = tmp_path / "h.json"
        result = run_ok(runner, ["hierarchy", "--frontier", str(front),
                                 "--space", str(space), "--need", str(need),
                                 "--k", "1,2,3", "--out-json", str(hout)])
        assert "k=1" in result.output and "k=3" in result.output
        payload = json.loads(hout.read_text())
        assert [layer["k"] for layer in payload["layers"]] == [1, 2, 3]


class TestExitCodes:
    def test_fingerprint_mismatch_exits_one(self, runner, tmp_path):
        paths = build_container_pipeline(runner, tmp_path, num_betas=25)
        other_space = tmp_path / "other_space.csv"
        run_ok(runner, ["make-space", "--similarity", str(FIXTURES / "similarity.csv"),
                        "--gamma", "0.5", "--out", str(other_space)])
        # the first 9 of the 10 meanings, and the naming system restricted to them
        similarity = (FIXTURES / "similarity.csv").read_text().splitlines()
        small_similarity = tmp_path / "similarity9.csv"
        small_similarity.write_text(
            "".join(",".join(line.split(",")[:10]) + "\n" for line in similarity[:10]))
        small_space = tmp_path / "space9.csv"
        run_ok(runner, ["make-space", "--similarity", str(small_similarity),
                        "--out", str(small_space)])
        small_naming = tmp_path / "naming9.tsv"
        small_naming.write_text("".join(
            line + "\n" for line in (FIXTURES / "naming_a.tsv").read_text().splitlines()
            if not line.startswith("c09")))
        damaged = tmp_path / "damaged_front"
        shutil.copytree(paths["front"], damaged)
        meta = json.loads((damaged / "frontier_meta.json").read_text())
        meta["space_fingerprint"] = 5
        (damaged / "frontier_meta.json").write_text(json.dumps(meta))
        full_naming = FIXTURES / "naming_a.tsv"
        for space, need, naming, front in (
                (other_space, paths["prior"], full_naming, paths["front"]),
                (paths["space"], "uniform", full_naming, paths["front"]),  # the wrong need
                (small_space, "uniform", small_naming, paths["front"]),
                (paths["space"], paths["prior"], full_naming, damaged)):
            common = ["--space", str(space), "--need", str(need), "--frontier", str(front)]
            system = ["--system", str(naming)]
            for args in (["eval", *system, *common],
                         ["baseline", *system, *common, "--samples", "3", "--seed", "1"],
                         ["hierarchy", *common, "--k", "1"]):
                result = runner.invoke(main, args)
                assert result.exit_code == 1, (args, result.output)
                lines = result.output.strip().splitlines()
                assert len(lines) == 1 and lines[0].startswith("Error:"), result.output
                assert "different meaning space" in lines[0]

    @pytest.mark.parametrize("command", ["make-prior", "gnid"])
    def test_non_utf8_naming_file_exits_one(self, runner, tmp_path, command):
        # a Latin-1 o-umlaut in a word label on line 3
        lines = (FIXTURES / "naming_a.tsv").read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"burk", "b\u00f6rk".encode("latin-1"))
        naming = tmp_path / "naming_latin1.tsv"
        naming.write_bytes(b"".join(lines))
        args = {"make-prior": ["make-prior", "--naming", str(naming),
                               "--out", str(tmp_path / "prior.csv")],
                "gnid": ["gnid", "--system-a", str(naming),
                         "--system-b", str(FIXTURES / "naming_b.tsv"), "--need", "uniform"]}
        result = runner.invoke(main, args[command])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        lines = result.output.strip().splitlines()
        assert len(lines) == 1, result.output
        assert lines[0] == f"Error: {naming}: line 3: byte 0xf6 is not UTF-8 text"

    def test_baseline_requires_seed(self, runner, tmp_path):
        result = runner.invoke(main, ["baseline", "--system", "x", "--space", "y",
                                      "--need", "uniform", "--frontier", "z",
                                      "--samples", "5"])
        assert result.exit_code == 2

    def test_validation_error_exits_one(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("meaning,u0,u1\nm0,0.9,0.3\n")
        result = runner.invoke(main, ["frontier", "--space", str(bad),
                                      "--need", "uniform", "--num-betas", "5",
                                      "--beta-max", "4",
                                      "--out", str(tmp_path / "f")])
        assert result.exit_code == 1
        assert "sums to" in result.output

    @pytest.mark.parametrize("beta_max", ["inf", "nan"])
    def test_non_finite_beta_max_exits_one(self, runner, tmp_path, beta_max):
        space = tmp_path / "space.csv"
        run_ok(runner, ["make-space", "--similarity", str(FIXTURES / "similarity.csv"),
                        "--out", str(space)])
        result = runner.invoke(main, ["frontier", "--space", str(space), "--need", "uniform",
                                      "--beta-max", beta_max, "--num-betas", "5",
                                      "--out", str(tmp_path / "f")])
        assert result.exit_code == 1, result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error:"), result.output
        assert "beta_max must be finite" in lines[0]
        assert not (tmp_path / "f").exists()

    BAD_NUMBERS = [
        *((["make-prior", "--naming", "naming_a.tsv", "--epsilon", v],
           "epsilon must be finite and >= 0") for v in ("nan", "inf", "-0.5")),
        *((["make-space", "--similarity", "similarity.csv", "--gamma", v],
           "gamma must be finite and > 0") for v in ("-1", "0", "nan", "inf")),
    ]

    @pytest.mark.parametrize("args, message", BAD_NUMBERS,
                             ids=[" ".join(args[3:]) for args, _ in BAD_NUMBERS])
    def test_bad_number_option_exits_one(self, runner, tmp_path, args, message):
        command, source, fixture, *rest = args
        out = tmp_path / "out.csv"
        result = runner.invoke(main, [command, source, str(FIXTURES / fixture), *rest,
                                      "--out", str(out)])
        assert result.exit_code == 1, result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error:"), result.output
        assert message in lines[0]
        assert not out.exists()

    # each table type and the command that reads it from {bad}; its other
    # inputs are fixtures ({fix}) and its outputs go to {tmp}
    TABLE_COMMANDS = {
        "space": ["frontier", "--space", "{bad}", "--need", "uniform", "--num-betas", "3",
                  "--out", "{tmp}/front"],
        "prior": ["gnid", "--system-a", "{fix}/naming_a.tsv", "--system-b", "{fix}/naming_b.tsv",
                  "--need", "{bad}"],
        "similarity": ["make-space", "--similarity", "{bad}", "--out", "{tmp}/space.csv"],
        "features": ["make-space", "--features", "{bad}", "--familiarity",
                     "{fix}/familiarity.csv", "--out", "{tmp}/space.csv"],
        "familiarity": ["make-space", "--features", "{fix}/features.csv", "--familiarity", "{bad}",
                        "--out", "{tmp}/space.csv"],
        "system-encoder": ["gnid", "--system-a", "{bad}", "--system-b", "{fix}/naming_b.tsv",
                           "--need", "uniform"],
    }

    @pytest.mark.parametrize("shape, text, message", [
        ("header-only", "label,c00,c01\n", "the header is followed by no data row"),
        ("one-column", "label\nc00\nc01\n", "the header has no column after the label column"),
    ], ids=["header-only", "one-column"])
    @pytest.mark.parametrize("table", sorted(TABLE_COMMANDS))
    def test_table_without_values_exits_one(self, runner, tmp_path, table, shape, text, message):
        bad = tmp_path / f"{table}.csv"
        bad.write_text(text)
        result = runner.invoke(main, [a.format(bad=bad, fix=FIXTURES, tmp=tmp_path)
                                      for a in self.TABLE_COMMANDS[table]])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        lines = result.output.strip().splitlines()
        assert lines == [f"Error: {bad}: {message}"], result.output

    def test_familiarity_class_listed_twice_exits_one(self, runner, tmp_path):
        # the fixture scores trout on line 2; line 12 scores it again
        familiarity = tmp_path / "familiarity.csv"
        familiarity.write_text((FIXTURES / "familiarity.csv").read_text() + "trout,1.0\n")
        out, need = tmp_path / "space.csv", tmp_path / "need.csv"
        result = runner.invoke(main, ["make-space", "--features", str(FIXTURES / "features.csv"),
                                      "--familiarity", str(familiarity), "--out", str(out),
                                      "--need-out", str(need)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.strip().splitlines() == [
            f"Error: {familiarity}: line 12: label 'trout' is also on line 2"]
        assert not out.exists() and not need.exists()

    @pytest.mark.parametrize("top_n", ["0", "-1"])
    def test_top_n_below_one_exits_two(self, runner, top_n):
        # every path exists, so only --top-n can fail
        result = runner.invoke(main, ["hierarchy", "--frontier", str(FIXTURES),
                                      "--space", str(FIXTURES / "similarity.csv"),
                                      "--need", "uniform", "--k", "1", "--top-n", top_n])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--top-n'" in result.output

    def test_negative_seed_exits_one(self, runner, tmp_path):
        paths = build_container_pipeline(runner, tmp_path, num_betas=12)
        result = runner.invoke(main, ["baseline", "--system", str(FIXTURES / "naming_a.tsv"),
                                      "--space", str(paths["space"]),
                                      "--need", str(paths["prior"]),
                                      "--frontier", str(paths["front"]),
                                      "--samples", "3", "--seed", "-1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error:"), result.output
        assert "seed" in lines[0]

    def test_failed_baseline_worker_exits_one(self, runner, tmp_path, monkeypatch):
        paths = build_container_pipeline(runner, tmp_path, num_betas=12)
        parent, fit = os.getpid(), analysis._StackFit.__call__

        def failing_fit(self, *args):
            if os.getpid() != parent:
                raise MemoryError("injected")
            return fit(self, *args)

        monkeypatch.setattr(analysis._StackFit, "__call__", failing_fit)
        monkeypatch.setattr(analysis, "_STACK_ENTRIES", 1)  # one sample per chunk
        monkeypatch.setattr(analysis, "_cpu_count", lambda: 2)
        result = runner.invoke(main, ["baseline", "--system", str(FIXTURES / "naming_a.tsv"),
                                      "--space", str(paths["space"]),
                                      "--need", str(paths["prior"]),
                                      "--frontier", str(paths["front"]),
                                      "--samples", "4", "--seed", "1"])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        lines = result.output.strip().splitlines()
        assert len(lines) == 1, result.output
        assert lines[0] == ("Error: baseline worker for samples 2 to 3 failed: "
                            "MemoryError: injected")

    @pytest.mark.parametrize("how, why", [
        (lambda: (_ for _ in ()).throw(MemoryError("injected")), "MemoryError: injected"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ], ids=["raised", "killed"])
    def test_failed_sweep_worker_exits_one(self, runner, tmp_path, monkeypatch, how, why):
        space = tmp_path / "space.csv"
        run_ok(runner, ["make-space", "--similarity", str(FIXTURES / "similarity.csv"),
                        "--out", str(space)])
        parent, solve = os.getpid(), solver._fixed_point_loop

        def failing(*args):
            if os.getpid() != parent:
                how()
            return solve(*args)

        monkeypatch.setattr(solver, "_fixed_point_loop", failing)
        monkeypatch.setattr(solver, "_cpu_count", lambda: 2)
        result = runner.invoke(main, ["frontier", "--space", str(space), "--need", "uniform",
                                      "--beta-max", "32", "--num-betas", "12",
                                      "--out", str(tmp_path / "front")])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        # the child takes the second segment from the top, [1, 8) here
        assert result.output.strip().splitlines() == [
            f"Error: sweep worker for betas 1.00475 to 5.67029 failed: {why}"]
        assert not (tmp_path / "front").exists()

    def test_failed_fork_names_no_file(self, runner, tmp_path, monkeypatch):
        # the OSError of a failed fork carries no filename
        paths = build_container_pipeline(runner, tmp_path, num_betas=12)

        def no_fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(analysis, "_cpu_count", lambda: 2)
        result = runner.invoke(main, ["baseline", "--system", str(FIXTURES / "naming_a.tsv"),
                                      "--space", str(paths["space"]),
                                      "--need", str(paths["prior"]),
                                      "--frontier", str(paths["front"]),
                                      "--samples", "5000", "--seed", "1"])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.strip().splitlines() == [f"Error: {os.strerror(errno.EAGAIN)}"]

    @pytest.mark.parametrize("error, line", [
        (IBNamingError("bad data"), "Error: bad data"),
        (OSError(errno.EACCES, "Permission denied", "x.csv"),
         "Error: cannot read or write x.csv: Permission denied"),
    ], ids=["data", "file"])
    def test_every_command_has_one_error_line(self, runner, monkeypatch, error, line):
        # a command added to the group is covered without any decorator
        @click.command("fail")
        def fail():
            raise error

        monkeypatch.setitem(main.commands, "fail", fail)
        result = runner.invoke(main, ["fail"])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.strip().splitlines() == [line]

    @pytest.mark.parametrize("args, message", [
        (["--similarity", "similarity.csv", "--features", "features.csv"],
         "pass exactly one of --similarity or --features"),
        ([], "pass exactly one of --similarity or --features"),
        (["--features", "features.csv"], "--features requires --familiarity"),
    ], ids=["both-sources", "no-source", "no-familiarity"])
    def test_make_space_usage_exits_two(self, runner, tmp_path, args, message):
        args = [str(FIXTURES / a) if a.endswith(".csv") else a for a in args]
        out = tmp_path / "space.csv"
        result = runner.invoke(main, ["make-space", *args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"Error: {message}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("k, message", [
        ("1,two", "--k must be a comma-separated integer list, got '1,two'"),
        (" , ", "--k lists no values"),
    ], ids=["not-integers", "empty"])
    def test_bad_k_exits_two(self, runner, k, message):
        # every path exists, so only --k can fail
        result = runner.invoke(main, ["hierarchy", "--frontier", str(FIXTURES),
                                      "--space", str(FIXTURES / "similarity.csv"),
                                      "--need", "uniform", "--k", k])
        assert result.exit_code == 2, result.output
        assert f"Error: {message}" in result.output

    @pytest.mark.parametrize("args", [
        ["frontier", "--prune-threshold", "0"],
        ["frontier", "--tol", "1e-12"],
        ["baseline", "--include-identity"],
        ["hierarchy", "--threshold", "1e-5"],
        ["hierarchy", "--out-text", "h.txt"],
        *([command, "--system-format", "counts"]
          for command in ("eval", "baseline", "gnid", "mixture")),
    ], ids=" ".join)
    def test_removed_options_exit_two(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "No such option" in result.output and args[1] in result.output

    def test_unknown_subcommand_exits_two(self, runner):
        result = runner.invoke(main, ["transmogrify"])
        assert result.exit_code == 2


def _replace_cell(text: str) -> str:
    lines = text.splitlines(keepends=True)
    lines[2] = "not-a-number" + lines[2][lines[2].index(","):]
    return "".join(lines)


def _short_row(text: str) -> str:
    lines = text.splitlines(keepends=True)
    lines[2] = ",".join(lines[2].split(",")[:3]) + "\n"
    return "".join(lines)


def _drop_last_line(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def _swap_first_rows(text: str) -> str:
    header, first, second, *rest = text.splitlines(keepends=True)
    return "".join([header, second, first, *rest])


def _drop_line_3(text: str) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:2] + lines[3:])


def _swap_lines_3_and_4(text: str) -> str:
    lines = text.splitlines(keepends=True)
    lines[2], lines[3] = lines[3], lines[2]
    return "".join(lines)


def _drop_config(text: str) -> str:
    meta = json.loads(text)
    del meta["config"]
    return json.dumps(meta)


class TestMalformedFrontier:
    """A damaged frontier directory fails with exit code 1 and one line that
    names the file, never with a traceback."""

    CASES = {
        "empty-csv": ("frontier.csv", lambda text: ""),
        "non-numeric-cell": ("frontier.csv", _replace_cell),
        "short-row": ("frontier.csv", _short_row),
        "deleted-row": ("frontier.csv", _drop_line_3),
        "swapped-rows": ("frontier.csv", _swap_lines_3_and_4),
        "broken-meta-json": ("frontier_meta.json", lambda text: text[:-5]),
        "meta-without-config": ("frontier_meta.json", _drop_config),
        "meta-holds-a-list": ("frontier_meta.json", lambda text: "[1, 2]\n"),
        "missing-encoder-file": ("encoders/point_00003.csv", None),
        "encoder-missing-row": ("encoders/point_00005.csv", _drop_last_line),
        "encoder-header-only": ("encoders/point_00000.csv", lambda text: text.splitlines()[0]),
        "encoder-rows-swapped": ("encoders/point_00005.csv", _swap_first_rows),
        # a 1-word encoder over a 6-word row, then a 3-word one over another
        # 3-word row with a different complexity; a str names the copied file
        "encoder-from-other-row": ("encoders/point_00010.csv", "encoders/point_00000.csv"),
        "encoder-from-same-k-row": ("encoders/point_00009.csv", "encoders/point_00007.csv"),
        # bytes are written in front of line 3: a Latin-1 o-umlaut is not UTF-8
        "non-utf8-csv": ("frontier.csv", "\u00f6".encode("latin-1")),
        "non-utf8-encoder": ("encoders/point_00003.csv", "\u00f6".encode("latin-1")),
    }

    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        return build_container_pipeline(CliRunner(), tmp_path_factory.mktemp("malformed"),
                                        num_betas=12)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_one_with_one_line(self, runner, tmp_path, pipeline, case):
        name, damage = self.CASES[case]
        front = tmp_path / "front"
        shutil.copytree(pipeline["front"], front)
        target = front / name
        if damage is None:
            target.unlink()
        elif isinstance(damage, str):
            shutil.copyfile(front / damage, target)
        elif isinstance(damage, bytes):
            lines = target.read_bytes().splitlines(keepends=True)
            target.write_bytes(b"".join([*lines[:2], damage, *lines[2:]]))
        else:
            target.write_text(damage(target.read_text()))
        for line in self.failing_lines(runner, pipeline, front):
            assert name in line
            if name == "frontier.csv" and case != "empty-csv":
                assert "line 3" in line

    def test_frontier_without_encoders_exits_one(self, runner, tmp_path, pipeline):
        # the shape of a frontier saved without its encoder files
        front = tmp_path / "front"
        shutil.copytree(pipeline["front"], front, ignore=shutil.ignore_patterns("encoders"))
        meta = json.loads((front / "frontier_meta.json").read_text())
        meta["encoders"] = None
        (front / "frontier_meta.json").write_text(json.dumps(meta))
        for line in self.failing_lines(runner, pipeline, front):
            assert "point_00000.csv" in line

    @staticmethod
    def failing_lines(runner, pipeline, front):
        """The one output line of eval, baseline and hierarchy, each of which
        must exit 1 without a traceback."""
        common = ["--space", str(pipeline["space"]), "--need", str(pipeline["prior"]),
                  "--frontier", str(front)]
        system = ["--system", str(FIXTURES / "naming_a.tsv")]
        for args in (["eval", *system, *common],
                     ["baseline", *system, *common, "--samples", "3", "--seed", "1"],
                     ["hierarchy", *common, "--k", "1"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1, (args[0], result.output)
            assert isinstance(result.exception, SystemExit), result.exception
            lines = result.output.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("Error:"), result.output
            yield lines[0]


class TestDeterminism:
    def read_tree(self, root: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and "manifest" not in p.name
        }

    def test_frontier_byte_identical(self, runner, tmp_path):
        paths = build_container_pipeline(runner, tmp_path, num_betas=30)
        args = ["frontier", "--space", str(paths["space"]),
                "--need", str(paths["prior"]), "--beta-max", "32",
                "--num-betas", "30"]
        run_ok(runner, args + ["--out", str(tmp_path / "f1")])
        run_ok(runner, args + ["--out", str(tmp_path / "f2")])
        assert self.read_tree(tmp_path / "f1") == self.read_tree(tmp_path / "f2")

    def test_frontier_bytes_independent_of_blas_threads(self, tmp_path):
        # OpenBLAS gives other bits for this instance's products under one and
        # two threads, so the sweep's cap at one thread is what makes the
        # outputs match, on a host with two or more cores
        features, familiarity = write_animal_instance(tmp_path)
        src = str(Path(solver.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

        def cli(*args, threads="1"):
            subprocess.run([sys.executable, "-m", "ibnaming.cli", *map(str, args)],
                           env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True,
                           capture_output=True)

        space, need = tmp_path / "space.csv", tmp_path / "need.csv"
        cli("make-space", "--features", features, "--familiarity", familiarity,
            "--out", space, "--need-out", need)
        for threads in ("1", "2"):
            cli("frontier", "--space", space, "--need", need, "--beta-max", 8192,
                "--num-betas", 24, "--out", tmp_path / threads, threads=threads)
        one, two = self.read_tree(tmp_path / "1"), self.read_tree(tmp_path / "2")
        assert len(one) == 2 + 24 and one == two
        assert max(int(r.split(",")[4]) for r in one["frontier.csv"].decode().split()[1:]) >= 12

    def test_frontier_bytes_independent_of_worker_count(self, runner, tmp_path, monkeypatch,
                                                        forks):
        space = tmp_path / "space.csv"
        run_ok(runner, ["make-space", "--similarity", str(FIXTURES / "similarity.csv"),
                        "--out", str(space)])
        trees = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(solver, "_cpu_count", lambda: cpus)
            out = tmp_path / str(cpus)
            run_ok(runner, ["frontier", "--space", str(space), "--need", "uniform",
                            "--beta-max", "1024", "--num-betas", "30", "--out", str(out)])
            assert json.loads((out / "manifest.json").read_text())["sweep"]["workers"] == cpus
            trees.append(self.read_tree(out))
        assert len(forks) == 0 + 1 + 2
        assert trees[1] == trees[0] and trees[2] == trees[0]

    def test_baseline_byte_identical(self, runner, tmp_path):
        paths = build_container_pipeline(runner, tmp_path, num_betas=30)
        args = ["baseline", "--system", str(FIXTURES / "naming_a.tsv"),
                "--space", str(paths["space"]), "--need", str(paths["prior"]),
                "--frontier", str(paths["front"]), "--samples", "12", "--seed", "3"]
        run_ok(runner, args + ["--out", str(tmp_path / "b1.json")])
        run_ok(runner, args + ["--out", str(tmp_path / "b2.json")])
        assert (tmp_path / "b1.json").read_bytes() == (tmp_path / "b2.json").read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, runner, tmp_path):
        paths = build_container_pipeline(runner, tmp_path, num_betas=25)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta-max": 16.0, "num-betas": 12}))
        out1 = tmp_path / "cfg_front"
        run_ok(runner, ["--config", str(cfg), "frontier",
                        "--space", str(paths["space"]), "--need", str(paths["prior"]),
                        "--out", str(out1)])
        meta = json.loads((out1 / "frontier_meta.json").read_text())
        assert meta["num_points"] == 12
        assert meta["config"]["beta_grid"][-1] == pytest.approx(16.0)

        out2 = tmp_path / "cfg_front2"
        run_ok(runner, ["--config", str(cfg), "frontier",
                        "--space", str(paths["space"]), "--need", str(paths["prior"]),
                        "--num-betas", "8", "--out", str(out2)])
        meta2 = json.loads((out2 / "frontier_meta.json").read_text())
        assert meta2["num_points"] == 8

    def test_config_supplies_samples_and_seed_to_baseline(self, runner, tmp_path):
        paths = build_container_pipeline(runner, tmp_path, num_betas=12)
        cfg = tmp_path / "cfg.json"
        # keyed by the flag names, including flags whose values are paths
        cfg.write_text(json.dumps({"samples": 6, "seed": 4, "need": str(paths["prior"])}))
        common = ["--system", str(FIXTURES / "naming_a.tsv"), "--space", str(paths["space"]),
                  "--frontier", str(paths["front"])]
        run_ok(runner, ["--config", str(cfg), "baseline", *common,
                        "--out", str(tmp_path / "b1.json")])
        run_ok(runner, ["baseline", *common, "--need", str(paths["prior"]),
                        "--samples", "6", "--seed", "4", "--out", str(tmp_path / "b2.json")])
        summary = json.loads((tmp_path / "b1.json").read_text())
        assert (summary["num_samples"], summary["seed"]) == (6, 4)
        assert (tmp_path / "b1.json").read_bytes() == (tmp_path / "b2.json").read_bytes()
        manifest = json.loads((tmp_path / "b1.json.manifest.json").read_text())
        assert manifest["seed"] == 4


    @pytest.mark.parametrize("content", [b'{"samples": ', b"\xff\xfe{"],
                             ids=["truncated", "not-utf8"])
    def test_unreadable_config_exits_two(self, runner, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        result = runner.invoke(main, ["--config", str(cfg), "make-space",
                                      "--out", str(tmp_path / "s.csv")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1, result.output
        assert errors[0].startswith(f"Error: config file {cfg} is not UTF-8 JSON: ")

    def test_config_that_is_not_an_object_exits_two(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        result = runner.invoke(main, ["--config", str(cfg), "make-space",
                                      "--out", str(tmp_path / "s.csv")])
        assert result.exit_code == 2, result.output
        assert "Error: config file must hold a flat JSON object" in result.output

    def test_key_of_no_command_exits_two_naming_it(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gama": 0.5, "num-betas": 8, "bogus_key": 1}))
        result = runner.invoke(main, ["--config", str(cfg), "make-space",
                                      "--similarity", str(FIXTURES / "similarity.csv"),
                                      "--out", str(tmp_path / "s.csv")])
        assert result.exit_code == 2, result.output
        assert "Error: config file key names no option: bogus_key, gama" in result.output
        assert not (tmp_path / "s.csv").exists()

    def test_key_of_another_command_is_accepted(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 5, "num-betas": 8, "top_n": 3}))
        for args in (["--config", str(cfg)], []):
            run_ok(runner, [*args, "make-space", "--similarity", str(FIXTURES / "similarity.csv"),
                            "--out", str(tmp_path / f"s{len(args)}.csv")])
        assert (tmp_path / "s2.csv").read_bytes() == (tmp_path / "s0.csv").read_bytes()


class TestManifests:
    def test_config_is_the_parsed_parameters(self, runner, tmp_path):
        paths = build_container_pipeline(runner, tmp_path, num_betas=12)
        fit = {"system": str(FIXTURES / "naming_a.tsv"), "space": str(paths["space"]),
               "need": str(paths["prior"]), "frontier": str(paths["front"])}
        pair = {"system_a": str(FIXTURES / "naming_a.tsv"),
                "system_b": str(FIXTURES / "naming_b.tsv"), "need": "uniform"}
        cases = {
            "eval": fit,
            "baseline": {**fit, "samples": 3, "seed": 2},
            "gnid": pair,
            "mixture": {**pair, "weight": 0.25},
        }
        for command, params in cases.items():
            out = str(tmp_path / f"{command}.json")
            args = [command]
            for name, value in params.items():
                args += ["--" + name.replace("_", "-"), str(value)]
            run_ok(runner, [*args, "--out", out])
            manifest = json.loads(Path(out + ".manifest.json").read_text())
            assert manifest["command"] == command
            assert manifest["config"] == {**params, "out": out}
            assert manifest["seed"] == params.get("seed")
        manifest = json.loads((paths["front"] / "manifest.json").read_text())
        assert manifest["config"] == {
            "space": str(paths["space"]), "need": str(paths["prior"]), "beta_max": 32.0,
            "num_betas": 12, "max_iterations": 30000,
            "out": str(paths["front"]),
        }
        hout = str(tmp_path / "h.json")
        run_ok(runner, ["hierarchy", "--frontier", fit["frontier"], "--space", fit["space"],
                        "--need", fit["need"], "--k", "1", "--out-json", hout])
        manifest = json.loads(Path(hout + ".manifest.json").read_text())
        assert manifest["config"] == {
            "frontier": fit["frontier"], "space": fit["space"], "need": fit["need"],
            "k": "1", "top_n": 5, "out_json": hout,
        }

    def test_frontier_manifest_records_the_sweep(self, runner, tmp_path, monkeypatch):
        paths = build_container_pipeline(runner, tmp_path, num_betas=12)
        sweep = json.loads((paths["front"] / "manifest.json").read_text())["sweep"]
        # 12 betas to 32 in [8, 32], [1, 8), [0.125, 1) and [0, 0.125), top first
        assert [s["points"] for s in sweep["segments"]] == [3, 4, 3, 2]
        assert [s["betas"] for s in sweep["segments"]][-1] == [0.0, 0.1]
        assert sweep["workers"] == min(workers._cpu_count(), 4)
        assert sweep["blas_capped"] == (workers._openblas() is not None)
        assert all(s["evaluations"] >= s["points"] and s["seconds"] >= 0
                   for s in sweep["segments"])
        assert {"repair_solves", "repair_evaluations", "repair_seconds"} <= set(sweep)

    def test_uncapped_sweep_says_so(self, runner, tmp_path, monkeypatch):
        paths = build_container_pipeline(runner, tmp_path, num_betas=12)
        monkeypatch.setattr(workers, "_openblas", lambda: None)
        out = tmp_path / "uncapped"
        run_ok(runner, ["frontier", "--space", str(paths["space"]), "--need", str(paths["prior"]),
                        "--beta-max", "32", "--num-betas", "12", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sweep"]["blas_capped"] is False
        assert any("uncapped" in note for note in manifest["notes"])
        # the meta file and every output file carry no trace of the cap
        for name in ("frontier.csv", "frontier_meta.json"):
            assert (out / name).read_bytes() == (paths["front"] / name).read_bytes()
