import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ibnaming.cli import main
from ibnaming.ingest import read_similarity_csv

from conftest import FIXTURES


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
        "encoder-rows-swapped": ("encoders/point_00005.csv", _swap_first_rows),
        # a 1-word encoder over a 6-word row, then a 3-word one over another
        # 3-word row with a different complexity; a str names the copied file
        "encoder-from-other-row": ("encoders/point_00010.csv", "encoders/point_00000.csv"),
        "encoder-from-same-k-row": ("encoders/point_00009.csv", "encoders/point_00007.csv"),
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
