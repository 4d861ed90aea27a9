"""Command-line pipeline: ingest domain data, compute frontiers, evaluate
naming systems, and report category hierarchies.

Every command writes a run manifest next to its primary outputs recording the
command's parsed options, sha256 hashes of the inputs, the tool version, and
wall-clock duration. Primary outputs contain no timestamps, so two runs with
the same inputs (and, for ``baseline``, the same seed) are byte-identical.
Exit codes: 0 success, 1 data or validation error, 2 usage error.
"""

from __future__ import annotations

import hashlib
import json
import time
from datetime import datetime, timezone
from pathlib import Path

import click

from . import __version__
from .analysis import (
    fit_beta,
    gnid as gnid_measure,
    hierarchy_report,
    mixture_complexity,
    permutation_baseline,
)
from .core import Distribution, IBNamingError, MeaningSpace, NamingSystem
from .frontier_io import frontier_files, load_frontier, save_frontier
from .ingest import (
    _write_json,
    attach_need,
    li_prior,
    meaning_space_from_features,
    meaning_space_from_similarity,
    naming_system_from_counts,
    naming_weights_from_counts,
    read_feature_table,
    read_naming_counts,
    read_naming_system,
    read_prior_csv,
    read_similarity_csv,
    read_space_csv,
    reorder_naming_system,
    write_prior_csv,
    write_space_csv,
)
from .solver import Frontier, SolverConfig, anneal_frontier, default_beta_grid

_IN_FILE = click.Path(exists=True, dir_okay=False)
_NEED_HELP = "'uniform' or a prior CSV."


class _Main(click.Group):
    """The command group, and the one error boundary of every command: a
    data, validation or file error becomes one ``Error:`` line and exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except IBNamingError as e:
            raise click.ClickException(str(e))
        except OSError as e:
            if e.filename is None:  # a failed fork or pipe names no file
                raise click.ClickException(e.strerror or str(e))
            raise click.ClickException(f"cannot read or write {e.filename}: {e.strerror}")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


class _Run:
    """Collects inputs, notes, and outputs for the manifest of the running
    command. Its config is the command's parsed parameters, by name."""

    def __init__(self):
        ctx = click.get_current_context()
        self.command = ctx.command.name
        self.config = dict(ctx.params)
        self.started = time.perf_counter()
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.notes: list[str] = []

    def add_input(self, path) -> Path:
        path = Path(path)
        self.inputs[str(path)] = _sha256(path)
        return path

    def add_output(self, path) -> Path:
        self.outputs.append(str(path))
        return Path(path)

    def write_manifest(self, path, **extra) -> None:
        """Write the manifest, with ``extra`` entries of the command's own."""
        _write_json(path, {
            "command": self.command,
            "tool_version": __version__,
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "duration_seconds": time.perf_counter() - self.started,
            "seed": self.config.get("seed"),
            "config": self.config,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "notes": self.notes,
            **extra,
        })

    def write_manifest_beside(self, output) -> None:
        """Write the manifest next to ``output``, as <output>.manifest.json."""
        output = Path(output)
        self.write_manifest(output.with_suffix(output.suffix + ".manifest.json"))

    def write_json(self, out, payload) -> None:
        """If ``out`` is set, write ``payload`` there and the manifest beside it."""
        if out:
            _write_json(self.add_output(out), payload)
            self.write_manifest_beside(out)


def _read_need(run: _Run, need: str, labels) -> Distribution:
    """``--need``: the literal 'uniform' over ``labels``, or a prior CSV."""
    if need == "uniform":
        return Distribution.uniform(labels)
    return read_prior_csv(run.add_input(need))


def _load_space(run: _Run, path, need: str) -> MeaningSpace:
    space = read_space_csv(run.add_input(path), notes=run.notes)
    return attach_need(space, _read_need(run, need, space.meaning_labels))


def _load_frontier(run: _Run, path, space: MeaningSpace) -> Frontier:
    """Load the frontier at ``path``, a directory or its frontier.csv, and
    record its CSV, its metadata and every encoder file as inputs."""
    path = Path(path)
    base = path.parent if path.is_file() else path
    front = load_frontier(base, space)
    for p in frontier_files(base):
        run.add_input(p)
    return front


def _read_system(run: _Run, path) -> NamingSystem:
    """Naming counts or an encoder matrix, told apart by the header."""
    return read_naming_system(run.add_input(path), notes=run.notes)


def _fit_inputs(run: _Run, system, space, need, frontier):
    """The system in the space's meaning order, the space, and the frontier."""
    space = _load_space(run, space, need)
    sys = reorder_naming_system(_read_system(run, system), space.meaning_labels)
    return sys, space, _load_frontier(run, frontier, space)


def _two_system_inputs(run: _Run, system_a, system_b, need):
    """Both systems and the need, over the need's meaning order."""
    sys_a = _read_system(run, system_a)
    sys_b = reorder_naming_system(_read_system(run, system_b), sys_a.meaning_labels)
    need = _read_need(run, need, sys_a.meaning_labels)
    if need.labels != sys_a.meaning_labels:
        sys_a = reorder_naming_system(sys_a, need.labels)
        sys_b = reorder_naming_system(sys_b, need.labels)
    return sys_a, sys_b, need


@click.group(cls=_Main)
@click.version_option(__version__)
@click.option("--config", "config_path", type=_IN_FILE, default=None,
              help="Flat JSON key-value file mirroring flags; flags win.")
@click.pass_context
def main(ctx, config_path):
    """Information Bottleneck efficiency frontiers for naming systems."""
    if config_path:
        try:
            flat = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise click.UsageError(f"config file {config_path} is not UTF-8 JSON: {e}")
        if not isinstance(flat, dict):
            raise click.UsageError("config file must hold a flat JSON object")
        normalized = {str(k).replace("-", "_"): v for k, v in flat.items()}
        # one file serves every command, so a key need only name an option of one
        known = {p.name for cmd in main.commands.values() for p in cmd.params}
        unknown = sorted(k for k in flat if k.replace("-", "_") not in known)
        if unknown:
            raise click.UsageError(f"config file key names no option: {', '.join(unknown)}")
        ctx.default_map = {name: dict(normalized) for name in main.commands}


@main.command("make-space")
@click.option("--similarity", type=_IN_FILE,
              help="Similarity CSV; rows become softmax representations.")
@click.option("--gamma", type=float, default=None,
              help="Softmax scale; defaults to 1/SD of the similarity entries.")
@click.option("--exclude-diagonal", is_flag=True,
              help="Leave the diagonal out of the SD estimate for gamma.")
@click.option("--features", type=_IN_FILE, help="Feature-probability CSV (one row per class).")
@click.option("--familiarity", type=_IN_FILE, help="Familiarity CSV, required with --features.")
@click.option("--out", required=True, type=click.Path(dir_okay=False),
              help="Output space CSV.")
@click.option("--need-out", type=click.Path(dir_okay=False), default=None,
              help="With --features: write the familiarity-based need here.")
def make_space(similarity, gamma, exclude_diagonal, features, familiarity, out, need_out):
    """Build a meaning-space CSV from similarity or feature data."""
    if (similarity is None) == (features is None):
        raise click.UsageError("pass exactly one of --similarity or --features")
    run = _Run()
    if similarity is not None:
        simm = read_similarity_csv(run.add_input(similarity))
        space = meaning_space_from_similarity(
            simm, gamma=gamma, include_diagonal=not exclude_diagonal
        )
    else:
        if familiarity is None:
            raise click.UsageError("--features requires --familiarity")
        table = read_feature_table(run.add_input(features), run.add_input(familiarity))
        space = meaning_space_from_features(table)
        if need_out:
            write_prior_csv(space.need, run.add_output(need_out))
    write_space_csv(space, run.add_output(out))
    run.write_manifest_beside(out)
    click.echo(f"wrote {space.num_meanings}x{space.num_universe} space to {out}")


@main.command("make-prior")
@click.option("--naming", multiple=True, required=True, type=_IN_FILE,
              help="Naming-count file; repeat once per (monolingual) condition.")
@click.option("--epsilon", type=float, default=0.001, show_default=True,
              help="Regularizer added to the averaged prior before renormalizing.")
@click.option("--space", type=_IN_FILE, default=None,
              help="Emit the prior in this space's meaning order.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def make_prior(naming, epsilon, space, out):
    """Fit the least-informative need prior from naming counts."""
    run = _Run()
    order = None
    if space:
        order = read_space_csv(run.add_input(space)).meaning_labels
    systems = []
    weights = []
    for path in naming:
        counts = read_naming_counts(run.add_input(path))
        sys = naming_system_from_counts(counts, meaning_order=order)
        if order is None:
            order = sys.meaning_labels
        systems.append(sys)
        weights.append(naming_weights_from_counts(counts, order))
    prior = li_prior(systems, epsilon=epsilon, meaning_weights=weights)
    write_prior_csv(prior, run.add_output(out))
    run.write_manifest_beside(out)
    click.echo(f"wrote LI prior over {len(prior)} meanings to {out}")


@main.command("frontier")
@click.option("--space", required=True, type=_IN_FILE)
@click.option("--need", required=True, help=_NEED_HELP)
@click.option("--beta-max", type=float, default=1024.0, show_default=True)
@click.option("--num-betas", type=int, default=1500, show_default=True)
@click.option("--max-iterations", type=int, default=30000, show_default=True)
@click.option("--out", required=True, type=click.Path(file_okay=False))
def frontier(space, need, beta_max, num_betas, max_iterations, out):
    """Compute the efficiency frontier over a beta grid."""
    config = SolverConfig(beta_grid=default_beta_grid(beta_max, num_betas),
                          max_iterations=max_iterations)
    run = _Run()
    front = anneal_frontier(_load_space(run, space, need), config)
    if not front.sweep["blas_capped"]:
        run.notes.append("the BLAS thread cap is not available: the sweep ran uncapped, "
                         "so its bytes may depend on the BLAS thread count")
    for p in save_frontier(front, out).values():
        run.add_output(p)
    run.write_manifest(Path(out) / "manifest.json", sweep=front.sweep)
    unconverged = [f"{p.beta:.6g}" for p in front.points if not p.converged]
    msg = f"wrote {len(front)} frontier points to {out}"
    if unconverged:
        msg += f" ({len(unconverged)} did not converge, at beta {', '.join(unconverged)})"
    click.echo(msg)


def _frontier_options(fn):
    fn = click.option("--frontier", required=True, type=click.Path(exists=True))(fn)
    fn = click.option("--need", required=True, help=_NEED_HELP)(fn)
    fn = click.option("--space", required=True, type=_IN_FILE)(fn)
    return fn


def _fit_options(fn):
    fn = _frontier_options(fn)
    return click.option("--system", required=True, type=_IN_FILE,
                        help="Naming counts or an encoder matrix, told apart by the header.")(fn)


def _pair_options(fn):
    fn = click.option("--need", required=True, help=_NEED_HELP)(fn)
    fn = click.option("--system-b", required=True, type=_IN_FILE)(fn)
    fn = click.option("--system-a", required=True, type=_IN_FILE)(fn)
    return fn


@main.command("eval")
@_fit_options
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the efficiency report JSON here.")
def eval_cmd(system, space, need, frontier, out):
    """Fit a naming system against a frontier: beta_l, inefficiency, gNID."""
    run = _Run()
    report = fit_beta(*_fit_inputs(run, system, space, need, frontier))
    click.echo(
        f"beta_l={report.fitted_beta:.6g} inefficiency={report.inefficiency_bits:.6f} "
        f"gnid={report.gnid:.6f}"
    )
    run.write_json(out, report.to_json_dict())


@main.command("baseline")
@_fit_options
@click.option("--samples", type=int, required=True,
              help="Number of random meaning permutations.")
@click.option("--seed", type=int, required=True,
              help="Base seed; each sample draws from its own substream.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def baseline(system, space, need, frontier, samples, seed, out):
    """Permutation baseline: fit meaning-shuffled variants of a system."""
    run = _Run()
    summary = permutation_baseline(*_fit_inputs(run, system, space, need, frontier),
                                   samples, seed)
    click.echo(
        f"inefficiency {summary.inefficiency_mean:.4f} (+/-{summary.inefficiency_sd:.4f})  "
        f"gnid {summary.gnid_mean:.4f} (+/-{summary.gnid_sd:.4f})  n={samples}"
    )
    run.write_json(out, summary.to_json_dict())


@main.command("gnid")
@_pair_options
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def gnid_cmd(system_a, system_b, need, out):
    """Dissimilarity between two naming systems over one meaning set."""
    run = _Run()
    value = gnid_measure(*_two_system_inputs(run, system_a, system_b, need))
    click.echo(f"gnid {value!r}")
    run.write_json(out, {"gnid": value})


@main.command("mixture")
@_pair_options
@click.option("--weight", type=float, default=0.5, show_default=True,
              help="Probability of speaking system A.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def mixture(system_a, system_b, need, weight, out):
    """Complexity of the joint two-language encoder (disjoint word alphabets)."""
    run = _Run()
    bits = mixture_complexity(*_two_system_inputs(run, system_a, system_b, need),
                              weight=weight)
    click.echo(f"mixture_complexity_bits {bits!r}")
    run.write_json(out, {"mixture_complexity_bits": bits, "weight": weight})


@main.command("hierarchy")
@_frontier_options
@click.option("--k", required=True,
              help="Comma-separated effective category counts, e.g. 1,2,3,4.")
@click.option("--top-n", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--out-json", type=click.Path(dir_okay=False), default=None)
def hierarchy(frontier, space, need, k, top_n, out_json):
    """Layered category report: most informative system per requested k."""
    try:
        k_list = [int(x) for x in k.split(",") if x.strip()]
    except ValueError:
        raise click.UsageError(f"--k must be a comma-separated integer list, got {k!r}")
    if not k_list:
        raise click.UsageError("--k lists no values")
    run = _Run()
    space = _load_space(run, space, need)
    front = _load_frontier(run, frontier, space)
    report = hierarchy_report(front, k_list, space, top_n=top_n)
    click.echo(report.to_text())
    run.write_json(out_json, report.to_json_dict())


if __name__ == "__main__":
    main()
