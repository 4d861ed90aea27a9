"""Command-line pipeline: ingest domain data, compute frontiers, evaluate
naming systems, and report category hierarchies.

Every command writes a run manifest next to its primary outputs recording the
resolved configuration, sha256 hashes of the inputs, the tool version, and
wall-clock duration. Primary outputs contain no timestamps, so two runs with
the same inputs (and, for ``baseline``, the same seed) are byte-identical.
Exit codes: 0 success, 1 data or validation error, 2 usage error.
"""

from __future__ import annotations

import functools
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
from .core import IBNamingError, MeaningSpace, NamingSystem
from .frontier_io import frontier_files, load_frontier, save_frontier
from .ingest import (
    attach_need,
    li_prior,
    meaning_space_from_features,
    meaning_space_from_similarity,
    naming_system_from_counts,
    naming_weights_from_counts,
    read_encoder_csv,
    read_feature_table,
    read_naming_counts,
    read_prior_csv,
    read_similarity_csv,
    read_space_csv,
    reorder_naming_system,
    write_prior_csv,
    write_space_csv,
)
from .solver import (
    DEFAULT_CATEGORY_MASS_THRESHOLD,
    Frontier,
    SolverConfig,
    anneal_frontier,
    default_beta_grid,
)

_SUBCOMMANDS = ["make-space", "make-prior", "frontier", "eval", "baseline",
                "gnid", "mixture", "hierarchy"]


def _handled(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except IBNamingError as e:
            raise click.ClickException(str(e))
        except OSError as e:
            raise click.ClickException(f"cannot read or write {e.filename}: {e.strerror}")
    return wrapper


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


class _Run:
    """Collects inputs, notes, and outputs for the manifest."""

    def __init__(self, command: str, config: dict, seed: int | None = None):
        self.command = command
        self.config = config
        self.seed = seed
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

    def write_manifest(self, path) -> None:
        _write_json(path, {
            "command": self.command,
            "tool_version": __version__,
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "duration_seconds": time.perf_counter() - self.started,
            "seed": self.seed,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "notes": self.notes,
        })

    def write_manifest_beside(self, output) -> None:
        """Write the manifest next to ``output``, as <output>.manifest.json."""
        output = Path(output)
        self.write_manifest(output.with_suffix(output.suffix + ".manifest.json"))


def _load_space(run: _Run, space_path, need_spec: str) -> MeaningSpace:
    space = read_space_csv(run.add_input(space_path), notes=run.notes)
    if need_spec == "uniform":
        return attach_need(space, "uniform")
    need = read_prior_csv(run.add_input(need_spec))
    return attach_need(space, need)


def _load_frontier(run: _Run, path, space: MeaningSpace) -> Frontier:
    """Load the frontier at ``path``, a directory or its frontier.csv, and
    record its CSV, its metadata and every encoder file as inputs."""
    path = Path(path)
    base = path.parent if path.is_file() else path
    front = load_frontier(base, space)
    for p in frontier_files(base):
        run.add_input(p)
    return front


def _read_system(run: _Run, path, fmt: str) -> NamingSystem:
    path = run.add_input(path)
    if fmt == "auto":
        with open(path, encoding="utf-8") as f:
            first = f.readline().split("\t" if path.suffix.lower() == ".tsv" else ",")[0].strip()
        fmt = "counts" if first == "meaning_label" else "matrix"
    if fmt == "counts":
        return naming_system_from_counts(read_naming_counts(path))
    return read_encoder_csv(path, notes=run.notes)


@click.group()
@click.version_option(__version__)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Flat JSON key-value file mirroring flags; flags win.")
@click.pass_context
def main(ctx, config_path):
    """Information Bottleneck efficiency frontiers for naming systems."""
    if config_path:
        flat = json.loads(Path(config_path).read_text(encoding="utf-8"))
        if not isinstance(flat, dict):
            raise click.UsageError("config file must hold a flat JSON object")
        normalized = {str(k).replace("-", "_"): v for k, v in flat.items()}
        ctx.default_map = {cmd: dict(normalized) for cmd in _SUBCOMMANDS}


@main.command("make-space")
@click.option("--similarity", type=click.Path(exists=True, dir_okay=False),
              help="Similarity CSV; rows become softmax representations.")
@click.option("--gamma", type=float, default=None,
              help="Softmax scale; defaults to 1/SD of the similarity entries.")
@click.option("--exclude-diagonal", is_flag=True,
              help="Leave the diagonal out of the SD estimate for gamma.")
@click.option("--features", type=click.Path(exists=True, dir_okay=False),
              help="Feature-probability CSV (one row per class).")
@click.option("--familiarity", type=click.Path(exists=True, dir_okay=False),
              help="Familiarity CSV, required with --features.")
@click.option("--out", required=True, type=click.Path(dir_okay=False),
              help="Output space CSV.")
@click.option("--need-out", type=click.Path(dir_okay=False), default=None,
              help="With --features: write the familiarity-based need here.")
@_handled
def make_space(similarity, gamma, exclude_diagonal, features, familiarity, out, need_out):
    """Build a meaning-space CSV from similarity or feature data."""
    if (similarity is None) == (features is None):
        raise click.UsageError("pass exactly one of --similarity or --features")
    run = _Run("make-space", {
        "similarity": similarity, "gamma": gamma, "exclude_diagonal": exclude_diagonal,
        "features": features, "familiarity": familiarity,
    })
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
@click.option("--naming", "naming_paths", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Naming-count file; repeat once per (monolingual) condition.")
@click.option("--epsilon", type=float, default=0.001, show_default=True,
              help="Regularizer added to the averaged prior before renormalizing.")
@click.option("--space", "space_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Emit the prior in this space's meaning order.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_handled
def make_prior(naming_paths, epsilon, space_path, out):
    """Fit the least-informative need prior from naming counts."""
    run = _Run("make-prior", {"naming": list(naming_paths), "epsilon": epsilon,
                              "space": space_path})
    order = None
    if space_path:
        order = read_space_csv(run.add_input(space_path)).meaning_labels
    systems = []
    weights = []
    for path in naming_paths:
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
@click.option("--space", "space_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--need", "need_spec", required=True,
              help="'uniform' or a prior CSV path.")
@click.option("--beta-max", type=float, default=1024.0, show_default=True)
@click.option("--num-betas", type=int, default=1500, show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True,
              help="Bound, in bits, on how far complexity and accuracy may still "
                   "move under further updates at each beta.")
@click.option("--max-iterations", type=int, default=30000, show_default=True)
@click.option("--prune-threshold", type=float, default=1e-5, show_default=True,
              help="Words below this marginal mass are dropped while solving.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@_handled
def frontier(space_path, need_spec, beta_max, num_betas, tol, max_iterations,
             prune_threshold, out_dir):
    """Compute the efficiency frontier over a beta grid."""
    config = SolverConfig(
        beta_grid=default_beta_grid(beta_max, num_betas),
        convergence_tol=tol,
        max_iterations=max_iterations,
        mass_prune_threshold=prune_threshold,
    )
    run = _Run("frontier", {
        "space": space_path, "need": need_spec, "beta_max": beta_max,
        "num_betas": num_betas, "tol": tol, "max_iterations": max_iterations,
        "prune_threshold": prune_threshold,
    })
    space = _load_space(run, space_path, need_spec)
    front = anneal_frontier(space, config)
    paths = save_frontier(front, out_dir)
    for p in paths.values():
        run.add_output(p)
    run.write_manifest(Path(out_dir) / "manifest.json")
    unconverged = [f"{p.beta:.6g}" for p in front.points if not p.converged]
    msg = f"wrote {len(front)} frontier points to {out_dir}"
    if unconverged:
        msg += f" ({len(unconverged)} did not converge, at beta {', '.join(unconverged)})"
    click.echo(msg)


def _eval_options(fn):
    fn = click.option("--system", "system_path", required=True,
                      type=click.Path(exists=True, dir_okay=False))(fn)
    fn = click.option("--system-format", type=click.Choice(["auto", "counts", "matrix"]),
                      default="auto", show_default=True)(fn)
    fn = click.option("--space", "space_path", required=True,
                      type=click.Path(exists=True, dir_okay=False))(fn)
    fn = click.option("--need", "need_spec", required=True)(fn)
    fn = click.option("--frontier", "frontier_path", required=True,
                      type=click.Path(exists=True))(fn)
    return fn


@main.command("eval")
@_eval_options
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the efficiency report JSON here.")
@_handled
def eval_cmd(system_path, system_format, space_path, need_spec, frontier_path, out):
    """Fit a naming system against a frontier: beta_l, inefficiency, gNID."""
    run = _Run("eval", {"system": system_path, "system_format": system_format,
                        "space": space_path, "need": need_spec,
                        "frontier": str(frontier_path)})
    space = _load_space(run, space_path, need_spec)
    sys = reorder_naming_system(_read_system(run, system_path, system_format),
                                space.meaning_labels)
    front = _load_frontier(run, frontier_path, space)
    report = fit_beta(sys, space, front)
    payload = report.to_json_dict()
    click.echo(
        f"beta_l={report.fitted_beta:.6g} inefficiency={report.inefficiency_bits:.6f} "
        f"gnid={report.gnid:.6f}"
    )
    if out:
        _write_json(run.add_output(out), payload)
        run.write_manifest_beside(out)


@main.command("baseline")
@_eval_options
@click.option("--samples", type=int, required=True,
              help="Number of random meaning permutations.")
@click.option("--seed", type=int, required=True,
              help="Base seed; each sample draws from its own substream.")
@click.option("--include-identity", is_flag=True,
              help="Use the identity permutation as sample 0 (diagnostic).")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_handled
def baseline(system_path, system_format, space_path, need_spec, frontier_path,
             samples, seed, include_identity, out):
    """Permutation baseline: fit meaning-shuffled variants of a system."""
    run = _Run("baseline", {"system": system_path, "system_format": system_format,
                            "space": space_path, "need": need_spec,
                            "frontier": str(frontier_path), "samples": samples,
                            "include_identity": include_identity}, seed=seed)
    space = _load_space(run, space_path, need_spec)
    sys = reorder_naming_system(_read_system(run, system_path, system_format),
                                space.meaning_labels)
    front = _load_frontier(run, frontier_path, space)
    summary = permutation_baseline(sys, space, front, samples, seed,
                                   include_identity=include_identity)
    click.echo(
        f"inefficiency {summary.inefficiency_mean:.4f} (+/-{summary.inefficiency_sd:.4f})  "
        f"gnid {summary.gnid_mean:.4f} (+/-{summary.gnid_sd:.4f})  n={samples}"
    )
    if out:
        _write_json(run.add_output(out), summary.to_json_dict())
        run.write_manifest_beside(out)


def _two_system_inputs(run, system_a, system_b, fmt, need_spec):
    from .core import Distribution

    sys_a = _read_system(run, system_a, fmt)
    sys_b = reorder_naming_system(_read_system(run, system_b, fmt), sys_a.meaning_labels)
    if need_spec == "uniform":
        need = Distribution.uniform(sys_a.meaning_labels)
    else:
        need = read_prior_csv(run.add_input(need_spec))
        if need.labels != sys_a.meaning_labels:
            sys_a = reorder_naming_system(sys_a, need.labels)
            sys_b = reorder_naming_system(sys_b, need.labels)
    return sys_a, sys_b, need


@main.command("gnid")
@click.option("--system-a", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--system-b", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--system-format", type=click.Choice(["auto", "counts", "matrix"]),
              default="auto", show_default=True)
@click.option("--need", "need_spec", required=True, help="'uniform' or a prior CSV.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_handled
def gnid_cmd(system_a, system_b, system_format, need_spec, out):
    """Dissimilarity between two naming systems over one meaning set."""
    run = _Run("gnid", {"system_a": system_a, "system_b": system_b,
                        "system_format": system_format, "need": need_spec})
    sys_a, sys_b, need = _two_system_inputs(run, system_a, system_b, system_format,
                                            need_spec)
    value = gnid_measure(sys_a, sys_b, need)
    click.echo(f"gnid {value!r}")
    if out:
        _write_json(run.add_output(out), {"gnid": value})
        run.write_manifest_beside(out)


@main.command("mixture")
@click.option("--system-a", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--system-b", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--system-format", type=click.Choice(["auto", "counts", "matrix"]),
              default="auto", show_default=True)
@click.option("--need", "need_spec", required=True, help="'uniform' or a prior CSV.")
@click.option("--weight", type=float, default=0.5, show_default=True,
              help="Probability of speaking system A.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_handled
def mixture(system_a, system_b, system_format, need_spec, weight, out):
    """Complexity of the joint two-language encoder (disjoint word alphabets)."""
    run = _Run("mixture", {"system_a": system_a, "system_b": system_b,
                           "system_format": system_format, "need": need_spec,
                           "weight": weight})
    sys_a, sys_b, need = _two_system_inputs(run, system_a, system_b, system_format,
                                            need_spec)
    bits = mixture_complexity(sys_a, sys_b, need, weight=weight)
    click.echo(f"mixture_complexity_bits {bits!r}")
    if out:
        _write_json(run.add_output(out), {"mixture_complexity_bits": bits, "weight": weight})
        run.write_manifest_beside(out)


@main.command("hierarchy")
@click.option("--frontier", "frontier_path", required=True, type=click.Path(exists=True))
@click.option("--space", "space_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--need", "need_spec", required=True)
@click.option("--k", "ks", required=True,
              help="Comma-separated effective category counts, e.g. 1,2,3,4.")
@click.option("--top-n", type=int, default=5, show_default=True)
@click.option("--threshold", type=float, default=DEFAULT_CATEGORY_MASS_THRESHOLD,
              show_default=True,
              help="Marginal mass above which a word counts as a category.")
@click.option("--out-json", type=click.Path(dir_okay=False), default=None)
@click.option("--out-text", type=click.Path(dir_okay=False), default=None)
@_handled
def hierarchy(frontier_path, space_path, need_spec, ks, top_n, threshold,
              out_json, out_text):
    """Layered category report: most informative system per requested k."""
    try:
        k_list = [int(k) for k in ks.split(",") if k.strip()]
    except ValueError:
        raise click.UsageError(f"--k must be a comma-separated integer list, got {ks!r}")
    if not k_list:
        raise click.UsageError("--k lists no values")
    run = _Run("hierarchy", {"frontier": str(frontier_path), "space": space_path,
                             "need": need_spec, "k": k_list, "top_n": top_n,
                             "threshold": threshold})
    space = _load_space(run, space_path, need_spec)
    front = _load_frontier(run, frontier_path, space)
    report = hierarchy_report(front, k_list, space, top_n=top_n, threshold=threshold)
    click.echo(report.to_text())
    if out_json:
        _write_json(run.add_output(out_json), report.to_json_dict())
    if out_text:
        run.add_output(out_text).write_text(report.to_text(), encoding="utf-8")
    if out_json or out_text:
        run.write_manifest_beside(out_json or out_text)


if __name__ == "__main__":
    main()
