"""Benchmark of the ibnaming pipeline, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload container-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, both modes
    python3 bench/run.py --workload all --smoke           # tiny instances, seconds

Each run generates its instance from the seed (``generate.py``) under
``.bench_work/`` and drives the real command-line tool, one
``python -m ibnaming.cli`` process at a time, with BLAS threads left at their
default. With ``--trace 0`` it repeats the workload's timed command sequence
for ``--seconds`` (at least twice), checks every output, and reports the
end-to-end metrics as medians. With ``--trace 1`` it replays the same
commands in-process with spans around every public call (``tracing.py``),
replays them untraced to measure the tracing overhead, and times single
public calls for the per-layer metrics. The last line of standard output is
one JSON object; a results file with the machine's details and the spans are
written under ``.bench_work/results/``. See ``NOTES.md`` for the workloads,
the metrics and the first results.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import secrets
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import generate  # noqa: E402
import tracing  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
MIN_REPEATS = 2
COMMAND_TIMEOUT_S = 170
# Further plain updates from each recorded encoder when measuring ca_drift_bits.
DRIFT_UPDATES = 25
# Iterations timed by solver.iter_ms, on top of a one-iteration solve.
ITER_PROBE_UPDATES = 20
INEFFICIENCY_FLOOR = -1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    domain: str  # "container" or "animal"
    beta_max: float
    num_betas: int
    samples: int = 0  # permutation-baseline samples
    ks: str = ""  # hierarchy layers


WORKLOADS = {
    w.name: w for w in (
        # why each workload exists: BENCHMARK.json and NOTES.md
        Workload("container-sweep", "container", 1024.0, 12),
        Workload("animal-hierarchy", "animal", 8192.0, 48, ks="1,2,3,4"),
        Workload("container-baseline", "container", 64.0, 60, samples=10_000),
    )
}
SMOKE = {
    "container-sweep": dict(num_betas=8),
    "animal-hierarchy": dict(num_betas=40),
    "container-baseline": dict(num_betas=12, samples=50),
}

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "frontier_s": "s", "peak_rss_mb": "MB",
    "frontier_bytes": "bytes", "ca_drift_bits": "bits",
}


# ---------------------------------------------------------------------------
# command sequences


def _steps(w: Workload, inp: dict, out: Path, setup_dir: Path | None, seed: int):
    """(command, argv, outputs) for the timed sequence of one workload."""
    if w.domain == "animal":
        space, need, front = out / "space.csv", out / "need.csv", out / "front"
        return [
            ("make-space", ["make-space", "--features", inp["features"], "--familiarity",
                            inp["familiarity"], "--out", space, "--need-out", need],
             [space, need]),
            ("frontier", ["frontier", "--space", space, "--need", need, "--beta-max",
                          w.beta_max, "--num-betas", w.num_betas, "--out", front], [front]),
            ("hierarchy", ["hierarchy", "--frontier", front, "--space", space, "--need", need,
                           "--k", w.ks, "--out-json", out / "hierarchy.json"],
             [out / "hierarchy.json"]),
        ]
    if w.samples == 0:
        return _frontier_steps(w, inp, out) + [_eval_step(inp, out, out)]
    space, prior, front = setup_dir / "space.csv", setup_dir / "prior.csv", setup_dir / "front"
    pair = ["--system-a", inp["naming_a"], "--system-b", inp["naming_b"], "--need", prior]
    return [
        _eval_step(inp, setup_dir, out),
        ("baseline", ["baseline", "--system", inp["naming_a"], "--space", space, "--need",
                      prior, "--frontier", front, "--samples", w.samples, "--seed", seed,
                      "--out", out / "baseline_a.json"], [out / "baseline_a.json"]),
        ("gnid", ["gnid", *pair, "--out", out / "gnid.json"], [out / "gnid.json"]),
        ("mixture", ["mixture", *pair, "--weight", 0.5, "--out", out / "mixture.json"],
         [out / "mixture.json"]),
    ]


def _frontier_steps(w: Workload, inp: dict, out: Path):
    space, prior, front = out / "space.csv", out / "prior.csv", out / "front"
    return [
        ("make-space", ["make-space", "--similarity", inp["similarity"], "--out", space],
         [space]),
        ("make-prior", ["make-prior", "--naming", inp["naming_a"], "--naming", inp["naming_b"],
                        "--space", space, "--out", prior], [prior]),
        ("frontier", ["frontier", "--space", space, "--need", prior, "--beta-max", w.beta_max,
                      "--num-betas", w.num_betas, "--out", front], [front]),
    ]


def _eval_step(inp: dict, src: Path, out: Path):
    return ("eval", ["eval", "--system", inp["naming_a"], "--space", src / "space.csv",
                     "--need", src / "prior.csv", "--frontier", src / "front",
                     "--out", out / "eval_a.json"], [out / "eval_a.json"])


def _need_path(out: Path) -> Path:
    return out / "need.csv" if (out / "need.csv").exists() else out / "prior.csv"


# ---------------------------------------------------------------------------
# running and checking commands


@dataclass
class StepResult:
    command: str
    seconds: float
    returncode: int
    digest: str = ""
    failed: bool = False


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_cli(argv, log: Path) -> tuple[float, int]:
    cmd = [sys.executable, "-m", "ibnaming.cli", *map(str, argv)]
    with open(log, "ab") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=sink, stderr=sink, env=_cli_env(), cwd=ROOT)
        # a blocking wait returns at once; wait(timeout=...) polls in 50 ms steps
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return time.perf_counter() - start, code


def _primary_files(paths) -> list[Path]:
    """Output files except run manifests, which carry timestamps."""
    files = []
    for p in map(Path, paths):
        found = sorted(f for f in p.rglob("*") if f.is_file()) if p.is_dir() else [p]
        files += [f for f in found if not f.name.endswith("manifest.json")]
    return files


def _digest(paths, base: Path) -> str:
    h = hashlib.sha256()
    for f in _primary_files(paths):
        h.update(str(f.relative_to(base)).encode() + b"\0")
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def _run_sequence(steps, out: Path) -> list[StepResult]:
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for command, argv, outputs in steps:
        seconds, code = _run_cli(argv, out / "cli.log")
        res = StepResult(command, seconds, code, failed=code != 0)
        if code == 0:
            res.digest = _digest(outputs, out)
        results.append(res)
        if code != 0:
            break
    return results


def _mark_mismatches(reps: list[list[StepResult]]) -> None:
    """Byte-identity: every repetition's primary outputs match the first's."""
    first = {r.command: r.digest for r in reps[0]}
    for rep in reps[1:]:
        for r in rep:
            if r.returncode == 0 and r.digest != first.get(r.command):
                r.failed = True


def _load(out: Path, front: Path):
    from ibnaming import attach_need
    from ibnaming.frontier_io import load_frontier
    from ibnaming.ingest import read_prior_csv, read_space_csv

    space = attach_need(read_space_csv(out / "space.csv"), read_prior_csv(_need_path(out)))
    return space, load_frontier(front, space=space)


def _check_outputs(w: Workload, out: Path, front_dir: Path) -> list[tuple[str, str]]:
    """Content checks on one sequence's outputs: (command at fault, why)."""
    problems = []
    _, front = _load(front_dir.parent, front_dir)
    errors = front.validate()
    if errors:
        problems.append(("frontier", f"validate(): {errors[:3]}"))
    unconverged = sum(1 for p in front.points if not p.converged)
    if unconverged:
        problems.append(("frontier", f"{unconverged} points did not converge"))
    if w.ks:
        found = [layer["k"] for layer in json.loads((out / "hierarchy.json").read_text())["layers"]]
        wanted = sorted({int(k) for k in w.ks.split(",")})
        if found != wanted:
            problems.append(("hierarchy", f"found k={found}, wanted {wanted}"))
    if (out / "eval_a.json").exists():
        ineff = json.loads((out / "eval_a.json").read_text())["inefficiency_bits"]
        if ineff < INEFFICIENCY_FLOOR:
            problems.append(("eval", f"inefficiency {ineff!r} below {INEFFICIENCY_FLOOR}"))
    return problems


def _mark_problems(rep: list[StepResult], problems) -> list[str]:
    by_cmd = {r.command: r for r in rep}
    for command, _ in problems:
        if command in by_cmd:
            by_cmd[command].failed = True
    return [f"{command}: {why}" for command, why in problems]


def ca_drift_bits(space, front) -> float:
    """Largest |change| in complexity or accuracy over the recorded points
    after DRIFT_UPDATES further plain updates through ``solve_at_beta``."""
    from ibnaming import SolverConfig, solve_at_beta

    drift = 0.0
    for p in front.points:
        config = SolverConfig(beta_grid=(p.beta,), convergence_tol=1e-300,
                              max_iterations=DRIFT_UPDATES, mass_prune_threshold=0.0)
        moved = solve_at_beta(space, p.beta, p.encoder, config)
        drift = max(drift, abs(moved.complexity_bits - p.complexity_bits),
                    abs(moved.accuracy_bits - p.accuracy_bits))
    return drift


def _frontier_bytes(front: Path) -> int:
    return sum(f.stat().st_size for f in _primary_files([front]))


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def run_untraced(w: Workload, seed: int, seconds: float, work: Path, small: bool):
    setups, setup_reps, attempted = [], [], 0
    for i in range(SETUP_REPEATS):
        d = work / f"setup{i}"
        start = time.perf_counter()
        inp = _make_inputs(w, d / "in", seed, small)
        # one throwaway command fills the file cache for the interpreter and package
        _run_cli(["--version"], d / "in" / "warmup.log")
        if w.samples:
            setup_reps.append(_run_sequence(_frontier_steps(w, inp, d), d))
        setups.append(time.perf_counter() - start)
    setup_dir = d
    problems = []
    if setup_reps:
        _mark_mismatches(setup_reps)
        attempted += sum(len(r) for r in setup_reps)
        if any(r.returncode for r in setup_reps[-1]):
            problems.append("set-up command failed")
        else:
            problems += _mark_problems(setup_reps[-1], _check_outputs(
                w, setup_dir, setup_dir / "front"))

    reps = []
    start = time.perf_counter()
    while not problems and (len(reps) < MIN_REPEATS or time.perf_counter() - start < seconds):
        out = work / f"rep{len(reps)}"
        reps.append(_run_sequence(_steps(w, inp, out, setup_dir, seed), out))
        if any(r.returncode for r in reps[-1]):
            problems.append(f"{reps[-1][-1].command} exited {reps[-1][-1].returncode}")
    if reps and not problems:
        _mark_mismatches(reps)
        last = work / f"rep{len(reps) - 1}"
        front_dir = setup_dir / "front" if w.samples else last / "front"
        problems += _mark_problems(reps[-1], _check_outputs(w, last, front_dir))
    attempted += sum(len(r) for r in reps)
    failed = sum(r.failed for rep in setup_reps + reps for r in rep)
    if failed and not problems:
        problems.append("primary outputs differ between repetitions")

    def times(command, source=reps):
        return [r.seconds for rep in source for r in rep if r.command == command]

    metrics, extra = {}, {}
    if not problems:
        front_dir = setup_dir / "front" if w.samples else last / "front"
        space, front = _load(front_dir.parent, front_dir)
        frontier_times = times("frontier", setup_reps if w.samples else reps)
        metrics = {
            "setup_s": (_median(setups), len(setups)),
            "pipeline_s": (_median([sum(r.seconds for r in rep) for rep in reps]), len(reps)),
            "frontier_s": (_median(frontier_times), len(frontier_times)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1),
            "frontier_bytes": (_frontier_bytes(front_dir), 1),
            "ca_drift_bits": (ca_drift_bits(space, front), 1),
        }
        for name, command in (("eval_s", "eval"), ("hierarchy_s", "hierarchy")):
            if times(command):
                extra[name] = (_median(times(command)), "s", len(times(command)))
        if w.samples:
            rates = [w.samples / s for s in times("baseline")]
            extra["baseline_samples_per_s"] = (_median(rates), "1/s", len(rates))
        extra["solver.iterations"] = (sum(p.iterations for p in front.points), "count", 1)
    extra["failed_runs"] = (failed / max(attempted, 1), "share", attempted)
    return metrics, extra, attempted, failed, problems, reps


def _make_inputs(w: Workload, d: Path, seed: int, small: bool) -> dict:
    make = generate.animal_instance if w.domain == "animal" else generate.container_instance
    return make(d, seed, small=small)


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def _inprocess(steps, out: Path, tracer: tracing.Tracer | None) -> float:
    """Run CLI commands inside this process; returns the wall time."""
    from ibnaming.cli import main

    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    for command, argv, _ in steps:
        args = [str(a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                main.main(args=args, prog_name="ibnaming", standalone_mode=False)
            else:
                with tracer.span(f"cli.{command}"):
                    main.main(args=args, prog_name="ibnaming", standalone_mode=False)
    return time.perf_counter() - start


def _per_call(fn, inner: int = 1, repeats: int = 3) -> float:
    """Median seconds of one call over ``repeats`` timings of ``inner`` calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    return statistics.median(samples)


def _primary_chain(space, front):
    """solve_at_beta chained down the grid from the identity encoder: the
    sweep without its refinement passes. Returns per-beta (seconds, iterations)."""
    import numpy as np
    from ibnaming import NamingSystem, solve_at_beta

    n = space.num_meanings
    init = NamingSystem(np.eye(n), tuple(f"w{i:03d}" for i in range(n)), space.meaning_labels)
    timings = []
    for beta in reversed(front.config.beta_grid):
        start = time.perf_counter()
        point = solve_at_beta(space, beta, init, front.config)
        timings.append((time.perf_counter() - start, point.iterations))
        init = point.encoder
    return timings


def _iter_ms(space) -> float:
    """Milliseconds per plain update at the space's full width.

    Starts from a perturbed identity encoder at beta = 1, where every word
    keeps some mass (pruning is off) and the objective moves at every
    update, so the solve runs its whole iteration budget.
    """
    import numpy as np
    from ibnaming import NamingSystem, SolverConfig, solve_at_beta

    n = space.num_meanings
    q = (np.eye(n) + 0.01) * np.exp(0.1 * np.random.default_rng(0).standard_normal((n, n)))
    init = NamingSystem(q / q.sum(axis=1, keepdims=True),
                        tuple(f"w{i:03d}" for i in range(n)), space.meaning_labels)

    def timed(budget):
        config = SolverConfig(beta_grid=(1.0,), convergence_tol=1e-300,
                              max_iterations=budget, mass_prune_threshold=0.0)
        iterations = solve_at_beta(space, 1.0, init, config).iterations
        return _per_call(lambda: solve_at_beta(space, 1.0, init, config), repeats=5), iterations

    (t1, n1), (t2, n2) = timed(1), timed(1 + ITER_PROBE_UPDATES)
    return 1000 * (t2 - t1) / max(n2 - n1, 1)


def run_traced(w: Workload, seed: int, seconds: float, work: Path, small: bool,
               tracer: tracing.Tracer):
    import ibnaming as ib
    from ibnaming import frontier_io, ingest

    inp = _make_inputs(w, work / "in", seed, small)
    setup_dir = work / "setup"
    if w.samples:
        tracer.phase = "setup"
        with tracer.installed():
            _inprocess(_frontier_steps(w, inp, setup_dir), setup_dir, tracer)
    traced, untraced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        i = len(traced)
        tracer.phase = "timed"
        with tracer.installed():
            out = work / f"traced{i}"
            traced.append(_inprocess(_steps(w, inp, out, setup_dir, seed), out, tracer))
        out = work / f"plain{i}"
        untraced.append(_inprocess(_steps(w, inp, out, setup_dir, seed), out, None))
    tracer.phase = ""
    out = setup_dir if w.samples else work / "traced0"
    # tracing must not change a byte: every sequence's outputs match the first
    sequences = [work / f"{kind}{i}" for i in range(len(traced)) for kind in ("traced", "plain")]
    digests = [_digest([d], d) for d in sequences]
    mismatched = sum(d != digests[0] for d in digests)
    problems = [f"{c}: {why}" for c, why in _check_outputs(w, work / "traced0", out / "front")]
    failed = mismatched + bool(problems)
    if mismatched:
        problems.append(f"outputs of {mismatched} sequences differ from the first")
    space, front = _load(out, out / "front")
    sweep_phase = "setup" if w.samples else "timed"

    names = ingest.read_naming_counts(inp["naming_a"]), ingest.read_naming_counts(inp["naming_b"])
    sys_a, sys_b = (ib.naming_system_from_counts(c, meaning_order=space.meaning_labels)
                    for c in names)
    need = space.need
    if w.domain == "animal":
        def build_space():
            return ib.meaning_space_from_features(
                ingest.read_feature_table(inp["features"], inp["familiarity"]))
        ks = [int(k) for k in w.ks.split(",")]
    else:
        def build_space():
            return ib.meaning_space_from_similarity(ingest.read_similarity_csv(inp["similarity"]))
        ks = sorted({p.effective_k for p in front.points})[:4]

    chain = _primary_chain(space, front)
    sweep_s = _median(tracer.durations("solver.anneal_frontier", sweep_phase))
    primary_s = sum(t for t, _ in chain)
    iterations = [p.iterations for p in front.points]
    save_dir = work / "save_probe"

    def save():
        shutil.rmtree(save_dir, ignore_errors=True)
        frontier_io.save_frontier(front, save_dir)

    baseline_n = 20 if small else 200
    metrics = {
        "solver.sweep_s": (sweep_s, "s"),
        "solver.iterations": (sum(iterations), "count"),
        "solver.iterations_max": (max(iterations), "count"),
        "solver.unconverged": (sum(not p.converged for p in front.points), "count"),
        "solver.primary_s": (primary_s, "s"),
        "solver.primary_iterations": (sum(n for _, n in chain), "count"),
        "solver.refine_s": (sweep_s - primary_s, "s"),
        "solver.beta_s_p50": (_median([t for t, _ in chain]), "s"),
        "solver.beta_s_max": (max(t for t, _ in chain), "s"),
        "solver.iter_ms": (_iter_ms(space), "ms"),
        "measures.complexity_ms": (1000 * _per_call(lambda: ib.complexity(sys_a, need), 200), "ms"),
        "measures.accuracy_ms": (1000 * _per_call(lambda: ib.accuracy(sys_a, space), 200), "ms"),
        "analysis.fit_beta_ms": (1000 * _per_call(lambda: ib.fit_beta(sys_a, space, front), 20),
                                 "ms"),
        "analysis.gnid_ms": (1000 * _per_call(lambda: ib.gnid(sys_a, sys_b, need), 200), "ms"),
        "analysis.baseline_sample_ms": (1000 * _per_call(
            lambda: ib.permutation_baseline(sys_a, space, front, baseline_n, seed)) / baseline_n,
            "ms"),
        "analysis.mixture_ms": (1000 * _per_call(
            lambda: ib.mixture_complexity(sys_a, sys_b, need), 200), "ms"),
        "analysis.hierarchy_s": (_per_call(lambda: ib.hierarchy_report(front, ks, space)), "s"),
        "frontier_io.save_s": (_per_call(save), "s"),
        "frontier_io.files": (len(_primary_files([save_dir])), "count"),
        "frontier_io.load_s": (_per_call(lambda: frontier_io.load_frontier(save_dir, space)), "s"),
        "ingest.space_s": (_per_call(build_space), "s"),
        "ingest.li_prior_s": (_per_call(lambda: ib.li_prior(
            [sys_a, sys_b], meaning_weights=[ib.naming_weights_from_counts(c, space.meaning_labels)
                                             for c in names])), "s"),
        "cli.startup_s": (_per_call(lambda: _run_cli(["--version"], work / "startup.log")), "s"),
    }
    extra = {
        "trace.overhead_s": (_median(traced) - _median(untraced), "s", len(traced)),
        "trace.sequence_s": (_median(untraced), "s", len(untraced)),
        "trace.spans": (len(tracer.spans), "count", 1),
    }
    layers = {}
    for phase, count in (("setup", 1), ("timed", len(traced))):
        own, entered = tracer.self_times(phase), tracer.entry_times(phase)
        io = {f"frontier_io.{op}": sum(tracer.durations(f"frontier_io.{op}_frontier", phase))
              for op in ("save", "load")}
        if any(own.values()):
            layers[phase] = {layer: {"self_s": own[layer] / count,
                                     "entered_s": entered[layer] / count}
                             for layer in tracing.LAYERS}
            layers[phase] |= {k: {"entered_s": v / count} for k, v in io.items()}
    return metrics, extra, layers, len(sequences), failed, problems


# ---------------------------------------------------------------------------
# environment and output


def environment() -> dict:
    import numpy as np

    def git_sha():
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10).stdout.strip() or None
        except OSError:
            return None

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        with contextlib.suppress(OSError, AttributeError):
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            threads = get()
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_hash = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        src_hash.update(f.read_bytes())

    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            if (d / "type").read_text().strip() != "Instruction":
                caches[f"L{(d / 'level').read_text().strip()}"] = (d / "size").read_text().strip()

    return {
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads,
                 "thread_env": {k: os.environ.get(k) for k in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
    }


def _print_block(title: str, rows: dict) -> None:
    print(title)
    for name, (value, unit, n) in rows.items():
        print(f"  {name:<30} {value:>14.6g} {unit:<6} (n={n})")


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, small: bool):
    """Runs one workload, writes its results file, returns the result line."""
    tag = f"{w.name}-seed{seed}-trace{int(trace)}{'-smoke' if small else ''}"
    work = WORK / f"run-{tag}-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        if trace:
            tracer = tracing.Tracer(secrets.token_hex(8))
            metrics, extra, self_times, attempted, failed, problems = run_traced(
                w, seed, seconds, work, small, tracer)
            tracer.write(results_dir / f"{tag}.spans.jsonl.gz")
            line = {"correct": not problems, "attempted": attempted, "failed": failed,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
            rows = {k: (v, u, 1) for k, (v, u) in metrics.items()} | extra
            _print_block(f"{w.name} seed={seed} traced: per-layer metrics", rows)
            for phase, table in self_times.items():
                total = sum(row.get("self_s", 0.0) for row in table.values())
                print(f"  time per layer, {phase} phase, s per sequence "
                      "(self, share of traced time, inside calls into the layer):")
                for layer, row in table.items():
                    own = row.get("self_s")
                    print(f"    {layer:<18} " + (f"{own:10.4f} {100 * own / total:5.1f}%"
                                                  if own is not None else " " * 17)
                          + f" {row['entered_s']:10.4f}")
            record = {"trace_id": tracer.trace_id, "self_time_s": self_times}
            for p in problems:
                print(f"  CHECK FAILED: {p}")
        else:
            metrics, extra, attempted, failed, problems, reps = run_untraced(
                w, seed, seconds, work, small)
            line = {"correct": not problems and failed == 0, "attempted": attempted,
                    "failed": failed,
                    "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                                for k, (v, _) in metrics.items()}}
            rows = {k: (v, END_TO_END_UNITS[k], n) for k, (v, n) in metrics.items()} | extra
            _print_block(f"{w.name} seed={seed}: end-to-end metrics", rows)
            for p in problems:
                print(f"  CHECK FAILED: {p}")
            record = {"repetitions": [[vars(r) for r in rep] for rep in reps]}
        record |= {"problems": problems, "workload": w.name, "seed": seed, "seconds": seconds,
                   "trace": trace, "smoke": small, "environment": environment(),
                   "metrics": {k: {"value": v, "unit": u, "n": n}
                               for k, (v, u, n) in rows.items()}}
        (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
        return line
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; "
                             "default with --workload all: both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances and grids, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "ibnaming" / "cli.py").is_file():
        print(f"bench: no ibnaming sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    if args.trace is None and args.workload != "all":
        modes = [False]
    lines = {}
    for name in names:
        w = WORKLOADS[name]
        if args.smoke:
            w = replace(w, **SMOKE[name])
        for trace in modes:
            lines[(name, trace)] = run_workload(w, args.seed, args.seconds, trace, args.smoke)
    if len(lines) == 1:
        result = next(iter(lines.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{name}/{k}": v for (name, _), r in lines.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
