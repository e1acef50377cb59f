"""One fresh process of the benchmark, started by run.py.

Modes:
  setup    import tailcens.cli, build its parser and write the workload's
           inputs, then stop (a set-up time sample).
  measure  set up, then run the workload's commands through tailcens.cli.main
           in this process, untraced, again and again until --seconds is
           spent (see measure).
  trace    set up, then run the traced layer suite (see trace_suite).

The measurements go to the JSON file named by --out.  Module-level imports
are stdlib only, so that set-up time includes every import the CLI needs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from workloads import DEFAULT_SEED, SIZES, Paths

ROOT = Path(__file__).resolve().parents[1]
LAST_START_S = 120  # keeps a measuring process well inside the 180 s a run may take

# the variance oracle runs first, so the growth of peak RSS it causes is seen
GROUP_ORDER = ("constants-grid", "sweep-eps40", "dataset-1m")


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have been waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def setup(workload: str, paths: Paths, seed: int, size) -> tuple[object, dict]:
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import tailcens.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"tailcens was imported from {cli.__file__}, not from {ROOT / 'src'}")
    t1 = perf_counter()
    cli.build_parser()
    t2 = perf_counter()
    workloads.write_inputs(workload, paths, seed, size)
    ready = perf_counter()
    return cli, {"ready": ready, "import_s": t1 - t0, "parser_s": t2 - t1,
                 "inputs_s": ready - t2}


def environment() -> dict:
    import numpy
    import scipy

    try:
        import joblib  # noqa: F401  (the sweep's optional parallel backend)
        joblib_ok = True
    except ImportError:
        joblib_ok = False
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "joblib_importable": joblib_ok,
            "sweep_threads_asked": workloads.sweep_workers()}


class Ops:
    """Operations attempted and failed; one operation per command or probe."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def run_command(cli, cmd: workloads.Command) -> tuple[list[str], float, float]:
    """Run one command in-process; returns (problems, wall seconds, CPU seconds)."""
    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        out = (stack.enter_context(open(cmd.stdout, "w", encoding="utf-8", newline=""))
               if cmd.stdout else io.StringIO())
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        cpu0, t0 = cpu_seconds(), perf_counter()
        try:
            code = cli.main(list(cmd.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        wall, cpu = perf_counter() - t0, cpu_seconds() - cpu0
    problems = [] if code == 0 else [f"exit {code}: {err.getvalue().strip()}"]
    return problems, wall, cpu


def output_files(workload: str, paths: Paths) -> dict[str, list[Path]]:
    """The files each command of a workload writes, by command label."""
    if workload == "sweep-eps40":
        return {"sweep": sorted(paths.sweep_out.glob("*.csv"))}
    if workload == "dataset-1m":
        return {"synth": [paths.synth], "contaminate": [paths.contaminated],
                "estimate": [paths.estimate]}
    return {f"constants[{i}]": [paths.constants(i)]
            for i in range(len(workloads.CONSTANTS_GRID))}


def _checked(check, *args) -> list[str]:
    try:
        return check(*args)
    except (OSError, ValueError, IndexError) as exc:  # missing or malformed output
        return [f"{type(exc).__name__}: {exc}"]


def check_outputs(cli, workload: str, paths: Paths, seed: int, size) -> dict[str, list[str]]:
    import checks

    golden = checks.GOLDEN_DIR if seed == DEFAULT_SEED and size == SIZES["full"] else None
    if workload == "sweep-eps40":
        return {"sweep": _checked(checks.check_sweep, paths.sweep_out, size.sweep_replicates,
                                  workloads.SWEEP_CELLS, golden)}
    if workload == "dataset-1m":
        k_min, k_max, k_step = workloads.ESTIMATE_K
        return {
            "synth": _checked(checks.check_synth, paths.synth, size.dataset_n, golden),
            "contaminate": _checked(checks.check_contaminate, paths.synth,
                                    paths.contaminated, cli.DEFAULT_OUTLIER_TABLE),
            "estimate": _checked(checks.check_estimate, paths.estimate, paths.contaminated,
                                 len(range(k_min, k_max + 1, k_step)),
                                 len(workloads.ESTIMATE_ALPHAS), golden),
        }
    return {f"constants[{i}]": _checked(checks.check_constants, paths.constants(i), i,
                                        point, golden)
            for i, point in enumerate(workloads.CONSTANTS_GRID)}


def digests(workload: str, paths: Paths) -> dict[str, str]:
    import checks

    return {label: ",".join(checks.sha256(f) if f.is_file() else "missing" for f in files)
            for label, files in output_files(workload, paths).items()}


def run_commands(cli, workload: str, paths: Paths, seed: int, size, ops: Ops,
                 full_check: bool, reference: dict[str, str] | None = None) -> dict:
    """Run a workload's commands once and record one operation per command.

    With ``full_check`` every output is checked; otherwise outputs must equal
    ``reference`` (the digests of an earlier, fully checked run) byte for byte.
    """
    commands = workloads.commands(workload, paths, seed, size)
    labels = [cmd.label for cmd in commands]
    runs, problems = [], {}
    for cmd in commands:
        problems[cmd.label], wall, cpu = run_command(cli, cmd)
        runs.append({"label": cmd.label, "kind": cmd.argv[0], "wall_s": wall, "cpu_s": cpu})
    rss = tracing.peak_rss_mb()
    found = digests(workload, paths)
    if full_check:
        for label, extra in check_outputs(cli, workload, paths, seed, size).items():
            problems[label] += extra
    elif reference is not None:
        for label in labels:
            if found.get(label) != reference.get(label):
                problems[label].append("output differs from the first, checked iteration")
    for label in labels:
        ops.record(label, problems[label])
    return {"commands": runs, "peak_rss_mb": rss, "digests": found}


# the reference work's wall time on the nominal machine that gated times are rescaled to
REFERENCE_NOMINAL_S = 0.25


def reference_seconds() -> float:
    """Wall time of fixed work that no change to tailcens can alter.

    It mixes small numpy operations with interpreter steps, like the
    workloads.  Timed next to the measured work, it tracks how fast the
    machine is running at the time; other tenants of a shared host change
    that by tens of percent over minutes.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    matrix, vector = rng.random((200, 150)), rng.random(150)
    start = perf_counter()
    total = 0.0
    for _ in range(3000):
        total += float((np.exp(0.5 * matrix) @ vector).sum())
        for j in range(300):
            total += j * 0.5
    return perf_counter() - start


def measure(cli, workload: str, paths: Paths, seed: int, size, seconds: float,
            ops: Ops, ref_before: float) -> dict:
    """Iterations of the workload's commands until ``seconds`` is spent.

    The first iteration's outputs are checked in full; later ones must equal
    them byte for byte.  At least ``size.min_iterations`` run, and none
    starts once LAST_START_S has passed.  The reference work has run once
    before the first iteration (``ref_before``) and runs again after each
    one; an iteration's ``ref_s`` is the mean of the two runs around it.
    The peak RSS is read after the first iteration's commands and before
    its checks, so it is the program's peak, not the checker's.
    """
    iterations, reference, rss = [], None, None
    start, last = perf_counter(), 0.0
    while True:
        elapsed = perf_counter() - start
        if elapsed > LAST_START_S or (len(iterations) >= size.min_iterations
                                      and elapsed + last > seconds):
            break
        failed_before = ops.failed
        began = perf_counter()
        result = run_commands(cli, workload, paths, seed, size, ops,
                              full_check=reference is None, reference=reference)
        last = perf_counter() - began
        if rss is None:
            rss = result["peak_rss_mb"]
        if reference is None and ops.failed == failed_before:
            reference = result["digests"]
        ref_after = reference_seconds()
        iterations.append({"commands": result["commands"],
                           "ref_s": 0.5 * (ref_before + ref_after)})
        ref_before = ref_after
    return {"iterations": iterations, "peak_rss_mb": rss}


def _median(values, scale: float = 1.0) -> float:
    """Median times ``scale``; NaN when the traced code made no such call."""
    values = list(values)
    return statistics.median(values) * scale if values else float("nan")


def sweep_probes(cli, tracer: tracing.Tracer, paths: Paths,
                 ops: Ops) -> tuple[dict[str, float], dict[str, int]]:
    """Every (replicate, k, alpha) cell of the sweep, solved by public calls, traced;
    then untraced sweeps at 1 and 2 workers.

    The cells are solved by the benchmark rather than taken from inside
    ``run_sweep``, so the estimator spans do not depend on how the sweep is
    organised or on which process runs it.  Each replicate's sample comes
    from the public ``sample_contaminated_censored`` on the sweep's own
    (seed, replicate) stream, so the cells are the sweep's cells.
    """
    from tailcens import estimators, sample_model, simulation

    spec = cli.build_sweep_spec(cli.parse_sweep_config(str(paths.sweep_config)))
    begin = len(tracer.spans)
    with tracer:
        for r in range(spec.replicates):
            sample = sample_model.order_sample(simulation.sample_contaminated_censored(
                spec.n, spec.model, spec.contamination, seed=spec.seed, replicate=r))
            for k in spec.k_grid:
                for alpha in spec.alphas:
                    try:
                        estimators.mdpd_estimate(sample, sample_model.TailConfig(k, alpha))
                    except estimators.EstimationError:
                        pass  # recorded on the span; counted in no_root_frac
    spans = tracer.spans[begin:]
    workers = workloads.sweep_workers()
    t0 = perf_counter()
    serial = simulation.run_sweep(spec, n_jobs=1)
    t1 = perf_counter() - t0
    cpu0, t0 = cpu_seconds(), perf_counter()
    pooled = simulation.run_sweep(spec, n_jobs=workers)
    t2, cpu2 = perf_counter() - t0, cpu_seconds() - cpu0
    ops.record("run_sweep", [] if repr(serial.rows) == repr(pooled.rows)
               else [f"rows differ between n_jobs=1 and n_jobs={workers}"])

    def durations(name, tag=None):
        return [s.duration for s in spans if s.name == name and (tag is None or s.tag == tag)]

    cells = [s for s in spans if s.name == "estimators.mdpd_estimate"]
    mdpd = [s for s in cells if s.tag[1] > 0]
    mdpd_ms = [s.duration * 1e3 for s in mdpd]
    iters = [s.tag for s in spans if s.name == "estimators.brentq" and s.tag is not None]
    return {
        "simulation.draw_ms.n1000": _median(
            durations("simulation.sample_contaminated_censored"), 1e3),
        "sample_model.order_ms.n1000": _median(
            durations("sample_model.ordered_from_arrays", spec.n), 1e3),
        "empirical.weights_us.k300": _median(
            durations("empirical.mdpd_weights", max(spec.k_grid)), 1e6),
        "estimators.mdpd_cell_ms.p50": _median(mdpd_ms),
        "estimators.mdpd_cell_ms.p99": statistics.quantiles(mdpd_ms, n=100)[98],
        "estimators.mns_cell_ms.p50": _median(
            (s.duration for s in cells if s.tag[1] == 0), 1e3),
        "estimators.brent_iters_mean": statistics.fmean(iters),
        "estimators.roots_per_cell": statistics.fmean(s.tag[2] for s in mdpd),
        "estimators.no_root_frac": sum(s.error is not None for s in mdpd) / len(mdpd),
        "simulation.run_sweep_s.w1": t1,
        "simulation.run_sweep_s.w2": t2,
        "simulation.sweep_efficiency": t1 / (workers * t2),
        "simulation.sweep_cpu_per_wall": cpu2 / t2,
    }, {"mdpd cells (alpha > 0)": len(mdpd), "brentq calls": len(iters),
        "draws": spec.replicates}


def dataset_metrics(spans: list[tracing.Span], offset: int, size) -> dict[str, float]:
    def durations(name, tag=None):
        return [s.duration for s in spans if s.name == name and (tag is None or s.tag == tag)]

    k_min, k_max, k_step = workloads.ESTIMATE_K
    competitors = [s for s in spans
                   if s.name in ("estimators.hill_gamma", "estimators.efg_estimator",
                                 "estimators.worms_estimator")
                   and s.parent >= offset and spans[s.parent - offset].layer == "cli"]
    return {
        "simulation.draw_s.n1e6": _median(
            durations("simulation.sample_contaminated_censored", size.dataset_n)),
        "cli.write_dataset_s.n1e6": _median(durations("cli.write_dataset")),
        "cli.read_dataset_s.n1e6": _median(durations("cli.read_dataset")),
        "sample_model.order_s.n1e6": _median(
            durations("sample_model.ordered_from_arrays", size.dataset_n)),
        "empirical.km_ms.n1e6": _median(durations("empirical.kaplan_meier_survival"), 1e3),
        "estimators.competitors_ms.n1e6": 1e3 * sum(s.duration for s in competitors)
        / len(range(k_min, k_max + 1, k_step)),
        "estimators.mdpd_cell_ms.k5000": _median(
            (s.duration for s in spans if s.name == "estimators.mdpd_estimate"
             and s.tag[0] == k_max and s.tag[1] > 0), 1e3),
    }


def constants_metrics(spans: list[tracing.Span]) -> dict[str, float]:
    def durations(name):
        return [s.duration for s in spans if s.name == f"asymptotics.{name}"]

    return {
        "asymptotics.sigma_squared_ms": _median(durations("sigma_squared"), 1e3),
        "asymptotics.sigma_squared_mc_s": _median(durations("sigma_squared_mc")),
        "asymptotics.mu_ms": _median(durations("mu"), 1e3),
        "asymptotics.sigma_squared_mc_rss_mb": max(
            (s.rss_growth_mb for s in spans if s.name == "asymptotics.sigma_squared_mc"),
            default=0.0),
    }


def trace_suite(cli, workload: str, work: Path, seed: int, size, ops: Ops) -> dict:
    """Every layer probe of every workload, plus the workload's own commands traced.

    Each group's probes run on the inputs its workload makes from this seed,
    so every per-layer metric is measured in every traced run.  The own
    workload's commands also run once untraced, after the traced run, for
    the tracing overhead.
    """
    tracer = tracing.Tracer()
    metrics: dict[str, float] = {}
    samples: dict[str, int] = {}
    own: dict = {}
    for group in GROUP_ORDER:
        paths = Paths(work / group)
        workloads.write_inputs(group, paths, seed, size)
        if group == "sweep-eps40":
            sweep_metrics, samples = sweep_probes(cli, tracer, paths, ops)
            metrics.update(sweep_metrics)
        if group != "sweep-eps40" or group == workload:
            begin = len(tracer.spans)
            with tracer:
                traced = run_commands(cli, group, paths, seed, size, ops, full_check=True)
            spans = tracer.spans[begin:]
            if group == "constants-grid":
                metrics.update(constants_metrics(spans))
            elif group == "dataset-1m":
                metrics.update(dataset_metrics(spans, begin, size))
        if group == workload:
            untraced = run_commands(cli, group, paths, seed, size, ops, full_check=False,
                                    reference=traced["digests"])
            own = {"spans": spans, "offset": begin,
                   "traced_s": sum(c["wall_s"] for c in traced["commands"]),
                   "untraced_s": sum(c["wall_s"] for c in untraced["commands"])}

    by_name = tracing.self_time_by(own["spans"], own["offset"], key=lambda s: s.name)
    metrics["cli.command_self_s"] = sum(t for name, t in by_name.items()
                                        if name.startswith("cli.cmd_"))
    metrics["trace.overhead_s"] = own["traced_s"] - own["untraced_s"]
    return {"metrics": metrics, "samples": samples,
            "traced_s": own["traced_s"], "untraced_s": own["untraced_s"],
            "spans": len(tracer.spans),
            "self_by_layer": tracing.self_time_by(own["spans"], own["offset"]),
            "self_by_name": dict(sorted(by_name.items(), key=lambda kv: -kv[1])[:10])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    size = SIZES[args.size]
    paths = Paths(args.workdir / args.workload)
    cli, result = setup(args.workload, paths, args.seed, size)
    ops = Ops()
    if args.mode != "trace":
        result["ref_s"] = reference_seconds()
    if args.mode == "measure":
        result.update(measure(cli, args.workload, paths, args.seed, size, args.seconds, ops,
                              result["ref_s"]))
    elif args.mode == "trace":
        result.update(trace_suite(cli, args.workload, args.workdir, args.seed, size, ops))
    result.update(env=environment(), attempted=ops.attempted, failed=ops.failed,
                  problems=ops.problems)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
