"""Layer-by-layer benchmark of tailcens.

    python3 bench/run.py --workload sweep-eps40 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from
``src/``.  Every iteration of a workload runs in a fresh process
(bench/worker.py), which imports ``tailcens.cli``, writes the workload's
inputs and runs its commands in-process through ``tailcens.cli.main``.
With ``--trace 0`` iterations repeat until ``--seconds`` is spent and the
end-to-end metrics are medians over them; with ``--trace 1`` one process
runs the traced layer suite and reports the per-layer metrics.  The last
line of output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the metrics, workloads and limits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from worker import REFERENCE_NOMINAL_S
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170

# gated end-to-end metrics, reported on every workload: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "commands_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# the user-visible figures each workload is about, printed above the JSON line:
# name -> (unit, better)
REPORTED = {
    "setup_wall_s": ("s", "lower"),
    "commands_wall_s": ("s", "lower"),
    "sweep_cells_per_s": ("1/s", "higher"),
    "synth_s": ("s", "lower"),
    "contaminate_s": ("s", "lower"),
    "estimate_s": ("s", "lower"),
    "constants_row_s": ("s", "lower"),
    "fail_frac": ("ratio", "lower"),
}

_SWEEP = ("sweep_cells_per_s", "sweep-eps40")
_CONSTANTS = ("constants_row_s", "constants-grid")
# per-layer metrics: name -> (unit, better, end-to-end metric it should move, workload)
PER_LAYER = {
    "simulation.draw_ms.n1000": ("ms", "lower", *_SWEEP),
    "sample_model.order_ms.n1000": ("ms", "lower", *_SWEEP),
    "empirical.weights_us.k300": ("us", "lower", *_SWEEP),
    "estimators.mdpd_cell_ms.p50": ("ms", "lower", *_SWEEP),
    "estimators.mdpd_cell_ms.p99": ("ms", "lower", *_SWEEP),
    "estimators.mns_cell_ms.p50": ("ms", "lower", *_SWEEP),
    "estimators.brent_iters_mean": ("count", "lower", *_SWEEP),
    "estimators.roots_per_cell": ("count", "lower", *_SWEEP),
    "estimators.no_root_frac": ("ratio", "lower", *_SWEEP),
    "simulation.run_sweep_s.w1": ("s", "lower", *_SWEEP),
    "simulation.run_sweep_s.w2": ("s", "lower", *_SWEEP),
    "simulation.sweep_efficiency": ("ratio", "higher", *_SWEEP),
    "simulation.sweep_cpu_per_wall": ("ratio", "higher", *_SWEEP),
    "simulation.draw_s.n1e6": ("s", "lower", "synth_s", "dataset-1m"),
    "cli.write_dataset_s.n1e6": ("s", "lower", "synth_s, contaminate_s", "dataset-1m"),
    "cli.read_dataset_s.n1e6": ("s", "lower", "contaminate_s, estimate_s", "dataset-1m"),
    "sample_model.order_s.n1e6": ("s", "lower", "estimate_s", "dataset-1m"),
    "empirical.km_ms.n1e6": ("ms", "lower", "estimate_s", "dataset-1m"),
    "estimators.competitors_ms.n1e6": ("ms", "lower", "estimate_s", "dataset-1m"),
    "estimators.mdpd_cell_ms.k5000": ("ms", "lower", "estimate_s", "dataset-1m"),
    "asymptotics.sigma_squared_ms": ("ms", "lower", *_CONSTANTS),
    "asymptotics.sigma_squared_mc_s": ("s", "lower", *_CONSTANTS),
    "asymptotics.mu_ms": ("ms", "lower", *_CONSTANTS),
    "asymptotics.sigma_squared_mc_rss_mb": ("MB", "lower", "peak_rss_mb", "constants-grid"),
    "cli.command_self_s": ("s", "lower", "commands_s", "the traced workload"),
    "trace.overhead_s": ("s", "lower", "none: the cost of tracing", "the traced workload"),
}

# steps the traced run cannot see, by workload
UNSEEN = {
    "sweep-eps40": [
        "simulation._draw_arrays: the sweep's private array draw. simulation.draw_ms.n1000 "
        "times the public sample_contaminated_censored on the same (seed, replicate) "
        "streams instead, which also builds one CensoredObservation per row",
        "everything inside run_sweep, worker processes included: the cell metrics come "
        "from the cells the benchmark solves itself; run_sweep is timed as a whole",
        "the sweep command's own formatting and writing: the command span minus its children",
    ],
    "dataset-1m": [
        "per-row CensoredObservation construction and the times/statuses lists in "
        "cmd_synth: self time of sample_contaminated_censored and cmd_synth",
        "sorting the uncensored rows in cmd_contaminate: self time of cmd_contaminate",
        "each command's own formatting and writing: the command span minus its children",
    ],
    "constants-grid": [
        "quadrature inside sigma_squared and mu (scipy quad, private closures)",
        "the Gaussian draws and products inside sigma_squared_mc",
        "each command's own formatting: the command span minus its children",
    ],
}


def spawn(mode: str, workload: str, seed: int, size: str, work: Path, index: int,
          extra: tuple[str, ...] = ()) -> tuple[dict | None, str]:
    """Run one worker process to completion; returns (its result, error text)."""
    out = work / f"{mode}-{index}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--size", size, "--mode", mode,
            "--workdir", str(work), "--out", str(out), *extra]
    started = perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{mode} process timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not out.is_file():
        return None, f"{mode} process exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready"] - started  # perf_counter is system-wide on Linux
    return result, ""


def measure(workload: str, seed: int, seconds: int, size: str, work: Path) -> dict:
    """One measuring process, then set-up-only processes for more set-up samples."""
    result, error = spawn("measure", workload, seed, size, work, 0, ("--seconds", str(seconds)))
    if result is None:
        return {"result": None, "setups": [], "problems": [error]}
    setups, problems = [(result["setup_s"], result["ref_s"])], list(result["problems"])
    index = 1
    while len(setups) < SIZES[size].min_setup_samples:
        probe, error = spawn("setup", workload, seed, size, work, index)
        index += 1
        if probe is None:
            problems.append(error)
            break
        setups.append((probe["setup_s"], probe["ref_s"]))
    return {"result": result, "setups": setups, "problems": problems}


def summarize(workload: str, run: dict, size: str) -> tuple[dict, dict, dict]:
    """(gated metrics, reported figures, sample count of each) from a run's iterations."""
    result = run["result"]
    by_label: dict[str, list[float]] = {}
    by_label_nominal: dict[str, list[float]] = {}
    by_kind: dict[str, list[float]] = {}
    cpu_per_wall = []
    for iteration in result["iterations"]:
        scale = REFERENCE_NOMINAL_S / iteration["ref_s"]
        for c in iteration["commands"]:
            by_label.setdefault(c["label"], []).append(c["wall_s"])
            by_label_nominal.setdefault(c["label"], []).append(c["wall_s"] * scale)
            by_kind.setdefault(c["kind"], []).append(c["wall_s"])
            if c["kind"] == "sweep":
                cpu_per_wall.append(c["cpu_s"] / c["wall_s"])
    iterations = len(result["iterations"])
    # sums of per-command medians: one slow command does not move the others
    gated = {
        "setup_s": statistics.median(t * REFERENCE_NOMINAL_S / ref for t, ref in run["setups"]),
        "commands_s": sum(statistics.median(v) for v in by_label_nominal.values()),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    counts = {"setup_s": len(run["setups"]), "setup_wall_s": len(run["setups"]),
              "commands_s": iterations, "commands_wall_s": iterations, "peak_rss_mb": 1,
              "fail_frac": result["attempted"]}
    reported = {"setup_wall_s": statistics.median(t for t, _ in run["setups"]),
                "commands_wall_s": sum(statistics.median(v) for v in by_label.values()),
                "fail_frac": result["failed"] / max(result["attempted"], 1)}
    if workload == "sweep-eps40":
        reported["sweep_cells_per_s"] = (SIZES[size].sweep_replicates * workloads.SWEEP_CELLS
                                         / statistics.median(by_kind["sweep"]))
        reported["sweep_cpu_per_wall"] = statistics.median(cpu_per_wall)
        counts["sweep_cells_per_s"] = len(by_kind["sweep"])
    elif workload == "dataset-1m":
        for kind in ("synth", "contaminate", "estimate"):
            reported[f"{kind}_s"] = statistics.median(by_kind[kind])
            counts[f"{kind}_s"] = len(by_kind[kind])
    else:
        reported["constants_row_s"] = statistics.median(by_kind["constants"])
        counts["constants_row_s"] = len(by_kind["constants"])
    return gated, reported, counts


def environment_lines(env: dict, cpu_per_wall: float | None) -> list[str]:
    lines = ["env " + json.dumps(env, sort_keys=True)]
    if cpu_per_wall is not None:
        lines.append(f"sweep workers actually used: about {cpu_per_wall:.2f} "
                     f"(CPU seconds per wall second of the {env['sweep_threads_asked']}-worker "
                     "sweep)")
    if not env["joblib_importable"]:
        lines.append("note: joblib does not import, so `sweep --threads N` runs serially; "
                     "sweep-eps40 measures a serial sweep")
    return lines


def report_untraced(workload: str, seed: int, run: dict,
                    size: str) -> tuple[list[str], dict]:
    gated, reported, counts = summarize(workload, run, size)
    result = run["result"]
    lines = [f"workload {workload}  seed {seed}  iterations {len(result['iterations'])}  "
             f"set-up samples {len(run['setups'])}  operations {result['attempted']}  "
             f"failed {result['failed']}"]
    lines += environment_lines(result["env"], reported.pop("sweep_cpu_per_wall", None))
    reference = statistics.median(it["ref_s"] for it in result["iterations"])
    lines.append(f"reference work: median {reference:.4f} s here, {REFERENCE_NOMINAL_S} s "
                 "nominal; gated times are wall times rescaled to the nominal speed")
    lines.append(f"set-up of the measuring process: import tailcens.cli {result['import_s']:.3f} s,"
                 f" build parser {result['parser_s']:.4f} s, write inputs "
                 f"{result['inputs_s']:.4f} s")
    lines.append(f"{'end-to-end metric':<24} {'value':>14}  unit   better  samples")
    for name, value in reported.items():
        unit, better = REPORTED[name]
        lines.append(f"{name:<24} {value:>14.6g}  {unit:<6} {better:<7} {counts[name]}")
    for name, value in gated.items():
        unit, better = END_TO_END[name]
        lines.append(f"{name:<24} {value:>14.6g}  {unit:<6} {better:<7} "
                     f"{counts[name]} (gated)")
    return lines, {name: {"value": value, "unit": END_TO_END[name][0]}
                   for name, value in gated.items()}


def report_traced(workload: str, seed: int, result: dict) -> tuple[list[str], dict]:
    metrics = result["metrics"]
    lines = [f"workload {workload}  seed {seed}  traced  spans {result['spans']}  "
             f"operations {result['attempted']}  failed {result['failed']}"]
    lines += environment_lines(result["env"], metrics["simulation.sweep_cpu_per_wall"])
    lines.append(f"tracing overhead on {workload}'s commands: traced "
                 f"{result['traced_s']:.4f} s - untraced {result['untraced_s']:.4f} s = "
                 f"{metrics['trace.overhead_s']:.4f} s (one pair of runs; a difference "
                 "smaller than the machine's run-to-run noise is not resolved)")
    lines.append("samples: " + ", ".join(f"{k} {v}" for k, v in result["samples"].items()))
    lines.append(f"{'per-layer metric':<38} {'value':>12}  unit   should move (workload)")
    for name, (unit, _, moves, where) in PER_LAYER.items():
        lines.append(f"{name:<38} {metrics[name]:>12.6g}  {unit:<6} {moves} ({where})")
    lines.append(f"self time by layer in {workload}'s traced commands:")
    for layer, seconds in sorted(result["self_by_layer"].items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<14} {seconds:10.4f} s")
    lines.append("largest self times by function:")
    for name, seconds in result["self_by_name"].items():
        lines.append(f"  {name:<44} {seconds:10.4f} s")
    lines.append("not seen as spans:")
    lines += [f"  - {step}" for step in UNSEEN[workload]]
    return lines, {name: {"value": metrics[name], "unit": PER_LAYER[name][0]}
                   for name in PER_LAYER}


def run_one(workload: str, seed: int, seconds: int, trace: bool, size: str,
            work: Path) -> tuple[list[str], dict] | None:
    """Report lines and the result object of one workload, or None if nothing ran."""
    work.mkdir(parents=True)
    if trace:
        result, error = spawn("trace", workload, seed, size, work, 0)
        if result is None:
            print(error, file=sys.stderr)
            return None
        lines, metrics = report_traced(workload, seed, result)
        problems = result["problems"]
    else:
        run = measure(workload, seed, seconds, size, work)
        result, problems = run["result"], run["problems"]
        if result is None or not result["iterations"]:
            print("\n".join(problems), file=sys.stderr)
            return None
        lines, metrics = report_untraced(workload, seed, run, size)
    lines += [f"problem: {p}" for p in problems]
    return lines, {"correct": result["failed"] == 0, "attempted": result["attempted"],
                   "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                        help='"all" runs each workload in turn')
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tailcens" / "cli.py").is_file():
        print(f"error: no tailcens source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    base = ROOT / ".bench_work"
    for name in names:
        work = base / f"{name}-{args.seed}-{os.getpid()}"
        try:
            outcome = run_one(name, args.seed, args.seconds, bool(args.trace), args.size, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):  # other runs may still use it
                base.rmdir()
        if outcome is None:
            return 1
        lines, result = outcome
        print("\n".join(lines), flush=True)
        if len(names) == 1:
            combined = result
        else:
            print(json.dumps(result), flush=True)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
