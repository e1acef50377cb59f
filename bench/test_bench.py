"""Tests of the benchmark itself: smoke runs, self-time arithmetic, output checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == \
        bench_run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == \
        {name: meta[:2] for name, meta in bench_run.PER_LAYER.items()}


def test_runner_refuses_a_directory_without_the_source(tmp_path):
    copy = tmp_path / "checkout"
    shutil.copytree(HERE, copy / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-eps40",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=copy, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        Span("cli.main", -1, 0.0, 10.0),
        Span("estimators.a", 0, 1.0, 3.0),
        Span("estimators.b", 0, 2.0, 5.0),   # overlaps a: the union counts once
        Span("empirical.c", 0, 9.0, 12.0),   # clipped to the parent's end
        Span("empirical.d", 1, 1.5, 2.5),    # grandchild: only its parent loses it
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])
    assert tracing.self_time_by(spans) == pytest.approx(
        {"cli": 5.0, "estimators": 4.0, "empirical": 4.0})


def test_self_time_of_a_slice_maps_parents_through_the_offset():
    spans = [Span("cli.main", -1, 0.0, 1.0),
             Span("cli.cmd_sweep", -1, 2.0, 6.0), Span("simulation.run_sweep", 1, 3.0, 5.0)]
    assert tracing.self_times(spans[1:], offset=1) == pytest.approx([2.0, 2.0])


def test_covered_length_ignores_empty_intervals():
    assert tracing.covered_length([]) == 0.0
    assert tracing.covered_length([(3.0, 3.0), (4.0, 2.0)]) == 0.0
    assert tracing.covered_length([(0.0, 1.0), (1.0, 2.0), (5.0, 6.0)]) == pytest.approx(3.0)


def test_tracer_records_nested_library_calls_and_restores_them():
    import numpy as np
    from tailcens import estimators, ordered_from_arrays
    from tailcens.sample_model import TailConfig

    original = estimators.mdpd_estimate
    sample = ordered_from_arrays((1 - np.random.default_rng(0).random(500)) ** -0.5,
                                 np.ones(500, dtype=int))
    tracer = tracing.Tracer()
    with tracer:
        estimators.mdpd_estimate(sample, TailConfig(k=50, alpha=0.5))
    assert estimators.mdpd_estimate is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "estimators.mdpd_estimate"
    assert {"empirical.mdpd_weights", "sample_model.top_log_excesses",
            "estimators.mns_estimator", "estimators.brentq"} <= set(names)
    assert all(s.parent == 0 for s in tracer.spans if s.name == "estimators.brentq")
    assert all(s.tag > 0 for s in tracer.spans if s.name == "estimators.brentq")
    # self times of a tree add up to the root's duration
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(tracer.spans[0].duration)


@pytest.fixture
def golden_copy(tmp_path):
    return Path(shutil.copytree(checks.GOLDEN_DIR, tmp_path / "golden"))


def perturb(path: Path, column: str, factor: float) -> None:
    rows = checks.read_rows(path, (column,))
    rows[-1][column] = repr(float(rows[-1][column]) * factor)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(rows[0]) + "\n")
        fh.writelines(",".join(r.values()) + "\n" for r in rows)


def test_sweep_check_rejects_a_perturbed_golden_and_accepts_new_columns(tmp_path,
                                                                         golden_copy):
    out = tmp_path / "out"
    out.mkdir()
    lines = (checks.GOLDEN_DIR / "sweep.csv").read_text().splitlines()
    # a later output may add columns; they must not break the check
    (out / "sweep.csv").write_text("\n".join(
        [lines[0] + ",reason"] + [line + ",none" for line in lines[1:]]) + "\n")
    size = workloads.SIZES["full"]
    assert checks.check_sweep(out, size.sweep_replicates, workloads.SWEEP_CELLS,
                              checks.GOLDEN_DIR) == []
    perturb(golden_copy / "sweep.csv", "mse", 1 + 1e-12)
    assert checks.check_sweep(out, size.sweep_replicates, workloads.SWEEP_CELLS,
                              golden_copy) != []


def test_estimate_comparison_tolerance(golden_copy):
    columns = checks.ESTIMATE_KEY + ("gamma1_hat", "residual")
    golden = checks.read_rows(checks.GOLDEN_DIR / "estimate.csv", columns)
    assert checks.compare_estimate(golden, golden) == []
    perturb(golden_copy / "estimate.csv", "gamma1_hat", 1 + 1e-13)
    assert checks.compare_estimate(
        golden, checks.read_rows(golden_copy / "estimate.csv", columns)) == []
    perturb(golden_copy / "estimate.csv", "gamma1_hat", 1 + 1e-10)
    assert checks.compare_estimate(
        golden, checks.read_rows(golden_copy / "estimate.csv", columns)) != []


def test_constants_check_rejects_a_perturbed_golden(tmp_path, golden_copy):
    lines = (checks.GOLDEN_DIR / "constants.csv").read_text().splitlines()
    out = tmp_path / "row.csv"
    out.write_text(lines[0] + "\n" + lines[3] + "\n")
    point = workloads.CONSTANTS_GRID[2]
    assert checks.check_constants(out, 2, point, checks.GOLDEN_DIR) == []
    perturb(golden_copy / "constants.csv", "sigma2", 1 + 1e-7)
    assert checks.check_constants(out, 2, point, golden_copy) != []


def test_constants_check_rejects_a_monte_carlo_value_far_from_the_quadrature(tmp_path):
    header, row = (checks.GOLDEN_DIR / "constants.csv").read_text().splitlines()[:2]
    values = dict(zip(header.split(","), row.split(",")))
    values["sigma2_mc"] = repr(float(values["sigma2"]) + 5 * float(values["mc_stderr"]))
    out = tmp_path / "row.csv"
    out.write_text(header + "\n" + ",".join(values.values()) + "\n")
    assert checks.check_constants(out, 0, workloads.CONSTANTS_GRID[0], None) != []


def test_synth_check_needs_byte_identical_output(tmp_path):
    data = tmp_path / "synth.csv"
    data.write_text("time,status\n1.5,1\n2.25,0\n")
    golden = tmp_path / "golden"
    golden.mkdir()
    (golden / "synth.sha256").write_text(checks.sha256(data) + "  synth.csv\n")
    assert checks.check_synth(data, 2, golden) == []
    data.write_text("time,status\n1.5,1\n2.25,1\n")
    assert checks.check_synth(data, 2, golden) != []
