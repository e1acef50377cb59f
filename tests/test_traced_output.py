"""The traced benchmark run prints strict JSON with a finite value for every layer metric.

A per-layer metric whose probed function is no longer called is the
median of no spans, NaN, which ``json.dumps`` prints as a bare ``NaN``:
not JSON, so a reader of the benchmark output rejects the whole run.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _reject_constant(name: str):
    raise ValueError(f"non-JSON constant {name} in the traced output")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_strict_json_with_finite_metrics(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--trace", "1",
         "--size", "smoke", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last, parse_constant=_reject_constant)
    assert result["correct"] and result["failed"] == 0, result
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert values, result
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values()), values
