"""Write the golden outputs of the default seed at full size into bench/golden/seed0.

    python3 bench/make_golden.py

Run it only when a change to the program's output is intended, and say so
in the change: the benchmark's output checks compare against these files.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import checks
import workloads
import worker
from workloads import DEFAULT_SEED, SIZES, Paths


def main() -> int:
    size = SIZES["full"]
    golden = checks.GOLDEN_DIR
    golden.mkdir(parents=True, exist_ok=True)
    scratch = worker.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in workloads.WORKLOADS:
            paths = Paths(Path(tmp) / workload)
            cli, _ = worker.setup(workload, paths, DEFAULT_SEED, size)
            for cmd in workloads.commands(workload, paths, DEFAULT_SEED, size):
                problems, _, _ = worker.run_command(cli, cmd)
                if problems:
                    print(f"{cmd.label}: {problems}", file=sys.stderr)
                    return 1
            if workload == "sweep-eps40":
                shutil.copy(paths.sweep_out / "sweep.csv", golden / "sweep.csv")
            elif workload == "dataset-1m":
                (golden / "synth.sha256").write_text(
                    f"{checks.sha256(paths.synth)}  synth.csv\n")
                shutil.copy(paths.estimate, golden / "estimate.csv")
            else:
                lines = [paths.constants(i).read_text().splitlines()
                         for i in range(len(workloads.CONSTANTS_GRID))]
                (golden / "constants.csv").write_text(
                    "\n".join([lines[0][0]] + [rows[1] for rows in lines]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
