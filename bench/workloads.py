"""Workload definitions: the CLI commands each workload runs, made from a seed.

Each workload is a fixed list of ``tailcens`` commands.  The seed reaches the
program only through the generated inputs (the sweep config's ``seed`` key,
``synth --seed`` and ``constants --seed``), so the same seed gives the same
inputs and, on the same code, the same outputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sweep-eps40", "dataset-1m", "constants-grid")
DEFAULT_SEED = 0

# (alpha, gamma1, p) rows of the constants-grid workload
CONSTANTS_GRID = ((0.5, 0.3, 0.7), (1.0, 0.5, 0.8), (0.3, 0.2, 0.75))
ESTIMATE_K = (500, 5000, 500)  # k-min, k-max, k-step of dataset-1m's estimate
ESTIMATE_ALPHAS = (0.0, 0.5)
SWEEP_CELLS = 24  # 6 values of k times 4 values of alpha, see SWEEP_CONFIG

# the sweep config of the README
SWEEP_CONFIG = """\
n = {n}
gamma1 = 0.3
p = 0.55
epsilon = 0.40
theta1 = 0.6
alphas = 0,0.1,0.5,1
k_min = 50
k_max = 300
k_step = 50
replicates = {replicates}
seed = {seed}
"""


@dataclass(frozen=True)
class Size:
    """Problem sizes and sample counts; "full" is the benchmark, "smoke" the tests."""

    sweep_n: int
    sweep_replicates: int
    dataset_n: int
    constants_replicates: int
    min_iterations: int
    min_setup_samples: int


SIZES = {
    "full": Size(sweep_n=1000, sweep_replicates=200, dataset_n=1_000_000,
                 constants_replicates=4000, min_iterations=3, min_setup_samples=5),
    "smoke": Size(sweep_n=400, sweep_replicates=3, dataset_n=20_000,
                  constants_replicates=1000, min_iterations=1, min_setup_samples=1),
}


def sweep_workers() -> int:
    """Worker count the sweep is asked for: 2, or fewer on a smaller machine."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass(frozen=True)
class Command:
    """One ``tailcens`` invocation; ``stdout`` names the file its output goes to."""

    label: str
    argv: tuple[str, ...]
    stdout: Path | None = None


@dataclass(frozen=True)
class Paths:
    """Where a workload's inputs and outputs live inside its work directory."""

    root: Path

    @property
    def sweep_config(self) -> Path:
        return self.root / "sweep.cfg"

    @property
    def sweep_out(self) -> Path:
        return self.root / "sweep"

    @property
    def synth(self) -> Path:
        return self.root / "synth.csv"

    @property
    def contaminated(self) -> Path:
        return self.root / "contaminated.csv"

    @property
    def estimate(self) -> Path:
        return self.root / "estimate.csv"

    def constants(self, row: int) -> Path:
        return self.root / f"constants{row}.csv"


def write_inputs(workload: str, paths: Paths, seed: int, size: Size) -> None:
    """Write the files a workload reads before its first command."""
    paths.root.mkdir(parents=True, exist_ok=True)
    if workload == "sweep-eps40":
        paths.sweep_config.write_text(SWEEP_CONFIG.format(
            n=size.sweep_n, replicates=size.sweep_replicates, seed=seed))


def commands(workload: str, paths: Paths, seed: int, size: Size) -> list[Command]:
    """The commands of one iteration of a workload, in order."""
    if workload == "sweep-eps40":
        return [Command("sweep", ("sweep", str(paths.sweep_config), "--output-dir",
                                  str(paths.sweep_out), "--threads", str(sweep_workers())))]
    if workload == "dataset-1m":
        k_min, k_max, k_step = ESTIMATE_K
        alphas = [arg for a in ESTIMATE_ALPHAS for arg in ("--alpha", repr(a))]
        return [
            Command("synth", ("synth", "--n", str(size.dataset_n), "--gamma1", "0.3",
                              "--p", "0.7", "--seed", str(seed),
                              "--output", str(paths.synth))),
            Command("contaminate", ("contaminate", str(paths.synth),
                                    "--output", str(paths.contaminated))),
            Command("estimate", ("estimate", str(paths.contaminated), "--k-min", str(k_min),
                                 "--k-max", str(k_max), "--k-step", str(k_step),
                                 *alphas, "--with-competitors"), stdout=paths.estimate),
        ]
    if workload == "constants-grid":
        return [Command(f"constants[{i}]", ("constants", "--alpha", repr(a), "--gamma1", repr(g),
                                      "--p", repr(p), "--seed", str(seed),
                                      "--replicates", str(size.constants_replicates)),
                        stdout=paths.constants(i))
                for i, (a, g, p) in enumerate(CONSTANTS_GRID)]
    raise ValueError(f"unknown workload {workload!r}")
