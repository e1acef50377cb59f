"""Output checks of the benchmark's workloads.

Every check returns a list of problems (empty when the output is right).
Columns are always looked up by name, so outputs that gain columns still
pass.  Golden outputs apply to the default seed at full size only; the
other checks hold for any seed.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "seed0"

SWEEP_EXACT = ("k", "alpha", "abs_bias", "mse", "n_failures")
ESTIMATE_KEY = ("k", "alpha", "method")
ESTIMATE_REL = 1e-12
RESIDUAL_ABS = 1e-12  # residuals are solver noise near 0, so compared absolutely
CONSTANTS_COMPARED = ("eta_star", "mu", "sigma2")
CONSTANTS_REL = 1e-8
MC_STDERRS = 4.0


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_rows(path: Path, required: tuple[str, ...]) -> list[dict[str, str]]:
    """CSV rows as dicts; raises ValueError if a required column is missing."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in required if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path.name}: missing columns {missing}")
        return list(reader)


def _close(a: str, b: str, rel: float, abs_tol: float = 0.0) -> bool:
    if a == b:
        return True
    try:
        return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)
    except ValueError:
        return False


def check_sweep(out_dir: Path, replicates: int, cells: int,
                golden: Path | None) -> list[str]:
    path = out_dir / "sweep.csv"
    try:
        rows = read_rows(path, SWEEP_EXACT)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    problems = []
    if len(rows) != cells:
        problems.append(f"{len(rows)} rows, expected {cells}")
    for row in rows:
        failures = int(row["n_failures"])
        if not 0 <= failures <= replicates:
            problems.append(f"n_failures {failures} outside [0, {replicates}]")
        elif failures < replicates and not all(
                math.isfinite(float(row[c])) and float(row[c]) >= 0
                for c in ("abs_bias", "mse")):
            problems.append(f"bad moments at k={row['k']} alpha={row['alpha']}")
    if golden is not None:
        expected = read_rows(golden / "sweep.csv", SWEEP_EXACT)
        got = [tuple(r[c] for c in SWEEP_EXACT) for r in rows]
        want = [tuple(r[c] for c in SWEEP_EXACT) for r in expected]
        if got != want:
            problems.append("differs from the golden sweep.csv in "
                            + ",".join(SWEEP_EXACT))
    return problems


def load_dataset(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1].astype(np.int8)


def check_synth(path: Path, n: int, golden: Path | None) -> list[str]:
    problems = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        rows = sum(1 for _ in fh)
    if header != "time,status" or rows != n:
        problems.append(f"header {header!r} and {rows} rows, expected n={n}")
    if golden is not None:
        want = (golden / "synth.sha256").read_text().split()[0]
        if sha256(path) != want:
            problems.append("output is not byte-identical to the golden output")
    return problems


def check_contaminate(synth_path: Path, out_path: Path,
                      table: tuple[tuple[float, float], ...]) -> list[str]:
    """The m largest uncensored times, and only they, become the table's values."""
    times, status = load_dataset(synth_path)
    new_times, new_status = load_dataset(out_path)
    if new_times.shape != times.shape or not np.array_equal(status, new_status):
        return ["row count or status column changed"]
    m = len(table)
    uncensored = np.flatnonzero(status == 1)
    targets = uncensored[np.argsort(-times[uncensored], kind="stable")[:m]]
    changed = np.flatnonzero(new_times != times)
    replacements = sorted((r for _, r in table), reverse=True)
    if set(changed) != set(targets) or not np.allclose(
            new_times[targets], replacements, rtol=1e-11, atol=0):
        return [f"expected the {m} largest uncensored times "
                "replaced by the table values"]
    return []


def check_estimate(path: Path, dataset: Path, n_ks: int, n_alphas: int,
                   golden: Path | None) -> list[str]:
    """Row count, alpha = 0 rows against the library's MNS, and the golden rows."""
    from tailcens.estimators import mns_estimator
    from tailcens.sample_model import ordered_from_arrays

    columns = ESTIMATE_KEY + ("gamma1_hat", "residual")
    try:
        rows = read_rows(path, columns)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    problems = []
    if len(rows) != n_ks * (3 + n_alphas):
        problems.append(f"{len(rows)} rows, expected {n_ks * (3 + n_alphas)}")
    sample = ordered_from_arrays(*load_dataset(dataset))
    for row in rows:
        if row["alpha"] and float(row["alpha"]) == 0.0:
            want = f"{mns_estimator(sample, int(row['k'])):.12g}"
            if row["gamma1_hat"] != want:
                problems.append(f"alpha=0 at k={row['k']} is {row['gamma1_hat']}, "
                                f"mns_estimator gives {want}")
    if golden is not None:
        problems += compare_estimate(rows, read_rows(golden / "estimate.csv", columns))
    return problems


def compare_estimate(rows: list[dict[str, str]], expected: list[dict[str, str]]) -> list[str]:
    """Rows keyed by (k, alpha, method); estimates within 1e-12 relative."""
    got = {tuple(r[c] for c in ESTIMATE_KEY): r for r in rows}
    want = {tuple(r[c] for c in ESTIMATE_KEY): r for r in expected}
    problems = []
    if got.keys() != want.keys():
        problems.append("rows differ from the golden (k, alpha, method) set")
    for key in sorted(got.keys() & want.keys()):
        a, b = got[key], want[key]
        if not (_close(a["gamma1_hat"], b["gamma1_hat"], ESTIMATE_REL)
                and _close(a["residual"], b["residual"], 0.0, RESIDUAL_ABS)):
            problems.append(f"row {key} differs from the golden row")
    return problems


def check_constants(path: Path, index: int, point: tuple[float, float, float],
                    golden: Path | None) -> list[str]:
    """One row for the grid point; MC within 4 stderr of the quadrature; golden values."""
    columns = ("alpha", "gamma1", "p") + CONSTANTS_COMPARED + ("sigma2_mc", "mc_stderr")
    try:
        rows = read_rows(path, columns)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    row = rows[0]
    problems = []
    if tuple(float(row[c]) for c in ("alpha", "gamma1", "p")) != point:
        problems.append(f"row is not for grid point {point}")
    sigma2, mc, stderr = (float(row[c]) for c in ("sigma2", "sigma2_mc", "mc_stderr"))
    if not abs(mc - sigma2) <= MC_STDERRS * stderr:
        problems.append(f"|sigma2_mc - sigma2| = {abs(mc - sigma2):.3g} exceeds "
                        f"{MC_STDERRS:g} mc_stderr = {MC_STDERRS * stderr:.3g}")
    if golden is not None:
        expected = read_rows(golden / "constants.csv", columns)[index]
        if not all(_close(row[c], expected[c], CONSTANTS_REL) for c in CONSTANTS_COMPARED):
            problems.append(f"{','.join(CONSTANTS_COMPARED)} differ from the golden row")
    return problems
