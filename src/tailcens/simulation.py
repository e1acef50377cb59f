"""Data-generating processes and the Monte Carlo bias/MSE sweep engine.

Clean lifetimes are Burr(gamma1, eta); censoring times are
Frechet(gamma2) with gamma2 chosen from the target uncensored proportion
p via gamma2 = p*gamma1/(1-p).  An epsilon-contaminated sample records,
with probability eps, a gross observation drawn from Burr(theta1, eta)
in place of the censored pair: contaminants are corrupted recorded
values, so they carry delta = 1 and are not subject to the censoring
mechanism (at eps = 1 the sample is exactly Burr(theta1, eta)).  Only
Z = min(X, C) and delta = 1{X <= C} are handed to the estimators.

Reproducibility: every replicate draws from its own Philox substream
spawned deterministically from (seed, replicate_index), so results are
byte-identical regardless of execution order or worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .estimators import EstimationError, MdpdWindow
from .sample_model import CensoredObservation, ModelParams, ordered_from_arrays

# Contiguous replicate ranges handed to each worker process: more than one
# per worker, so a worker that finishes early picks up another range.
CHUNKS_PER_WORKER = 4


def burr_quantile(u, gamma1: float, eta: float):
    """Inverse of the Burr cdf F(x) = 1 - (1 + x^(1/eta))^(-eta/gamma1)."""
    u = np.asarray(u, dtype=float)
    if np.any((u < 0) | (u >= 1)):
        raise ValueError("u must lie in [0, 1)")
    out = ((1.0 - u) ** (-gamma1 / eta) - 1.0) ** eta
    return float(out) if out.ndim == 0 else out


def frechet_quantile(u, gamma2: float):
    """Inverse of the Frechet cdf G(x) = exp(-x^(-1/gamma2))."""
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0) | (u >= 1)):
        raise ValueError("u must lie in (0, 1)")
    # for u close to 1 the quantile exceeds the float range; its limit is +inf
    with np.errstate(over="ignore"):
        out = (-np.log(u)) ** (-gamma2)
    return float(out) if out.ndim == 0 else out


def gamma2_from_p(gamma1: float, p: float) -> float:
    """Censoring tail index giving limiting uncensored proportion p."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p={p} must lie in (0, 1)")
    return p * gamma1 / (1.0 - p)


@dataclass(frozen=True)
class ContaminationSpec:
    """Mixture contamination: fraction epsilon drawn from Burr(theta1, eta)."""

    epsilon: float = 0.0
    theta1: float = 1.0
    eta: float = 0.25

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon={self.epsilon} must lie in [0, 1)")
        if self.theta1 <= 0 or self.eta <= 0:
            raise ValueError("theta1 and eta must be positive")


def _replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))
    return np.random.Generator(np.random.Philox(ss))


def _draw_arrays(n: int, model: ModelParams, contamination: ContaminationSpec,
                 rng: np.random.Generator):
    """Latent draws (x, c) and observed (z, delta) as arrays."""
    u_mix = rng.random(n)
    u_x = rng.random(n)
    u_c = rng.random(n)
    contaminated = u_mix < contamination.epsilon
    x = np.where(
        contaminated,
        burr_quantile(u_x, contamination.theta1, contamination.eta),
        burr_quantile(u_x, model.gamma1, model.eta))
    # u_c = 0 has probability 0 but would hit the Frechet log; nudge off it
    c = frechet_quantile(np.maximum(u_c, np.finfo(float).tiny), model.gamma2)
    # contaminants are corrupted recorded values: always observed, never
    # censored (this, not censoring the contaminant draw, reproduces the
    # robustness orderings the sweep is meant to exhibit)
    c = np.where(contaminated, np.inf, c)
    z = np.minimum(x, c)
    delta = (x <= c).astype(np.int8)
    return x, c, z, delta


def sample_contaminated_censored(n: int, model: ModelParams,
                                 contamination: ContaminationSpec,
                                 seed: int, replicate: int = 0,
                                 return_latent: bool = False):
    """Draw n censored observations from the contaminated model.

    Deterministic for fixed (seed, replicate).  With ``return_latent`` the
    underlying lifetime and censoring draws are also returned (test
    instrumentation for the delta = 1{X <= C} identity).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _replicate_rng(seed, replicate)
    x, c, z, delta = _draw_arrays(n, model, contamination, rng)
    observations = [CensoredObservation(float(zi), int(di)) for zi, di in zip(z, delta)]
    if return_latent:
        return observations, x, c
    return observations


@dataclass(frozen=True)
class SweepSpec:
    """Monte Carlo experiment grid over (k, alpha) cells."""

    n: int
    replicates: int
    model: ModelParams
    contamination: ContaminationSpec
    alphas: tuple[float, ...]
    k_grid: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        if self.n < 10:
            raise ValueError("n must be >= 10")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if any(k >= self.n or k < 1 for k in self.k_grid):
            raise ValueError("every k must satisfy 1 <= k < n")
        if any(a < 0 for a in self.alphas):
            raise ValueError("alphas must be nonnegative")


@dataclass(frozen=True)
class SweepResult:
    """Per-(k, alpha) absolute bias and MSE with failure counts."""

    rows: tuple[tuple, ...]  # (k, alpha, abs_bias, mse, n_failures)
    spec: SweepSpec = field(repr=False, default=None)
    workers: int = 1  # worker processes actually used


def _replicate_estimates(spec: SweepSpec, replicate: int) -> np.ndarray:
    """gamma1_hat for every (k, alpha) cell of one replicate; NaN on failure."""
    rng = _replicate_rng(spec.seed, replicate)
    _, _, z, delta = _draw_arrays(spec.n, spec.model, spec.contamination, rng)
    sample = ordered_from_arrays(z, delta)
    out = np.full((len(spec.k_grid), len(spec.alphas)), np.nan)
    for ki, k in enumerate(spec.k_grid):
        window = MdpdWindow(sample, k)
        for ai, alpha in enumerate(spec.alphas):
            try:
                out[ki, ai] = window.estimate(alpha).gamma1_hat
            except EstimationError:
                pass
    return out


def _replicate_range(spec: SweepSpec, start: int, stop: int) -> np.ndarray:
    """Stacked estimates of replicates start..stop-1, shape (stop-start, k, alpha)."""
    return np.stack([_replicate_estimates(spec, r) for r in range(start, stop)])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(spec: SweepSpec, n_jobs: int = 1) -> SweepResult:
    """Bias/MSE table over the (k, alpha) grid.

    Failures (no root) are excluded from the moments and counted; a cell
    where every replicate failed is reported with NaN metrics.  Replicates
    run in min(n_jobs, usable CPUs, replicates) worker processes, each on
    contiguous replicate ranges; the ranges are concatenated in replicate
    order, so the result does not depend on n_jobs or scheduling.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs={n_jobs} must be >= 1")
    workers = min(n_jobs, _usable_cpus(), spec.replicates)
    if workers == 1:
        stacked = _replicate_range(spec, 0, spec.replicates)
    else:
        # imported here, so that only a pooled sweep pays for the import
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        chunks = min(workers * CHUNKS_PER_WORKER, spec.replicates)
        bounds = [spec.replicates * i // chunks for i in range(chunks + 1)]
        # fork: workers inherit the imported numpy and scipy; a fresh
        # interpreter per worker would spend over a second importing them
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            stacked = np.concatenate(list(pool.map(
                _replicate_range, [spec] * chunks, bounds[:-1], bounds[1:])))

    rows = []
    with np.errstate(invalid="ignore"):
        for ki, k in enumerate(spec.k_grid):
            for ai, alpha in enumerate(spec.alphas):
                values = stacked[:, ki, ai]
                ok = values[~np.isnan(values)]
                failures = int(values.size - ok.size)
                if ok.size == 0:
                    rows.append((k, alpha, float("nan"), float("nan"), failures))
                    continue
                errors = ok - spec.model.gamma1
                abs_bias = float(abs(np.mean(errors)))
                mse = float(np.mean(errors ** 2))
                rows.append((k, alpha, abs_bias, mse, failures))
    return SweepResult(rows=tuple(rows), spec=spec, workers=workers)
