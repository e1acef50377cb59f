"""Data-generating processes and the Monte Carlo bias/MSE sweep engine.

Clean lifetimes are Burr(gamma1, eta); censoring times are
Frechet(gamma2) with gamma2 chosen from the target uncensored proportion
p via gamma2 = p*gamma1/(1-p).  An epsilon-contaminated sample records,
with probability eps, a gross observation drawn from Burr(theta1, eta),
the same eta, in place of the censored pair: contaminants are corrupted
recorded values, so they carry delta = 1 and are not subject to the
censoring mechanism (at eps = 1 the sample is exactly Burr(theta1, eta)).
Only Z = min(X, C) and delta = 1{X <= C} are handed to the estimators.

Reproducibility: every replicate draws from its own Philox substream
spawned deterministically from (seed, replicate_index), so results are
byte-identical regardless of execution order or worker count.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .estimators import EstimationError, MdpdWindow
from .sample_model import InvalidSampleError, ModelParams, ordered_from_arrays

# Contiguous replicate ranges handed to each worker process: more than one
# per worker, so a worker that finishes early picks up another range.
CHUNKS_PER_WORKER = 4


def burr_quantile(u, gamma1: float, eta: float):
    """Inverse of the Burr cdf F(x) = 1 - (1 + x^(1/eta))^(-eta/gamma1)."""
    u = np.asarray(u, dtype=float)
    if np.any((u < 0) | (u >= 1)):
        raise ValueError("u must lie in [0, 1)")
    # in place, so that one array the size of u is allocated
    out = 1.0 - u
    with np.errstate(over="ignore"):
        out **= -gamma1 / eta
        out -= 1.0
        out **= eta
    out = np.asarray(out)
    # (1 - u)^(-gamma1/eta) can exceed the float range while the quantile
    # itself does not; there x = exp(eta * (a + log(1 - e^-a))) with
    # a = -(gamma1/eta) log(1 - u) stays finite
    overflow = ~np.isfinite(out)
    if np.any(overflow):
        a = -(gamma1 / eta) * np.log1p(-u[overflow])
        with np.errstate(over="ignore"):
            out[overflow] = np.exp(eta * (a + np.log(-np.expm1(-a))))
    return float(out) if out.ndim == 0 else out


def frechet_quantile(u, gamma2: float):
    """Inverse of the Frechet cdf G(x) = exp(-x^(-1/gamma2))."""
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0) | (u >= 1)):
        raise ValueError("u must lie in (0, 1)")
    # for u close to 1 the quantile exceeds the float range; its limit is +inf
    out = -np.log(u)
    with np.errstate(over="ignore"):
        out **= -gamma2  # in place, as in burr_quantile
    return float(out) if out.ndim == 0 else out


def gamma2_from_p(gamma1: float, p: float) -> float:
    """Censoring tail index giving limiting uncensored proportion p."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p={p} must lie in (0, 1)")
    return p * gamma1 / (1.0 - p)


@dataclass(frozen=True)
class ContaminationSpec:
    """Mixture contamination: fraction epsilon drawn from Burr(theta1, ModelParams.eta)."""

    epsilon: float = 0.0
    theta1: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon={self.epsilon} must lie in [0, 1)")
        if self.theta1 <= 0:
            raise ValueError("theta1 must be positive")


def _replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))
    return np.random.Generator(np.random.Philox(ss))


def _draw_arrays(n: int, model: ModelParams, contamination: ContaminationSpec,
                 rng: np.random.Generator):
    """Latent draws (x, c) and observed (z, delta) as arrays.

    The uniforms come from the stream in the order u_mix, u_x, u_c, each
    n long; each is dropped once used, and the contaminant quantile is
    evaluated on the contaminated rows only, so no full-length array is
    kept that the result does not need.  Raises InvalidSampleError where a
    censoring time underflows to 0, which only a p close to 1 gives.
    """
    contaminated = rng.random(n) < contamination.epsilon
    u_x = rng.random(n)
    x = burr_quantile(u_x, model.gamma1, model.eta)
    x[contaminated] = burr_quantile(u_x[contaminated], contamination.theta1, model.eta)
    del u_x
    u_c = rng.random(n)
    # u_c = 0 has probability 0 but would hit the Frechet log; nudge off it
    c = frechet_quantile(np.maximum(u_c, np.finfo(float).tiny, out=u_c), model.gamma2)
    del u_c
    # contaminants are corrupted recorded values: always observed, never
    # censored (this, not censoring the contaminant draw, reproduces the
    # robustness orderings the sweep is meant to exhibit)
    c[contaminated] = np.inf
    if c.min() == 0.0:
        raise InvalidSampleError(f"a censoring time underflows to 0 at p={model.p:.12g} "
                                 f"(gamma2={model.gamma2:.12g}); choose a smaller p")
    z = np.minimum(x, c)
    delta = (x <= c).astype(np.int8)
    return x, c, z, delta


def sample_contaminated_censored(n: int, model: ModelParams,
                                 contamination: ContaminationSpec,
                                 seed: int, replicate: int = 0):
    """Draw n censored observations from the contaminated model.

    Returns the pair (z, delta) of float64 times and int8 indicators in
    draw order; ``order_sample`` turns it into an OrderedSample.
    Deterministic for fixed (seed, replicate).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _, _, z, delta = _draw_arrays(n, model, contamination, _replicate_rng(seed, replicate))
    return z, delta


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
    workers: int = 1  # worker processes actually used


def _replicate_estimates(spec: SweepSpec, replicate: int) -> np.ndarray:
    """gamma1_hat for every (k, alpha) cell of one replicate; NaN on failure.

    Each cell is ``MdpdWindow.gamma1_hat``: the local root scan around the
    MNS reference, with the full scan as its fallback, so every value is
    bit-identical to ``MdpdWindow.estimate(alpha).gamma1_hat``.
    """
    rng = _replicate_rng(spec.seed, replicate)
    _, _, z, delta = _draw_arrays(spec.n, spec.model, spec.contamination, rng)
    sample = ordered_from_arrays(z, delta)
    out = np.full((len(spec.k_grid), len(spec.alphas)), np.nan)
    for ki, k in enumerate(spec.k_grid):
        window = MdpdWindow(sample, k)
        for ai, alpha in enumerate(spec.alphas):
            try:
                out[ki, ai] = window.gamma1_hat(alpha)
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


@contextmanager
def _process_pool(workers: int):
    """A ``ProcessPoolExecutor`` of ``workers`` processes, joined on exit.

    The workers are forked where the platform can fork, and started by its
    default method otherwise.  Yields None, for the caller to run its work
    inline, where one worker is asked for or where this process is a daemon
    (which may not start children).
    """
    if workers > 1:
        # imported here, so that only pooled work pays for the import
        import multiprocessing

        if not multiprocessing.current_process().daemon:
            from concurrent.futures import ProcessPoolExecutor

            can_fork = "fork" in multiprocessing.get_all_start_methods()
            # fork: workers inherit the imported modules; a fresh interpreter
            # per worker would spend ~0.25 s importing numpy and tailcens again
            context = multiprocessing.get_context("fork" if can_fork else None)
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                yield pool
            return
    yield None


def run_sweep(spec: SweepSpec, n_jobs: int = 1) -> SweepResult:
    """Bias/MSE table over the (k, alpha) grid.

    Failures (no root) are excluded from the moments and counted; a cell
    where every replicate failed is reported with NaN metrics.  Replicates
    run in min(n_jobs, usable CPUs, replicates) worker processes, or in
    this process where it is a daemon, each on contiguous replicate
    ranges; the ranges are concatenated in replicate order, so the result
    does not depend on n_jobs or scheduling.  Each
    cell is solved as in :func:`_replicate_estimates`: a local root scan
    that falls back to the full scan and gives the full scan's root.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs={n_jobs} must be >= 1")
    workers = min(n_jobs, _usable_cpus(), spec.replicates)
    with _process_pool(workers) as pool:
        if pool is None:
            workers = 1
            stacked = _replicate_range(spec, 0, spec.replicates)
        else:
            chunks = min(workers * CHUNKS_PER_WORKER, spec.replicates)
            bounds = [spec.replicates * i // chunks for i in range(chunks + 1)]
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
    return SweepResult(rows=tuple(rows), workers=workers)
