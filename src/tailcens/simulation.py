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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import NARROW_ROWS, _SWEEP_OPTIONS, _check_alpha_domain, _solve_windows
from .sample_model import InvalidSampleError, ModelParams, _top_slice

# Bytes that the float64 arrays of one block of replicates, which are
# drawn and solved together, may take: per replicate, the narrow scans of
# its cells at alpha > 0 (NARROW_ROWS x largest k each; the wider scans of
# the cells that need them go in groups that take no more at once, see
# estimators._local_roots), its largest observations, three n-long draw
# arrays and the two arrays of each k's window.
BLOCK_BYTES = 3 << 20

# Columns of a draw whose quantiles and censoring are evaluated at once
# (:func:`_draw_arrays`); a draw of n <= _DRAW_CHUNK, as a sweep block of
# the README's configs, is one chunk.
_DRAW_CHUNK = 2**16


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
        if not 0 < self.theta1 < np.inf:
            raise ValueError("theta1 must be positive and finite")


def _replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))
    return np.random.Generator(np.random.Philox(ss))


def _uniforms(rngs: Sequence[np.random.Generator], n: int) -> np.ndarray:
    """An (R, n) array whose row r is the next n uniforms of rngs[r]."""
    out = np.empty((len(rngs), n))
    for row, rng in zip(out, rngs):
        rng.random(out=row)
    return out


def _draw_arrays(n: int, model: ModelParams, contamination: ContaminationSpec,
                 rngs: Sequence[np.random.Generator]):
    """Observed times z and indicators delta of R samples, as (R, n) arrays.

    Row r comes from the stream rngs[r] alone: its uniforms are drawn in
    the order u_mix, u_x, u_c, each n long, so a row does not depend on the
    rows drawn with it.  Besides the contamination mask, delta and the
    buffer that holds u_x, then z, only one chunk of _DRAW_CHUNK columns is
    alive at a time: in each chunk x is evaluated (the contaminant quantile
    on the contaminated entries only), the censoring times are drawn, and
    both are folded into z and delta.  Both quantiles are elementwise, so
    the chunking does not change a bit.
    Raises InvalidSampleError where a censoring time underflows to 0, which
    only a p close to 1 gives, and where an observed time is 0 or inf, which
    an extreme gamma1, eta or theta1 gives.
    """
    contaminated = _uniforms(rngs, n) < contamination.epsilon
    z = _uniforms(rngs, n)
    delta = np.empty(z.shape, dtype=np.int8)
    for lo in range(0, n, _DRAW_CHUNK):
        x, bad = z[:, lo:lo + _DRAW_CHUNK], contaminated[:, lo:lo + _DRAW_CHUNK]
        quantiles = burr_quantile(x, model.gamma1, model.eta)
        quantiles[bad] = burr_quantile(x[bad], contamination.theta1, model.eta)
        x[...] = quantiles  # x overwrites u_x in z, and its temporary is freed before u_c is drawn
        del quantiles
        u_c = _uniforms(rngs, x.shape[1])
        # u_c = 0 has probability 0 but would hit the Frechet log; nudge off it
        c = frechet_quantile(np.maximum(u_c, np.finfo(float).tiny, out=u_c), model.gamma2)
        del u_c
        # contaminants are corrupted recorded values: always observed, never
        # censored (this, not censoring the contaminant draw, reproduces the
        # robustness orderings the sweep is meant to exhibit)
        c[bad] = np.inf
        if c.min() == 0.0:
            raise InvalidSampleError(f"a censoring time underflows to 0 at p={model.p:.12g} "
                                     f"(gamma2={model.gamma2:.12g}); choose a smaller p")
        delta[:, lo:lo + _DRAW_CHUNK] = x <= c
        np.minimum(x, c, out=x)
        if not (x.min() > 0 and x.max() < np.inf):  # written so that NaN fails it
            raise InvalidSampleError(
                f"a drawn time is not positive and finite at gamma1={model.gamma1:.12g}, "
                f"eta={model.eta:.12g}, theta1={contamination.theta1:.12g}; "
                "choose other model parameters")
    return z, delta


def sample_contaminated_censored(n: int, model: ModelParams,
                                 contamination: ContaminationSpec,
                                 seed: int, replicate: int = 0):
    """Draw n censored observations from the contaminated model.

    Returns the pair (z, delta) of float64 times and int8 indicators in
    draw order; ``order_sample`` turns it into an OrderedSample.
    Deterministic for fixed (seed, replicate), and equal to that replicate's
    row of the sweep's block draw.  The latent lifetimes and censoring times
    are not kept, so the draw peaks at about 12 bytes a row, 9 of them the
    result's (:func:`_draw_arrays`).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if replicate < 0:
        raise ValueError("replicate must be >= 0")
    z, delta = _draw_arrays(n, model, contamination, [_replicate_rng(seed, replicate)])
    return z[0], delta[0]


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.k_grid:
            raise ValueError("k_grid must not be empty")
        if not self.alphas:
            raise ValueError("alphas must not be empty")
        if any(k >= self.n or k < 1 for k in self.k_grid):
            raise ValueError("every k must satisfy 1 <= k < n")
        for alpha in self.alphas:
            _check_alpha_domain(alpha, _SWEEP_OPTIONS)


@dataclass(frozen=True)
class SweepResult:
    """Per-(k, alpha) absolute bias and MSE with failure counts."""

    rows: tuple[tuple, ...]  # (k, alpha, abs_bias, mse, n_failures)
    workers: int = 1  # processes that solved replicates, the caller included


def _block_estimates(spec: SweepSpec, replicates: Sequence[int]) -> np.ndarray:
    """gamma1_hat of every (replicate, k, alpha) cell of a block of replicates; NaN on failure.

    The block is drawn as one array, each replicate on its own stream
    (:func:`_draw_arrays`, which checks every time).  Each row's
    max(k_grid) + 1 largest observations are then taken in the order of
    ``np.argsort(z, kind="stable")``, the permutation of
    ``ordered_from_arrays`` (:func:`_top_slice`), and the draw is freed.
    Every cell is solved in one ``estimators._solve_windows``, so every
    value is bit-identical to ``MdpdWindow(sample, k).estimate(alpha)
    .gamma1_hat``.
    """
    z, delta = _draw_arrays(spec.n, spec.model, spec.contamination,
                            [_replicate_rng(spec.seed, r) for r in replicates])
    top = _top_slice(z, max(spec.k_grid) + 1)
    tops, deltas = np.take_along_axis(z, top, axis=1), np.take_along_axis(delta, top, axis=1)
    del z, delta, top
    return _solve_windows(tops, deltas, spec.k_grid, spec.alphas)


def _replicate_range(spec: SweepSpec, start: int, stop: int) -> np.ndarray:
    """Estimates of replicates start..stop-1, shape (stop-start, k, alpha); NaN on failure.

    The replicates are drawn and solved in consecutive blocks: as few as
    BLOCK_BYTES allows, each at most as many replicates as it holds (one at
    least), with sizes that differ by one at most.  So the memory of a
    range does not grow with its length; each process of a pooled sweep
    solves one such range.  A block's values do not depend on the
    replicates solved with it (see :func:`_block_estimates`).
    """
    cells = sum(a > 0 for a in spec.alphas)
    per_replicate = 8 * (max(spec.k_grid) * (NARROW_ROWS * cells + 1) + 3 * spec.n
                         + 2 * sum(spec.k_grid))
    blocks = -(-(stop - start) // max(1, BLOCK_BYTES // per_replicate))
    bounds = [start + (stop - start) * i // blocks for i in range(blocks + 1)]
    return np.concatenate([_block_estimates(spec, range(lo, hi))
                           for lo, hi in zip(bounds, bounds[1:])])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _send_range(conn, spec: SweepSpec, start: int, stop: int) -> None:
    """A sweep worker: send ``_replicate_range(spec, start, stop)`` over conn, or its exception."""
    try:
        result = _replicate_range(spec, start, stop)
    except Exception as exc:  # raised again by the caller
        result = exc
    conn.send(result)


def _replicate_ranges(spec: SweepSpec, bounds: Sequence[int]) -> np.ndarray:
    """Estimates of replicates bounds[0]..bounds[-1]-1, one range per process.

    This process solves the range bounds[0]..bounds[1]-1 itself, and one
    started process each later range, which it sends back over a one-way
    pipe; the ranges are concatenated in replicate order.  The processes
    are forked where the platform can fork, and spawned otherwise.
    ``numpy.random`` is imported before any is started, so that forked
    workers inherit it rather than each import it again.  An exception
    that a worker raises is raised here again, with its type and message; a
    worker that exits without sending its range raises RuntimeError.  If
    any range fails, the workers still running are terminated.  Every
    worker is joined before this returns.
    """
    import multiprocessing

    import numpy.random  # noqa: F401  (inherited by forked workers)

    # fork: workers inherit the imported modules; a fresh interpreter per
    # worker would spend ~0.25 s importing numpy and tailcens again
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn")
    workers = []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=_send_range, args=(sender, spec, start, stop))
            process.start()
            workers.append((process, receiver))
            sender.close()  # so that the receiver sees EOF once the worker exits
        ranges = [_replicate_range(spec, bounds[0], bounds[1])]
        for process, receiver in workers:
            try:
                result = receiver.recv()
            except EOFError:
                process.join()
                raise RuntimeError(f"a sweep worker exited with code {process.exitcode} "
                                   "before sending its replicates") from None
            if isinstance(result, Exception):
                raise result
            ranges.append(result)
    except BaseException:
        for process, _ in workers:
            process.terminate()
        raise
    finally:
        for process, receiver in workers:
            process.join()
            receiver.close()
    return np.concatenate(ranges)


def run_sweep(spec: SweepSpec, n_jobs: int = 1) -> SweepResult:
    """Bias/MSE table over the (k, alpha) grid.

    Failures (no root) are excluded from the moments and counted; a cell
    where every replicate failed is reported with NaN metrics.  Replicates
    run in min(n_jobs, usable CPUs, replicates) processes, this one
    included, or in this process alone where it is a daemon; each process
    solves one contiguous range of replicates, and the ranges are
    concatenated in replicate order (:func:`_replicate_ranges`), so the
    result does not depend on n_jobs or scheduling.  A range is solved in
    as few blocks of equal size as BLOCK_BYTES allows
    (:func:`_replicate_range`).  A block is drawn as one (z, delta) pair of
    arrays, without its latent lifetimes and censoring times
    (:func:`_draw_arrays`), and only each row's max(k) + 1 largest times
    are ordered (:func:`_top_slice`).  Every
    (k, alpha) cell of it is solved together: a local root scan of 6, then
    where needed 16, grid rows and one lockstep Brent pass over every k,
    then the whole grid and a second such pass for the cells still
    unproven.  The 6-row scan sizes the block; the wider scans ask for
    their cells in groups that take no more memory at once.  That gives
    every cell the full scan's root bit for bit, and does not depend on the
    block.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs={n_jobs} must be >= 1")
    workers = min(n_jobs, _usable_cpus(), spec.replicates)
    if workers > 1:
        # imported here, so that only pooled work pays for the import
        import multiprocessing

        if multiprocessing.current_process().daemon:  # a daemon may not start children
            workers = 1
    if workers == 1:
        stacked = _replicate_range(spec, 0, spec.replicates)
    else:
        stacked = _replicate_ranges(
            spec, [spec.replicates * i // workers for i in range(workers + 1)])

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
