"""Tail index estimators for randomly right-censored Pareto-type data.

Classical estimators (Hill, EFG, Worms, MNS) together with the robust
minimum density power divergence (MDPD) family.  The MDPD estimate for
tuning parameter alpha > 0 is the root of the estimating equation

    sum_i a_ik (g - L_i) r_i^{-alpha (1 + 1/g)}  =  alpha g (g+1) / (1 + alpha + alpha g)^2

with r_i the top relative excesses, L_i = log r_i, and a_ik the
Nelson-Aalen weight sequence.  At alpha = 0 the estimate is MNS, sum_i a_ik L_i,
not the alpha -> 0+ limit of the roots, sum_i a_ik L_i / sum_i a_ik.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .empirical import _stacked_weights, kaplan_meier_survival, mdpd_weights
from .sample_model import OrderedSample, TailConfig, _check_alpha, top_log_excesses

# grid rows that _local_roots scans around the MNS reference: first NARROW_ROWS,
# then LOCAL_ROWS where the narrow rows hold no root they could prove nearest
NARROW_ROWS = 6
LOCAL_ROWS = 16
# points of the scan grid over the search domain, and Brent iterations per bracket
GRID_POINTS = 200
MAX_ITER = 200
# Brent's controls for every bracket, so the sweep's roots are the full scan's
_BRENT = {"xtol": 1e-14, "rtol": 8.9e-16, "maxiter": MAX_ITER}
# above the largest log-excess of positive finite float64 times, log(max / min subnormal)
_MAX_LOG_EXCESS = 1455.0


class EstimationError(ValueError):
    """Raised when an estimator is undefined for the given window."""


class NoRootError(EstimationError):
    """Estimating equation has no root on the scanned domain.

    Carries the scanned gamma grid and residual values for diagnosis.
    """

    def __init__(self, message: str, grid: np.ndarray | None = None,
                 residuals: np.ndarray | None = None):
        super().__init__(message)
        self.grid = grid
        self.residuals = residuals


@dataclass(frozen=True)
class SolverOptions:
    """Root search controls for the MDPD estimating equation."""

    domain_lo: float = 1e-6
    domain_hi: float = 50.0
    tol_abs: float = 1e-10

    def __post_init__(self):
        if not (np.isfinite(self.tol_abs) and self.tol_abs > 0):
            raise ValueError(f"tol_abs={self.tol_abs} must be finite and > 0")
        if not (0 < self.domain_lo < np.inf and 0 < self.domain_hi < np.inf):
            raise ValueError(f"domain bounds ({self.domain_lo}, {self.domain_hi}) "
                             "must be positive and finite")
        if self.domain_lo == self.domain_hi:
            raise ValueError(f"domain bounds must differ, got {self.domain_lo} twice")

    @cached_property
    def grid(self) -> np.ndarray:
        """Geometric scan grid over the search domain; built once, read-only."""
        grid = np.geomspace(self.domain_lo, self.domain_hi, GRID_POINTS)
        grid.flags.writeable = False
        return grid


def _check_alpha_domain(alpha: float, options: SolverOptions) -> None:
    """The rule of an MDPD tuning parameter, and for alpha > 0 that its residuals stay floats.

    On the search domain [lo, hi] the factors of the residual (see
    :func:`_stacked_residuals`) are largest at an end: (1 + alpha +
    alpha g)^2 and alpha g (g + 1) at hi, the exponent alpha (1 + 1/g) L_i
    at lo, with L_i below _MAX_LOG_EXCESS, and g sum_i a_ik r_i^(...) at
    hi, with sum_i a_ik < e.  Raises ValueError if one of them leaves
    float64, where every residual could be 0 or NaN and every grid row a
    spurious root.
    """
    _check_alpha(alpha)
    alpha = float(alpha)  # Python floats overflow to inf without a warning
    lo, hi = sorted((float(options.domain_lo), float(options.domain_hi)))
    d = 1.0 + alpha + alpha * hi
    factors = (d * d, alpha * hi * (hi + 1.0), alpha * (1.0 + 1.0 / lo) * _MAX_LOG_EXCESS,
               np.e * hi)
    if alpha > 0 and max(factors) == np.inf:
        raise ValueError(f"alpha={alpha} puts the MDPD residual out of the float range "
                         f"on the domain ({lo}, {hi}); choose a smaller alpha or domain")


@dataclass(frozen=True)
class EstimateResult:
    gamma1_hat: float
    method: str
    alpha: float
    k: int
    residual: float = 0.0
    iterations: int = 0
    bracket: tuple[float, float] | None = None
    all_roots: tuple[float, ...] = field(default_factory=tuple)


def brentq(f, a: float, b: float, args: tuple, xtol: float, rtol: float,
           maxiter: int) -> tuple[float, SimpleNamespace]:
    """Root of f(x, *args) in the bracket [a, b] by Brent's method, as (root, info).

    The one-bracket case of :func:`_brent_many`, so root, iterations and
    function calls equal scipy.optimize.brentq's (see there).  Raises
    ValueError if f(a) and f(b) have the same sign, RuntimeError after
    maxiter iterations.
    """
    def one(idx, x):
        return np.array([f(float(x[0]), *args)], dtype=float)

    roots, iterations, _ = _brent_many(one, [a], [b], xtol, rtol, maxiter)
    its = int(iterations[0])
    # f is called at both bracket ends, then once per iteration after the first
    return float(roots[0]), SimpleNamespace(iterations=its, function_calls=max(its, 1) + 1)


def _brent_many(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a: np.ndarray,
                b: np.ndarray, xtol: float, rtol: float, maxiter: int,
                fa: np.ndarray | None = None,
                fb: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brent's method on every bracket [a[j], b[j]] at once, as (roots, iterations, values).

    f(idx, x) returns, for each j, the function of bracket idx[j] at x[j];
    it is asked only for the brackets still iterating, in increasing order
    of idx, and a bracket that converges leaves the working arrays, so each
    bracket gets the root and iteration count it gets alone.  fa and fb,
    where given, are f at a and b, which is then not evaluated there again;
    values[j] is f at roots[j], as f returned it.  Each step is scipy's
    ``brentq.c`` element by element: root, iterations and function calls
    equal scipy.optimize.brentq's for finite f, except at a zero bracket
    end (0 iterations here, unset in scipy).  A zero divisor sets the step
    to inf by a mask, which fails the step test as C's inf or nan does, and
    the bound ``min(u, v)`` is ``where(v < u, v, u)``, not ``np.minimum``,
    which differs at NaN.  :func:`brentq` is the one-bracket case.  Raises
    ValueError if some f(a) and f(b) have the same sign, RuntimeError if a
    bracket is left after maxiter iterations.
    """
    xpre, xcur = np.array(a, dtype=float), np.array(b, dtype=float)
    roots, values = np.empty_like(xpre), np.empty_like(xpre)
    iterations = np.zeros(xpre.size, dtype=np.int64)
    idx = np.arange(xpre.size)
    fpre = f(idx, xpre) if fa is None else np.array(fa, dtype=float)
    fcur = f(idx, xcur) if fb is None else np.array(fb, dtype=float)
    at_end = (fpre == 0) | (fcur == 0)
    roots[at_end] = np.where(fpre == 0, xpre, xcur)[at_end]
    values[at_end] = np.where(fpre == 0, fpre, fcur)[at_end]
    if np.any(~at_end & ((fpre < 0) == (fcur < 0))):
        raise ValueError("f(a) and f(b) must have different signs")
    live = ~at_end
    idx, xpre, xcur, fpre, fcur = idx[live], xpre[live], xcur[live], fpre[live], fcur[live]
    xblk = fblk = spre = scur = np.zeros(idx.size)
    with np.errstate(all="ignore"):
        for i in range(1, maxiter + 1):
            if idx.size == 0:
                return roots, iterations, values
            flip = (fpre != 0) & (fcur != 0) & ((fpre < 0) != (fcur < 0))
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))
            delta = (xtol + rtol * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0) | (np.abs(sbis) < delta)
            if np.any(done):
                finished = idx[done]
                roots[finished], iterations[finished], values[finished] = xcur[done], i, fcur[done]
                live = ~done
                idx, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                    v[live] for v in (idx, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                                      delta, sbis))
                if idx.size == 0:
                    return roots, iterations, values
            # the interpolated step, inf at every zero divisor
            secant = xpre == xblk
            d_sec, d_pre, d_blk = fcur - fpre, xpre - xcur, xblk - xcur
            dpre, dblk = (fpre - fcur) / d_pre, (fblk - fcur) / d_blk
            d_ext = dblk * dpre * (fblk - fpre)
            stry = np.where(secant, -fcur * (xcur - xpre) / d_sec,
                            -fcur * (fblk * dblk - fpre * dpre) / d_ext)
            zero = np.where(secant, d_sec == 0, (d_pre == 0) | (d_blk == 0) | (d_ext == 0))
            stry[zero] = np.inf
            bound = 3 * np.abs(sbis) - delta
            bound = np.where(bound < np.abs(spre), bound, np.abs(spre))
            good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                    & (2 * np.abs(stry) < bound))
            spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
            fcur = f(idx, xcur)
    if idx.size:
        raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
    return roots, iterations, values


def hill_gamma(sample: OrderedSample, k: int) -> float:
    """Hill estimator of the tail index of the observed minimum Z."""
    log_exc, _ = top_log_excesses(sample, k)
    value = float(np.mean(log_exc))
    if value == 0.0:
        raise EstimationError("zero Hill estimate: all top observations equal the threshold")
    return value


def _uncensored_fraction(sample: OrderedSample, k: int) -> float:
    """Proportion of uncensored observations among the k largest."""
    _, deltas = top_log_excesses(sample, k)
    return float(np.mean(deltas))


def efg_estimator(sample: OrderedSample, k: int) -> float:
    """Hill estimator adapted for censoring: Hill / p_hat."""
    p_hat = _uncensored_fraction(sample, k)
    if p_hat == 0.0:
        raise EstimationError("all top observations censored")
    return hill_gamma(sample, k) / p_hat


def worms_estimator(sample: OrderedSample, k: int) -> float:
    """Kaplan-Meier weighted sum of consecutive log-spacings.

    sum_{i=1}^{k} [S_KM(Z_{n-i:n}) / S_KM(Z_{n-k:n})] log(Z_{n-i+1:n}/Z_{n-i:n}).
    """
    n = sample.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range for sample size n={n}")
    s_threshold = kaplan_meier_survival(sample, sample.z_sorted[n - k - 1])
    if s_threshold == 0.0:
        raise EstimationError("KM threshold mass exhausted")
    # KM ratio over the top window only: cumulative product of the factors
    # attached to order statistics in (Z_{n-k:n}, Z_{n-i:n}].
    i = np.arange(1, k + 1)
    # positions (0-based) n-k .. n-2 correspond to order indices n-k+1 .. n-1
    pos = np.arange(n - k, n - 1)
    order_idx = pos + 1  # 1-based order index
    factors = ((n - order_idx) / (n - order_idx + 1.0)) ** sample.delta_concomitant[pos]
    cumprod = np.concatenate([[1.0], np.cumprod(factors)])  # ratio at Z_{n-k:n}, ..., Z_{n-1:n}
    # ratio for term i is S_KM(Z_{n-i:n})/S_KM(Z_{n-k:n}) = cumprod[k-i]
    ratios = cumprod[k - i]
    spacings = np.log(sample.z_sorted[n - i] / sample.z_sorted[n - i - 1])
    return float(np.sum(ratios * spacings))


def mns_estimator(sample: OrderedSample, k: int) -> float:
    """Nelson-Aalen integrated tail index estimator: dot(a_ik, log-excesses)."""
    weights = mdpd_weights(sample, k)
    log_exc, _ = top_log_excesses(sample, k)
    return float(np.dot(weights, log_exc))


def _stacked_residuals(alpha, g: np.ndarray, log_exc: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
    """Residuals of m windows, each at its own points: shape (m, r) from g of shape (m, r).

    Row j of the (m, k) arrays log_exc and weights is one window, and alpha
    broadcasts against g.  Each value is reduced as its own one-row
    product, ``(1, k) @ (k, 1)``, as in :meth:`MdpdWindow.residual`, so it
    has that method's bits whatever other rows are computed with it;
    ``einsum`` or a row sum would not.
    """
    # powers[j, p, i] = r_i^{expo_jp} = exp(expo_jp * L_ji), in place
    powers = (-alpha * (1.0 + 1.0 / g))[:, :, None] * log_exc[:, None, :]
    np.exp(powers, out=powers)
    rows = powers[:, :, None, :]
    empirical = ((rows @ weights[:, None, :, None])[..., 0, 0] * g
                 - (rows @ (weights * log_exc)[:, None, :, None])[..., 0, 0])
    d = 1.0 + alpha + alpha * g
    return empirical - alpha * g * (g + 1.0) / (d * d)


class MdpdWindow:
    """The top-k window of one sample, shared by the MDPD solves at every alpha.

    Holds what the estimating equation needs that does not depend on alpha,
    each computed on first use: the weights a_ik, the log-excesses L_i and
    the MNS reference.  Each residual is reduced as its own one-row
    product, so its bits do not depend on the rows computed with it.
    """

    def __init__(self, sample: OrderedSample, k: int):
        if not 1 <= k <= sample.n - 1:
            raise ValueError(f"k={k} out of range for sample size n={sample.n}")
        self.sample = sample
        self.k = k

    @cached_property
    def weights(self) -> np.ndarray:
        return mdpd_weights(self.sample, self.k)

    @cached_property
    def log_exc(self) -> np.ndarray:
        return top_log_excesses(self.sample, self.k)[0]

    @cached_property
    def reference(self) -> float:
        """MNS estimate of the window, which is also its alpha = 0 estimate."""
        return mns_estimator(self.sample, self.k)

    def _residuals(self, g: np.ndarray, alpha: float) -> np.ndarray:
        """Residual at each gamma1 of the 1-d array g."""
        return _stacked_residuals(alpha, g[None, :], self.log_exc[None, :],
                                  self.weights[None, :])[0]

    def residual(self, gamma1: float, alpha: float) -> float:
        """Residual of the estimating equation at one gamma1: :meth:`_residuals` at one point."""
        return float(self._residuals(np.array([float(gamma1)]), alpha)[0])

    def _roots(self, alpha: float, options: SolverOptions) -> list[tuple]:
        """Roots on the grid, as (root, residual, bracket, iterations).

        Rows whose residual is exactly 0 come first, then the Brent roots of
        each sign change between adjacent rows that meet ``options.tol_abs``.
        Raises NoRootError if there are none.
        """
        grid = options.grid
        values = self._residuals(grid, alpha)
        sign_change = np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]
        exact_hits = np.nonzero(values == 0.0)[0]
        if sign_change.size == 0 and exact_hits.size == 0:
            raise NoRootError(f"no root in bracket ({float(grid[0])}, {float(grid[-1])})",
                              grid=grid, residuals=values)

        roots = [(float(grid[j]), 0.0, (float(grid[j]), float(grid[j])), 0)
                 for j in exact_hits]
        for j in sign_change:
            a, b = float(grid[j]), float(grid[j + 1])
            root, info = brentq(self.residual, a, b, args=(alpha,), **_BRENT)
            res = self.residual(root, alpha)
            if abs(res) <= options.tol_abs:
                roots.append((root, res, (a, b), info.iterations))
        if not roots:
            raise NoRootError("no root met the residual tolerance", grid=grid, residuals=values)
        return roots

    def estimate(self, alpha: float,
                 options: SolverOptions = SolverOptions()) -> EstimateResult:
        """MDPD estimate at tuning parameter alpha >= 0; see :func:`mdpd_estimate`."""
        _check_alpha_domain(alpha, options)
        k = self.k
        if alpha == 0.0:
            value = self.reference
            if value <= 0.0:
                raise EstimationError("all top observations censored")
            return EstimateResult(value, "MNS", 0.0, k)
        if not np.any(self.weights > 0):
            raise NoRootError("no root exists: all top observations censored")

        roots = self._roots(alpha, options)
        best = min(roots, key=lambda r: abs(r[0] - self.reference))
        return EstimateResult(
            gamma1_hat=best[0], method="MDPD", alpha=alpha, k=k,
            residual=best[1], iterations=best[3], bracket=best[2],
            all_roots=tuple(r[0] for r in roots))


def mdpd_estimate(sample: OrderedSample, config: TailConfig,
                  options: SolverOptions = SolverOptions()) -> EstimateResult:
    """MDPD tail index estimate by root-finding on the estimating equation.

    For alpha = 0 the MNS estimator is returned exactly.  For alpha > 0 a
    geometric grid over the search domain is scanned for sign changes,
    every bracket is refined by Brent's method, roots whose residual
    exceeds ``options.tol_abs`` are rejected, and the root closest to the
    MNS estimate is reported; all accepted roots are kept in the result
    diagnostics.  To solve one window at several alphas, build one
    :class:`MdpdWindow` and call its ``estimate``.
    """
    return MdpdWindow(sample, config.k).estimate(config.alpha, options)


# the default settings, which the sweep solves every cell with
_SWEEP_OPTIONS = SolverOptions()


def _nearest_roots(residual: Callable[[np.ndarray, np.ndarray], np.ndarray], cells: np.ndarray,
                   points: np.ndarray, values: np.ndarray, reference: np.ndarray,
                   reach: np.ndarray) -> np.ndarray:
    """Row j's root nearest reference[j] among its scanned points, NaN unless within reach[j].

    Row j of points holds grid rows of cell cells[j] in increasing order, and
    of values the residuals there, NaN where not scanned.  As in
    :meth:`MdpdWindow.estimate`, the candidates are the exact zeros, then the
    Brent roots in row order that meet ``tol_abs``, and the first nearest
    wins.  Every bracket is refined in one :func:`_brent_many` from the
    scanned end values, which returns the residual at each root.
    """
    zero_cell, zero_row = np.nonzero(values == 0.0)
    cell, row = np.nonzero(np.sign(values[:, :-1]) * np.sign(values[:, 1:]) < 0)
    roots, _, at_roots = _brent_many(
        lambda idx, x: residual(cells[cell[idx]], x[:, None])[:, 0],
        points[cell, row], points[cell, row + 1], fa=values[cell, row],
        fb=values[cell, row + 1], **_BRENT)
    met = np.abs(at_roots) <= _SWEEP_OPTIONS.tol_abs
    cell, row, roots = cell[met], row[met], roots[met]
    # candidates in the full scan's order: exact zeros, then Brent roots;
    # per cell, the nearest and then the first of equals wins
    found = np.full(reference.size, np.nan)
    cell = np.concatenate([zero_cell, cell])
    candidates = np.concatenate([points[zero_cell, zero_row], roots])
    order = np.concatenate([zero_row, values.shape[1] + row])
    distance = np.abs(candidates - reference[cell])
    ranked = np.lexsort((order, distance, cell))
    first = ranked[np.unique(cell[ranked], return_index=True)[1]]
    best = cell[first]
    proven = distance[first] < reach[best]
    found[best[proven]] = candidates[first[proven]]
    return found


def _local_roots(residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 reference: np.ndarray, batch: int) -> np.ndarray:
    """Each cell's MDPD estimate: its full scan's root nearest the reference, or NaN.

    Cell c is one window at one alpha > 0; residual(cells, g) returns, for
    each j, the residuals of cell cells[j] at the points g[j, :], with the
    bits of its full scan (see :func:`_stacked_residuals`); cells is an
    index array in nondecreasing order, or ``slice(None)`` for every cell
    in order.  A window of w rows starts at row ``clip(searchsorted(grid,
    reference[c]) - w // 2, 0, grid.size - w)``; its reach is the distance
    from the reference to its nearer edge, an edge on a grid end counting as
    infinitely far.  Every cell first scans its NARROW_ROWS window.  It
    scans the rest of its LOCAL_ROWS window, which holds the narrow one,
    only if no exact zero among those rows, and no sign change between two
    of them, lies strictly within the narrow reach.  The scanned rows are
    the full scan's, so their roots are the full scan's roots inside the
    window, and the nearest (:func:`_nearest_roots`) is kept only within the
    reach of the cell's window, beyond which an unscanned root could be
    nearer.  The cells still without a value scan the whole grid,
    LOCAL_ROWS - NARROW_ROWS rows at a time, and keep their nearest root at
    any distance.  So each cell gets the bits of ``MdpdWindow.estimate``,
    and NaN exactly where that raises: where no root meets ``tol_abs``, as
    where all weights are 0 and the residual is negative everywhere.

    batch is the most cells whose narrow rows residual evaluates at once
    (in :func:`_solve_windows`, the cells of one k).  The wider scans take
    LOCAL_ROWS - NARROW_ROWS rows a call, so they ask for their cells in
    groups of batch * NARROW_ROWS // (LOCAL_ROWS - NARROW_ROWS), one at
    least: their temporaries then take no more at once than the narrow
    scan's.  The groups do not change a bit, since each residual is its
    own product.
    """
    grid = _SWEEP_OPTIONS.grid
    nearest = np.searchsorted(grid, reference)

    def window(rows):
        lo = np.clip(nearest - rows // 2, 0, grid.size - rows)
        lower = np.where(lo > 0, np.abs(reference - grid[lo]), np.inf)
        upper = np.where(lo + rows < grid.size, np.abs(grid[lo + rows - 1] - reference), np.inf)
        return lo, np.where(upper < lower, upper, lower)

    lo, reach = window(LOCAL_ROWS)
    narrow_lo, narrow_reach = window(NARROW_ROWS)
    points = grid[lo[:, None] + np.arange(LOCAL_ROWS)]
    # values[c] holds the residuals at the rows of cell c's LOCAL_ROWS window that
    # it scanned, and NaN, which gives no zero or sign change, at the others
    values = np.full(points.shape, np.nan)
    narrow = (narrow_lo - lo)[:, None] + np.arange(NARROW_ROWS)
    every = np.arange(reference.size)
    values[every[:, None], narrow] = residual(slice(None), points[every[:, None], narrow])
    within = np.abs(points - reference[:, None]) < narrow_reach[:, None]
    settled = np.any((values == 0.0) & within, axis=1) | np.any(
        (np.sign(values[:, :-1]) * np.sign(values[:, 1:]) < 0) & within[:, :-1] & within[:, 1:],
        axis=1)
    step = LOCAL_ROWS - NARROW_ROWS
    group = max(1, batch * NARROW_ROWS // step)
    wide = np.flatnonzero(~settled)
    rest = np.ones((wide.size, LOCAL_ROWS), dtype=bool)
    rest[np.arange(wide.size)[:, None], narrow[wide]] = False
    rest = np.nonzero(rest)[1].reshape(wide.size, step)
    for lo in range(0, wide.size, group):
        cells, rows = wide[lo:lo + group], rest[lo:lo + group]
        values[cells[:, None], rows] = residual(cells, points[cells[:, None], rows])
    reach[settled] = narrow_reach[settled]
    found = _nearest_roots(residual, every, points, values, reference, reach)

    left = np.flatnonzero(np.isnan(found))
    if left.size:
        points = np.broadcast_to(grid, (left.size, grid.size))
        values = np.empty(points.shape)
        for lo in range(0, left.size, group):
            for start in range(0, grid.size, step):
                values[lo:lo + group, start:start + step] = residual(
                    left[lo:lo + group], points[lo:lo + group, start:start + step])
        found[left] = _nearest_roots(residual, left, points, values, reference[left],
                                     np.full(left.size, np.inf))
    return found


def _stacked_windows(tops: np.ndarray, deltas: np.ndarray,
                     k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The top-k windows of R samples: log-excesses, weights and MNS references.

    Row r of the (R, m) arrays tops and deltas holds the m > k largest
    observations of sample r in increasing order and their indicators.
    The first two results are (R, k) arrays, the references an (R,) array;
    row r of each is bit-equal to what :class:`MdpdWindow` computes for
    sample r (``log_exc``, ``weights`` and ``reference``).
    """
    log_exc = np.log(tops[:, -k:][:, ::-1] / tops[:, -k - 1:-k])
    weights = _stacked_weights(deltas[:, -k:][:, ::-1])
    # one (1, k) @ (k, 1) product per row, which is np.dot's reduction
    reference = (weights[:, None, :] @ log_exc[:, :, None])[:, 0, 0]
    return log_exc, weights, reference


def _solve_windows(tops: np.ndarray, deltas: np.ndarray, k_grid, alphas) -> np.ndarray:
    """MDPD estimates of R samples at each (k, alpha), shape (R, len(k_grid), len(alphas)).

    Row r of the (R, m) arrays tops and deltas holds the m > max(k_grid)
    largest observations of sample r in increasing order and their
    indicators.  Each value is bit-identical to ``MdpdWindow(sample, k)
    .estimate(alpha).gamma1_hat``, and NaN where that raises
    EstimationError.  The windows are built once per k.  Every cell at
    alpha > 0, whatever its k, is solved in one :func:`_local_roots`, its
    only solve path: its narrow scan takes one :func:`_stacked_residuals`
    per k, each wider scan one per k and group of cells, and each Brent
    step one per k that still has cells iterating.
    """
    alphas = np.asarray(alphas, dtype=float)
    positive = np.flatnonzero(alphas > 0)
    cell_alphas = alphas[positive]
    size, cells_per_window = tops.shape[0], positive.size
    cells_per_k = size * cells_per_window
    windows = [_stacked_windows(tops, deltas, k) for k in k_grid]
    # the cells of each k in turn: cell c is at k_grid[c // cells_per_k], window
    # c % cells_per_k // cells_per_window, alpha cell_alphas[c % cells_per_window]
    firsts = cells_per_k * np.arange(len(k_grid) + 1)

    def residual(cells, g):
        out = np.empty(g.shape)
        if isinstance(cells, slice):  # every cell: a window's cells make one row, not a copy
            row_alphas = np.repeat(cell_alphas, g.shape[1])
            for (log_exc, weights, _), lo, hi in zip(windows, firsts, firsts[1:]):
                out[lo:hi] = _stacked_residuals(row_alphas, g[lo:hi].reshape(size, -1), log_exc,
                                                weights).reshape(-1, g.shape[1])
            return out
        # cells is nondecreasing, so each k's cells are one slice of it
        bounds = np.searchsorted(cells, firsts)
        for (log_exc, weights, _), first, lo, hi in zip(windows, firsts, bounds, bounds[1:]):
            if lo < hi:
                w, a = np.divmod(cells[lo:hi] - first, cells_per_window)
                out[lo:hi] = _stacked_residuals(cell_alphas[a][:, None], g[lo:hi], log_exc[w],
                                                weights[w])
        return out

    references = np.stack([reference for *_, reference in windows], axis=1)
    out = np.empty((size, len(k_grid), alphas.size))
    out[:, :, alphas == 0] = np.where(references > 0, references, np.nan)[:, :, None]
    local = _local_roots(residual, np.repeat(references.T, cells_per_window), cells_per_k)
    out[:, :, positive] = local.reshape(len(k_grid), size, cells_per_window).transpose(1, 0, 2)
    return out
