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

import numpy as np

from .empirical import kaplan_meier_survival, mdpd_weights
from .sample_model import OrderedSample, TailConfig, top_log_excesses

# grid rows that MdpdWindow.gamma1_hat scans around the MNS reference
LOCAL_ROWS = 16


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
    grid_points: int = 200
    tol_abs: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if not (np.isfinite(self.tol_abs) and self.tol_abs > 0):
            raise ValueError(f"tol_abs={self.tol_abs} must be finite and > 0")
        if self.domain_lo == self.domain_hi:
            raise ValueError(f"domain bounds must differ, got {self.domain_lo} twice")
        if self.grid_points < 2:
            raise ValueError(f"grid_points={self.grid_points} must be >= 2")
        if self.max_iter < 1:
            raise ValueError(f"max_iter={self.max_iter} must be >= 1")

    @cached_property
    def grid(self) -> np.ndarray:
        """Geometric scan grid over the search domain; built once, read-only."""
        grid = np.geomspace(self.domain_lo, self.domain_hi, self.grid_points)
        grid.flags.writeable = False
        return grid


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

    A line-for-line port of scipy's ``brentq.c``: root, iterations and function
    calls equal scipy.optimize.brentq's for finite f, except at a zero bracket
    end (0 iterations here, unset in scipy).  Raises ValueError if f(a) and
    f(b) have the same sign, RuntimeError after maxiter iterations.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre, *args), f(xcur, *args)
    if fpre == 0 or fcur == 0:
        return (xpre if fpre == 0 else xcur), SimpleNamespace(iterations=0, function_calls=2)
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for i in range(1, maxiter + 1):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, SimpleNamespace(iterations=i, function_calls=i + 1)
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = np.inf  # C's inf or nan here fails the step test below
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur, *args)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


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


class MdpdWindow:
    """The top-k window of one sample, shared by the MDPD solves at every alpha.

    Holds what the estimating equation needs that does not depend on alpha,
    each computed on first use: the weights a_ik, the log-excesses L_i, the
    products a_ik * -L_i and the MNS reference; and scratch buffers that
    each residual evaluation overwrites.  Each residual is reduced as its own
    one-row product, so its bits do not depend on the rows computed with it.
    Not safe to share between threads.
    """

    def __init__(self, sample: OrderedSample, k: int):
        if not 1 <= k <= sample.n - 1:
            raise ValueError(f"k={k} out of range for sample size n={sample.n}")
        self.sample = sample
        self.k = k
        self._point = np.empty((1, k))
        self._scan = np.empty((0, k))

    @cached_property
    def weights(self) -> np.ndarray:
        return mdpd_weights(self.sample, self.k)

    @cached_property
    def log_exc(self) -> np.ndarray:
        return top_log_excesses(self.sample, self.k)[0]

    @cached_property
    def _weighted_neg_log(self) -> np.ndarray:
        return self.weights * -self.log_exc

    @cached_property
    def reference(self) -> float:
        """MNS estimate of the window, which is also its alpha = 0 estimate."""
        return mns_estimator(self.sample, self.k)

    def _residuals(self, g: np.ndarray, alpha: float) -> np.ndarray:
        """Residual at each gamma1 of the 1-d array g, bit-equal to :meth:`residual` there.

        Each row is its own (1, k) product, as in :meth:`residual`: a batched
        ``powers @ v`` may round a row differently with the rows beside it.
        """
        if self._scan.shape[0] < g.size:
            self._scan = np.empty((g.size, self.k))
        powers = self._scan[:g.size]
        expo = -alpha * (1.0 + 1.0 / g)
        # powers[j, i] = r_i^{expo_j} = exp(expo_j * L_i)
        np.multiply(expo[:, None], self.log_exc, out=powers)
        np.exp(powers, out=powers)
        rows = powers[:, None, :]
        empirical = (rows @ self._weighted_neg_log)[:, 0] + (rows @ self.weights)[:, 0] * g
        model = alpha * g * (g + 1.0) / (1.0 + alpha + alpha * g) ** 2
        return empirical - model

    def residual(self, gamma1: float, alpha: float) -> float:
        """Residual of the estimating equation at one gamma1.

        The arithmetic of :meth:`_residuals` on a one-point grid, operation
        for operation (``d * d`` is what numpy's ``** 2`` computes), without
        the small-array overhead that would dominate Brent's many calls.  So
        it equals the value of any scan at gamma1, bit for bit.
        """
        g = float(gamma1)
        powers = self._point
        np.multiply(self.log_exc, -alpha * (1.0 + 1.0 / g), out=powers[0])
        np.exp(powers, out=powers)
        d = 1.0 + alpha + alpha * g
        return float((powers @ self._weighted_neg_log)[0] + (powers @ self.weights)[0] * g
                     - alpha * g * (g + 1.0) / (d * d))

    def _roots(self, alpha: float, options: SolverOptions, lo: int, hi: int) -> list[tuple]:
        """Roots on grid rows lo..hi-1, as (root, residual, bracket, iterations).

        Rows whose residual is exactly 0 come first, then the Brent roots of
        each sign change between adjacent rows that meet ``options.tol_abs``.
        Raises NoRootError if there are none.
        """
        grid = options.grid[lo:hi]
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
            root, info = brentq(self.residual, a, b, args=(alpha,), xtol=1e-14,
                                rtol=8.9e-16, maxiter=options.max_iter)
            res = self.residual(root, alpha)
            if abs(res) <= options.tol_abs:
                roots.append((root, res, (a, b), info.iterations))
        if not roots:
            raise NoRootError("no root met the residual tolerance", grid=grid, residuals=values)
        return roots

    def estimate(self, alpha: float,
                 options: SolverOptions = SolverOptions()) -> EstimateResult:
        """MDPD estimate at tuning parameter alpha >= 0; see :func:`mdpd_estimate`."""
        k = self.k
        if alpha == 0.0:
            value = self.reference
            if value <= 0.0:
                raise EstimationError("all top observations censored")
            return EstimateResult(value, "MNS", 0.0, k)
        if not np.any(self.weights > 0):
            raise NoRootError("no root exists: all top observations censored")

        roots = self._roots(alpha, options, 0, options.grid.size)
        best = min(roots, key=lambda r: abs(r[0] - self.reference))
        return EstimateResult(
            gamma1_hat=best[0], method="MDPD", alpha=alpha, k=k,
            residual=best[1], iterations=best[3], bracket=best[2],
            all_roots=tuple(r[0] for r in roots))

    def gamma1_hat(self, alpha: float, options: SolverOptions = SolverOptions()) -> float:
        """``self.estimate(alpha, options).gamma1_hat``, found by a local scan where it can.

        Raises what :meth:`estimate` raises.  The scan covers the
        ``LOCAL_ROWS`` grid rows around the MNS reference; when its nearest
        root could be farther than a root outside them, the full scan runs.
        """
        root = self._local_root(alpha, options)
        return self.estimate(alpha, options).gamma1_hat if root is None else root

    def _local_root(self, alpha: float, options: SolverOptions) -> float | None:
        """The full scan's nearest root from LOCAL_ROWS grid rows, or None if unproven.

        The rows are the window around ``searchsorted(grid, reference)``,
        clipped at the grid ends.  Their values are the full scan's (see
        :meth:`_residuals`), so their roots are the full scan's roots inside
        the window.  The nearest (the first of equals, as ``min`` picks) is
        returned only if it is strictly closer to the reference than both
        window edges, an edge on a grid end counting as infinitely far: any
        root outside the window lies beyond an edge, so it cannot be nearer.
        """
        grid = options.grid
        if alpha == 0.0 or grid.size < LOCAL_ROWS or not grid[0] < grid[-1]:
            return None
        reference = self.reference
        lo = min(max(int(np.searchsorted(grid, reference)) - LOCAL_ROWS // 2, 0),
                 grid.size - LOCAL_ROWS)
        hi = lo + LOCAL_ROWS
        try:
            roots = self._roots(alpha, options, lo, hi)
        except NoRootError:
            return None
        best = min(roots, key=lambda r: abs(r[0] - reference))[0]
        lower_edge = abs(reference - grid[lo]) if lo > 0 else np.inf
        upper_edge = abs(grid[hi - 1] - reference) if hi < grid.size else np.inf
        return best if abs(best - reference) < min(lower_edge, upper_edge) else None


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
