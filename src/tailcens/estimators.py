"""Tail index estimators for randomly right-censored Pareto-type data.

Classical estimators (Hill, EFG, Worms, MNS) together with the robust
minimum density power divergence (MDPD) family.  The MDPD estimate for
tuning parameter alpha > 0 is the root of the estimating equation

    sum_i a_ik (g - L_i) r_i^{-alpha (1 + 1/g)}  =  alpha g (g+1) / (1 + alpha + alpha g)^2

with r_i the top relative excesses, L_i = log r_i, and a_ik the
Nelson-Aalen weight sequence.  At alpha = 0 the family reduces exactly to
the MNS estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from .empirical import kaplan_meier_survival, mdpd_weights
from .sample_model import OrderedSample, TailConfig, top_log_excesses


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


def hill_gamma(sample: OrderedSample, k: int) -> float:
    """Hill estimator of the tail index of the observed minimum Z."""
    log_exc, _ = top_log_excesses(sample, k)
    value = float(np.mean(log_exc))
    if value == 0.0:
        raise EstimationError("zero Hill estimate: all top observations equal the threshold")
    return value


def censored_proportion(sample: OrderedSample, k: int) -> float:
    """Proportion of uncensored observations among the k largest."""
    _, deltas = top_log_excesses(sample, k)
    return float(np.mean(deltas))


def efg_estimator(sample: OrderedSample, k: int) -> float:
    """Hill estimator adapted for censoring: Hill / p_hat."""
    p_hat = censored_proportion(sample, k)
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


def mdpd_residual(gamma1: float, sample: OrderedSample, config: TailConfig) -> float:
    """Residual of the MDPD estimating equation at gamma1.

    Positive alpha required; at alpha = 0 use :func:`mns_estimator`.
    """
    if gamma1 <= 0:
        raise ValueError(f"gamma1={gamma1} must be > 0")
    config.check_against(sample.n)
    return MdpdWindow(sample, config.k).residual(gamma1, config.alpha)


def mdpd_objective(gamma1: float, sample: OrderedSample, config: TailConfig) -> float:
    """Empirical density power divergence objective at gamma1 (alpha > 0).

    Model term gamma1^{-alpha} / (1 + alpha + alpha*gamma1) minus the
    weighted empirical term (1 + 1/alpha) sum_i a_ik l_gamma1^alpha(r_i).
    The MDPD root is a stationary point of this surface.
    """
    if gamma1 <= 0:
        raise ValueError(f"gamma1={gamma1} must be > 0")
    alpha = config.alpha
    if alpha <= 0:
        raise ValueError("mdpd_objective requires alpha > 0")
    config.check_against(sample.n)
    weights = mdpd_weights(sample, config.k)
    log_exc, _ = top_log_excesses(sample, config.k)
    model = gamma1 ** (-alpha) / (1.0 + alpha + alpha * gamma1)
    density_pow = gamma1 ** (-alpha) * np.exp(-alpha * (1.0 + 1.0 / gamma1) * log_exc)
    return model - (1.0 + 1.0 / alpha) * float(np.dot(weights, density_pow))


class MdpdWindow:
    """The top-k window of one sample, shared by the MDPD solves at every alpha.

    Holds what the estimating equation needs that does not depend on alpha,
    each computed on first use: the weights a_ik, the log-excesses L_i, the
    products a_ik * -L_i and the MNS reference; and scratch buffers that
    each residual evaluation overwrites.  Not safe to share between threads.
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
        """MNS estimate of the window, which is also the alpha = 0 solution."""
        return mns_estimator(self.sample, self.k)

    def _residuals(self, g: np.ndarray, alpha: float, powers: np.ndarray) -> np.ndarray:
        """Residual at each gamma1 of the 1-d array g; powers is a (g.size, k) buffer."""
        expo = -alpha * (1.0 + 1.0 / g)
        # powers[j, i] = r_i^{expo_j} = exp(expo_j * L_i)
        np.multiply(expo[:, None], self.log_exc, out=powers)
        np.exp(powers, out=powers)
        empirical = powers @ self._weighted_neg_log + (powers @ self.weights) * g
        model = alpha * g * (g + 1.0) / (1.0 + alpha + alpha * g) ** 2
        return empirical - model

    def residual(self, gamma1: float, alpha: float) -> float:
        """Residual of the estimating equation at one gamma1.

        The arithmetic of :meth:`_residuals` on a one-point grid, operation
        for operation (``d * d`` is what numpy's ``** 2`` computes), without
        the small-array overhead that would dominate Brent's many calls.
        """
        g = float(gamma1)
        powers = self._point
        np.multiply(self.log_exc, -alpha * (1.0 + 1.0 / g), out=powers[0])
        np.exp(powers, out=powers)
        d = 1.0 + alpha + alpha * g
        return float((powers @ self._weighted_neg_log)[0] + (powers @ self.weights)[0] * g
                     - alpha * g * (g + 1.0) / (d * d))

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

        grid = options.grid
        if self._scan.shape[0] != grid.size:
            self._scan = np.empty((grid.size, k))
        values = self._residuals(grid, alpha, self._scan)
        sign_change = np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]
        exact_hits = np.nonzero(values == 0.0)[0]
        if sign_change.size == 0 and exact_hits.size == 0:
            raise NoRootError(
                f"no root in bracket ({options.domain_lo}, {options.domain_hi})",
                grid=grid, residuals=values)

        roots = [(float(grid[j]), 0.0, (float(grid[j]), float(grid[j])), 0)
                 for j in exact_hits]
        for j in sign_change:
            lo, hi = float(grid[j]), float(grid[j + 1])
            root, info = brentq(self.residual, lo, hi, args=(alpha,), xtol=1e-14,
                                rtol=8.9e-16, maxiter=options.max_iter, full_output=True)
            res = self.residual(root, alpha)
            if abs(res) <= options.tol_abs:
                roots.append((root, res, (lo, hi), info.iterations))
        if not roots:
            raise NoRootError("no root met the residual tolerance", grid=grid, residuals=values)

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
    MNS estimate (the alpha = 0 solution) is reported; all accepted roots
    are kept in the result diagnostics.  To solve one window at several
    alphas, build one :class:`MdpdWindow` and call its ``estimate``.
    """
    config.check_against(sample.n)
    return MdpdWindow(sample, config.k).estimate(config.alpha, options)
