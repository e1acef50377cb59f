"""Core data types for right-censored samples and their order statistics.

A censored sample is a pair of parallel arrays (z, delta): z holds the
observed times (minimum of the lifetime and an independent censoring
time) and delta indicates whether the lifetime itself was observed
(delta = 1) or the censoring time (delta = 0).  Every estimator in this
package operates on an :class:`OrderedSample`, i.e. the z values sorted
increasingly with the censoring indicators carried along as concomitants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class InvalidSampleError(ValueError):
    """Raised when input observations violate the sample contract."""


@dataclass(frozen=True)
class OrderedSample:
    """Sorted observed times with concomitant censoring indicators.

    ``z_sorted[i]`` is the (i+1)-th order statistic; ``delta_concomitant[i]``
    is the indicator of the observation whose z became ``z_sorted[i]``.
    Arrays are read-only after construction.
    """

    z_sorted: np.ndarray
    delta_concomitant: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z_sorted, dtype=float)
        d = np.asarray(self.delta_concomitant)
        _check_shapes(z, d)
        if z.size == 0:
            raise InvalidSampleError("empty sample")
        _check_times(z)
        # z is finite here, so this is the sign test of np.diff without its array
        if np.any(z[1:] < z[:-1]):
            raise InvalidSampleError("z_sorted must be nondecreasing")
        _check_deltas(d)
        d = d.astype(np.int8, copy=False)
        z.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "z_sorted", z)
        object.__setattr__(self, "delta_concomitant", d)

    @property
    def n(self) -> int:
        return self.z_sorted.size


@dataclass(frozen=True)
class TailConfig:
    """Estimation window: number of top order statistics k and MDPD tuning alpha."""

    k: int
    alpha: float = 0.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k={self.k} must be >= 1")
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class ModelParams:
    """True model parameters for simulation and asymptotic constants.

    gamma1 is the lifetime tail index, gamma2 the censoring tail index and
    eta the Burr shape of the lifetimes and of their contaminants.
    """

    gamma1: float
    gamma2: float
    eta: float = 0.25

    def __post_init__(self):
        # written so that NaN fails them
        if not (0 < self.gamma1 < np.inf and 0 < self.gamma2 < np.inf):
            raise ValueError("gamma1 and gamma2 must be positive and finite")
        if not 0 < self.eta < np.inf:
            raise ValueError("eta must be positive and finite")

    @property
    def p(self) -> float:
        """Limiting fraction of uncensored observations among the largest ones."""
        return self.gamma2 / (self.gamma1 + self.gamma2)

    @property
    def q(self) -> float:
        return self.gamma1 / (self.gamma1 + self.gamma2)

    @property
    def gamma(self) -> float:
        """Tail index of the observed minimum Z."""
        return self.gamma1 * self.gamma2 / (self.gamma1 + self.gamma2)


def _check_alpha(alpha: float) -> None:
    """The rule of an MDPD tuning parameter; NaN fails it."""
    if not 0 <= alpha < np.inf:
        raise ValueError(f"alpha={alpha} must be finite and >= 0")


def _check_shapes(z: np.ndarray, d: np.ndarray) -> None:
    if z.ndim != 1 or d.ndim != 1 or z.size != d.size:
        raise InvalidSampleError("z and delta must be 1-d and of equal length")


def _check_times(z: np.ndarray) -> None:
    if np.any(z <= 0) or not np.all(np.isfinite(z)):
        raise InvalidSampleError("invalid observation: all z must be positive and finite")


def _check_deltas(d: np.ndarray) -> None:
    # checked before any int8 cast, which would turn 1.5 into 1
    if not np.all((d == 0) | (d == 1)):
        raise InvalidSampleError("delta values must be 0 or 1")


def _top_slice(z: np.ndarray, m: int) -> np.ndarray:
    """Indices of the m largest times of each row of z in increasing order, shape (R, m).

    Equal to ``np.argsort(z, axis=1, kind="stable")[:, -m:]`` for rows
    without NaN.  Where m is at least the row length that is what is
    computed, since a partition would only add to the sort.  Otherwise a
    partition finds each row's cut, the times above it are kept, and of the
    times tied at the cut the highest indices, as the stable order ranks
    them last; only that slice is sorted, stably.
    """
    if m >= z.shape[1]:
        return np.argsort(z, axis=1, kind="stable")
    # an index list copies the cut out, so the partitioned copy of z is freed at once
    cut = np.partition(z, z.shape[1] - m, axis=1)[:, [-m]]
    keep = z > cut
    row, col = np.nonzero(z == cut)
    # rank of each tied time from its row's last one: 1 for the highest index
    from_last = np.cumsum(np.bincount(row, minlength=z.shape[0]))[row] - np.arange(row.size)
    take = from_last <= m - np.count_nonzero(keep, axis=1)[row]
    keep[row[take], col[take]] = True
    top = np.nonzero(keep)[1].reshape(-1, m)
    return np.take_along_axis(
        top, np.argsort(np.take_along_axis(z, top, axis=1), axis=1, kind="stable"), axis=1)


def order_sample(observed: tuple[Sequence[float], Sequence[int]]) -> OrderedSample:
    """Sort a (z, delta) pair of parallel arrays by z, as ordered_from_arrays does."""
    z, delta = observed
    return ordered_from_arrays(z, delta)


def ordered_from_arrays(z: Sequence[float], delta: Sequence[int],
                        top: int | None = None) -> OrderedSample:
    """Build an OrderedSample from parallel arrays of times and indicators.

    The order is stable: tied times keep their input order, and the
    permutation is that of ``np.argsort(z, kind="stable")``, or its last
    ``top`` entries (:func:`_top_slice`).  Every time and indicator of the
    input is checked first, with the messages of :class:`OrderedSample`;
    the shapes are checked before that, because indexing a longer delta
    with the order would silently drop its extra entries.

    With ``1 <= top < n`` the sample holds only the ``top`` largest
    observations, the last ``top`` entries of the full sample, and only
    they are sorted.  An estimator that reads the top k + 1 order
    statistics, k < top, gives the bits it gives on the full sample: the
    Kaplan-Meier factors (n-i)/(n-i+1) count the observations above each
    one, which the slice keeps.  But ``kaplan_meier_survival`` of a sliced
    sample is the survival conditional on exceeding the n - top
    observations left out, not the survival itself.  A ``top`` of n or more,
    or none, gives the full sample.
    """
    z = np.asarray(z, dtype=float)
    d = np.asarray(delta)
    _check_shapes(z, d)
    if top is not None and top < 1:
        raise ValueError(f"top={top} must be >= 1")
    _check_times(z)
    _check_deltas(d)
    idx = _top_slice(z[None], z.size if top is None else min(top, z.size))[0]
    return OrderedSample(z[idx], d[idx])


def top_log_excesses(sample: OrderedSample, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Log-excesses of the k largest observations over the (k+1)-th largest.

    Returns arrays (L, delta) indexed i = 1..k with i = 1 the largest
    observation: L[i-1] = log(Z_{n-i+1:n} / Z_{n-k:n}) and delta[i-1] its
    concomitant indicator.
    """
    n = sample.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range for sample size n={n}")
    threshold = sample.z_sorted[n - k - 1]
    top = sample.z_sorted[n - k:][::-1]
    deltas = sample.delta_concomitant[n - k:][::-1].copy()
    return np.log(top / threshold), deltas
