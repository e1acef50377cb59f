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
        # checked before the int8 cast, which would turn 1.5 into 1
        if not np.all((d == 0) | (d == 1)):
            raise InvalidSampleError("delta values must be 0 or 1")
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
        if self.alpha < 0:
            raise ValueError(f"alpha={self.alpha} must be >= 0")


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
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ValueError("gamma1 and gamma2 must be positive")
        if self.eta <= 0:
            raise ValueError("eta must be positive")

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


def _check_shapes(z: np.ndarray, d: np.ndarray) -> None:
    if z.ndim != 1 or d.ndim != 1 or z.size != d.size:
        raise InvalidSampleError("z and delta must be 1-d and of equal length")


def _check_times(z: np.ndarray) -> None:
    if np.any(z <= 0) or not np.all(np.isfinite(z)):
        raise InvalidSampleError("invalid observation: all z must be positive and finite")


def order_sample(observed: tuple[Sequence[float], Sequence[int]]) -> OrderedSample:
    """Sort a (z, delta) pair of parallel arrays by z, as ordered_from_arrays does."""
    z, delta = observed
    return ordered_from_arrays(z, delta)


def ordered_from_arrays(z: Sequence[float], delta: Sequence[int]) -> OrderedSample:
    """Build an OrderedSample from parallel arrays of times and indicators.

    The order is stable: tied times keep their input order, and the
    permutation is that of ``np.argsort(z, kind="stable")``.  It is not
    computed by a stable sort, which for float64 is a timsort, but by the
    default sort followed by a sort of integer keys that restores input
    order inside each run of equal times.  Each temporary is dropped once
    used, so besides the input at most two n-long 8-byte arrays and one
    mask are alive at once.  The sample contract is checked by
    :class:`OrderedSample`; only the shapes are checked here, because
    indexing a longer delta with the sort order would silently drop its
    extra entries.
    """
    z = np.asarray(z, dtype=float)
    d = np.asarray(delta)
    _check_shapes(z, d)
    n = z.size
    idx = np.argsort(z)
    zs = z[idx]
    new_run = zs[1:] != zs[:-1]
    del zs
    # key[i] first numbers the run of equal times that sorted position i is
    # in; int64, since numpy 1.x on Windows would sum the booleans as int32.
    # The sum runs in place: a cumsum from bool to int64 would first copy
    # its whole input to int64
    key = np.zeros(n, dtype=np.int64)
    key[1:] = new_run
    del new_run
    np.cumsum(key, out=key)
    # then run * n + position, in place: sorted, the positions inside each
    # run come out increasing, and % n recovers them
    key *= n
    key += idx
    del idx
    key.sort()
    key %= n
    z, d = z[key], d[key]
    del key  # before the checks of OrderedSample, which take a few n-long masks
    return OrderedSample(z, d)


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
    if threshold <= 0:
        raise ValueError("zero threshold")
    top = sample.z_sorted[n - k:][::-1]
    deltas = sample.delta_concomitant[n - k:][::-1].copy()
    return np.log(top / threshold), deltas
