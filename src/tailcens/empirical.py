"""Product-limit estimators and the tail weight sequence.

The Kaplan-Meier survival estimator and the random weight sequence a_ik
that drives the Nelson-Aalen-integrated tail estimators.

Conventions: the Kaplan-Meier product runs over order statistics <= x
(right-continuous).  The weights use the closed-form product of
Nelson-Aalen survival ratios at order statistics, never a quotient of
pointwise evaluations at jump locations.
"""

from __future__ import annotations

import numpy as np

from .sample_model import OrderedSample


def kaplan_meier_survival(sample: OrderedSample, x: float) -> float:
    """Kaplan-Meier estimate of the lifetime survival function at x.

    Product of ((n-i)/(n-i+1))^delta over all order statistics <= x.
    Returns 1 for x below the smallest observation; can reach 0 at the
    largest observation when it is uncensored.  A censored order statistic
    contributes the factor 1, so only the uncensored ones are multiplied,
    as j/(j+1) with j = n-i.
    """
    n = sample.n
    m = int(np.searchsorted(sample.z_sorted, x, side="right"))
    j = (n - 1) - np.flatnonzero(sample.delta_concomitant[:m])
    return float(np.prod(j / (j + 1.0)))


def mdpd_weights(sample: OrderedSample, k: int) -> np.ndarray:
    """Random weight sequence a_ik for the top-k window.

    a_ik = (delta_{[n-i+1:n]} / i) * prod_{j=i+1}^{k} exp(-delta_{[n-j+1:n]}/j),
    i = 1..k.  Computed in O(k) with one backward pass over the exponent
    sum.  a_i vanishes exactly when the i-th largest observation is
    censored, and 0 <= a_i <= 1/i always.
    """
    n = sample.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range for sample size n={n}")
    # delta_{[n-i+1:n]}, i = 1..k
    return _stacked_weights(sample.delta_concomitant[n - k:][::-1][None, :])[0]


def _stacked_weights(deltas: np.ndarray) -> np.ndarray:
    """The weights a_ik of each row of an (R, k) array of top-k indicators, i = 1 first.

    Row r's weights are bit-equal to those of ``mdpd_weights`` on the
    sample that row comes from, which is the case R = 1.
    """
    deltas = np.asarray(deltas, dtype=float)
    ratios = deltas / np.arange(1, deltas.shape[1] + 1)
    # tail[:, i-1] = sum_{j=i+1}^{k} delta_j / j, summed from j = k down
    tail = np.zeros_like(ratios)
    tail[:, :-1] = np.cumsum(ratios[:, ::-1], axis=1)[:, -2::-1]
    return ratios * np.exp(-tail)
