import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailcens import OrderedSample, kaplan_meier_survival, mdpd_weights, ordered_from_arrays

from oracles import kaplan_meier_every_factor


# Oracles: pointwise Nelson-Aalen survival, the closed-form survival ratio
# one weight at a time, and the empirical (sub-)distributions.  The library
# needs none of them; the tests check mdpd_weights and the KM estimator
# against them.  The Nelson-Aalen product runs over order statistics
# strictly below z.
def nelson_aalen_survival(sample: OrderedSample, z: float) -> float:
    """Nelson-Aalen estimate of the lifetime survival function at z.

    exp(-sum of delta/(n-i+1) over order statistics strictly below z);
    always strictly positive.
    """
    n = sample.n
    m = int(np.searchsorted(sample.z_sorted, z, side="left"))
    if m == 0:
        return 1.0
    i = np.arange(1, m + 1)
    hazard = np.sum(sample.delta_concomitant[:m] / (n - i + 1.0))
    return float(np.exp(-hazard))


def na_tail_ratio(sample: OrderedSample, k: int, i: int) -> float:
    """Ratio of Nelson-Aalen survivals at the i-th largest vs the threshold.

    Closed form prod_{j=i+1}^{k} exp(-delta_{[n-j+1:n]}/j); equals
    F_bar_NA(Z_{n-i+1:n}) / F_bar_NA(Z_{n-k:n}) without ever forming the
    quotient.  Value in (0, 1].
    """
    n = sample.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range for sample size n={n}")
    if not 1 <= i <= k:
        raise ValueError(f"i={i} out of range for k={k}")
    j = np.arange(i + 1, k + 1)
    deltas = sample.delta_concomitant[n - j]  # delta_{[n-j+1:n]}
    return float(np.exp(-np.sum(deltas / j)))


def empirical_subdistributions(sample: OrderedSample, x: float) -> tuple[float, float]:
    """Empirical cdf of Z and sub-distribution of uncensored Z at x.

    Returns (Hn, Hn1) with Hn(x) = #{Z <= x}/n and
    Hn1(x) = #{Z <= x, delta = 1}/n.
    """
    n = sample.n
    m = int(np.searchsorted(sample.z_sorted, x, side="right"))
    hn = m / n
    hn1 = float(np.sum(sample.delta_concomitant[:m])) / n
    return hn, hn1


censored_samples = st.lists(
    st.tuples(st.floats(min_value=0.01, max_value=1e5),
              st.integers(min_value=0, max_value=1)),
    min_size=2, max_size=60, unique_by=lambda p: p[0])


def make_sample(pairs):
    z, d = zip(*pairs)
    return ordered_from_arrays(z, d)


def test_km_hand_values():
    s = ordered_from_arrays([1, 2, 3], [1, 1, 1])
    assert kaplan_meier_survival(s, 2.5) == pytest.approx((2 / 3) * (1 / 2))
    s2 = ordered_from_arrays([1, 2, 3], [1, 0, 1])
    assert kaplan_meier_survival(s2, 2.5) == pytest.approx(2 / 3)
    assert kaplan_meier_survival(s, 0.5) == 1.0
    # largest observation uncensored exhausts the KM mass
    assert kaplan_meier_survival(s, 3.0) == 0.0


def _prod_is_sequential() -> bool:
    """Whether np.prod multiplies left to right, as a Python loop does."""
    values = np.random.default_rng(3).uniform(0.5, 1.0, 5000)
    return float(np.prod(values)) == functools.reduce(operator.mul, values.tolist(), 1.0)


@pytest.mark.parametrize("seed", range(6))
def test_km_matches_the_every_factor_product(seed):
    # ties (times rounded to a coarse grid) and censoring; the censored
    # factors the library skips are exactly 1.0, so a left-to-right product
    # gives the same bits; another product order can differ only by the
    # rounding of m factors
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 3000))
    z = np.round(rng.pareto(1.5, n) + 1.0, int(rng.integers(0, 3)))
    s = ordered_from_arrays(z, (rng.random(n) < rng.uniform(0.2, 0.95)).astype(int))
    queries = np.concatenate([s.z_sorted[rng.integers(0, n, 20)], [s.z_sorted[-1]],
                              rng.uniform(0.5, s.z_sorted[-1] * 1.5, 10)])
    sequential = _prod_is_sequential()
    for x in queries:
        got, want = kaplan_meier_survival(s, x), kaplan_meier_every_factor(s, x)
        if sequential:
            assert got == want, x
        else:
            m = int(np.searchsorted(s.z_sorted, x, side="right"))
            assert got == pytest.approx(want, rel=2.3e-16 * m, abs=0), x


def test_km_edge_values():
    s = ordered_from_arrays([3.0, 1.0, 5.0, 5.0, 2.0, 5.0], [0, 1, 1, 0, 1, 0])
    # below the smallest observation: the empty product
    assert kaplan_meier_survival(s, 0.999) == 1.0
    assert kaplan_meier_survival(s, 1e-300) == 1.0
    # the top three tie at 5.0 and, in input order, the last of them is
    # censored: the mass is not exhausted
    assert kaplan_meier_survival(s, 5.0) == kaplan_meier_every_factor(s, 5.0) > 0.0
    # every top value tied with the largest, and the largest uncensored
    tied = ordered_from_arrays([5.0, 1.0, 5.0, 2.0, 5.0], [0, 1, 0, 1, 1])
    assert tied.delta_concomitant[-1] == 1
    assert kaplan_meier_survival(tied, 5.0) == 0.0
    assert kaplan_meier_survival(tied, np.inf) == 0.0
    assert kaplan_meier_survival(tied, 4.999) == (4 / 5) * (3 / 4)


def test_na_hand_values():
    s = ordered_from_arrays([1, 2, 3], [1, 1, 1])
    assert nelson_aalen_survival(s, 2.5) == pytest.approx(np.exp(-5 / 6))
    assert nelson_aalen_survival(s, 1.0) == 1.0  # strict inequality: empty product
    assert nelson_aalen_survival(s, 0.2) == 1.0
    s0 = ordered_from_arrays([1, 2, 3], [0, 0, 0])
    assert nelson_aalen_survival(s0, 10.0) == 1.0


def test_na_tail_ratio_hand_values():
    s = ordered_from_arrays([1, 2, 3], [1, 1, 1])
    assert na_tail_ratio(s, 2, 2) == 1.0  # i = k: empty product
    assert na_tail_ratio(s, 2, 1) == pytest.approx(np.exp(-1 / 2))
    s0 = ordered_from_arrays([1, 2, 3], [1, 0, 0])
    assert na_tail_ratio(s0, 2, 1) == 1.0
    with pytest.raises(ValueError):
        na_tail_ratio(s, 2, 3)
    with pytest.raises(ValueError):
        na_tail_ratio(s, 3, 1)


def test_weights_hand_values():
    s = ordered_from_arrays([1, 2, 3], [1, 1, 1])
    np.testing.assert_allclose(mdpd_weights(s, 1), [1.0])
    np.testing.assert_allclose(mdpd_weights(s, 2), [np.exp(-1 / 2), 1 / 2])
    s2 = ordered_from_arrays([1, 2, 3], [1, 1, 0])  # largest is censored
    np.testing.assert_allclose(mdpd_weights(s2, 2), [0.0, 1 / 2])


def test_subdistributions_hand_values():
    s = ordered_from_arrays([1, 2, 3], [1, 0, 1])
    assert empirical_subdistributions(s, 2) == (pytest.approx(2 / 3), pytest.approx(1 / 3))
    assert empirical_subdistributions(s, 0.5) == (0.0, 0.0)
    hn, hn1 = empirical_subdistributions(s, 10)
    assert hn == 1.0 and hn1 == pytest.approx(2 / 3)


@given(censored_samples, st.data())
def test_ratio_identity(pairs, data):
    """na_tail_ratio equals the quotient of pointwise NA survivals under the
    strict-inequality convention: numerator taken at the order statistic
    itself, denominator just above the threshold (so the threshold's own
    hazard contribution cancels)."""
    s = make_sample(pairs)
    n = s.n
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    i = data.draw(st.integers(min_value=1, max_value=k))
    num = nelson_aalen_survival(s, s.z_sorted[n - i])
    den = nelson_aalen_survival(s, np.nextafter(s.z_sorted[n - k - 1], np.inf))
    assert na_tail_ratio(s, k, i) == pytest.approx(num / den, rel=1e-12)


@given(censored_samples, st.data())
def test_weight_invariants(pairs, data):
    s = make_sample(pairs)
    k = data.draw(st.integers(min_value=1, max_value=s.n - 1))
    w = mdpd_weights(s, k)
    i = np.arange(1, k + 1)
    deltas = s.delta_concomitant[s.n - i]
    assert np.all(w >= 0)
    assert np.all(w <= 1.0 / i + 1e-15)
    np.testing.assert_array_equal(w == 0, deltas == 0)


@given(censored_samples.filter(lambda p: len(p) >= 3), st.data())
def test_weight_nested_window_recursion(pairs, data):
    s = make_sample(pairs)
    k = data.draw(st.integers(min_value=2, max_value=s.n - 1))
    k_small = data.draw(st.integers(min_value=1, max_value=k - 1))
    w_big = mdpd_weights(s, k)
    w_small = mdpd_weights(s, k_small)
    j = np.arange(k_small + 1, k + 1)
    shrink = np.exp(-np.sum(s.delta_concomitant[s.n - j] / j))
    np.testing.assert_allclose(w_big[:k_small], w_small * shrink, rtol=1e-12)


@given(censored_samples, st.data())
def test_weights_match_direct_product(pairs, data):
    s = make_sample(pairs)
    k = data.draw(st.integers(min_value=1, max_value=s.n - 1))
    w = mdpd_weights(s, k)
    direct = [(s.delta_concomitant[s.n - i] / i) * na_tail_ratio(s, k, i)
              for i in range(1, k + 1)]
    np.testing.assert_allclose(w, direct, rtol=1e-12)


def test_km_na_close_when_uncensored():
    rng = np.random.default_rng(42)
    z = rng.pareto(2.0, size=1000) + 1.0
    s = ordered_from_arrays(z, np.ones(1000, dtype=int))
    # compare at interior order statistics (skip the very top where KM hits 0)
    points = s.z_sorted[:-20] * (1 + 1e-12)
    diffs = [abs(kaplan_meier_survival(s, x) - nelson_aalen_survival(s, x))
             for x in points]
    assert max(diffs) < 0.01


@given(censored_samples, st.lists(st.floats(min_value=0.005, max_value=2e5),
                                  min_size=2, max_size=10))
@settings(max_examples=50)
def test_survivals_nonincreasing(pairs, queries):
    s = make_sample(pairs)
    qs = sorted(queries)
    km = [kaplan_meier_survival(s, x) for x in qs]
    na = [nelson_aalen_survival(s, x) for x in qs]
    assert all(a >= b - 1e-15 for a, b in zip(km, km[1:]))
    assert all(a >= b - 1e-15 for a, b in zip(na, na[1:]))
    hn = [empirical_subdistributions(s, x) for x in qs]
    assert all(0 <= h1 <= h <= 1 for h, h1 in hn)
