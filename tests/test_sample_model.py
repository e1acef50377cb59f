import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tailcens import (
    InvalidSampleError,
    ModelParams,
    OrderedSample,
    TailConfig,
    mdpd_estimate,
    order_sample,
    ordered_from_arrays,
    top_log_excesses,
)
from tailcens.sample_model import _top_slice


def test_observation_validation():
    order_sample(([1.0], [1]))
    with pytest.raises(InvalidSampleError):
        order_sample(([0.0], [1]))
    with pytest.raises(InvalidSampleError):
        order_sample(([-1.0], [0]))
    with pytest.raises(InvalidSampleError):
        order_sample(([1.0], [2]))


def test_order_sample_basic():
    s = order_sample(([3, 1, 2], [1, 0, 1]))
    assert s.z_sorted.tolist() == [1, 2, 3]
    assert s.delta_concomitant.tolist() == [0, 1, 1]


def test_order_sample_singleton():
    s = order_sample(([5], [1]))
    assert s.z_sorted.tolist() == [5]
    assert s.delta_concomitant.tolist() == [1]


def test_order_sample_stable_ties():
    s = order_sample(([2, 2], [1, 0]))
    assert s.z_sorted.tolist() == [2, 2]
    assert s.delta_concomitant.tolist() == [1, 0]


def ordering_permutation(z: np.ndarray, top: int | None = None) -> np.ndarray:
    """The permutation ordered_from_arrays applies, read back bit by bit.

    Bit b of each input position is passed as the indicator; the
    concomitants then spell out bit b of the position at each sorted slot.
    """
    positions = np.arange(z.size)
    perm = 0
    for b in range(max(1, int(z.size - 1).bit_length())):
        bits = ordered_from_arrays(z, (positions >> b) & 1, top=top).delta_concomitant
        perm = perm | bits.astype(np.int64) << b
    return perm


def _ordering_inputs():
    rng = np.random.default_rng(8)
    sample = rng.pareto(2.0, 1000) + 1.0
    tied_runs = np.repeat([5.0, 3.0, 1.0, 4.0], 7)
    return {
        "rounded to 3 decimals": np.round(rng.pareto(2.0, 100_000) + 1.0, 3),
        "all equal": np.full(1000, 2.5),
        "tied runs in reverse order": np.concatenate([tied_runs, tied_runs])[::-1],
        "a sample concatenated with itself": np.concatenate([sample, sample]),
        "one value": np.array([7.0]),
    }


ORDERING_INPUTS = _ordering_inputs()


@pytest.mark.parametrize("name", list(ORDERING_INPUTS))
def test_ordering_is_the_stable_argsort(name):
    z = ORDERING_INPUTS[name]
    want = np.argsort(z, kind="stable")
    np.testing.assert_array_equal(ordering_permutation(z), want)
    np.testing.assert_array_equal(ordered_from_arrays(z, np.ones(z.size)).z_sorted, z[want])


def test_order_sample_empty():
    with pytest.raises(InvalidSampleError, match="empty sample"):
        order_sample(([], []))
    with pytest.raises(InvalidSampleError, match="empty sample"):
        ordered_from_arrays([], [])
    with pytest.raises(InvalidSampleError, match="empty sample"):
        ordered_from_arrays([], [], top=3)


def test_ordered_from_arrays_invalid():
    with pytest.raises(InvalidSampleError, match="invalid observation"):
        ordered_from_arrays([1.0, -2.0], [1, 1])
    with pytest.raises(InvalidSampleError):
        ordered_from_arrays([1.0, np.inf], [1, 1])
    for z in ([np.nan], [1.0, np.nan, 1.0, np.nan], [np.nan, 2.0, 0.5]):
        with pytest.raises(InvalidSampleError, match="invalid observation"):
            ordered_from_arrays(z, [1] * len(z))
    with pytest.raises(InvalidSampleError):
        OrderedSample(np.array([2.0, 1.0]), np.array([1, 1]))
    with pytest.raises(InvalidSampleError):
        OrderedSample(np.array([1.0, 2.0]), np.array([1, 3]))


def test_ordered_from_arrays_rejects_a_delta_of_another_length():
    # indexing by the sort order would drop the third indicator silently
    with pytest.raises(InvalidSampleError, match="equal length"):
        ordered_from_arrays([1.0, 2.0], [1, 0, 1])
    with pytest.raises(InvalidSampleError, match="equal length"):
        ordered_from_arrays([1.0, 2.0, 3.0], [1, 0])


def test_ordered_from_arrays_rejects_a_fractional_delta():
    # the int8 cast would turn 1.5 into 1
    with pytest.raises(InvalidSampleError, match="delta values must be 0 or 1"):
        ordered_from_arrays([1.0, 2.0, 3.0], [1.5, 0, 1])
    with pytest.raises(InvalidSampleError, match="delta values must be 0 or 1"):
        OrderedSample(np.array([1.0, 2.0]), np.array([0.0, 0.5]))


@pytest.mark.parametrize("draw", ["uniform", "tied"])
def test_top_slice_is_the_tail_of_the_stable_argsort(draw):
    # integer times from a few values put ties across the cut, where the
    # stable order keeps the highest indices of the tied times
    rng = np.random.default_rng(12)
    for n in (1, 2, 7, 60):
        z = rng.random((5, n)) if draw == "uniform" else rng.integers(1, 4, (5, n)).astype(float)
        for m in range(1, n + 1):
            want = np.argsort(z, axis=1, kind="stable")[:, -m:]
            got = _top_slice(z, m)
            assert got.shape == want.shape and (got == want).all(), (n, m)


@pytest.mark.parametrize("draw", ["uniform", "tied"])
def test_ordered_from_arrays_top_is_the_tail_of_the_full_sample(draw):
    rng = np.random.default_rng(13)
    for n in (1, 2, 7, 60):
        z = rng.random(n) if draw == "uniform" else rng.integers(1, 4, n).astype(float)
        delta = rng.integers(0, 2, n)
        full = ordered_from_arrays(z, delta)
        for m in range(1, n + 1):
            got = ordered_from_arrays(z, delta, top=m)
            np.testing.assert_array_equal(got.z_sorted, full.z_sorted[-m:])
            np.testing.assert_array_equal(got.delta_concomitant, full.delta_concomitant[-m:])
            np.testing.assert_array_equal(ordering_permutation(z, m),
                                          np.argsort(z, kind="stable")[-m:])


@pytest.mark.parametrize("time, status", [
    (np.nan, 1), (0.0, 1), (-1.0, 1), (np.inf, 1), (1.5, 2), (1.5, 0.5)])
def test_ordered_from_arrays_top_checks_every_observation(time, status):
    # the bad observation is the first input row; a finite one is the
    # smallest, outside the top 3, but still raises the full path's error
    z = np.array([time, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    delta = np.array([status, 1, 0, 1, 1, 0, 1])
    with pytest.raises(InvalidSampleError) as full:
        ordered_from_arrays(z, delta)
    with pytest.raises(InvalidSampleError, match=re.escape(str(full.value))):
        ordered_from_arrays(z, delta, top=3)


def test_ordered_from_arrays_top_of_n_or_more_is_the_full_sample():
    z, delta = [3.0, 1.0, 3.0, 2.0], [1, 0, 0, 1]
    full = ordered_from_arrays(z, delta)
    for top in (4, 5, 10**9):
        got = ordered_from_arrays(z, delta, top=top)
        np.testing.assert_array_equal(got.z_sorted, full.z_sorted)
        np.testing.assert_array_equal(got.delta_concomitant, full.delta_concomitant)


@pytest.mark.parametrize("top", [0, -2])
def test_ordered_from_arrays_top_below_1_is_an_error(top):
    with pytest.raises(ValueError, match=f"top={top} must be >= 1"):
        ordered_from_arrays([1.0, 2.0, 3.0], [1, 0, 1], top=top)


def test_arrays_read_only():
    s = ordered_from_arrays([1.0, 2.0], [0, 1])
    with pytest.raises(ValueError):
        s.z_sorted[0] = 5.0


def test_top_log_excesses_hand_values():
    s = ordered_from_arrays([1, 2, 4], [1, 1, 1])
    log_exc, deltas = top_log_excesses(s, 2)
    np.testing.assert_allclose(log_exc, [np.log(4), np.log(2)])
    assert deltas.tolist() == [1, 1]
    log_exc, _ = top_log_excesses(s, 1)
    np.testing.assert_allclose(log_exc, [np.log(2)])


def test_top_log_excesses_all_equal():
    s = ordered_from_arrays([3.0, 3.0, 3.0], [1, 0, 1])
    log_exc, _ = top_log_excesses(s, 2)
    np.testing.assert_array_equal(log_exc, [0.0, 0.0])


def test_top_log_excesses_k_range():
    s = ordered_from_arrays([1, 2, 4], [1, 1, 1])
    with pytest.raises(ValueError):
        top_log_excesses(s, 3)
    with pytest.raises(ValueError):
        top_log_excesses(s, 0)


def test_tail_config_validation():
    TailConfig(k=5, alpha=0.0)
    with pytest.raises(ValueError):
        TailConfig(k=0)
    with pytest.raises(ValueError):
        TailConfig(k=5, alpha=-0.1)
    # k is checked against the sample size where the window is built
    with pytest.raises(ValueError, match="k=5 out of range for sample size n=5"):
        mdpd_estimate(ordered_from_arrays([1, 2, 3, 4, 5], [1] * 5), TailConfig(k=5))


def test_model_params_derived():
    m = ModelParams(gamma1=0.3, gamma2=0.7)
    assert m.p == pytest.approx(0.7)
    assert m.q == pytest.approx(0.3)
    assert m.gamma == pytest.approx(0.21)
    with pytest.raises(ValueError):
        ModelParams(gamma1=-1, gamma2=1)
    with pytest.raises(ValueError):
        ModelParams(gamma1=1, gamma2=1, eta=0)


@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=1e6),
                          st.integers(min_value=0, max_value=1)),
                min_size=1, max_size=50))
def test_order_sample_idempotent(pairs):
    once = order_sample(tuple(zip(*pairs)))
    twice = ordered_from_arrays(once.z_sorted, once.delta_concomitant)
    np.testing.assert_array_equal(once.z_sorted, twice.z_sorted)
    np.testing.assert_array_equal(once.delta_concomitant, twice.delta_concomitant)


@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=1e6),
                          st.integers(min_value=0, max_value=1)),
                min_size=2, max_size=30, unique_by=lambda p: p[0]),
       st.randoms())
def test_permutation_invariance(pairs, rnd):
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    a, b = order_sample(tuple(zip(*pairs))), order_sample(tuple(zip(*shuffled)))
    np.testing.assert_array_equal(a.z_sorted, b.z_sorted)
    np.testing.assert_array_equal(a.delta_concomitant, b.delta_concomitant)


@given(st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=3, max_size=40),
       st.data())
def test_log_excesses_nonincreasing_nonnegative(zs, data):
    s = ordered_from_arrays(zs, [1] * len(zs))
    k = data.draw(st.integers(min_value=1, max_value=len(zs) - 1))
    log_exc, _ = top_log_excesses(s, k)
    assert np.all(log_exc >= 0)
    assert np.all(np.diff(log_exc) <= 1e-12)


POSITIVE_FINITE = "gamma1 and gamma2 must be positive and finite"


@pytest.mark.parametrize("cls, kwargs, message", [
    (TailConfig, dict(k=5, alpha=np.nan), "alpha=nan must be finite and >= 0"),
    (TailConfig, dict(k=5, alpha=np.inf), "alpha=inf must be finite and >= 0"),
    (ModelParams, dict(gamma1=np.nan, gamma2=1.0), POSITIVE_FINITE),
    (ModelParams, dict(gamma1=1.0, gamma2=np.inf), POSITIVE_FINITE),
    (ModelParams, dict(gamma1=1.0, gamma2=1.0, eta=np.nan), "eta must be positive and finite"),
    (ModelParams, dict(gamma1=1.0, gamma2=1.0, eta=np.inf), "eta must be positive and finite"),
], ids=["alpha-nan", "alpha-inf", "gamma1-nan", "gamma2-inf", "eta-nan", "eta-inf"])
def test_non_finite_parameters_are_rejected(cls, kwargs, message):
    # each check is written so that NaN, which fails every comparison, fails it
    with pytest.raises(ValueError, match=re.escape(message)):
        cls(**kwargs)
