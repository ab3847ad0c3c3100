"""``linear_percentile`` against ``np.percentile``, bit for bit.

Values are compared through ``float.hex`` and by exact type, so a
last-bit difference, or a numpy scalar where a Python float belongs, is
a failure rather than a tolerance.
"""

import math

import numpy as np
import pytest

from repro.campaign.aggregate import aggregate_fcts
from repro.stats.summary import linear_percentile, percentile, tail_latency


def assert_matches_numpy(values, q):
    ordered = sorted(float(v) for v in values)
    got = linear_percentile(ordered, q)
    want = float(np.percentile(np.asarray(values, dtype=float), q))
    assert type(got) is float
    assert got.hex() == want.hex(), (len(values), q)


def draws(rng, n):
    """One sample of ``n`` values: spread over decades, or heavily tied."""
    if rng.random() < 0.3:
        pool = rng.uniform(1e-6, 1.0, size=int(rng.integers(1, 5)))
        return rng.choice(pool, size=n).tolist()
    return (rng.uniform(1.0, 10.0, size=n)
            * 10.0 ** rng.integers(-9, 3, size=n)).tolist()


@pytest.mark.parametrize("q", [0.0, 100.0, 50.0, 95.0, 99.0])
@pytest.mark.parametrize("n", [1, 2, 3, 100, 101, 190, 600])
def test_fixed_quantiles(n, q):
    rng = np.random.default_rng(n * 1000 + int(q))
    for _ in range(20):
        assert_matches_numpy(draws(rng, n), q)


def test_random_sizes_and_quantiles():
    rng = np.random.default_rng(20260)
    for _ in range(3000):
        n = int(rng.integers(1, 601))
        q = float(rng.uniform(0.0, 100.0))
        assert_matches_numpy(draws(rng, n), q)


def test_single_value_and_all_ties():
    for q in (0.0, 37.5, 50.0, 99.0, 100.0):
        assert_matches_numpy([2.5e-4], q)
        assert_matches_numpy([3e-3] * 17, q)
        assert_matches_numpy([1.0, 1.0, 2.0, 2.0, 2.0, 7.0], q)


def test_integer_q_and_boundaries():
    values = [float(i) for i in range(1, 101)]
    for q in (0, 1, 50, 99, 100, 1e-300, 100.0 - 1e-13):
        assert_matches_numpy(values, q)


@pytest.mark.parametrize("q", [-1.0, 100.5, math.nan])
def test_q_outside_0_100_rejected(q):
    with pytest.raises(ValueError, match="percentile q"):
        linear_percentile([1.0, 2.0], q)


def test_tail_latency_is_three_numpy_percentiles():
    rng = np.random.default_rng(15)
    for n in (1, 2, 57, 600):
        sample = draws(rng, n)
        want = tuple(
            float(v) for v in np.percentile(np.asarray(sample), [50, 95, 99])
        )
        got = tail_latency(sample)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert all(type(v) is float for v in got)
        assert percentile(sample, 95.0).hex() == want[1].hex()


# -- non-finite samples are refused --------------------------------------

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_aggregate_fcts_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="fcts must be finite"):
        aggregate_fcts([0.002, bad, 0.001], 3)


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_percentile_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="percentile samples must be finite"):
        percentile([1.0, bad, 3.0], 50.0)


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_tail_latency_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="tail_latency samples must be finite"):
        tail_latency([1.0, 2.0, bad])
