import math

import numpy as np
import pytest

from polyagraph._numeric import CompensatedSum, log_rising, log_tables


def test_log_rising_matches_gamma_ratio():
    # independent C implementation: log Gamma(x+m) - log Gamma(x), up to the
    # rounding of the two log-gamma values being subtracted
    rng = np.random.default_rng(7)
    xs = np.concatenate([rng.uniform(1e-6, 1.0, 100), rng.uniform(1.0, 1e4, 100), [0.5, 1.0, 2.0, 9999.5]])
    for x in xs:
        x = float(x)
        for m in (0, 1, 7, 60, 500):
            ref = math.lgamma(x + m) - math.lgamma(x)
            scale = max(1.0, abs(math.lgamma(x + m)), abs(math.lgamma(x)))
            assert abs(log_rising(x, 1.0, m)[m] - ref) / scale < 1e-13


def test_log_rising_is_compensated():
    # every prefix within a few ulps of the exactly rounded sum of its terms;
    # a plain cumulative sum drifts by ~10 ulps at this length
    for x, step in ((0.3, 1e8), (0.7, 1e4), (1.0, 1.0), (0.3, 1e-12)):
        table = log_rising(x, step, 5000)
        for k in (1, 2, 10, 100, 1000, 2500, 5000):
            ref = math.fsum(math.log(x + s * step) for s in range(k))
            assert abs(table[k] - ref) <= 4 * np.finfo(float).eps * abs(ref)


def test_log_rising_edges():
    assert np.array_equal(log_rising(3.7, 1.0, 0), [0.0])
    assert log_rising(2.0, 0.5, 3)[1:] == pytest.approx([math.log(2.0), math.log(5.0), math.log(15.0)], rel=1e-15)
    with pytest.raises(ValueError):
        log_rising(1.0, 1.0, -1)


def test_factorial_table_matches_exact_binomials():
    # exact integer binomials as the cross-check for n <= 60
    fact = log_tables(0.5, 0.2, 60).fact
    for n in range(61):
        for k in range(n + 1):
            assert math.exp(fact[n] - fact[k] - fact[n - k]) == pytest.approx(math.comb(n, k), rel=1e-12)


def test_log_tables_are_cached_and_read_only():
    t = log_tables(0.3, 0.2, 10)
    assert log_tables(0.3, 0.2, 10) is t
    with pytest.raises(ValueError):
        t.red[0] = 1.0


def test_compensated_sum_scalar():
    acc = CompensatedSum()
    for v in (1e16, 1.0, -1e16):
        acc.add(v)
    assert acc.value == 1.0


def test_compensated_sum_vector_and_empty():
    acc = CompensatedSum()
    acc.add(np.array([1e16, 1.0]))
    acc.add(np.array([1.0, 1.0]))
    acc.add(np.array([-1e16, -2.0]))
    assert np.array_equal(acc.value, np.array([1.0, 0.0]))
    assert CompensatedSum().value == 0.0
