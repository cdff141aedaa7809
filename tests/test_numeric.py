import math

import numpy as np
import pytest

from polyagraph import polya_joint_pmf
from polyagraph._numeric import log_rising, log_tables
from polyagraph.oracle import _gray_draws, enumerate_expectation


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
    for name in ("red", "black", "total", "fact"):
        table = getattr(t, name)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0
    for name in ("red", "black", "total"):
        # the scalar view is the table itself, not a copy, and refuses writes too
        view = getattr(t, "_" + name)
        assert view.readonly and view.obj is getattr(t, name)
        with pytest.raises(TypeError):
            view[0] = 1.0
    # the Beta-Binomial row is built once, kept with the tables and read-only
    row = t.log_pmf_row()
    assert t.log_pmf_row() is row and len(row) == 11
    assert row.readonly and not row.obj.flags.writeable
    with pytest.raises(TypeError):
        row[0] = 1.0
    assert type(t.log_joint(10, 4)) is float and type(row[4]) is float


def test_log_factorials_are_one_table_per_horizon():
    # log k! does not depend on the urn: every (rho, delta) at one horizon
    # shares one read-only array, equal to the rising product of step 1
    fact = log_tables(0.3, 0.2, 12).fact
    assert log_tables(0.7, 1e4, 12).fact is fact
    assert log_tables(0.3, 0.2, 13).fact is not fact
    assert not fact.flags.writeable
    assert np.array_equal(fact, log_rising(1.0, 1.0, 12))



# Exchangeable draws weigh (1, 0) and (0, 1) alike, so the weighted terms of
# +-1e16 cancel and leave the terms of 1 behind, which a plain running sum in
# Gray order partly drops.  enumerate_expectation must return the exactly
# rounded sum (math.fsum) of its weighted terms, per component.
_CANCELLING = {(0, 0): 1.0, (1, 0): 1e16, (1, 1): 1.0, (0, 1): -1e16}


def _cancelling_sum(params) -> float:
    terms = [polya_joint_pmf(params, z) * _CANCELLING[z] for z in map(tuple, _gray_draws(2).tolist())]
    exact = math.fsum(terms)
    assert sum(terms) != exact
    return exact


def test_compensated_sum_scalar(ref_params):
    exact = _cancelling_sum(ref_params)
    scalar = enumerate_expectation(ref_params, 2, _CANCELLING.__getitem__)
    assert type(scalar) is float and scalar == exact


def test_compensated_sum_vector_and_empty(ref_params):
    exact = _cancelling_sum(ref_params)
    vector = enumerate_expectation(ref_params, 2, lambda z: np.array([[_CANCELLING[z], -_CANCELLING[z], 1.0]]))
    assert vector.shape == (1, 3)
    assert np.array_equal(vector, [[exact, -exact, 1.0]])
    # an enumeration is never empty: n = 0 is refused, and the smallest sum,
    # one pinned draw, returns the evaluator's value as it is
    with pytest.raises(ValueError):
        enumerate_expectation(ref_params, 0, _CANCELLING.__getitem__)
    one = enumerate_expectation(ref_params, 1, lambda z: np.array([1e16, 1.0]), pin_last=True)
    assert np.array_equal(one, [1e16, 1.0])
