import math
import re
from dataclasses import replace

import numpy as np
import pytest

from polyagraph import (
    UrnParams,
    averaging_matrix,
    build_graph,
    eigenbasis,
    expected_stationary_exact,
    expected_stationary_mc,
    iterate,
    memory_sweep,
    opinion_preset,
    polya_joint_pmf,
    sample_connected_graph,
    sample_polya,
)
from polyagraph._numeric import log_rising, log_tables
from polyagraph.consensus import AveragingOperator
from polyagraph.oracle import _gray_draws, enumerate_expectation
from polyagraph.rng import uniform_rows
from polyagraph.urn import sample_runs

REF = UrnParams(5.0, 5.0, 2.0)
SYS = averaging_matrix(build_graph((0, 1)))
X0 = np.array([0.0, 0.0, 100.0, 100.0])

# One row per (public entry point, argument, least): call(v) runs the entry
# point with v as that argument, the others valid, and returns a value that
# == compares; ok is a valid count.
COUNTS = [
    ("sample_polya", "n", 1, 5, lambda v: sample_polya(REF, v, 1)),
    ("sample_runs", "n", 1, 3, lambda v: sample_runs(REF, v, 4, 1).tolist()),
    ("sample_runs", "runs", 0, 4, lambda v: sample_runs(REF, 3, v, 1).tolist()),
    ("UrnParams", "memory", 1, 3, lambda v: replace(REF, memory=v)),
    ("uniform_rows", "runs", 0, 4, lambda v: uniform_rows(3, 5, v, 7).tolist()),
    ("uniform_rows", "n", 0, 7, lambda v: uniform_rows(3, 5, 4, v).tolist()),
    ("AveragingOperator.sample", "n", 1, 7, lambda v: AveragingOperator.sample(REF, v, 5, 41).z.tolist()),
    ("AveragingOperator.sample", "runs", 0, 5, lambda v: AveragingOperator.sample(REF, 7, v, 41).z.tolist()),
    ("AveragingOperator.power", "t", 0, 2, lambda v: SYS.W.power((1.0, 2.0), v).tolist()),
    ("sample_connected_graph", "n", 1, 7, lambda v: sample_connected_graph(REF, v, 1).draws),
    ("iterate", "t_max", 1, 3, lambda v: iterate(SYS, (1.0, 2.0), t_max=v, record=False).converged_at),
    ("expected_stationary_exact", "n", 1, 3, lambda v: expected_stationary_exact(REF, v).pi.tolist()),
    ("expected_stationary_mc", "n", 1, 5, lambda v: expected_stationary_mc(REF, v, runs=300, seed=12).pi.tolist()),
    ("expected_stationary_mc", "runs", 2, 300, lambda v: expected_stationary_mc(REF, 5, runs=v, seed=12).pi.tolist()),
    ("memory_sweep", "n", 1, 4, lambda v: memory_sweep(REF, v, (0.2,), (1,), 4, X0, 1)),
    ("memory_sweep", "runs", 2, 4, lambda v: memory_sweep(REF, 4, (0.2,), (1,), v, X0, 1)),
    ("memory_sweep", "memory", 1, 3, lambda v: memory_sweep(REF, 4, (0.2,), (1, v), 4, X0, 1)),
    ("opinion_preset", "n", 1, 3, lambda v: opinion_preset("polarized", v).tolist()),
    ("enumerate_expectation", "n", 1, 3, lambda v: enumerate_expectation(REF, v, lambda z: float(sum(z)))),
    ("eigenbasis", "n", 1, 4, lambda v: [u.tolist() for u in eigenbasis(v)]),
]


@pytest.mark.parametrize("entry, name, least, ok, call", COUNTS, ids=[f"{row[0]}-{row[1]}" for row in COUNTS])
def test_counts_follow_one_rule(entry, name, least, ok, call):
    # a bool or a float would be read as another count (True as 1) or fail
    # deep inside numpy; a count below the bound is refused by name
    for bad in (True, float(ok)):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
            call(bad)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be >= {least}, got {least - 1}")):
        call(least - 1)
    want = call(ok)
    for numpy_int in (np.int64, np.uint16):
        assert call(numpy_int(ok)) == want


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
