import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from polyagraph import (
    EnumerationLimitError,
    UrnParams,
    build_graph,
    expected_stationary_exact,
    polya_joint_pmf,
)
from polyagraph import oracle
from polyagraph.analytics import degree_support
from polyagraph.graph import ThresholdGraph
from polyagraph.oracle import (
    _CHECKS,
    _PARAM_GRID,
    _check_distance_law,
    _check_eigenpairs,
    _decay_columns,
    _distance_table,
    _gray_draws,
    _weight_table,
    bfs_distances,
    enumerate_expectation,
    oracle_centrality,
    oracle_degree_pmf,
    run_validation_suite,
)
from polyagraph.rng import stream


def _inputs(check):
    # the inputs the validate command runs ``check`` on
    [inputs] = [inputs for run, inputs in _CHECKS if run is check]
    return inputs


def test_gray_draws_cover_all_and_flip_one_bit():
    for n in range(1, 7):
        rows = _gray_draws(n).tolist()
        assert len(rows) == 1 << n
        assert len(set(map(tuple, rows))) == 1 << n
        for a, b in zip(rows, rows[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1
    assert _gray_draws(0).shape == (1, 0)


def test_weights_sum_to_one_under_each_law(ref_params):
    one = lambda z: 1.0
    for pin_last in (False, True):
        for params in (ref_params, replace(ref_params, memory=2)):
            total = enumerate_expectation(params, 6, one, pin_last=pin_last)
            assert total == pytest.approx(1.0, abs=1e-12)


def test_expectation_of_red_count(ref_params):
    assert enumerate_expectation(ref_params, 2, lambda z: float(sum(z))) == pytest.approx(1.0, abs=1e-12)


def test_expectation_of_first_degree_is_n_rho(ref_params):
    evaluator = lambda z: float(z[0] + sum(z[1:]))
    assert enumerate_expectation(ref_params, 8, evaluator) == pytest.approx(4.0, abs=1e-12)


def test_vector_functional_matches_exact_stationary(ref_params):
    def pi_star(z):
        counts = 1 + np.arange(len(z)) * np.asarray(z) + (np.cumsum(np.asarray(z)[::-1])[::-1] - np.asarray(z))
        return counts / counts.sum()

    brute = enumerate_expectation(ref_params, 3, pi_star, pin_last=True)
    assert np.max(np.abs(brute - np.array([13, 13, 16]) / 42)) < 1e-14
    assert np.max(np.abs(brute - expected_stationary_exact(ref_params, 3).pi)) < 1e-14


def test_order_invariance_of_enumeration(ref_params):
    # same expectation accumulated in plain binary order with fsum
    n = 8
    evaluator = lambda z: math.cos(sum(z))
    gray = enumerate_expectation(ref_params, n, evaluator)
    plain = math.fsum(
        polya_joint_pmf(ref_params, z) * evaluator(z)
        for z in itertools.product((0, 1), repeat=n)
    )
    assert gray == pytest.approx(plain, abs=1e-13)


def test_enumeration_guards():
    params = UrnParams(1, 1, 1)
    with pytest.raises(EnumerationLimitError):
        enumerate_expectation(params, 25, lambda z: 0.0)
    with pytest.raises(EnumerationLimitError):
        oracle_degree_pmf(params, 17, 1)
    with pytest.raises(EnumerationLimitError):
        oracle_centrality(params, 13, 1)


def test_single_free_draw_under_last_universal(ref_params):
    assert enumerate_expectation(ref_params, 1, lambda z: float(z[0]), pin_last=True) == 1.0


def test_oracle_arguments_follow_the_integer_rule(ref_params):
    # True would read as n = 1 or node 1, and 2.0 would reach numpy indexing
    for bad in (True, 2.0):
        for oracle in (oracle_degree_pmf, oracle_centrality):
            with pytest.raises(ValueError, match="n must be an integer"):
                oracle(ref_params, bad, 1)
            with pytest.raises(ValueError, match="i must be an integer"):
                oracle(ref_params, 5, bad)
    assert oracle_degree_pmf(ref_params, np.int64(5), np.int32(2)) == oracle_degree_pmf(ref_params, 5, 2)
    assert oracle_centrality(ref_params, np.int64(5), np.int8(2)) == oracle_centrality(ref_params, 5, 2)
    with pytest.raises(IndexError):
        oracle_degree_pmf(ref_params, np.int64(4), np.int64(5))
    with pytest.raises(IndexError):
        oracle_centrality(ref_params, 3, np.int64(0))


def test_oracle_degree_pmf_values(ref_params):
    pmf = oracle_degree_pmf(ref_params, 2, 1)
    assert pmf[0] == pytest.approx(7 / 24, abs=1e-13)
    assert pmf[1] == pytest.approx(5 / 12, abs=1e-13)
    assert pmf[2] == pytest.approx(7 / 24, abs=1e-13)
    last = oracle_degree_pmf(ref_params, 5, 5)
    assert set(last) == {0, 5}
    for n in (4, 6):
        for i in range(1, n + 1):
            assert set(oracle_degree_pmf(ref_params, n, i)) <= set(degree_support(n, i))
    with pytest.raises(IndexError):
        oracle_degree_pmf(ref_params, 4, 5)


def test_oracle_centrality_values(ref_params):
    assert oracle_centrality(ref_params, 2, 1) == pytest.approx(0.75, abs=1e-13)
    assert oracle_centrality(ref_params, 1, 1) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(IndexError):
        oracle_centrality(ref_params, 3, 0)


def test_weight_table_matches_per_vector_evaluation():
    # one evaluation per red count, indexed by popcount, against one per vector
    grid = _PARAM_GRID + tuple(UrnParams.from_proportions(0.3, d) for d in (1e-12, 1e8))
    for params in grid:
        for n in range(1, 11):
            per_vector = [polya_joint_pmf(params, z) for z in _gray_draws(n).tolist()]
            assert np.array_equal(_weight_table(params, n), per_vector)
    fm = UrnParams(5.0, 5.0, 2.0, memory=2)
    assert np.array_equal(
        _weight_table(fm, 6), [polya_joint_pmf(fm, z) for z in _gray_draws(6).tolist()]
    )


def test_oracle_centrality_matches_per_vector_bfs():
    # the decay columns against one BFS per (params, n, node, vector)
    for params in _PARAM_GRID:
        for n in range(1, 8):
            for alpha in (0.3, 0.5):
                for i in range(1, n + 1):
                    direct = math.fsum(
                        polya_joint_pmf(params, z) * math.fsum(alpha**d for d in bfs_distances(z, i))
                        for z in _gray_draws(n).tolist()
                    )
                    assert abs(oracle_centrality(params, n, i, alpha) - direct) <= 1e-15
    assert [len(column) for column in _decay_columns(3, 0.5)] == [8, 8, 8]


def test_bfs_agrees_with_distance_rule_on_enumeration():
    for z in itertools.product((0, 1), repeat=6):
        g = build_graph(z)
        for i in range(1, 7):
            bfs = bfs_distances(z, i)
            for j in range(1, 7):
                assert bfs[j - 1] == g.distance(i, j)


def test_distance_table_matches_distance_rule():
    # every pair of every realization up to n = 10, against the closed-form rule
    for n in range(1, 11):
        table = _distance_table(n)
        assert table.shape == (1 << n, n, n)
        for row, z in zip(table.tolist(), _gray_draws(n).tolist()):
            g = build_graph(z)
            assert row == [[g.distance(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]


def test_bfs_self_loop_convention_and_isolated_sources():
    inf = math.inf
    assert bfs_distances((0,), 1) == [inf]
    assert bfs_distances((1,), 1) == [0.0]
    assert bfs_distances((1, 0, 0), 1) == [0.0, inf, inf]
    assert bfs_distances((1, 0, 0), 2) == [inf, inf, inf]
    # node 2 reaches itself through node 3, yet without a self-loop d(2, 2) is inf
    assert bfs_distances((0, 0, 1), 2) == [2.0, inf, 1.0]
    with pytest.raises(IndexError):
        bfs_distances((1, 0), 3)
    # True used to answer for node 1, and 2.0 failed inside numpy
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match="source must be an integer"):
            bfs_distances((1, 0), bad)
    assert bfs_distances((0, 0, 1), np.int64(2)) == [2.0, inf, 1.0]


def test_bfs_frontier_products_do_not_wrap():
    # node 2 neighbours all 256 universal nodes, which make up level 1 from
    # node 1: a uint8 count of frontier neighbours would wrap to 0 there
    d = bfs_distances((0, 0) + (1,) * 256, 1)
    assert d[:2] == [math.inf, 2.0]
    assert set(d[2:]) == {1.0}


def test_decay_column_is_the_per_vector_sum():
    # bit for bit the exactly rounded sum over t of alpha^d(s, t), one vector
    # at a time, though the columns sum once per distinct distance multiset
    for n in range(1, 11):
        graphs = [build_graph(z) for z in _gray_draws(n).tolist()]
        distances = [[[g.distance(s, t) for t in range(1, n + 1)] for g in graphs] for s in range(1, n + 1)]
        for alpha in (0.3, 0.5, 0.7, 0.123456789):
            columns = _decay_columns(n, alpha)
            for s in range(n):
                assert columns[s].tolist() == [math.fsum(alpha**d for d in row) for row in distances[s]]
    # the count codes fit int64 up to n = 14, beyond every horizon the oracle takes
    assert oracle.MAX_CENTRALITY_HORIZON <= 14


def test_decay_columns_workspace_is_pinned():
    # tracemalloc of the n = 9 columns validate reads, from an empty cache:
    # one sum per distance multiset shares its floats between realizations,
    # and the count codes are built one source at a time
    _decay_columns(9, 0.5)
    _decay_columns.cache_clear()
    tracemalloc.start()
    try:
        _decay_columns(9, 0.5)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 496_680 and retained < 155_024, (peak, retained)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.5, math.inf, math.nan])
def test_oracle_centrality_refuses_alpha_outside_the_unit_interval(ref_params, monkeypatch, alpha):
    # alpha = 2 gave inf and alpha = 1 counted unreachable nodes as 1
    def enumerate_nothing(*args):
        raise AssertionError("alpha must be refused before enumerating")

    monkeypatch.setattr(oracle, "_distance_table", enumerate_nothing)
    monkeypatch.setattr(oracle, "_weight_table", enumerate_nothing)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
        oracle_centrality(ref_params, 4, 2, alpha)


def test_distance_law_check_reads_bfs(monkeypatch):
    def closed_form(self, i, j):
        raise AssertionError("the distance law check must not use the rule it checks")

    monkeypatch.setattr(ThresholdGraph, "distance", closed_form)
    [check] = _check_distance_law(**_inputs(_check_distance_law))
    assert check.passed, check


def test_eigenpair_check_draws_are_the_per_run_draws():
    # the check draws its (runs, n) stack in one call; row r is what the r-th
    # of `runs` calls of size n on the same stream returns
    inputs = _inputs(_check_eigenpairs)
    seed, runs, n = inputs["seed"], inputs["runs"], inputs["n"]
    rng = stream(seed)
    per_run = [rng.integers(0, 2, size=n) for _ in range(runs)]
    assert np.array_equal(stream(seed).integers(0, 2, size=(runs, n)), per_run)


def test_eigenpair_check_memory():
    # The check keeps its int16 draw and eigenvalue stacks (20 KB each), the
    # flags and one 48 KiB block.  Checking the 200 graphs one at a time
    # instead, in int64 through verify_eigenpairs, peaked at 127.4 KB
    # measured the same way; the stack must not need more.
    inputs = _inputs(_check_eigenpairs)
    _check_eigenpairs(**inputs)  # a first call also pays for numpy's lazy imports
    tracemalloc.start()
    try:
        [check] = _check_eigenpairs(**inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check.passed
    assert peak < 127_000


def test_validation_suite_all_green():
    checks = run_validation_suite()
    assert [c.name for c in checks] == [
        "degree pmf vs enumeration",
        "degree mean/variance vs enumeration",
        "distance law vs enumeration",
        "decay centrality vs BFS enumeration",
        "spectrum vs numeric eigensolver",
        "exact integer eigenpair identity",
        "expected stationary vs matrix-power enumeration",
        "monte carlo stationary within 4 SE of exact",
        "finite-memory law reduction and normalization",
        "exchangeability and normalization",
    ]
    failing = [c for c in checks if not c.passed]
    assert not failing, failing


def test_enumeration_limit_error_has_one_home():
    import polyagraph
    from polyagraph import consensus, oracle

    assert polyagraph.EnumerationLimitError is consensus.EnumerationLimitError
    assert oracle.EnumerationLimitError is consensus.EnumerationLimitError
