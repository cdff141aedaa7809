import itertools
import math

import numpy as np
import pytest

from polyagraph import (
    EnumerationLimitError,
    FiniteMemoryParams,
    UrnParams,
    build_graph,
    expected_stationary_exact,
    finite_memory_joint_pmf,
    polya_joint_pmf,
)
from polyagraph.analytics import degree_support
from polyagraph.oracle import (
    _PARAM_GRID,
    FunctionalSpec,
    _decay_column,
    _gray_vectors,
    _weight_table,
    bfs_distances,
    enumerate_expectation,
    oracle_centrality,
    oracle_degree_pmf,
    run_validation_suite,
)


def test_gray_vectors_cover_all_and_flip_one_bit():
    seen = list(_gray_vectors(5))
    assert len(seen) == 32
    assert len(set(seen)) == 32
    for a, b in zip(seen, seen[1:]):
        assert sum(x != y for x, y in zip(a, b)) == 1
    assert list(_gray_vectors(0)) == [()]


def test_weights_sum_to_one_under_each_law(ref_params):
    one = lambda z: 1.0
    for law, params in (
        ("joint", ref_params),
        ("joint", FiniteMemoryParams(ref_params, 2)),
        ("last-universal", ref_params),
        ("last-universal", FiniteMemoryParams(ref_params, 2)),
    ):
        total = enumerate_expectation(params, FunctionalSpec(arity=6, evaluator=one, law=law))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_expectation_of_red_count(ref_params):
    spec = FunctionalSpec(arity=2, evaluator=lambda z: float(sum(z)))
    assert enumerate_expectation(ref_params, spec) == pytest.approx(1.0, abs=1e-12)


def test_expectation_of_first_degree_is_n_rho(ref_params):
    n = 8
    spec = FunctionalSpec(arity=n, evaluator=lambda z: float(z[0] + sum(z[1:])))
    assert enumerate_expectation(ref_params, spec) == pytest.approx(4.0, abs=1e-12)


def test_vector_functional_matches_exact_stationary(ref_params):
    def pi_star(z):
        counts = 1 + np.arange(len(z)) * np.asarray(z) + (np.cumsum(np.asarray(z)[::-1])[::-1] - np.asarray(z))
        return counts / counts.sum()

    spec = FunctionalSpec(arity=3, evaluator=pi_star, law="last-universal")
    brute = enumerate_expectation(ref_params, spec)
    assert np.max(np.abs(brute - np.array([13, 13, 16]) / 42)) < 1e-14
    assert np.max(np.abs(brute - expected_stationary_exact(ref_params, 3).pi)) < 1e-14


def test_order_invariance_of_enumeration(ref_params):
    # same expectation accumulated in plain binary order with fsum
    n = 8
    evaluator = lambda z: math.cos(sum(z))
    gray = enumerate_expectation(ref_params, FunctionalSpec(arity=n, evaluator=evaluator))
    plain = math.fsum(
        polya_joint_pmf(ref_params, z) * evaluator(z)
        for z in itertools.product((0, 1), repeat=n)
    )
    assert gray == pytest.approx(plain, abs=1e-13)


def test_enumeration_guards():
    params = UrnParams(1, 1, 1)
    with pytest.raises(EnumerationLimitError):
        enumerate_expectation(params, FunctionalSpec(arity=25, evaluator=lambda z: 0.0))
    with pytest.raises(EnumerationLimitError):
        oracle_degree_pmf(params, 17, 1)
    with pytest.raises(EnumerationLimitError):
        oracle_centrality(params, 13, 1)
    with pytest.raises(ValueError):
        FunctionalSpec(arity=3, evaluator=lambda z: 0.0, law="weird")


def test_single_free_draw_under_last_universal(ref_params):
    spec = FunctionalSpec(arity=1, evaluator=lambda z: float(z[0]), law="last-universal")
    assert enumerate_expectation(ref_params, spec) == 1.0


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
            per_vector = [polya_joint_pmf(params, z) for z in _gray_vectors(n)]
            assert np.array_equal(_weight_table(params, n), per_vector)
    fm = FiniteMemoryParams(UrnParams(5.0, 5.0, 2.0), 2)
    assert np.array_equal(
        _weight_table(fm, 6), [finite_memory_joint_pmf(fm, z) for z in _gray_vectors(6)]
    )


def test_oracle_centrality_matches_per_vector_bfs():
    # the decay columns against one BFS per (params, n, node, vector)
    for params in _PARAM_GRID:
        for n in range(1, 8):
            for alpha in (0.3, 0.5):
                for i in range(1, n + 1):
                    direct = math.fsum(
                        polya_joint_pmf(params, z) * math.fsum(alpha**d for d in bfs_distances(z, i))
                        for z in _gray_vectors(n)
                    )
                    assert abs(oracle_centrality(params, n, i, alpha) - direct) <= 1e-15
    assert len(_decay_column(3, 0.5, 1)) == 8


def test_bfs_agrees_with_distance_rule_on_enumeration():
    for z in itertools.product((0, 1), repeat=6):
        g = build_graph(z)
        for i in range(1, 7):
            bfs = bfs_distances(z, i)
            for j in range(1, 7):
                assert bfs[j - 1] == g.distance(i, j)


def test_validation_suite_all_green():
    checks = run_validation_suite()
    assert len(checks) == 10
    failing = [c for c in checks if not c.passed]
    assert not failing, failing


def test_enumeration_limit_error_has_one_home():
    import polyagraph
    from polyagraph import consensus, oracle

    assert polyagraph.EnumerationLimitError is consensus.EnumerationLimitError
    assert oracle.EnumerationLimitError is consensus.EnumerationLimitError
