import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyagraph import EigenpairReport, build_graph, eigenbasis, laplacian, spectrum, verify_eigenpairs
from polyagraph import spectral
from polyagraph.rng import stream
from polyagraph.spectral import _eigenpair_flags

draw_vectors = st.lists(st.integers(0, 1), min_size=1, max_size=15).map(tuple)


def test_laplacian_complete_with_loops_is_3I_minus_J():
    L = laplacian(build_graph((1, 1, 1)))
    assert np.array_equal(L, 3 * np.eye(3, dtype=np.int64) - np.ones((3, 3), dtype=np.int64))


def test_laplacian_empty_graph_is_zero():
    assert np.array_equal(laplacian(build_graph((0, 0))), np.zeros((2, 2), dtype=np.int64))


def test_laplacian_entrywise_form():
    z = (1, 0, 0, 1, 0)
    g = build_graph(z)
    L = laplacian(g)
    for i in range(5):
        for j in range(5):
            if i == j:
                assert L[i, i] == g.degree(i + 1) - z[i]
            else:
                assert L[i, j] == -z[max(i, j)]


@settings(max_examples=80, deadline=None)
@given(z=draw_vectors)
def test_laplacian_rows_sum_to_zero_and_symmetric(z):
    L = laplacian(build_graph(z))
    assert L.dtype == np.int64
    assert np.array_equal(L.sum(axis=1), np.zeros(len(z), dtype=np.int64))
    assert np.array_equal(L, L.T)


def test_spectrum_examples():
    assert spectrum(build_graph((1, 0, 0, 1, 0))) == (0, 0, 1, 1, 4)
    assert spectrum(build_graph((1, 1, 1))) == (0, 3, 3)
    assert spectrum(build_graph((0, 0, 0, 0))) == (0, 0, 0, 0)
    assert spectrum(build_graph((1,))) == (0,)


def test_spectrum_matches_numeric_eigensolver():
    rng = stream(2024)
    for _ in range(60):
        n = int(rng.integers(1, 31))
        z = tuple(int(b) for b in rng.integers(0, 2, size=n))
        g = build_graph(z)
        numeric = np.sort(np.linalg.eigvalsh(laplacian(g).astype(float)))
        assert np.max(np.abs(numeric - np.array(spectrum(g), dtype=float))) < 1e-8


def test_second_smallest_eigenvalue_is_min_later_degree():
    rng = stream(2025)
    for _ in range(50):
        n = int(rng.integers(2, 25))
        z = tuple(int(b) for b in rng.integers(0, 2, size=n))
        g = build_graph(z)
        assert sorted(spectrum(g))[1] == min(g.degree(i) for i in range(2, n + 1))


def test_eigenbasis_reference_vectors():
    basis = eigenbasis(3)
    assert [list(u) for u in basis] == [[1, 1, 1], [1, -1, 0], [1, 1, -2]]


def test_eigenbasis_structure():
    n = 8
    basis = eigenbasis(n)
    assert len(basis) == n
    for m, u in enumerate(basis[1:], start=2):
        assert np.count_nonzero(u) == m
        assert u.sum() == 0
    matrix = np.column_stack(basis).astype(float)
    assert abs(np.linalg.det(matrix)) > 0.5  # linearly independent


def test_eigenbasis_deterministic_and_realization_free():
    assert all(np.array_equal(a, b) for a, b in zip(eigenbasis(6), eigenbasis(6)))
    with pytest.raises(ValueError):
        eigenbasis(0)


def test_verify_eigenpairs_examples():
    report = verify_eigenpairs(build_graph((1, 0, 0, 1, 0)))
    assert report.all_passed
    assert report.passed.tolist() == [True] * 5
    assert report.eigenvalues.tolist() == [0, 1, 1, 4, 0]
    assert verify_eigenpairs(build_graph((0, 0, 0))).all_passed


def test_eigenpair_report_failure_path():
    # verify_eigenpairs never fails on a valid graph, so build a failing report by hand
    report = EigenpairReport(
        eigenvalues=np.array([0, 1, 1, 4, 0], dtype=np.int64),
        passed=np.array([True, True, False, True, True]),
    )
    # failures() gives the 1-based index of each failed eigenpair, as Python ints
    assert report.failures() == (3,)
    assert type(report.failures()[0]) is int
    assert report.all_passed is False
    assert verify_eigenpairs(build_graph((1, 0, 0, 1, 0))).failures() == ()


def test_verify_eigenpairs_random_runs():
    rng = stream(77)
    for _ in range(200):
        z = tuple(int(b) for b in rng.integers(0, 2, size=50))
        assert verify_eigenpairs(build_graph(z)).all_passed


def test_verify_eigenpairs_agrees_with_dense_identity():
    # the O(n) products against the dense integer identity L u_m = lambda_m u_m
    rng = stream(78)
    for n in (1, 2, 3, 17, 120):
        for _ in range(20):
            g = build_graph(tuple(int(b) for b in rng.integers(0, 2, size=n)))
            basis = np.column_stack(eigenbasis(n))
            eigenvalues = np.concatenate(([0], g.degrees()[1:]))
            dense_ok = (laplacian(g) @ basis == basis * eigenvalues).all(axis=0)
            assert verify_eigenpairs(g).passed.tolist() == dense_ok.tolist()
            assert dense_ok.all()


def test_verify_eigenpairs_memory_is_linear():
    # the whole n x n int64 eigenbasis would take 32 MB at this size; the
    # check builds it a block of rows at a time
    n = 2000
    g = build_graph(tuple(int(b) for b in stream(79).integers(0, 2, size=n)))
    tracemalloc.start()
    try:
        report = verify_eigenpairs(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert report.passed.shape == report.eigenvalues.shape == (n,)
    assert peak < 16 * 2**20


def _spectrum_rows(draws):
    # the theorem's eigenvalues 0, deg(2), .., deg(n) of every row, from the graphs
    return np.array([np.concatenate(([0], build_graph(z).degrees()[1:])) for z in draws.tolist()])


def test_eigenpair_kernel_matches_per_graph_checks():
    rng = stream(80)
    for n in (1, 2, 5, 50, 130):
        draws = rng.integers(0, 2, size=(37, n))
        flags = _eigenpair_flags(draws, _spectrum_rows(draws))
        assert flags.shape == (37, n) and flags.all()
        per_graph = [verify_eigenpairs(build_graph(z)).passed for z in draws.tolist()]
        assert np.array_equal(flags, per_graph)
    empty = np.zeros((0, 4), dtype=np.int64)
    assert _eigenpair_flags(empty, empty).shape == (0, 4)


@pytest.mark.parametrize("budget", [2, 224, 992, 2480, 8060, 1 << 19])
def test_eigenpair_kernel_block_edges_and_corruption(monkeypatch, budget):
    # int16 arithmetic at these sizes.  2 bytes: one graph by one basis row
    # per block; 224: graph blocks of 3 + 3 + 3 + 1 and row blocks of
    # 3 + 3 + 1 (n = 7); 992: graph blocks of 3 + 3 + 3 + 1 and row blocks of
    # 3 that leave one row over (n = 31); 2480: row blocks of 5 + 2 for all
    # 10 graphs (n = 7) and graph blocks of 7 + 3 (n = 31); 8060: row blocks
    # of 3 for all 10 graphs (n = 31); 2^19: one block
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", budget)
    monkeypatch.setattr(spectral, "_STACK_BLOCK_BYTES", budget)
    rng = stream(81)
    for n in (1, 7, 31):
        for runs in (1, 10):
            draws = rng.integers(0, 2, size=(runs, n))
            eigenvalues = _spectrum_rows(draws)
            assert _eigenpair_flags(draws, eigenvalues).all()
            for r in {0, runs - 1}:
                for m in {0, 1 % n, n // 2, n - 1}:
                    bad = eigenvalues.copy()
                    bad[r, m] += 1
                    want = np.ones((runs, n), dtype=bool)
                    want[r, m] = False
                    assert np.array_equal(_eigenpair_flags(draws, bad), want), (n, runs, r, m)


def test_eigenpair_kernel_arithmetic_is_wide_enough():
    # (off - lambda) u_m must not wrap: an eigenvalue off by a multiple of
    # 2^16 or 2^32 would pass in int16 or int32 arithmetic
    draws = stream(82).integers(0, 2, size=(4, 9))
    eigenvalues = _spectrum_rows(draws)
    assert spectral._work_dtype(9, eigenvalues) == np.int16
    assert spectral._work_dtype(400, np.array([[0, 400]])) == np.int32
    for shift, dtype in ((16, np.int32), (32, np.int64)):
        bad = eigenvalues.copy()
        bad[2, 5] += 1 << shift
        assert spectral._work_dtype(9, bad) == dtype
        want = np.ones(draws.shape, dtype=bool)
        want[2, 5] = False
        assert np.array_equal(_eigenpair_flags(draws, bad), want)
