"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion (pytest itself reports failures).  Statistical criteria are seeded
and therefore deterministic; the Kolmogorov-Smirnov check is documented as
flaky-tolerant and is rerun once on failure with a fresh seed.

Criteria 01, 02, 03, 04 (its eigensolver half), 07 (its M >= n half) and 08
call the check functions that the ``validate`` command runs, with their own
grids, seeds and counts; each check holds the criterion's tolerance.  Only
what belongs to one criterion is written out here.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import stats

from polyagraph import (
    UrnParams,
    averaging_matrix,
    build_graph,
    degree_pmf,
    degree_variance,
    expected_decay_centrality,
    expected_stationary_exact,
    iterate,
    memory_sweep,
    opinion_preset,
    sample_connected_graph,
    sample_polya,
    verify_eigenpairs,
)
from polyagraph import oracle
from polyagraph.consensus import AveragingOperator
from polyagraph.oracle import (
    _check_centrality,
    _check_degree_laws,
    _check_exchangeability,
    _check_finite_memory,
    _check_spectrum,
)
from polyagraph.rng import stream

GRID = (UrnParams(5, 5, 2), UrnParams(1, 1, 1), UrnParams(1, 9, 5))
REF = UrnParams(5, 5, 2)
DEGREE_SIZES = (4, 8, 12)


def report(number, message):
    print(f"\n[PASS] criterion {number}: {message}")


def test_criterion_01_degree_pmf_matches_oracle():
    start = time.perf_counter()
    pmf, _ = _check_degree_laws(GRID, DEGREE_SIZES)
    elapsed = time.perf_counter() - start
    assert pmf.passed, pmf
    assert elapsed < 5.0
    report(1, f"{pmf.name}, {pmf.detail} in {elapsed:.2f}s")


def test_degree_check_runs_the_criterion_grid(monkeypatch):
    # a closed form off by 1e-9 at n = 12 alone slips past validate's sizes
    # but not criterion 01's, so the criterion's grid reaches the check
    exact = oracle.degree_pmf

    def off_at_12(params, n, i):
        dist = exact(params, n, i)
        return dataclasses.replace(dist, probabilities=dist.probabilities + 1e-9) if n == 12 else dist

    monkeypatch.setattr(oracle, "degree_pmf", off_at_12)
    pmf, _ = _check_degree_laws(GRID, DEGREE_SIZES)
    assert not pmf.passed
    [validate_inputs] = [inputs for run, inputs in oracle._CHECKS if run is _check_degree_laws]
    assert all(check.passed for check in _check_degree_laws(**validate_inputs))


def test_criterion_02_mean_and_variance():
    _, moments = _check_degree_laws(GRID, DEGREE_SIZES)
    assert moments.passed, moments
    worst_mean = max(
        abs(degree_pmf(params, n, i).moment_mean() - n * params.rho)
        for params in GRID
        for n in DEGREE_SIZES
        for i in range(1, n + 1)
    )
    assert worst_mean < 1e-10
    # spot value at (rho, delta, n, i) = (0.5, 0.2, 2, 1): the 4-term
    # enumeration gives exactly 7/12 = 0.58333...
    spot = degree_variance(UrnParams.from_proportions(0.5, 0.2), 2, 1)
    assert abs(spot - 7 / 12) < 1e-8
    report(2, f"pmf mean error {worst_mean:.2e}; {moments.detail}; spot = {spot:.7f}")


def test_criterion_03_expected_decay_centrality():
    [check] = _check_centrality(GRID, range(1, 11))
    assert check.passed, check
    spot = expected_decay_centrality(UrnParams.from_proportions(0.5, 0.2), 2, 1)
    assert spot == pytest.approx(0.75, abs=1e-12)
    report(3, f"centrality vs BFS enumeration (n <= 10, all i), {check.detail}")


def test_criterion_04_spectrum_theorem():
    start = time.perf_counter()
    rng = stream(404)
    failures = 0
    for _ in range(1000):
        z = tuple(int(b) for b in rng.integers(0, 2, size=50))
        failures += len(verify_eigenpairs(build_graph(z)).failures())
    assert failures == 0
    # 60 more sequences from the same generator, against the eigensolver
    [check] = _check_spectrum(rng, 60)
    elapsed = time.perf_counter() - start
    assert check.passed, check
    assert elapsed < 10.0
    report(4, f"1000 exact eigenpair runs, eigensolver multiset {check.detail}, {elapsed:.2f}s")


def test_criterion_05_consensus_histogram_reproduction():
    start = time.perf_counter()
    n, runs, t = 10, 200, 100
    x0 = opinion_preset("paper-n10", n)
    # the 200 runs of streams (505, r) as one batch, one realization per row
    W = AveragingOperator.sample(REF, n, runs, seed=505)
    snapshots = W.power(x0, t).mean(axis=1)
    theoretical = float(expected_stationary_exact(REF, n).pi @ x0)  # exact DP
    se = snapshots.std(ddof=1) / math.sqrt(runs)
    deviation = abs(snapshots.mean() - theoretical)
    elapsed = time.perf_counter() - start
    assert deviation < 3 * se
    assert elapsed < 5.0
    report(
        5,
        f"200-run mean {snapshots.mean():.6f} vs exact {theoretical:.6f} "
        f"({deviation / se:.2f} SE), {elapsed:.2f}s",
    )


def test_criterion_06_convergence_at_n100():
    start = time.perf_counter()
    n = 100
    rng = stream(606)
    worst_steps = 0
    for r in range(100):
        g = sample_connected_graph(REF, n, seed=606, stream_index=r)
        sys_ = averaging_matrix(g)
        x0 = rng.uniform(0, 10, size=n)
        traj = iterate(sys_, x0, t_max=10_000, tol=1e-10, record=False)
        assert traj.converged, f"run {r} did not converge"
        assert np.max(np.abs(traj.final - traj.limit)) < 1e-10
        worst_steps = max(worst_steps, traj.converged_at)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(6, f"100 realizations at n = 100 converged (worst {worst_steps} steps), {elapsed:.2f}s")


def test_criterion_07_finite_memory_reduction():
    [check] = _check_finite_memory(REF, range(1, 11), extra_memory=(0, 3), short_memory=2)
    assert check.passed, check
    n = 10
    points = memory_sweep(
        REF, n, deltas=(0.2, 1.0, 10.0), memories=(n,), runs=1000,
        x0=opinion_preset("polarized", n), seed=707,
    )
    worst_dev = 0.0
    for p in points:
        combined = math.hypot(p.std_error, p.baseline_se)
        worst_dev = max(worst_dev, abs(p.value - p.baseline) / combined)
    assert worst_dev < 3.0
    report(7, f"M >= n pmf {check.detail}; sweep at M = n within {worst_dev:.2f} combined SE")


def test_criterion_08_exchangeability_and_normalization():
    [check] = _check_exchangeability(
        (REF, UrnParams(1, 9, 5)), seed=808, sizes=range(2, 11), samples=30, exhaustive_up_to=5
    )
    assert check.passed, check
    report(8, check.detail)


def test_criterion_09_beta_trace_limit_sanity():
    # seeded statistical test; documented flaky-tolerant, rerun once on failure
    n, samples = 2000, 2000

    def ks_pvalue(master_seed):
        means = np.empty(samples)
        for r in range(samples):
            z = sample_polya(REF, n, seed=master_seed, stream_index=r)
            means[r] = sum(z.draws) / n
        return stats.kstest(means, stats.beta(2.5, 2.5).cdf).pvalue

    p = ks_pvalue(909)
    if p < 0.01:
        p = ks_pvalue(910)
    assert p >= 0.01
    report(9, f"KS test of trace means vs Beta(2.5, 2.5): p = {p:.3f}")


def test_criterion_10_chu_vandermonde():
    from polyagraph._numeric import log_rising

    def rising_factorial(x, m):
        return math.exp(log_rising(x, 1.0, m)[m])

    rng = stream(1010)
    worst = 0.0
    for _ in range(200):
        s = float(rng.uniform(0.01, 10.0))
        t = float(rng.uniform(0.01, 10.0))
        m = int(rng.integers(0, 9))
        lhs = rising_factorial(s + t, m)
        rhs = math.fsum(
            math.comb(m, k) * rising_factorial(s, k) * rising_factorial(t, m - k)
            for k in range(m + 1)
        )
        worst = max(worst, abs(rhs - lhs) / abs(lhs))
    assert worst < 1e-9
    report(10, f"identity over 200 random (s, t, m), max relative error = {worst:.2e}")
