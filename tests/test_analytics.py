import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyagraph import (
    CentralityConfig,
    UrnParams,
    beta_binomial_pmf,
    build_graph,
    degree_pmf,
    degree_support,
    degree_variance,
    distance_pmf,
    empirical_decay_centrality,
    expected_decay_centrality,
    expected_degree,
    polya_joint_pmf,
)
from polyagraph._numeric import log_rising, log_tables
from polyagraph.oracle import oracle_centrality, oracle_degree_pmf
from polyagraph.rng import stream


def all_vectors(n):
    return itertools.product((0, 1), repeat=n)


def rising_factorial(x, m):
    return math.exp(log_rising(x, 1.0, m)[m])


# ---------------------------------------------------------------------------
# the closed forms take the exchangeable urn only


@pytest.mark.parametrize(
    "law_fn",
    [
        lambda law: expected_degree(law, 6, 2),
        lambda law: degree_pmf(law, 6, 2),
        lambda law: degree_variance(law, 6, 2),
        lambda law: distance_pmf(law, 6, 2, 4),
        lambda law: expected_decay_centrality(law, 6, 2),
        lambda law: beta_binomial_pmf(law, 6, 2),
    ],
    ids=["expected_degree", "degree_pmf", "degree_variance", "distance_pmf", "expected_decay_centrality",
         "beta_binomial_pmf"],
)
def test_closed_forms_refuse_a_finite_memory_law(law_fn):
    # a finite-memory law used to fail with an AttributeError on .rho; the
    # refusal names its memory and the urn the closed forms hold for
    law = UrnParams(1, 1, 1, memory=2)
    with pytest.raises(TypeError, match="closed forms hold for the exchangeable urn: .* without a memory, got memory = 2"):
        law_fn(law)


# ---------------------------------------------------------------------------
# expected degree

def test_expected_degree_is_n_rho(ref_params):
    for i in range(1, 11):
        assert expected_degree(ref_params, 10, i) == pytest.approx(5.0, abs=1e-14)
    p = UrnParams.from_proportions(0.3, 1.0)
    assert expected_degree(p, 1, 1) == pytest.approx(0.3)
    with pytest.raises(IndexError):
        expected_degree(ref_params, 4, 5)


def test_expected_degree_matches_pmf_mean(ref_params):
    dist = degree_pmf(ref_params, 2, 1)
    assert dist.moment_mean() == pytest.approx(1.0, abs=1e-12)
    assert expected_degree(ref_params, 2, 1) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# degree support and pmf

def test_degree_support_shapes():
    assert degree_support(6, 3) == tuple(range(7))
    assert degree_support(5, 4) == (0, 1, 4, 5)
    assert degree_support(4, 4) == (0, 4)
    assert degree_support(4, 2) == (0, 1, 2, 3, 4)


def test_degree_pmf_two_node_case(ref_params):
    dist = degree_pmf(ref_params, 2, 1)
    assert dist.pmf[0] == pytest.approx(7 / 24, abs=1e-12)
    assert dist.pmf[1] == pytest.approx(5 / 12, abs=1e-12)
    assert dist.pmf[2] == pytest.approx(7 / 24, abs=1e-12)


def test_degree_pmf_last_node_is_scaled_bernoulli(grid_params):
    n = 7
    dist = degree_pmf(grid_params, n, n)
    assert dist.support == (0, n)
    assert dist.pmf[n] == pytest.approx(grid_params.rho, abs=1e-12)
    assert dist.pmf[0] == pytest.approx(1 - grid_params.rho, abs=1e-12)


def test_degree_pmf_support_equals_attainable_range(grid_params):
    for n in (4, 8, 12):
        for i in range(1, n + 1):
            assert degree_pmf(grid_params, n, i).support == degree_support(n, i)


def test_degree_pmf_mapping_reads_the_array_as_a_dict_would(ref_params):
    for n, i in ((7, 3), (7, 6), (1, 1)):
        dist = degree_pmf(ref_params, n, i)
        values = dist.probabilities.tolist()
        want = {k: values[k] for k in degree_support(n, i)}
        pmf = dist.pmf
        assert pmf == want and want == pmf and len(pmf) == len(want)
        assert list(pmf) == list(pmf.keys()) == list(want)
        assert list(pmf.values()) == list(want.values())
        assert list(pmf.items()) == list(want.items())
        assert repr(pmf) == repr(want)
        for k in range(-1, n + 2):
            assert (k in pmf) == (k in want)
            if k in want:
                assert type(pmf[k]) is float and pmf[k] == want[k]
                assert pmf[np.int64(k)] == pmf[float(k)] == want[k]
            else:
                with pytest.raises(KeyError):
                    pmf[k]
        assert 1.5 not in pmf and "1" not in pmf
        with pytest.raises(TypeError):
            pmf[0] = 0.5
        assert dist.pmf is pmf


def test_degree_pmf_against_enumeration(grid_params):
    for n in (4, 8):
        for i in range(1, n + 1):
            closed = degree_pmf(grid_params, n, i)
            brute = oracle_degree_pmf(grid_params, n, i)
            assert set(closed.pmf) == set(brute)
            for k, p in brute.items():
                assert closed.pmf[k] == pytest.approx(p, abs=1e-10)
            assert math.fsum(closed.pmf.values()) == pytest.approx(1.0, abs=1e-10)
            assert closed.moment_mean() == pytest.approx(n * grid_params.rho, abs=1e-10)


def test_degree_pmf_two_branch_decomposition(ref_params):
    # isolated branch: P(Z_i = 0, later universal = k); universal branch shifted by i
    n, i = 6, 4
    closed = degree_pmf(ref_params, n, i).pmf
    for k in degree_support(n, i):
        total = 0.0
        for z in all_vectors(n):
            deg = i * z[i - 1] + sum(z[i:])
            if deg == k:
                total += polya_joint_pmf(ref_params, z)
        assert closed[k] == pytest.approx(total, abs=1e-12)


def test_degree_pmf_index_errors(ref_params):
    with pytest.raises(IndexError):
        degree_pmf(ref_params, 5, 0)
    with pytest.raises(IndexError):
        degree_pmf(ref_params, 5, 6)


_CENTRALITY = CentralityConfig()


@pytest.mark.parametrize("law,args,name", [
    (degree_pmf, (5, True), "i"),
    (degree_pmf, (5, 2.0), "i"),
    (degree_pmf, (5.0, 2), "n"),
    (degree_support, (5, 2.0), "i"),
    (degree_support, (True, 1), "n"),
    (distance_pmf, (5, 1, True), "j"),
    (distance_pmf, (5, 2.0, 1), "i"),
    (expected_decay_centrality, (5, True, _CENTRALITY), "i"),
    (expected_decay_centrality, (5.0, 2, _CENTRALITY), "n"),
])
def test_law_arguments_must_be_integers(ref_params, law, args, name):
    # a bool or float index would otherwise read some other node's entry
    if law is not degree_support:
        args = (ref_params, *args)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        law(*args)


def test_laws_take_numpy_integers(ref_params):
    n, i, j = np.int64(9), np.int32(3), np.uint8(7)
    assert degree_support(n, i) == degree_support(9, 3)
    assert degree_pmf(ref_params, n, i) == degree_pmf(ref_params, 9, 3)
    assert degree_pmf(ref_params, n, i) != degree_pmf(ref_params, 9, 4)
    assert distance_pmf(ref_params, n, i, j) == distance_pmf(ref_params, 9, 3, 7)
    assert expected_decay_centrality(ref_params, n, i) == expected_decay_centrality(ref_params, 9, 3)


# The laws read their log tables as Python floats; these are the same laws
# over numpy scalars and arrays, which every value must equal bit for bit.

def numpy_scalar_joint(params, n, k):
    t = log_tables(params.rho, params.delta, n)
    return float(t.red[k] + t.black[n - k] - t.total[n])


def numpy_scalar_beta_binomial(params, n, k):
    t = log_tables(params.rho, params.delta, n)
    return math.exp(t.fact[n] - t.fact[k] - t.fact[n - k] + numpy_scalar_joint(params, n, k))


def numpy_scalar_degree_pmf(params, n, i):
    t = log_tables(params.rho, params.delta, n)
    tail = n - i
    m = tail + 1
    r = np.arange(m)
    log_base = t.fact[tail] - t.fact[r] - t.fact[tail - r] - t.total[m]
    p = np.zeros(n + 1)
    p[:m] += np.exp(log_base + t.red[r] + t.black[m - r])
    p[i:] += np.exp(log_base + t.red[r + 1] + t.black[tail - r])
    return {k: float(p[k]) for k in degree_support(n, i)}


def numpy_scalar_p_unreachable(params, n, h):
    t = log_tables(params.rho, params.delta, n)
    return math.exp(t.black[h] - t.total[h])


def numpy_scalar_centrality(params, n, i, alpha):
    t = log_tables(params.rho, params.delta, n)
    h = np.arange(1, n - i + 1)
    p_inf = (i - 1) * numpy_scalar_p_unreachable(params, n, n - i + 1) + math.fsum(np.exp(t.black[h] - t.total[h]))
    return params.rho + (n - 1) * (alpha * params.rho + alpha * alpha * (1.0 - params.rho)) - alpha * alpha * p_inf


def _product(values):
    # pairwise, so that large integers meet large ones
    while len(values) > 1:
        values = [math.prod(values[k : k + 2]) for k in range(0, len(values), 2)]
    return values[0] if values else 1


def exact_unreachable(rho, delta, horizons):
    """{h: (num, den)} with num/den = prod_{s<h} (1 - rho + s delta)/(1 + s delta),
    the chance that h given draws are all black, exactly for the float inputs."""
    r, d = Fraction(rho), Fraction(delta)
    a, b, c, e = r.numerator, r.denominator, d.numerator, d.denominator
    num, den, out, done = 1, 1, {}, 0
    for h in sorted(horizons):
        num *= _product([(b - a) * e + s * c * b for s in range(done, h)])
        den *= _product([b * (e + s * c) for s in range(done, h)])
        out[h], done = (num, den), h
    return out


def assert_distance_tail_exact(probs, rho, unreachable):
    """P(2) and P(inf) of a distinct pair within 1e-13 relative of the exact
    values num/den wherever these are normal floats; an exact zero is +0.0."""
    num, den = unreachable
    r = Fraction(rho)
    two = ((r.denominator - r.numerator) * den - r.denominator * num, r.denominator * den)
    for got, (p, q) in ((probs[2.0], two), (probs[math.inf], (num, den))):
        assert p >= 0
        if p == 0:
            assert got == 0.0 and math.copysign(1.0, got) == 1.0, got
        elif p << 1022 >= q:  # not underflowed
            g = Fraction(got)
            assert abs(g.numerator * q - p * g.denominator) * 10**13 <= p * g.denominator, (got, p / q)


@pytest.mark.parametrize("delta", [1e-12, 1e-8, 0.2, 1e4, 1e8])
@pytest.mark.parametrize("n", [1, 7, 40, 5000])
def test_laws_equal_their_numpy_scalar_forms(delta, n):
    for rho in (0.3, 1.0 - 1e-6):
        params = UrnParams.from_proportions(rho, delta)
        for k in range(n + 1):
            assert beta_binomial_pmf(params, n, k) == numpy_scalar_beta_binomial(params, n, k)
        for k in sorted({0, 1, n // 2, n - 1, n}):
            z = (1,) * k + (0,) * (n - k)
            assert polya_joint_pmf(params, z) == math.exp(numpy_scalar_joint(params, n, k))
        nodes = sorted({1, 2 if n > 1 else 1, (n + 1) // 2, n // 2 + 1, n})
        unreachable = exact_unreachable(params.rho, params.delta, {n - max(i, j) + 1 for i in nodes for j in nodes})
        for i in nodes:
            dist = degree_pmf(params, n, i)
            want = numpy_scalar_degree_pmf(params, n, i)
            p = dist.probabilities
            assert p.dtype == np.float64 and p.shape == (n + 1,) and not p.flags.writeable
            support = list(want)
            assert p[support].tobytes() == np.array(list(want.values())).tobytes()
            assert not np.delete(p, support).any()
            assert dist.pmf == want
            assert dist.support == tuple(dist.pmf) == degree_support(n, i)
            # the moments as they were summed over the dict's items
            mean = math.fsum(k * q for k, q in want.items())
            assert dist.moment_mean().hex() == mean.hex()
            assert dist.moment_variance().hex() == math.fsum((k - mean) ** 2 * q for k, q in want.items()).hex()
            assert expected_decay_centrality(params, n, i) == numpy_scalar_centrality(params, n, i, 0.5)
            for j in nodes:
                probs = distance_pmf(params, n, i, j).probabilities
                r = params.rho
                if i == j:
                    assert probs == {0.0: r, 1.0: 0.0, 2.0: 0.0, math.inf: 1.0 - r}
                else:
                    # against exact rationals: a P(2) of 1 - rho - P(inf) cancels
                    assert (probs[0.0], probs[1.0]) == (0.0, r)
                    assert_distance_tail_exact(probs, r, unreachable[n - max(i, j) + 1])
                    assert (probs[2.0] == 0.0) == (max(i, j) == n)


def test_degree_pmf_builds_nothing_per_entry():
    # tracemalloc of one call with its tables built: the law is kept as the
    # one array of n + 1 floats it is computed in, with at most three
    # temporaries of that size alongside; a list of its entries as Python
    # floats alone would add 4 * 8 * (n + 1) bytes
    params, n = UrnParams.from_proportions(0.3, 0.2), 5000
    degree_pmf(params, n, 30)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        dist = degree_pmf(params, n, 30)
        retained, peak = (size - start for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert retained < 8 * (n + 1) + 1024 and peak < 4 * 8 * (n + 1) + 1024, (retained, peak)
    assert "pmf" not in vars(dist) and "support" not in vars(dist)


@pytest.mark.parametrize("delta", [1e-12, 1e-8, 0.2, 1.0, 1e4, 1e8])
@pytest.mark.parametrize("rho", [1e-6, 0.3, 1.0 - 1e-6])
def test_slice_and_fused_reads_equal_the_gathers_bit_for_bit(rho, delta):
    # degree_pmf slices the tables and beta_binomial_pmf reads log C(n, k)
    # and the joint law in one go; the index gathers and the sum of two
    # reads they replace must give the same bits for every entry
    params = UrnParams.from_proportions(rho, delta)
    for n in (1, 2, 3, 40, 300):
        t = log_tables(rho, delta, n)
        for i in sorted({1, -(-n // 2), n}):
            tail = n - i
            m = tail + 1
            r = np.arange(m)
            log_base = t.fact[tail] - t.fact[r] - t.fact[tail - r] - t.total[m]
            p = np.zeros(n + 1)
            p[:m] += np.exp(log_base + t.red[r] + t.black[m - r])
            p[i:] += np.exp(log_base + t.red[r + 1] + t.black[tail - r])
            pmf = degree_pmf(params, n, i).pmf
            want = p[list(pmf)]
            assert np.array(list(pmf.values())).tobytes() == want.tobytes()
        got = [beta_binomial_pmf(params, n, k) for k in range(n + 1)]
        fact = memoryview(t.fact)
        want = [math.exp((fact[n] - fact[k] - fact[n - k]) + t.log_joint(n, k)) for k in range(n + 1)]
        assert np.array(got).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# degree variance

def test_variance_last_node_closed_form(grid_params):
    for n in (1, 5, 9):
        rho = grid_params.rho
        assert degree_variance(grid_params, n, n) == pytest.approx(n * n * rho * (1 - rho), rel=1e-12)


def test_variance_spot_value(ref_params):
    assert degree_variance(ref_params, 2, 1) == pytest.approx(7 / 12, abs=1e-12)


def test_variance_against_enumeration(grid_params):
    for n in (4, 8):
        for i in range(1, n + 1):
            brute = oracle_degree_pmf(grid_params, n, i)
            mean = math.fsum(k * p for k, p in brute.items())
            var = math.fsum((k - mean) ** 2 * p for k, p in brute.items())
            assert degree_variance(grid_params, n, i) == pytest.approx(var, abs=1e-8)


# ---------------------------------------------------------------------------
# distance law

def test_distance_pmf_same_node(grid_params):
    d = distance_pmf(grid_params, 6, 3, 3)
    assert d.p(0.0) == pytest.approx(grid_params.rho)
    assert d.p(math.inf) == pytest.approx(1 - grid_params.rho)
    assert d.p(1.0) == 0.0 and d.p(2.0) == 0.0


def test_distance_pmf_reference_values(ref_params):
    d = distance_pmf(ref_params, 3, 1, 2)
    assert d.p(1.0) == pytest.approx(0.5, abs=1e-14)
    assert d.p(math.inf) == pytest.approx(7 / 24, abs=1e-14)
    assert d.p(2.0) == pytest.approx(5 / 24, abs=1e-14)


def test_distance_pmf_last_pair_single_factor(grid_params):
    n = 6
    d = distance_pmf(grid_params, n, 2, n)
    assert d.p(math.inf) == pytest.approx(1 - grid_params.rho, abs=1e-14)


def test_distance_pmf_sums_to_one_and_matches_enumeration(grid_params):
    n = 8
    for (i, j) in ((1, 2), (3, 6), (5, 5), (7, 8), (2, 8)):
        closed = distance_pmf(grid_params, n, i, j)
        assert math.fsum(closed.probabilities.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1.0 for p in closed.probabilities.values())
        brute = {0.0: 0.0, 1.0: 0.0, 2.0: 0.0, math.inf: 0.0}
        for z in all_vectors(n):
            brute[build_graph(z).distance(i, j)] += polya_joint_pmf(grid_params, z)
        for value, p in brute.items():
            assert closed.p(value) == pytest.approx(p, abs=1e-12)


def test_unreachable_probability_monotone_in_later_chances(grid_params):
    n = 9
    p_inf = [distance_pmf(grid_params, n, 1, m).p(math.inf) for m in range(2, n + 1)]
    assert all(a < b for a, b in zip(p_inf, p_inf[1:]))


# ---------------------------------------------------------------------------
# decay centrality

def test_expected_centrality_single_node(grid_params):
    assert expected_decay_centrality(grid_params, 1, 1) == pytest.approx(grid_params.rho, abs=1e-14)


def test_expected_centrality_spot_value(ref_params):
    assert expected_decay_centrality(ref_params, 2, 1) == pytest.approx(0.75, abs=1e-12)


def test_expected_centrality_against_bfs_enumeration(grid_params):
    for n in (2, 5, 8):
        for i in range(1, n + 1):
            closed = expected_decay_centrality(grid_params, n, i)
            assert closed == pytest.approx(oracle_centrality(grid_params, n, i), abs=1e-10)


def test_expected_centrality_half_alpha_display_form(grid_params):
    # at alpha = 1/2 the general expression collapses to
    # sum_{j != i} [rho/4 + (1 - prod)(1/4)] + rho
    n = 7
    rho, delta = grid_params.rho, grid_params.delta
    for i in range(1, n + 1):
        display = rho
        for j in range(1, n + 1):
            if j == i:
                continue
            prod = 1.0
            for s in range(n - max(i, j) + 1):
                prod *= (1 - rho + s * delta) / (1 + s * delta)
            display += rho / 4 + (1 - prod) / 4
        assert expected_decay_centrality(grid_params, n, i) == pytest.approx(display, abs=1e-14)


def test_expected_centrality_general_alpha_matches_enumeration(ref_params):
    cfg = CentralityConfig(alpha=0.3)
    for i in (1, 3, 6):
        closed = expected_decay_centrality(ref_params, 6, i, cfg)
        assert closed == pytest.approx(oracle_centrality(ref_params, 6, i, alpha=0.3), abs=1e-10)


def test_empirical_centrality_values():
    g = build_graph((1, 0, 0, 1, 0))
    # node 4: self at distance 0, three neighbors at distance 1, node 5 unreachable
    assert empirical_decay_centrality(g, 4) == pytest.approx(2.5, abs=1e-15)
    assert empirical_decay_centrality(build_graph((0, 0, 0)), 2) == 0.0
    assert empirical_decay_centrality(build_graph((1,)), 1) == 1.0
    # the graph's node rule: True used to answer for node 1, 2.0 failed late
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match="i must be an integer"):
            empirical_decay_centrality(g, bad)
    assert empirical_decay_centrality(g, np.int64(4)) == empirical_decay_centrality(g, 4)


def test_centrality_config_validation():
    with pytest.raises(ValueError):
        CentralityConfig(alpha=0.0)
    with pytest.raises(ValueError):
        CentralityConfig(alpha=1.0)


# ---------------------------------------------------------------------------
# the whole parameter range: delta from 1e-12 to 1e8, rho near 0 and 1

@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    log_delta=st.floats(min_value=-12.0, max_value=8.0),
    rho=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    n=st.integers(min_value=1, max_value=300),
)
def test_laws_hold_across_parameter_range(data, log_delta, rho, n):
    params = UrnParams.from_proportions(rho, 10.0**log_delta)
    i = data.draw(st.integers(min_value=1, max_value=n))
    dist = degree_pmf(params, n, i)
    assert abs(math.fsum(dist.pmf.values()) - 1.0) <= 1e-10
    mean = n * params.rho
    assert abs(dist.moment_mean() - mean) <= 1e-10 * max(1.0, mean)
    variance = degree_variance(params, n, i)
    assert abs(dist.moment_variance() - variance) <= 1e-9 * variance
    bb = math.fsum(beta_binomial_pmf(params, n, k) for k in range(n + 1))
    assert abs(bb - 1.0) <= 1e-10
    j = data.draw(st.integers(min_value=1, max_value=n))
    probs = distance_pmf(params, n, i, j).probabilities
    # every entry is >= +0.0, and distance 2 is impossible when max(i, j) = n
    assert all(math.copysign(1.0, p) == 1.0 for p in probs.values()), probs
    if max(i, j) == n:
        assert probs[2.0] == 0.0
    assert abs(math.fsum(probs.values()) - 1.0) <= 1e-15


# ---------------------------------------------------------------------------
# rising factorial / Chu-Vandermonde

def test_rising_factorial_basics():
    assert rising_factorial(3.7, 0) == 1.0
    assert rising_factorial(2.0, 3) == pytest.approx(24.0, rel=1e-15)
    assert rising_factorial(0.5, 2) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        rising_factorial(1.0, -1)


@settings(max_examples=100, deadline=None)
@given(
    s=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    t=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    m=st.integers(min_value=0, max_value=8),
)
def test_chu_vandermonde_identity(s, t, m):
    lhs = rising_factorial(s + t, m)
    rhs = math.fsum(
        math.comb(m, k) * rising_factorial(s, k) * rising_factorial(t, m - k)
        for k in range(m + 1)
    )
    assert rhs == pytest.approx(lhs, rel=1e-9)
