import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyagraph import (
    CreationSequence,
    FiniteMemoryParams,
    UrnParams,
    beta_binomial_pmf,
    polya_joint_pmf,
    sample_polya,
)
from polyagraph import urn
from polyagraph._numeric import log_tables
from polyagraph.rng import _BULK_MAX_N, stream
from polyagraph.urn import _chain, as_draws, sample_runs


def all_vectors(n):
    return itertools.product((0, 1), repeat=n)


def log_joint_gamma_form(rho, delta, n, k):
    """Gamma-ratio form of the joint law of a length-n vector with k reds:
    an oracle independent of the library's product tables."""
    a = rho / delta
    b = (1.0 - rho) / delta
    return (
        math.lgamma(1.0 / delta)
        + math.lgamma(a + k)
        + math.lgamma(b + n - k)
        - math.lgamma(a)
        - math.lgamma(b)
        - math.lgamma(1.0 / delta + n)
    )


# ---------------------------------------------------------------------------
# parameter and sequence types

def test_urn_params_derived_ratios():
    p = UrnParams(5, 5, 2)
    assert p.rho == 0.5
    assert p.delta == pytest.approx(0.2)
    q = UrnParams.from_proportions(0.25, 1.5)
    assert q.rho == pytest.approx(0.25)
    assert q.delta == pytest.approx(1.5)


@pytest.mark.parametrize(
    "bad",
    # the last three are positive and finite, but their proportions round
    # away: rho = delta = 0 (the total overflows), delta = inf, and rho = 1
    [(0, 5, 2), (5, -1, 2), (5, 5, 0), (math.inf, 5, 2), (1e308, 1e308, 1), (1e-320, 1e-320, 1), (1, 1e-17, 1)],
)
def test_urn_params_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        UrnParams(*bad)


def test_from_proportions_rejects_out_of_range():
    with pytest.raises(ValueError):
        UrnParams.from_proportions(1.0, 0.2)
    with pytest.raises(ValueError):
        UrnParams.from_proportions(0.5, 0.0)


def test_creation_sequence_validation():
    assert CreationSequence((1, 0, 1)).draws == (1, 0, 1)
    with pytest.raises(ValueError):
        CreationSequence(())
    with pytest.raises(ValueError):
        CreationSequence((1, 2))
    with pytest.raises(ValueError):
        CreationSequence((0.5,))


@pytest.mark.parametrize(
    "ok",
    [0, 1, True, 1.0, np.int64(1), np.bool_(True), pytest.param(np.float64(1.0), id="float64"), np.bool_(False)],
)
def test_creation_sequence_accepts_zero_one_values_as_ints(ok):
    draws = CreationSequence((1, ok, 0)).draws
    assert draws == (1, int(ok), 0)
    assert all(type(z) is int for z in draws)


class _IndexOnly:
    # converts to 1 through __index__ (so bytes() would take it) but equals
    # neither 0 nor 1
    def __index__(self):
        return 1

    def __repr__(self):
        return "_IndexOnly()"


@pytest.mark.parametrize("bad", [2, -1, 0.5, math.nan, "1", None, 256, 1.5, _IndexOnly()])
def test_creation_sequence_names_the_first_bad_draw(bad):
    with pytest.raises(ValueError, match=re.escape(f"draws must be 0 or 1, got {bad!r}")):
        CreationSequence((1, 0, bad, 3))


def test_creation_sequence_packed_draws():
    # bytes of 0 and 1, as the samplers hand them over, unpack to ints; any
    # other byte is named as an int, as a tuple of it would be
    for packed in (b"\x01", b"\x00\x01\x01\x00", bytes(4000)):
        draws = CreationSequence(packed).draws
        assert draws == tuple(packed) and all(type(z) is int for z in draws)
        assert CreationSequence(packed) == CreationSequence(tuple(packed))
    for bad in (2, 255, 48):
        with pytest.raises(ValueError, match=re.escape(f"draws must be 0 or 1, got {bad}")):
            CreationSequence(bytes((1, 0, bad, 3)))
    for empty in (b"", (), []):
        with pytest.raises(ValueError, match="needs at least one draw"):
            CreationSequence(empty)


@pytest.mark.parametrize("bad", [1 + 0j, 0j])
def test_creation_sequence_refuses_complex_draws(bad):
    # a complex 0 or 1 passes the equality gate but is no integer
    with pytest.raises(ValueError, match=re.escape(f"draws must be 0 or 1, got {bad!r}")):
        CreationSequence((bad, 0))


def test_finite_memory_params_validation():
    base = UrnParams(1, 1, 1)
    assert FiniteMemoryParams(base, 3).memory == 3
    numpy_memory = FiniteMemoryParams(base, np.int64(3))
    assert type(numpy_memory.memory) is int
    with pytest.raises(ValueError, match="memory must be an integer, got '3'"):
        FiniteMemoryParams(base, "3")


def test_finite_memory_params_refuses_a_base_that_is_not_an_urn():
    # a string base was accepted, and a nested finite-memory law failed only
    # when it was sampled
    inner = FiniteMemoryParams(UrnParams(1, 1, 1), 2)
    for bad, name in (("x", "str"), (inner, "FiniteMemoryParams"), (None, "NoneType")):
        with pytest.raises(TypeError, match=f"base must be UrnParams, got {name}"):
            FiniteMemoryParams(bad, 2)


@pytest.mark.parametrize("bad", [None, {"rho": 0.5}, (0.5, 0.2)])
def test_urn_functions_refuse_anything_that_is_not_a_law(bad):
    # these used to fail with AttributeError: '...' object has no attribute 'rho'
    name = type(bad).__name__
    for call in (
        lambda: sample_polya(bad, 5, 0),
        lambda: sample_runs(bad, 5, 3, 0),
        lambda: polya_joint_pmf(bad, (0, 1, 1)),
        lambda: _chain(bad, 5),
    ):
        with pytest.raises(TypeError, match=f"expected UrnParams or FiniteMemoryParams, got {name}"):
            call()


def test_as_draws_accepts_iterables():
    assert as_draws([1, 0]) == (1, 0)
    assert as_draws(np.array([0, 1])) == (0, 1)
    assert as_draws(CreationSequence((1,))) == (1,)
    for z, want in ((b"\x01\x00", (1, 0)), ([True, 0.0], (1, 0)), (np.array([0.0, 1.0]), (0, 1)),
                    (iter([np.bool_(True)]), (1,))):
        draws = as_draws(z)
        assert draws == want and all(type(d) is int for d in draws)


@pytest.mark.parametrize("z", [
    (1, 0, 2), [0.5], (math.nan,), "10", (None,), (1 + 0j,), b"\x01\x02", (), b"", [], (_IndexOnly(),), 5,
])
def test_as_draws_checks_as_creation_sequence_does(z):
    # as_draws runs CreationSequence's check without building one; both
    # raise the same error for the same input
    with pytest.raises(Exception) as want:
        CreationSequence(z)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        as_draws(z)


# ---------------------------------------------------------------------------
# infinite-memory sampler

def test_sampler_range_and_determinism(ref_params):
    z = sample_polya(ref_params, 5, seed=11)
    assert len(z) == 5 and set(z.draws) <= {0, 1}
    assert z.draws == sample_polya(ref_params, 5, seed=11).draws
    long_a = sample_polya(ref_params, 40, seed=11)
    long_b = sample_polya(ref_params, 40, seed=11, stream_index=1)
    assert long_a.draws != long_b.draws


def test_sampler_rejects_empty(ref_params):
    with pytest.raises(ValueError):
        sample_polya(ref_params, 0, seed=1)


def test_first_draw_frequency_matches_rho(ref_params):
    # P(Z_1 = 1) = rho; binomial 3-sigma band over 10^5 independent streams
    runs = 100_000
    hits = sum(sample_polya(ref_params, 1, seed=5, stream_index=r)[0] for r in range(runs))
    se = math.sqrt(0.25 / runs)
    assert abs(hits / runs - 0.5) < 3 * se


# ---------------------------------------------------------------------------
# joint pmf

def test_joint_pmf_known_values(ref_params):
    assert polya_joint_pmf(ref_params, (1,)) == pytest.approx(0.5, abs=1e-15)
    assert polya_joint_pmf(ref_params, (1, 1)) == pytest.approx(0.5 * 0.7 / 1.2, abs=1e-15)
    assert polya_joint_pmf(ref_params, (1, 0)) == pytest.approx(0.5 * 0.5 / 1.2, abs=1e-15)
    assert polya_joint_pmf(ref_params, (0, 1)) == pytest.approx(0.5 * 0.5 / 1.2, abs=1e-15)


def test_exchangeability_exhaustive_small(grid_params):
    for n in range(2, 6):
        for z in all_vectors(n):
            base = polya_joint_pmf(grid_params, z)
            for sigma in itertools.permutations(range(n)):
                permuted = tuple(z[s] for s in sigma)
                assert abs(polya_joint_pmf(grid_params, permuted) - base) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=10),
)
def test_exchangeability_property(data, n):
    z = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    sigma = data.draw(st.permutations(range(n)))
    params = UrnParams(1.0, 9.0, 5.0)
    permuted = tuple(z[s] for s in sigma)
    assert abs(polya_joint_pmf(params, z) - polya_joint_pmf(params, permuted)) <= 1e-12


def test_normalization_up_to_12(grid_params):
    for n in (1, 4, 8, 12):
        total = math.fsum(polya_joint_pmf(grid_params, z) for z in all_vectors(n))
        assert abs(total - 1.0) <= 1e-12


def test_product_and_gamma_forms_agree(grid_params):
    rho, delta = grid_params.rho, grid_params.delta
    for n in (1, 3, 7, 12):
        for k in range(n + 1):
            product_form = polya_joint_pmf(grid_params, (1,) * k + (0,) * (n - k))
            gamma_form = math.exp(log_joint_gamma_form(rho, delta, n, k))
            assert abs(product_form - gamma_form) <= 1e-10


def test_marginal_consistency_with_beta_binomial(grid_params):
    for n in (1, 3, 6, 9):
        for k in range(n + 1):
            marginal = math.fsum(
                polya_joint_pmf(grid_params, z) for z in all_vectors(n) if sum(z) == k
            )
            assert abs(marginal - beta_binomial_pmf(grid_params, n, k)) <= 1e-12


def test_beta_binomial_values_and_errors(ref_params):
    two_draws = polya_joint_pmf(ref_params, (1, 0)) + polya_joint_pmf(ref_params, (0, 1))
    assert beta_binomial_pmf(ref_params, 2, 1) == pytest.approx(two_draws, abs=1e-13)
    assert beta_binomial_pmf(ref_params, 1, 1) == pytest.approx(0.5, abs=1e-14)
    assert math.fsum(beta_binomial_pmf(ref_params, 9, k) for k in range(10)) == pytest.approx(1.0, abs=1e-12)
    assert beta_binomial_pmf(ref_params, 0, 0) == 1.0
    for n, k in ((3, 4), (3, -1), (-1, 0), (np.int64(3), 4)):
        with pytest.raises(ValueError, match=re.escape(f"k must lie in [0, {n}], got {k}")):
            beta_binomial_pmf(ref_params, n, k)


@pytest.mark.parametrize("name,args", [
    ("k", (5, True)), ("k", (5, 2.0)), ("k", (5, np.bool_(True))), ("n", (5.0, 2)), ("n", (True, 0)),
])
def test_beta_binomial_arguments_must_be_integers(ref_params, name, args):
    # read through the table views, True would silently be index 1
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        beta_binomial_pmf(ref_params, *args)


def test_beta_binomial_takes_numpy_integers(ref_params):
    assert beta_binomial_pmf(ref_params, np.int64(5), np.int32(2)) == beta_binomial_pmf(ref_params, 5, 2)


@pytest.mark.parametrize("delta", [1e-12, 1e-8, 0.2, 1.0, 1e4, 1e8])
@pytest.mark.parametrize("rho", [1e-6, 0.3, 1.0 - 1e-6])
def test_beta_binomial_is_the_fused_scalar_expression(rho, delta):
    # the row built by whole-array operations against the scalar expression
    # it replaces, over Python floats of the tables, bit for bit; numpy
    # integer arguments read the same entries
    params = UrnParams.from_proportions(rho, delta)
    for n in (0, 1, 5, 40, 1000, 5000):
        t = log_tables(rho, delta, n)
        red, black, total, fact = (getattr(t, name).tolist() for name in ("red", "black", "total", "fact"))
        want = [
            math.exp(fact[n] - fact[k] - fact[n - k] + (red[k] + black[n - k] - total[n])) for k in range(n + 1)
        ]
        assert [beta_binomial_pmf(params, n, k) for k in range(n + 1)] == want
        assert [beta_binomial_pmf(params, np.int64(n), np.int32(k)) for k in range(n + 1)] == want


# ---------------------------------------------------------------------------
# finite memory

def test_finite_memory_reduces_to_infinite_when_memory_covers_horizon(ref_params):
    fm = FiniteMemoryParams(ref_params, 8)
    for n in (1, 4, 8):
        for z in all_vectors(n):
            assert abs(polya_joint_pmf(fm, z) - polya_joint_pmf(ref_params, z)) <= 1e-12
    # with the same stream the sampled sequences are identical outright
    for r in range(20):
        a = sample_polya(ref_params, 6, seed=3, stream_index=r)
        b = sample_polya(FiniteMemoryParams(ref_params, 6), 6, seed=3, stream_index=r)
        assert a.draws == b.draws


def test_finite_memory_known_value(ref_params):
    fm = FiniteMemoryParams(ref_params, 1)
    expected = 0.5 * (0.7 / 1.2) ** 2
    assert polya_joint_pmf(fm, (1, 1, 1)) == pytest.approx(expected, abs=1e-14)


def test_finite_memory_normalizes(ref_params):
    fm = FiniteMemoryParams(ref_params, 2)
    total = math.fsum(polya_joint_pmf(fm, z) for z in all_vectors(4))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_finite_memory_sampler_determinism(ref_params):
    fm = FiniteMemoryParams(ref_params, 2)
    a = sample_polya(fm, 7, seed=9)
    assert a.draws == sample_polya(fm, 7, seed=9).draws
    with pytest.raises(ValueError):
        sample_polya(fm, 0, seed=9)


def test_sampler_follows_the_sliding_window_rule(ref_params):
    # draw t is red when its uniform falls below (rho + delta * r) / (1 + w * delta),
    # r the reds among the last w = min(t, memory) draws, written out here
    rho, delta = ref_params.rho, ref_params.delta
    u = stream(4, 2).random(60)
    for memory in (1, 3, 59, 60, None):
        law = ref_params if memory is None else FiniteMemoryParams(ref_params, memory)
        z = sample_polya(law, 60, seed=4, stream_index=2).draws
        for t in range(60):
            w = t if memory is None else min(t, memory)
            assert z[t] == int(u[t] < (rho + delta * sum(z[t - w : t])) / (1.0 + delta * w))


def _chain_path(law, z):
    """The chain's red probability before each draw of z, along z's path:
    a unit mass on the current state is pushed against unit values, and
    the next state is the row its drawn colour's table receives."""
    states, _, push = _chain(law, len(z))
    s, p = 0, []
    for t, red_draw in enumerate(z):
        mass, red, black = np.zeros(states(t)), np.zeros(states(t + 1)), np.zeros(states(t + 1))
        mass[s] = 1.0
        p.append(push(t, mass, red, black, np.ones(states(t + 1)))[s])
        (s,) = np.flatnonzero(red if red_draw else black)
    return p


def _successors(law, n, t):
    """Brute force over the state encoding: for each state before draw t,
    its red successor, its black successor, p_red and p_black.  A state is
    the red count so far, or, under a window shorter than n, the last
    min(t, window) draws as bits, bit 0 the latest."""
    rho, delta, window = urn._law(law, n)
    w = min(t, window)
    rows = []
    for s in range(t + 1 if window == n else 2**w):
        if window == n:
            reds, up, down = s, s + 1, s
        else:
            keep = 2 ** min(t + 1, window) - 1
            reds, up, down = bin(s).count("1"), (2 * s + 1) & keep, (2 * s) & keep
        p_red = (rho + delta * reds) / (1.0 + delta * w)
        p_black = (1.0 - rho + delta * (w - reds)) / (1.0 + delta * w)
        rows.append((up, down, p_red, p_black))
    return rows


def _chain_laws():
    base = UrnParams(1, 9, 5)
    for n in range(1, 9):
        yield base, n
        for memory in sorted({1, 2, 3, n + 2}):
            yield FiniteMemoryParams(base, memory), n


@pytest.mark.parametrize("tail", [(), (3,), (4, 2)], ids=["scalar", "W", "Q2"])
def test_push_and_pull_follow_the_brute_force_chain(tail):
    # every step t < n, the fold step t = window included, of both urns at
    # n <= 8: a unit mass on one state pushed puts p_red on its red
    # successor's row and p_black on its black one, and nothing else; and
    # pulling unit values on one successor row returns those probabilities
    # to the states that reach it
    ones = np.ones(tail)
    for law, n in _chain_laws():
        states, pull, push = _chain(law, n)
        for t in range(n):
            moves = _successors(law, n, t)
            k, after = states(t), states(t + 1)
            assert len(moves) == k
            for s, (up, down, p_red, p_black) in enumerate(moves):
                mass = np.zeros((k,) + tail)
                mass[s] = ones
                red, black = np.zeros((after,) + tail), np.zeros((after,) + tail)
                # it hands back the red branch times its successor's value
                branch = push(t, mass, red, black, np.multiply.outer(np.arange(2.0, after + 2), ones))
                want_red, want_black, want_branch = np.zeros_like(red), np.zeros_like(black), np.zeros_like(mass)
                want_red[up], want_black[down], want_branch[s] = p_red, p_black, p_red * (up + 2)
                assert np.array_equal(red, want_red) and np.array_equal(black, want_black), (law, n, t, s)
                assert np.array_equal(branch, want_branch)
            for row in range(states(t + 1)):
                unit = np.zeros((after,) + tail)
                unit[row] = ones
                zero = np.zeros_like(unit)
                for red, black, pick in ((unit, zero, 0), (zero, unit, 1)):
                    want = np.zeros((k,) + tail)
                    for s, move in enumerate(moves):
                        if move[pick] == row:
                            want[s] = move[2 + pick]
                    assert np.array_equal(pull(t, red, black), want), (law, n, t, row, pick)


_PIN_URNS = (
    UrnParams(5, 5, 2),
    UrnParams(1, 9, 5),
    UrnParams.from_proportions(0.3, 1e-8),
    UrnParams.from_proportions(0.3, 1e8),
)


@pytest.mark.parametrize("memory", [None, 1, 2, 3])
@pytest.mark.parametrize("params", _PIN_URNS, ids=("5-5-2", "1-9-5", "0.3-1e-8", "0.3-1e8"))
def test_samplers_are_pinned_to_the_chain(monkeypatch, params, memory):
    # every draw vector z with n <= 8 is fed the uniforms u_t = p_t where
    # z_t = 0 and nextafter(p_t, 0) where z_t = 1, p_t the chain's red
    # probability along z's path: a sampler whose red probability drifts
    # one ulp either way from the chain's flips a draw
    law = params if memory is None else FiniteMemoryParams(params, memory)

    class Fixed:  # urn.stream: stream index r yields row r of u
        def __init__(self, seed, stream_index=0):
            self.row = u[stream_index]

        def random(self, size):
            return self.row[:size].copy()

    def rows(seed, first, runs, width, *, out):  # urn.uniform_rows over the same rows
        out[...] = u[first : first + runs]
        return out

    monkeypatch.setattr(urn, "stream", Fixed)
    monkeypatch.setattr(urn, "uniform_rows", rows)
    for n in range(1, 9):
        zs = np.array(list(all_vectors(n)))
        p = np.array([_chain_path(law, z) for z in zs])
        u = np.where(zs == 1, np.nextafter(p, 0.0), p)
        for r, z in enumerate(zs):
            assert sample_polya(law, n, 0, stream_index=r).draws == tuple(z)
        assert np.array_equal(sample_runs(law, n, len(zs), 0), zs)


@pytest.mark.parametrize("n", [1, 2, 10, _BULK_MAX_N, _BULK_MAX_N + 1, 48, 49, 100])
@pytest.mark.parametrize("memory", [None, 1, 4, 1000, "n-1"])
def test_sample_runs_rows_are_the_per_run_draws(ref_params, n, memory):
    # row r is byte for byte the scalar sampler at stream first_stream + r;
    # _BULK_MAX_N and one more draw straddle the Philox route of
    # rng.uniform_rows, 48 and 49 fill and pad the re-keyed route's Philox
    # blocks, and a memory of n - 1 (1 at n = 1) drops only the first draw,
    # at the last step
    if memory == "n-1":
        memory = max(n - 1, 1)
    law = ref_params if memory is None else FiniteMemoryParams(ref_params, memory)
    for seed, first, runs in ((8, 3, 300), (2**64 - 1, 2**64 - 40, 40)):
        block = sample_runs(law, n, runs, seed, first_stream=first)
        assert block.shape == (runs, n)
        for r in range(runs):
            assert tuple(block[r]) == sample_polya(law, n, seed, stream_index=first + r).draws


@pytest.mark.parametrize("n", [1, 9, _BULK_MAX_N, _BULK_MAX_N + 1, 48, 49])
def test_sample_runs_across_pass_boundaries(ref_params, n):
    # passes hold 1024 runs, or a Philox kernel tile when that is more
    # (8192 runs at n = 1, 2730 at n = 9); every pass and tile boundary
    # leaves the rows the scalar sampler's
    want = np.array([sample_polya(ref_params, n, 6, stream_index=r).draws for r in range(5000)])
    for runs in (1023, 1024, 1025, 2731, 5000):
        assert np.array_equal(sample_runs(ref_params, n, runs, 6), want[:runs])
    assert np.array_equal(sample_runs(ref_params, n, 2731, 6, first_stream=2269), want[2269:])


def test_sample_runs_validation(ref_params):
    with pytest.raises(ValueError) as err:
        sample_runs(ref_params, 3, 4, 0, first_stream=2**64 - 2)
    with pytest.raises(ValueError) as want:
        stream(0, 2**64)
    assert str(err.value) == str(want.value)
    with pytest.raises(ValueError):
        sample_runs(ref_params, 0, 4, 0)
    assert sample_runs(ref_params, 3, 0, 0).shape == (0, 3)


def test_finite_memory_sliding_window_frequency(ref_params):
    # P(Z_3 = 1 | Z_2 = 1) = (rho + delta)/(1 + delta) = 0.7/1.2 under M = 1
    fm = FiniteMemoryParams(ref_params, 1)
    runs = 100_000
    cond, hits = 0, 0
    for r in range(runs):
        z = sample_polya(fm, 3, seed=17, stream_index=r)
        if z[1] == 1:
            cond += 1
            hits += z[2]
    target = 0.7 / 1.2
    se = math.sqrt(target * (1 - target) / cond)
    assert abs(hits / cond - target) < 3 * se


def test_finite_memory_is_markov_of_its_order(ref_params):
    # conditional law of the next draw given the whole past depends on the
    # last M draws only, and equals the sliding-window expression
    rho, delta = ref_params.rho, ref_params.delta
    for memory in (1, 2, 3):
        fm = FiniteMemoryParams(ref_params, memory)
        for t in range(memory + 1, 9):
            for past in all_vectors(t - 1):
                p_past = polya_joint_pmf(fm, past)
                p_next = polya_joint_pmf(fm, past + (1,))
                window = sum(past[-memory:])
                expected = (rho + delta * window) / (1.0 + memory * delta)
                assert abs(p_next / p_past - expected) <= 1e-12
