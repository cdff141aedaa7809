import itertools
import math
import tracemalloc

import numpy as np
import pytest

from polyagraph import (
    FiniteMemoryParams,
    SweepPoint,
    UrnParams,
    averaging_matrix,
    build_graph,
    expected_stationary_exact,
    expected_stationary_mc,
    iterate,
    memory_sweep,
    opinion_preset,
    sample_connected_graph,
)
from polyagraph import consensus
from polyagraph.consensus import (
    _BLOCK_RUNS,
    _PASS_RUNS,
    _DP_BUDGET_BYTES,
    AveragingOperator,
    _pi_star_blocks,
    _Stepper,
)
from polyagraph.graph import neighbor_counts, neighbor_sums
from polyagraph.oracle import _PARAM_GRID, EnumerationLimitError, enumerate_expectation
from polyagraph.rng import stream, uniform_rows
from polyagraph.urn import sample_runs


def random_connected_draws(rng, n):
    return tuple(int(b) for b in rng.integers(0, 2, size=n - 1)) + (1,)


# ---------------------------------------------------------------------------
# averaging matrix and stationary vector

def test_two_node_examples():
    for z in ((0, 1), (1, 1)):
        sys_ = averaging_matrix(build_graph(z))
        assert np.allclose(sys_.W.toarray(), 0.5 * np.ones((2, 2)), atol=0)
        assert np.allclose(sys_.pi_star, (0.5, 0.5), atol=0)


def test_three_node_example():
    sys_ = averaging_matrix(build_graph((0, 0, 1)))
    assert list(sys_.neighbor_counts) == [2, 2, 3]
    assert np.allclose(sys_.W.toarray()[2], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    assert np.allclose(sys_.pi_star, [2 / 7, 2 / 7, 3 / 7], atol=1e-15)


def test_complete_graph_uniform_stationary():
    sys_ = averaging_matrix(build_graph((1, 1, 1, 1)))
    assert np.allclose(sys_.pi_star, 0.25, atol=1e-15)


def test_rejects_disconnected_realizations():
    with pytest.raises(ValueError):
        averaging_matrix(build_graph((1, 1, 0)))


def test_w_invariants_random():
    rng = stream(555)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        g = build_graph(random_connected_draws(rng, n))
        sys_ = averaging_matrix(g)
        counts = sys_.neighbor_counts
        W = sys_.W.toarray()
        # rows sum to one
        assert np.max(np.abs(W.sum(axis=1) - 1.0)) < 1e-14
        # positive diagonal, exactly 1/N_i
        assert np.array_equal(np.diag(W), 1.0 / counts)
        # detailed balance: N_i W_ij and N_j W_ji share one 0/1 numerator,
        # so the identity is exact at the integer level
        numerator = W * counts[:, None]
        rounded = np.rint(numerator)
        assert np.max(np.abs(numerator - rounded)) < 1e-12
        assert set(np.unique(rounded)) <= {0.0, 1.0}
        assert np.array_equal(rounded, rounded.T)
        # pi* is stationary
        assert np.max(np.abs(sys_.pi_star @ W - sys_.pi_star)) < 1e-12
        # N_i = 1 + deg - selfloop
        z = np.asarray(g.draws)
        assert np.array_equal(counts, 1 + g.degrees() - z)


def test_operator_matches_dense_matrix():
    # the O(n) step against the dense matrix it stands for, one vector and a
    # (runs, n) batch with a different realization per row
    eps = np.finfo(float).eps
    rng = stream(556)
    for n in (1, 2, 3, 50, 2000):
        systems = [averaging_matrix(build_graph(random_connected_draws(rng, n))) for _ in range(4)]
        X = rng.uniform(0, 100, size=(4, n))
        X[1] -= 50.0
        for sys_, x in zip(systems, X):
            dense = sys_.W.toarray() @ x
            assert np.max(np.abs(sys_.W @ x - dense)) <= 4 * eps * np.max(np.abs(x))
        batch = AveragingOperator(
            np.stack([s.W.z for s in systems]), np.stack([s.neighbor_counts for s in systems])
        )
        dense = np.stack([s.W.toarray() @ x for s, x in zip(systems, X)])
        assert np.all(np.abs(batch @ X - dense) <= 4 * eps * np.max(np.abs(X), axis=1, keepdims=True))


def test_operator_is_linear_in_size():
    # a dense W at this size would need 320 GB; building and stepping the
    # system may hold only a few dozen length-n vectors at once
    n = 200_000
    rng = np.random.default_rng(557)
    g = build_graph(np.append(rng.integers(0, 2, size=n - 1), 1))
    x0 = rng.uniform(0, 1, size=n)
    tracemalloc.start()
    try:
        traj = iterate(averaging_matrix(g), x0, t_max=3, tol=1e-300, record=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.final.shape == (n,)
    assert peak < 64 * n * 8


def test_sampled_operator_rows_are_the_per_run_realizations(ref_params):
    for law in (ref_params, FiniteMemoryParams(ref_params, 2)):
        for n in (1, 2, 7):
            W = AveragingOperator.sample(law, n, 5, 41, first_stream=9)
            for r in range(5):
                sys_ = averaging_matrix(sample_connected_graph(law, n, 41, stream_index=9 + r))
                assert np.array_equal(W.z[r], sys_.W.z)
                assert np.array_equal(W.neighbor_counts[r], sys_.neighbor_counts)
                assert np.array_equal(W.pi_star[r], sys_.pi_star)
    with pytest.raises(ValueError):
        AveragingOperator.sample(ref_params, 0, 5, 41)


def _prefix_table_reference(a):
    # the compensated prefix table, every temporary a fresh array, in a's
    # float dtype (float64 for integers)
    table = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,), dtype=np.result_type(a, 0.0))
    np.cumsum(a, axis=-1, out=table[..., 1:])
    prev, cur = table[..., :-1], table[..., 1:]
    b = cur - prev
    err = (prev - (cur - b)) + (a - b)
    table[..., 1:] += np.cumsum(err, axis=-1)
    return table


def _neighbor_sums_reference(z, x):
    # neighbor_sums(z, x), written out with fresh arrays
    x = np.broadcast_to(x, np.broadcast_shapes(np.shape(z), x.shape))
    before = _prefix_table_reference(x[..., :-1])
    after = _prefix_table_reference((z * x)[..., :0:-1])[..., ::-1]
    return z * before + after


def _step_reference(z, counts, x):
    # (x + neighbor_sums(z, x)) / N, written out with fresh arrays
    return (x + _neighbor_sums_reference(z, x)) / counts


def _plain_step(z, counts, x):
    # the step from uncompensated cumsum tables, which the kernel is not
    x = np.broadcast_to(x, np.broadcast_shapes(z.shape, x.shape))
    before, after = np.zeros(x.shape), np.zeros(x.shape)
    np.cumsum(x[..., :-1], axis=-1, out=before[..., 1:])
    np.cumsum((z * x)[..., :0:-1], axis=-1, out=after[..., -2::-1])
    return (x + (z * before + after)) / counts


def _mixed_magnitudes(rng, shape):
    # 1e-8 to 1e8, both signs: sums of these lose bits to rounding
    return rng.choice((-1.0, 1.0), size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)


def test_stepping_kernel_is_the_allocating_step():
    # in-place steps over reused buffers give the same bits as fresh arrays:
    # for one vector, for a batch of vectors on one realization (z broadcast)
    # and for a batch with a different realization per row; with opinions of
    # one scale and of mixed magnitudes, where a table that dropped its
    # compensation would differ.  W.power(x0, t) is t such steps, returned in
    # a fresh array
    rng = stream(558)
    plain_differs = False
    for n in (1, 2, 3, 100, 2000):
        systems = [averaging_matrix(build_graph(random_connected_draws(rng, n))) for _ in range(3)]
        single = systems[0].W
        batch = AveragingOperator(
            np.stack([s.W.z for s in systems]), np.stack([s.neighbor_counts for s in systems])
        )
        for draw in (lambda shape: rng.uniform(-50, 50, size=shape), lambda shape: _mixed_magnitudes(rng, shape)):
            for W, x0 in ((single, draw(n)), (single, draw((3, n))), (batch, draw((3, n))), (batch, draw(n))):
                want = _step_reference(W.z, W.neighbor_counts, x0)
                assert np.array_equal(W @ x0, want)
                plain_differs |= not np.array_equal(_plain_step(W.z, W.neighbor_counts, x0), want)
                stepper, want = _Stepper(W, x0), x0
                for t in range(1, 26):
                    want = _step_reference(W.z, W.neighbor_counts, want)
                    assert np.array_equal(stepper.step(), want)
                    if t in (1, 25):
                        assert np.array_equal(W.power(x0, t), want)
                unstepped = W.power(x0, 0)
                assert unstepped is not x0 and not np.shares_memory(unstepped, x0)
                assert np.array_equal(unstepped, np.broadcast_to(x0, unstepped.shape))
    assert plain_differs


def test_stepping_allocates_nothing_per_step(ref_params):
    # every operand of a batch step is contiguous, so numpy buffers nothing
    # within a ufunc call (4 KB measured); a strided operand would cost it
    # a buffer per call, and a (runs, n) temporary 160 KB.  One vector at
    # n = 4000 likewise, where a temporary would be 32 KB; the convergence
    # test is two reductions and writes no temporary either.  A batch on one
    # realization's operator too: its z and N are copied to the batch's
    # shape once, where a broadcast z cost 191 KiB of buffers per step.  The
    # plan is built with the stepper; the first two steps make numpy's
    # one-off allocations, then nothing is built, and every step returns the
    # stepper's one state buffer
    batch = _Stepper(AveragingOperator.sample(ref_params, 100, 200, 7), opinion_preset("paper-n100", 100))
    single = _Stepper(
        averaging_matrix(sample_connected_graph(ref_params, 4000, 7)).W, opinion_preset("polarized", 4000)
    )
    broadcast = _Stepper(
        averaging_matrix(sample_connected_graph(ref_params, 100, 7)).W,
        np.tile(opinion_preset("paper-n100", 100), (200, 1)),
    )
    for stepper in (batch, single, broadcast):
        tracemalloc.start()
        try:
            state = stepper.step()
            assert stepper.step() is state
            stepper.max_deviation(0.5)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(100):
                assert stepper.step() is state
                stepper.max_deviation(0.5)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 16 << 10
        assert current - start < 4096


@pytest.mark.parametrize("n", [1, 2, 5])
def test_max_deviation_is_the_largest_absolute_difference(n):
    # two reductions give max |x - limit| bit for bit: signed zeros (where
    # a plain max of the two differences could return -0.0), overflow at
    # +-1e308, limits below min(x), above max(x) and between, and n = 1;
    # and NaN wherever an entry is NaN or inf - inf, on either side
    W = AveragingOperator(np.ones(n), neighbor_counts(np.ones(n)))
    stepper = _Stepper(W, np.zeros(n))
    rng = stream(561)
    vectors = [np.full(n, v) for v in (0.0, -0.0, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan)]
    vectors += [_mixed_magnitudes(rng, n), rng.uniform(-1, 1, size=n), rng.choice((-0.0, 0.0, 1e308, -1e308), size=n)]
    vectors += [rng.choice((-math.inf, 1.0, math.inf), size=n), np.where(np.arange(n) == 0, -math.inf, 1.0)]
    for x in vectors:
        limits = (0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, 5e-324, float(x.min()), float(x.max()),
                  float(x.min()) - 1.0, float(x.max()) + 1.0, float(x[n // 2]))
        for limit in limits:
            stepper.x[...] = x
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.abs(x - limit).max()
            got = stepper.max_deviation(limit)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes(), (x, limit)


def test_neighbor_sums_copies_a_non_contiguous_float_x():
    # the stepper copies a strided or Fortran-order x0, or one of another
    # shape or dtype, into its float64 state once and steps it to the
    # reference's bits
    rng = stream(559)
    for n in (2, 7, 300):
        z = np.array(random_connected_draws(rng, n), dtype=float)
        zs = np.stack([np.array(random_connected_draws(rng, n), dtype=float) for _ in range(3)])
        wide = _mixed_magnitudes(rng, (3, 2 * n))
        for zz, x in (
            (z, wide[0, ::2]),
            (zs, wide[:, ::2]),
            (zs, np.asfortranarray(wide[:, :n])),
            (zs, wide[0, :n]),
            (z, wide[:, :n].astype(np.float32)),
        ):
            assert not (x.flags.c_contiguous and x.shape == zz.shape and x.dtype == float)
            W = AveragingOperator(zz, neighbor_counts(zz))
            want = _step_reference(zz, W.neighbor_counts, x.astype(float))
            assert np.array_equal(_Stepper(W, x).step(), want)
            assert np.array_equal(W.power(x, 2), _step_reference(zz, W.neighbor_counts, want))


def test_neighbor_sums_integer_rows_shared_by_a_stack():
    # the eigenpair kernel's call: z[:, None] against a block of basis rows,
    # in int16, equals int64 sums written out with fresh arrays
    rng = stream(560)
    for n in (1, 2, 9, 50):
        z = rng.integers(0, 2, size=(4, n))
        basis = rng.integers(-n, n, size=(3, n))
        before = np.concatenate((np.zeros((3, 1), dtype=np.int64), np.cumsum(basis[:, :-1], axis=-1)), axis=-1)
        zx = z[:, None] * basis
        after = np.cumsum(zx[..., ::-1], axis=-1)[..., ::-1] - zx
        want = z[:, None] * before + after
        assert np.array_equal(neighbor_sums(z[:, None], basis), want)
        size = want.size
        work = np.empty(2 * size, dtype=np.int16)
        got = neighbor_sums(
            z[:, None].astype(np.int16), basis.astype(np.int16), out=np.empty(want.shape, np.int16), work=work
        )
        assert got.dtype == np.int16 and np.array_equal(got, want)


_EDGE_VALUES = (0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 1e200, -1e200, 1e-200, -1e-200, 1.0, -3.5)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 99])
def test_neighbor_sums_paired_chains_are_the_reference(n):
    # the stepper runs the prefix and suffix chains as one complex
    # accumulate, yet every bit of a step is that of two separate
    # compensated tables: signed zeros, sums that overflow to inf (and the
    # NaN of their errors), subnormals and magnitudes of 1e+-200; one vector
    # and a batch, z per row or shared by the rows, and a strided x
    rng = stream(562)
    for trial in range(12):
        shape = (n,) if trial % 2 else (5, n)
        if trial < 8:
            x = rng.choice(_EDGE_VALUES, size=shape)
        else:
            x = rng.choice((-1.0, 1.0), size=shape) * 10.0 ** rng.uniform(-200, 200, size=shape)
        for z in (rng.integers(0, 2, size=shape).astype(float), rng.integers(0, 2, size=n).astype(float)):
            W = AveragingOperator(z, neighbor_counts(z))
            with np.errstate(over="ignore", invalid="ignore"):
                want = _step_reference(z, W.neighbor_counts, x)
                assert _Stepper(W, x).step().tobytes() == want.tobytes()
                strided = np.repeat(x, 2, axis=-1)[..., ::2]
                assert W.power(strided, 1).tobytes() == want.tobytes()


def test_neighbor_sums_non_finite_opinions_give_the_reference_nans():
    # with an inf or a NaN among the opinions a step's NaNs land where the
    # reference's do; only which of two meeting NaNs keeps its sign, which
    # IEEE 754 leaves open, may differ
    rng = stream(563)
    values = _EDGE_VALUES + (math.inf, -math.inf, math.nan)
    for n in (1, 2, 3, 17):
        for shape in ((n,), (4, n)):
            z = rng.integers(0, 2, size=shape).astype(float)
            W = AveragingOperator(z, neighbor_counts(z))
            for _ in range(20):
                x = rng.choice(values, size=shape)
                with np.errstate(over="ignore", invalid="ignore"):
                    want = _step_reference(z, W.neighbor_counts, x)
                    assert np.array_equal(_Stepper(W, x).step(), want, equal_nan=True)
                    assert np.array_equal(W.power(x, 1), want, equal_nan=True)


@pytest.mark.parametrize(
    "work",
    [
        np.empty(20, np.int32),
        np.empty(19, np.int64),
        np.empty(20),
        np.empty((2, 10), np.int64),
        np.empty(40, np.int64)[::2],
    ],
    ids=["int32", "int-short", "int-float", "int-2-d", "int-strided"],
)
def test_neighbor_sums_refuses_a_work_it_cannot_use(work):
    # a work of another dtype used to fail inside numpy and a short one in
    # a reshape; each is a ValueError that says what work the call needs:
    # 2 * out.size entries of out's integer dtype, contiguous and 1-d
    z = np.array([0, 1, 0, 1, 1, 0, 1, 0, 0, 1])
    needs = "work must be a contiguous 1-d int64 array of at least 2 \\* out.size = 20 entries"
    with pytest.raises(ValueError, match=needs):
        neighbor_sums(z, np.arange(10), out=np.empty(10, np.int64), work=work)


def test_neighbor_sums_refuses_float_operands():
    # the kernel sums exact integers; a float z, x or out used to be summed
    # without the stepper's compensation, and is refused instead
    z, x = np.array([0, 1, 0, 1, 1]), np.arange(5)
    for zz, xx, out in ((z.astype(float), x, None), (z, x.astype(float), None), (z, x, np.empty(5))):
        with pytest.raises(ValueError, match="neighbor_sums takes integer arrays"):
            neighbor_sums(zz, xx, out=out)


def test_paired_chains_step_as_the_reference(ref_params):
    # long runs of steps on a sampled (200, 100) batch, the histogram's
    # shape, and at n = 4000, one vector, give the bits of the reference step
    W = AveragingOperator.sample(ref_params, 100, 200, 7)
    stepper, want = _Stepper(W, opinion_preset("paper-n100", 100)), opinion_preset("paper-n100", 100)
    for _ in range(100):
        want = _step_reference(W.z, W.neighbor_counts, want)
        assert np.array_equal(stepper.step(), want)
    W = averaging_matrix(sample_connected_graph(ref_params, 4000, 7)).W
    rng = stream(564)
    for x0 in (opinion_preset("polarized", 4000), rng.choice((-1.0, 1.0), 4000) * 10.0 ** rng.uniform(-200, 200, 4000)):
        stepper, want = _Stepper(W, x0), x0
        for _ in range(42):
            want = _step_reference(W.z, W.neighbor_counts, want)
            assert np.array_equal(stepper.step(), want)


def test_stepping_workspace_is_pinned(ref_params):
    # tracemalloc peak of 100 steps of the histogram's (200, 100) batch,
    # after a first call has made numpy's one-off allocations: 942 KiB for
    # the state, the scratch of the sums and a work of 4 * out.size floats;
    # a separate error table would add 320 KB.  One realization's operator
    # stepping a (200, 100) batch adds its copies of z and N at the batch's
    # shape, 313 KiB: 1254 KiB
    batch = (AveragingOperator.sample(ref_params, 100, 200, 7), opinion_preset("paper-n100", 100), 942)
    single = averaging_matrix(sample_connected_graph(ref_params, 100, 7)).W
    broadcast = (single, np.tile(opinion_preset("paper-n100", 100), (200, 1)), 1254)
    for W, x0, kib in (batch, broadcast):
        W.power(x0, 100)
        tracemalloc.start()
        try:
            W.power(x0, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (kib + 16) << 10


def test_neighbor_counts_formula():
    assert list(neighbor_counts((0, 0, 1))) == [2, 2, 3]
    assert list(neighbor_counts((1, 1))) == [2, 2]
    # every dtype the callers hand it, exact and in that dtype
    z = np.array([[0, 1, 0, 0, 1], [1, 0, 1, 1, 1]])
    want = [[3, 3, 2, 2, 5], [4, 4, 5, 5, 5]]
    for dtype in (np.int16, np.int64, np.float64):
        counts = neighbor_counts(z.astype(dtype))
        assert counts.dtype == dtype and np.array_equal(counts, want)


# ---------------------------------------------------------------------------
# trajectories

def test_iterate_two_node_split():
    sys_ = averaging_matrix(build_graph((0, 1)))
    traj = iterate(sys_, (0.0, 100.0), tol=1e-12)
    assert traj.limit == pytest.approx(50.0)
    assert traj.converged
    assert traj.final == pytest.approx((50.0, 50.0), abs=1e-11)


def test_iterate_consensus_state_is_fixed_point():
    sys_ = averaging_matrix(build_graph((0, 0, 1)))
    traj = iterate(sys_, (7.0, 7.0, 7.0))
    assert traj.converged_at == 0
    assert traj.limit == pytest.approx(7.0)
    assert len(traj.states) == 1


def test_iterate_three_node_limit():
    sys_ = averaging_matrix(build_graph((0, 0, 1)))
    traj = iterate(sys_, (0.0, 0.0, 1.0), tol=1e-13)
    assert traj.limit == pytest.approx(3 / 7, abs=1e-15)
    assert traj.converged


def test_iterate_streaming_mode_and_validation():
    sys_ = averaging_matrix(build_graph((0, 1)))
    traj = iterate(sys_, (1.0, 2.0), record=False)
    assert traj.states is None
    assert traj.final.shape == (2,)
    with pytest.raises(ValueError):
        iterate(sys_, (1.0,))
    with pytest.raises(ValueError):
        iterate(sys_, (1.0, 2.0), t_max=0)
    with pytest.raises(ValueError):
        iterate(sys_, (1.0, 2.0), tol=0.0)
    # a NaN used to run all t_max steps and read as slow mixing
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="x0 must be finite"):
            iterate(sys_, (1.0, bad))


def test_iterate_leaves_x0_alone():
    # the state lives in the stepper's own buffers, also when x(0) has converged
    sys_ = averaging_matrix(build_graph((0, 0, 1)))
    for x0 in (np.array([0.0, 1.0, 2.0]), np.full(3, 7.0)):
        before = x0.copy()
        traj = iterate(sys_, x0, record=True)
        assert np.array_equal(x0, before)
        assert traj.final is not x0 and not np.shares_memory(traj.final, x0)
        assert np.array_equal(traj.states[0], before)


def test_iterate_reports_non_convergence():
    sys_ = averaging_matrix(build_graph((0,) * 9 + (1,)))
    traj = iterate(sys_, list(range(10)), t_max=1, tol=1e-14)
    assert not traj.converged
    assert traj.converged_at is None


def test_iterate_converges_at_large_opinion_scales():
    # at max|x0| = 1e7 round-off alone exceeds the default 1e-10; the
    # tolerance floor of 64 eps max|x0| keeps convergence detectable
    params = UrnParams(5, 5, 2)
    for scale in (1e7, 1e12):
        x0 = opinion_preset("paper-n10", 10) * scale
        for r in range(20):
            sys_ = averaging_matrix(sample_connected_graph(params, 10, seed=3, stream_index=r))
            traj = iterate(sys_, x0, t_max=5000, record=False)
            assert traj.converged
            floor = 64 * np.finfo(float).eps * np.max(np.abs(x0))
            assert np.max(np.abs(traj.final - traj.limit)) < floor


def test_convergence_within_budget_random():
    rng = stream(808)
    params = UrnParams(5, 5, 2)
    for _ in range(20):
        n = int(rng.integers(2, 101))
        g = sample_connected_graph(params, n, seed=4242, stream_index=int(rng.integers(0, 1 << 32)))
        sys_ = averaging_matrix(g)
        x0 = rng.uniform(-5, 5, size=n)
        traj = iterate(sys_, x0, t_max=10_000, tol=1e-10, record=False)
        assert traj.converged
        assert np.max(np.abs(traj.final - traj.limit)) < 1e-10


# ---------------------------------------------------------------------------
# expected stationary vector

def test_expected_stationary_two_nodes(grid_params):
    est = expected_stationary_exact(grid_params, 2)
    assert np.allclose(est.pi, (0.5, 0.5), atol=1e-15)
    assert est.mode == "exact-dp"
    assert est.std_error is None


def test_expected_stationary_three_nodes(ref_params):
    est = expected_stationary_exact(ref_params, 3)
    assert np.max(np.abs(est.pi - np.array([13, 13, 16]) / 42)) < 1e-14


def test_expected_stationary_ten_nodes(ref_params):
    est = expected_stationary_exact(ref_params, 10)
    assert np.all(est.pi > 0)
    assert math.fsum(est.pi) == pytest.approx(1.0, abs=1e-12)
    assert est.pi[-1] == max(est.pi)  # the forced-universal node carries the most weight


def test_expected_stationary_single_node(ref_params):
    assert expected_stationary_exact(ref_params, 1).pi == pytest.approx([1.0])


def pi_star_of(z):
    return averaging_matrix(build_graph(z)).pi_star


DP_LAWS = _PARAM_GRID + (UrnParams.from_proportions(0.3, 1e-8), UrnParams.from_proportions(0.3, 1e8))


@pytest.mark.parametrize("params", DP_LAWS, ids=("1-1-1", "5-5-2", "1-9-5", "delta=1e-8", "delta=1e8"))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_expected_stationary_matches_enumeration(params, n):
    # the DP against the 2^(n-1)-term oracle, under both laws; memory n + 2
    # covers the horizon, memory 1..3 runs the window states
    for law in (params, *(FiniteMemoryParams(params, m) for m in (1, 2, 3, n + 2))):
        brute = enumerate_expectation(law, n, pi_star_of, pin_last=True)
        assert np.max(np.abs(expected_stationary_exact(law, n).pi - brute)) < 1e-12


def test_expected_stationary_guard(ref_params):
    # refused from the table sizes alone: at M = 40 one state table would
    # hold 2^40 rows, and n = 10^9 must not cost O(n) before refusing
    for memory, n in ((None, 100), (None, 200), (None, 10**9), (40, 60), (12, 40)):
        law = ref_params if memory is None else FiniteMemoryParams(ref_params, memory)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationLimitError, match="expected_stationary_mc"):
                expected_stationary_exact(law, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (memory, n)


def test_expected_stationary_memory_within_budget(ref_params):
    # n = 91 is the largest infinite-urn horizon the budget accepts
    tracemalloc.start()
    try:
        pi = expected_stationary_exact(ref_params, 91).pi
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _DP_BUDGET_BYTES + (16 << 20)
    assert math.fsum(pi) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(EnumerationLimitError):
        expected_stationary_exact(ref_params, 92)


@pytest.mark.parametrize("bad", [None, {"rho": 0.5}])
def test_expected_stationary_refuses_anything_that_is_not_a_law(bad):
    # these used to fail with AttributeError: '...' object has no attribute 'rho'
    match = f"expected UrnParams or FiniteMemoryParams, got {type(bad).__name__}"
    with pytest.raises(TypeError, match=match):
        expected_stationary_exact(bad, 5)
    with pytest.raises(TypeError, match=match):
        expected_stationary_mc(bad, 5, runs=10, seed=0)


def test_samplers_check_their_law_and_seed_at_one_node(ref_params):
    # at n = 1 no draw is free, yet the law, the seed and the stream index
    # are checked as at n = 2; these calls used to return a one-node result
    for n in (1, 2):
        for call in (
            lambda: sample_connected_graph(None, n, 0),
            lambda: expected_stationary_mc(None, n, runs=4, seed=0),
            lambda: AveragingOperator.sample(None, n, 3, 0),
        ):
            with pytest.raises(TypeError, match="expected UrnParams or FiniteMemoryParams, got NoneType"):
                call()
        for seed in (-1, 2**64):
            for call in (
                lambda: sample_connected_graph(ref_params, n, seed),
                lambda: expected_stationary_mc(ref_params, n, runs=4, seed=seed),
                lambda: AveragingOperator.sample(ref_params, n, 3, seed),
            ):
                with pytest.raises(ValueError, match="master_seed out of range"):
                    call()
        with pytest.raises(ValueError, match="stream_index out of range"):
            sample_connected_graph(ref_params, n, 0, stream_index=-1)
        with pytest.raises(ValueError, match="stream_index out of range"):
            AveragingOperator.sample(ref_params, n, 3, 0, first_stream=2**64 - 2)


def test_batched_samplers_check_their_law_and_keys_at_zero_runs(ref_params):
    # runs = 0 draws nothing, yet the law, the seed and the stream index are
    # checked as at runs = 1; these calls used to return empty results
    for runs in (0, 1):
        for call in (
            lambda: sample_runs(None, 5, runs, 1),
            lambda: AveragingOperator.sample(None, 3, runs, 0),
            lambda: AveragingOperator.sample(None, 1, runs, 0),
        ):
            with pytest.raises(TypeError, match="expected UrnParams or FiniteMemoryParams, got NoneType"):
                call()
        for seed in (-1, 2**64):
            for call in (
                lambda: sample_runs(ref_params, 5, runs, seed),
                lambda: AveragingOperator.sample(ref_params, 3, runs, seed),
                lambda: AveragingOperator.sample(ref_params, 1, runs, seed),
            ):
                with pytest.raises(ValueError, match="master_seed out of range"):
                    call()
        for first in (-1, 2**64):
            with pytest.raises(ValueError, match="stream_index out of range"):
                sample_runs(ref_params, 5, runs, 0, first_stream=first)
            with pytest.raises(ValueError, match="stream_index out of range"):
                AveragingOperator.sample(ref_params, 3, runs, 0, first_stream=first)
    assert sample_runs(ref_params, 5, 0, 0).shape == (0, 5)
    assert AveragingOperator.sample(ref_params, 3, 0, 0).z.shape == (0, 3)


def test_expected_stationary_finite_memory_small(ref_params):
    # with memory covering the horizon the law is the infinite-memory one
    fm = FiniteMemoryParams(ref_params, 8)
    a = expected_stationary_exact(fm, 6).pi
    b = expected_stationary_exact(ref_params, 6).pi
    assert np.max(np.abs(a - b)) < 1e-14
    assert expected_stationary_exact(fm, 6).urn_mode == "finite-memory(M=8)"


def test_monte_carlo_matches_exact(ref_params):
    # 10^5 seeded runs against the exact DP, entrywise 4 SE
    n, runs = 12, 100_000
    exact = expected_stationary_exact(ref_params, n).pi
    mc = expected_stationary_mc(ref_params, n, runs=runs, seed=97)
    assert mc.std_error is not None
    assert np.all(np.abs(mc.pi - exact) < 4 * mc.std_error)


def per_run_pi_star(law, n, runs, seed, first_stream=0):
    """pi* of each run, one realization at a time: the reference for the
    blocked samplers."""
    return np.stack([
        averaging_matrix(sample_connected_graph(law, n, seed, stream_index=first_stream + r)).pi_star
        for r in range(runs)
    ])


# The streamed standard error merges per-block moments instead of taking
# two passes over all runs.  That reorders roundings: at most 1.3e-15
# relative on these runs, 5e-14 over 20 000 runs at n = 8.  1e-13 leaves room
# for that and still fails a merge that drops its cross term.
MC_SE_RTOL = 1e-13


@pytest.mark.parametrize("memory", [None, 1, 4])
def test_monte_carlo_is_the_per_run_loop(ref_params, memory):
    # the runs cross two block edges; streaming must not change a bit of pi
    law = ref_params if memory is None else FiniteMemoryParams(ref_params, memory)
    n, runs, seed = 10, 600, 19
    assert runs > 2 * _BLOCK_RUNS
    samples = per_run_pi_star(law, n, runs, seed)
    mc = expected_stationary_mc(law, n, runs=runs, seed=seed)
    assert np.array_equal(mc.pi, samples.mean(axis=0))
    want = samples.std(axis=0, ddof=1) / math.sqrt(runs)
    assert np.all(np.abs(mc.std_error - want) <= MC_SE_RTOL * want)


@pytest.mark.parametrize("runs", [10_000, 40_000])
def test_monte_carlo_memory_is_independent_of_runs(runs):
    # every sample at once would take 8 * runs * n bytes: 7.6 and 31 MiB here
    tracemalloc.start()
    try:
        expected_stationary_mc(UrnParams(5, 5, 2), 100, runs, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


# tracemalloc peaks of the run-major passes, in KiB, after a first call has
# made numpy's one-off allocations; the time-major passes keep the same two
# buffers.  A pass workspace that grows shows up here before it lifts the
# resident memory of a process.
@pytest.mark.parametrize("n, runs, kib", [(8, 20_000, 520), (10, 1_000, 670), (100, 10_000, 1474)])
def test_monte_carlo_workspace_is_pinned(n, runs, kib):
    law = UrnParams(5, 5, 2)
    expected_stationary_mc(law, n, 2, 3)
    tracemalloc.start()
    try:
        expected_stationary_mc(law, n, runs, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (kib + 64) << 10


def test_monte_carlo_two_nodes_degenerate(ref_params):
    mc = expected_stationary_mc(ref_params, 2, runs=50, seed=1)
    assert np.allclose(mc.pi, 0.5, atol=0)
    assert np.allclose(mc.std_error, 0.0, atol=0)


def test_monte_carlo_reproducible(ref_params):
    a = expected_stationary_mc(ref_params, 5, runs=300, seed=12)
    b = expected_stationary_mc(ref_params, 5, runs=300, seed=12)
    assert np.array_equal(a.pi, b.pi)
    with pytest.raises(ValueError):
        expected_stationary_mc(ref_params, 5, runs=1, seed=12)


def test_rank_one_projection_is_idempotent_on_pi(ref_params):
    pi = expected_stationary_exact(ref_params, 6).pi
    projection = np.outer(np.ones(6), pi)
    assert np.max(np.abs(pi @ projection - pi * math.fsum(pi))) < 1e-15


def test_expected_consensus_value(ref_params):
    # the expected consensus limit is pi_E . x(0)
    assert expected_stationary_exact(ref_params, 2).pi @ (0.0, 100.0) == pytest.approx(50.0)
    x0 = (0.0, 0.0, 1.0)
    assert expected_stationary_exact(ref_params, 3).pi @ x0 == pytest.approx(16 / 42, abs=1e-14)
    mc = expected_stationary_mc(ref_params, 3, runs=20_000, seed=5).pi @ x0
    assert mc == pytest.approx(16 / 42, abs=0.01)


# ---------------------------------------------------------------------------
# machinery is law-agnostic

def test_invariants_hold_under_substituted_bernoulli_law():
    # the consensus construction never queries the urn: any binary process
    # with a universal last node yields the same per-realization guarantees
    rng = stream(31337)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        z = tuple(int(b) for b in (rng.random(n - 1) < 0.3)) + (1,)
        sys_ = averaging_matrix(build_graph(z))
        W = sys_.W.toarray()
        assert np.max(np.abs(W.sum(axis=1) - 1.0)) < 1e-14
        assert np.max(np.abs(sys_.pi_star @ W - sys_.pi_star)) < 1e-12
        traj = iterate(sys_, rng.uniform(0, 1, size=n), record=False)
        assert traj.converged


# ---------------------------------------------------------------------------
# memory sweep

def test_memory_sweep_table_shape_and_agreement(ref_params):
    n, runs = 6, 4000
    x0 = opinion_preset("polarized", n)
    points = memory_sweep(ref_params, n, deltas=(0.2, 1.0), memories=(2, n), runs=runs, x0=x0, seed=33)
    assert len(points) == 4
    assert [(p.delta, p.memory) for p in points] == [(0.2, 2), (0.2, 6), (1.0, 2), (1.0, 6)]
    for p in points:
        if p.memory >= n:
            combined = math.hypot(p.std_error, p.baseline_se)
            assert abs(p.value - p.baseline) < 3 * combined


def test_memory_sweep_weak_reinforcement_stays_near_baseline(ref_params):
    # at delta = 0.2 the finite-memory curves track the infinite-memory
    # baseline across every M at the 100-runs-per-point experimental scale
    n = 10
    points = memory_sweep(
        ref_params, n, deltas=(0.2,), memories=(1, 2, 4, 6, 8, 10),
        runs=100, x0=opinion_preset("polarized", n), seed=707,
    )
    for p in points:
        assert abs(p.value - p.baseline) < 3 * math.hypot(p.std_error, p.baseline_se)


def per_run_sweep(base, n, deltas, memories, runs, x0, seed):
    """The memory sweep cell by cell, one realization at a time: each cell
    reads the next block of runs streams, baseline first."""
    want, block = [], 0
    for delta in deltas:
        params = UrnParams.from_proportions(base.rho, delta)
        vals = per_run_pi_star(params, n, runs, seed, block * runs) @ x0
        baseline = (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(runs)))
        block += 1
        for memory in memories:
            vals = per_run_pi_star(FiniteMemoryParams(params, memory), n, runs, seed, block * runs) @ x0
            block += 1
            want.append(SweepPoint(delta, memory, float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(runs)), *baseline))
    return want


def test_memory_sweep_is_the_per_run_loop(ref_params):
    n, runs, seed = 6, 300, 5
    x0 = opinion_preset("polarized", n)
    points = memory_sweep(ref_params, n, deltas=(0.2, 1.0), memories=(1, 3), runs=runs, x0=x0, seed=seed)
    assert points == per_run_sweep(ref_params, n, (0.2, 1.0), (1, 3), runs, x0, seed)


@pytest.mark.parametrize("n, runs", [(10, 257), (10, 1000), (10, 1025), (10, 1500), (40, 257), (40, 1000), (40, 1025)])
def test_memory_sweep_passes_across_cells_are_the_per_run_loop(ref_params, n, runs):
    # a pass draws consecutive cells together: at n = 10 (the Philox kernel,
    # a tile of 2730 runs) up to 10 cells of 257 runs, 2 of 1000 or of 1025,
    # or the 476-run tail of one cell of 1500 with the next cell's 1500; at
    # n = 40 (the re-keyed route, passes of 1024) 3 cells of 257 or 1 of
    # 1000 or 1025.  Memory n - 2 is a window of all but one of the n - 1
    # free draws
    deltas, memories, seed = (0.2, 10.0), (2, n - 3, n - 2), 8
    x0 = opinion_preset("polarized", n)
    points = memory_sweep(ref_params, n, deltas, memories, runs=runs, x0=x0, seed=seed)
    assert points == per_run_sweep(ref_params, n, deltas, memories, runs, x0, seed)


@pytest.mark.parametrize("n, runs, passes", [(10, 1000, [2000] * 10 + [1000]), (40, 1025, [1025] * 21), (40, 257, [771] * 7)])
def test_memory_sweep_passes_stop_at_a_tile(ref_params, monkeypatch, n, runs, passes):
    # the paper's 21 cells: at n = 10 a tile of the Philox kernel holds 2730
    # runs of 9 draws, so two cells share a pass; the re-keyed route keeps
    # passes of 1024 runs, a cell's lone last run joining the one before
    calls = []

    def rows(seed, first, runs, n, out):
        calls.append(runs)
        return uniform_rows(seed, first, runs, n, out=out)

    monkeypatch.setattr(consensus, "uniform_rows", rows)
    memory_sweep(ref_params, n, (0.2, 1.0, 10.0), (1, 2, 4, 6, 8, 10), runs, opinion_preset("polarized", n), 42)
    assert calls == passes


def test_memory_sweep_workspace_is_pinned(ref_params):
    # the paper's sweep shape: 21 cells of 1000 runs at n = 10, drawn two
    # cells per pass; the tracemalloc peak after a first call has made
    # numpy's one-off allocations stays within the Monte Carlo pin of 1474 KiB
    n = 10
    x0 = opinion_preset("polarized", n)

    def sweep(runs):
        return memory_sweep(ref_params, n, (0.2, 1.0, 10.0), (1, 2, 4, 6, 8, 10), runs, x0, 42)

    sweep(2)
    tracemalloc.start()
    try:
        assert len(sweep(1000)) == 18
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1474 << 10


def test_memory_sweep_checks_every_delta_before_any_cell_samples(ref_params, monkeypatch):
    # a bad delta after a good one used to be refused only after the good
    # delta's cells had run
    def sample(*args, **kwargs):
        raise AssertionError("a cell sampled before every delta was checked")

    # every cell's uniforms come from this call
    monkeypatch.setattr(consensus, "uniform_rows", sample)
    with pytest.raises(ValueError, match="delta must be positive"):
        memory_sweep(ref_params, 10, [0.2, -1.0], [1, 2, 3], 20, np.ones(10), 0)


def test_memory_sweep_memories_follow_the_finite_memory_rule(ref_params):
    # memories are stored as FiniteMemoryParams stores them, as ints
    n, x0 = 4, opinion_preset("polarized", 4)
    points = memory_sweep(ref_params, n, deltas=(0.2,), memories=np.array([1, 3]), runs=4, x0=x0, seed=1)
    assert points == memory_sweep(ref_params, n, deltas=(0.2,), memories=(1, 3), runs=4, x0=x0, seed=1)
    assert [type(p.memory) for p in points] == [int, int]


def test_pi_star_blocks_leave_no_single_run_tail(ref_params):
    # numpy takes a one-row product as a dot product, which can differ in the
    # last bit from that row of the whole (runs, n) product, so a run past a
    # block edge joins the block before it and memory_sweep stays the loop
    sizes = {2: [2], _BLOCK_RUNS: [_BLOCK_RUNS], _BLOCK_RUNS + 1: [_BLOCK_RUNS + 1],
             2 * _BLOCK_RUNS + 2: [_BLOCK_RUNS, _BLOCK_RUNS, 2]}
    for runs, want in sizes.items():
        assert [len(pi) for _, pi in _pi_star_blocks([ref_params], 3, runs, 4)] == want
    n, runs, seed = 100, _BLOCK_RUNS + 1, 4
    x0 = opinion_preset("paper-n100", n)
    vals = np.concatenate([pi @ x0 for _, pi in _pi_star_blocks([ref_params], n, runs, seed)])
    assert np.array_equal(vals, per_run_pi_star(ref_params, n, runs, seed) @ x0)


# run counts around the block and pass edges
PASS_EDGE_RUNS = (2, 255, 256, 257, _PASS_RUNS - 1, _PASS_RUNS, _PASS_RUNS + 1, _PASS_RUNS + 2, 2 * _PASS_RUNS + 1)


def _block_sizes(runs):
    # 256-run blocks, a last run on its own joining the block before it
    sizes, start = [], 0
    while start < runs:
        stop = min(start + _BLOCK_RUNS, runs)
        stop = runs if stop == runs - 1 else stop
        sizes.append(stop - start)
        start = stop
    return sizes


@pytest.mark.parametrize("memory", [None, 1, 4])
@pytest.mark.parametrize("n", [1, 2, 10, 100])
def test_pi_star_passes_yield_the_per_run_blocks(ref_params, n, memory):
    # runs are sampled in passes of several blocks, but the blocks keep their
    # sizes and every pi* is the per-run one, bit for bit
    law = ref_params if memory is None else FiniteMemoryParams(ref_params, memory)
    seed, first = 29, 5
    want = per_run_pi_star(law, n, max(PASS_EDGE_RUNS), seed, first)
    for runs in PASS_EDGE_RUNS:
        sizes = []
        for _, block in _pi_star_blocks([law], n, runs, seed, first):
            done = sum(sizes)
            assert np.array_equal(block, want[done : done + len(block)])
            sizes.append(len(block))
        assert sizes == _block_sizes(runs)


@pytest.mark.parametrize("memory", [None, 4])
def test_monte_carlo_at_n100_is_the_per_run_loop_at_pass_edges(ref_params, memory):
    # the re-keyed route, under the infinite urn and a window of 4 draws
    law = ref_params if memory is None else FiniteMemoryParams(ref_params, memory)
    n, seed = 100, 31
    samples = per_run_pi_star(law, n, max(PASS_EDGE_RUNS), seed)
    for runs in PASS_EDGE_RUNS:
        mc = expected_stationary_mc(law, n, runs=runs, seed=seed)
        assert np.array_equal(mc.pi, samples[:runs].mean(axis=0))
        want = samples[:runs].std(axis=0, ddof=1) / math.sqrt(runs)
        assert np.all(np.abs(mc.std_error - want) <= MC_SE_RTOL * want)


@pytest.mark.parametrize("memory", [None, 1, 4])
@pytest.mark.parametrize("n", [1, 2, 10, 100])
def test_sample_runs_into_a_strided_view(ref_params, n, memory):
    # the passes' in-place float draws are the int64 ones; the buffer's last
    # column stays
    law = ref_params if memory is None else FiniteMemoryParams(ref_params, memory)
    for runs in PASS_EDGE_RUNS:
        buf = np.full((runs, n + 1), 7.0)
        view = sample_runs(law, n, runs, 13, first_stream=6, out=buf[:, :-1])
        assert view.base is buf and view.dtype == np.float64
        assert np.array_equal(view, sample_runs(law, n, runs, 13, first_stream=6))
        assert np.all(buf[:, -1] == 7.0)


def test_memory_sweep_validation(ref_params):
    with pytest.raises(ValueError):
        memory_sweep(ref_params, 4, deltas=(0.2,), memories=(), runs=10, x0=np.zeros(4), seed=0)
    with pytest.raises(ValueError):
        memory_sweep(ref_params, 4, deltas=(0.2,), memories=(1,), runs=1, x0=np.zeros(4), seed=0)
    with pytest.raises(ValueError):
        memory_sweep(ref_params, 4, deltas=(0.2,), memories=(1,), runs=10, x0=np.zeros(3), seed=0)
    # a NaN or an infinity used to come back as NaN cells
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="x0 must be finite"):
            memory_sweep(ref_params, 4, deltas=(0.2,), memories=(1,), runs=10, x0=(0.0, bad, 1.0, 2.0), seed=0)


def test_memory_sweep_refuses_empty_deltas(ref_params):
    # an empty deltas list used to come back as an empty table
    with pytest.raises(ValueError, match="need at least one delta"):
        memory_sweep(ref_params, 5, deltas=[], memories=[1], runs=10, x0=np.ones(5), seed=0)


# ---------------------------------------------------------------------------
# presets

def test_opinion_presets():
    x10 = opinion_preset("paper-n10", 10)
    assert tuple(x10) == (0.1, 0.6, 0.3, 1.0, 0.5, 3.0, 10.0, 2.0, 9.0, 0.2)
    x100 = opinion_preset("paper-n100", 100)
    for i in range(10):
        for k in range(10):
            assert x100[i + 10 * k] == x10[i]
    pol = opinion_preset("polarized", 8)
    assert list(pol) == [0.0] * 4 + [100.0] * 4
    with pytest.raises(ValueError):
        opinion_preset("paper-n10", 9)
    with pytest.raises(ValueError):
        opinion_preset("nope", 10)
