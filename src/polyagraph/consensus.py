"""Discrete-time averaging consensus on connected realizations.

Connectivity is enforced by construction throughout: samplers draw the first
n-1 indicators from the urn and pin the last one to 1, so the final node is
universal and every pair of nodes is within distance two of it.

Each node repeatedly replaces its opinion by the average of its own and its
neighbors' opinions: x(t) = W x(t-1), where
W_ij = (1 if i = j else z_{max(i,j)}) / N_i and N_i is one plus the neighbor
count of node i (self-loops do not enter N_i).  W is row-stochastic,
irreducible and aperiodic, satisfies the exact detailed balance
N_i W_ij = N_j W_ji, and has the unique stationary vector
pi*_i = N_i / sum_k N_k, so every trajectory converges to the scalar
pi* . x(0).  W is never stored: it is an O(n) operator on z and N
(:func:`polyagraph.graph.neighbor_counts`), and one step costs two prefix
sums (:func:`polyagraph.graph.neighbor_sums`).
:meth:`AveragingOperator.power` gives W^t x, and :func:`iterate` runs to
the limit; both step one vector or a (runs, n) batch in place over one fixed
set of buffers, so a step allocates no arrays, and through two fixed plans
of the neighbour-sum tables' views, so it builds no views either; the
convergence test of :func:`iterate` is two reductions.  The dense matrix is
built only on request, for oracles and tests.

Averaging pi* over the urn law of the free draws gives the expected
consensus weights pi_E: the expected opinion vector converges to
(pi_E . x(0)) at every node.  pi_E is computed exactly by a
forward-backward pass over the urn's Markov state and the weighted red count
W that fixes sum_k N_k (polynomial in n, guarded by a 64 MiB table budget),
or estimated by seeded Monte Carlo with one independent stream per run,
merged by run index so scheduling cannot change the estimate.  Monte Carlo
runs are sampled in time-major passes of up to 1024 runs, each one
vectorized call of the urn's batched sampler that reproduces the scalar
sampler bit for bit: row t of the pass buffer holds draw t of every run,
each row contiguous, so an urn step is a few array operations over one
row.  Its uniforms come from :func:`polyagraph.rng.uniform_rows`: for
realizations of up to 49 nodes (48 free draws) a Philox kernel computes a
tile of runs at once, and longer ones come from a generator re-keyed per
run.  The runs stream on as blocks of 256, each copied run-major into one
block buffer whose draws become pi* in place: memory is O(pass * n) for
any number of runs.  The estimate is one row-by-row sum in run order,
bit for bit the mean of all samples at once; its standard error merges
per-block moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numeric import as_int, prefix_table
from .graph import ThresholdGraph, _FloatSums, build_graph, neighbor_counts
from .urn import _PASS_RUNS, CreationSequence, FiniteMemoryParams, UrnParams, _draw_list, _draw_pass, _law, sample_runs

__all__ = [
    "AveragingOperator",
    "ConsensusSystem",
    "EnumerationLimitError",
    "Trajectory",
    "ExpectedStationary",
    "SweepPoint",
    "sample_connected_graph",
    "averaging_matrix",
    "iterate",
    "expected_stationary_exact",
    "expected_stationary_mc",
    "memory_sweep",
    "opinion_preset",
]


@dataclass(frozen=True, eq=False)
class AveragingOperator:
    """The averaging matrix W as an O(n) operator.

    ``W.power(x, t)`` is W^t x and ``W @ x`` is W x, one step
    (x + neighbor_sums(z, x)) / N, for x of shape (n,) or (runs, n); z and N
    may be (n,) for one realization or (runs, n) for one realization per
    row.  :meth:`toarray` builds the dense matrix of a single realization.
    From :func:`averaging_matrix`, ``z`` is the graph's own int64 copy of
    its draws and read-only.
    """

    z: np.ndarray
    neighbor_counts: np.ndarray

    @classmethod
    def sample(cls, params, n: int, runs: int, seed: int, *, first_stream: int = 0) -> "AveragingOperator":
        """Operator over ``runs`` connected realizations, one per row: row r
        is the realization :func:`sample_connected_graph` draws at stream
        index ``first_stream + r``, drawn by the batched sampler
        :func:`polyagraph.urn.sample_runs`.  z and N are float64, exact
        small integers, as the stepper reads them."""
        n, runs = as_int("n", n), as_int("runs", runs)
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if runs < 0:
            raise ValueError(f"runs must be >= 0, got {runs}")
        z = np.empty((runs, n))
        z[:, -1] = 1.0  # the urn's n - 1 free draws, then the pinned 1
        if n > 1:
            sample_runs(params, n - 1, runs, seed, first_stream=first_stream, out=z[:, :-1])
        return cls(z, neighbor_counts(z))

    def power(self, x, t: int) -> np.ndarray:
        """W^t x: t steps in place over one set of buffers.  The result is a
        fresh array, also for t = 0."""
        t = as_int("t", t)
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        stepper = _Stepper(self, x)
        for _ in range(t):
            stepper.step()
        return stepper.x

    def __matmul__(self, x) -> np.ndarray:
        return self.power(x, 1)

    @property
    def pi_star(self) -> np.ndarray:
        """Stationary vector N / sum(N), per row."""
        counts = self.neighbor_counts
        return counts / counts.sum(axis=-1, keepdims=True)

    @property
    def nbytes(self) -> int:
        return self.z.nbytes + self.neighbor_counts.nbytes

    def toarray(self) -> np.ndarray:
        """Dense W: rows are N_i-ths of the 0/1 adjacency with a unit
        diagonal, so N_i * W_ij = N_j * W_ji holds exactly."""
        numerator = build_graph(self.z).adjacency().astype(float)
        np.fill_diagonal(numerator, 1.0)
        return numerator / self.neighbor_counts[:, None]


class _Stepper:
    """x <- W x in place over fixed buffers.

    Holds z and N as floats (exact: both are small integers, and casting
    them every step costs more), the current and the spare state, and the
    neighbour-sum workspace.  :meth:`step` writes (x + neighbor_sums(z, x))
    / N into the spare buffer and swaps the two, so a step allocates no
    array, and it hands numpy only contiguous operands, which it does not
    buffer.  The neighbour sums run through two plans of their tables'
    views (:class:`polyagraph.graph._FloatSums`), one per direction
    between the two buffers, each built on its first step; so the views
    are made at most twice, not once per step.
    :meth:`AveragingOperator.power` and :func:`iterate` step through it.
    """

    def __init__(self, W: AveragingOperator, x0):
        x0 = np.asarray(x0, dtype=float)
        shape = np.broadcast_shapes(W.z.shape, x0.shape)
        self._z = np.asarray(W.z, dtype=float)
        self._counts = np.asarray(W.neighbor_counts, dtype=float)
        self.x = np.empty(shape)
        self.x[...] = x0
        self._spare = np.empty(shape)
        self._work = np.empty(4 * self.x.size)
        self._plan = self._next_plan = None  # sums of x into the spare buffer, then back

    def step(self) -> np.ndarray:
        """Advance one step and return the state, a buffer the step after
        next overwrites."""
        plan = self._plan or _FloatSums(self._z, self.x, self._spare, self._work)
        nxt = plan()
        np.add(self.x, nxt, out=nxt)
        np.divide(nxt, self._counts, out=nxt)
        self.x, self._spare = nxt, self.x
        self._plan, self._next_plan = self._next_plan, plan
        return nxt

    def max_deviation(self, limit: float) -> float:
        """max |x - limit| from two reductions and no temporary.  Rounding
        is monotone and symmetric, so the largest x_i - limit is
        max(x) - limit and the largest limit - x_i is limit - min(x), each
        rounded as the entry's own difference; abs only turns a -0.0 into
        the 0.0 that |x - limit| gives.  A NaN on either side (a NaN entry,
        or inf - inf) wins, as it does in max|x - limit|."""
        hi, lo = float(self.x.max()) - limit, limit - float(self.x.min())
        return abs(lo if lo > hi or lo != lo else hi)


@dataclass(frozen=True, eq=False)
class ConsensusSystem:
    """A connected realization and its averaging operator W.

    ``neighbor_counts[i]`` is the integer N_i and ``pi_star`` the stationary
    vector, both read from W; the system is O(n) in size.  Immutable after
    construction.
    """

    graph: ThresholdGraph
    W: AveragingOperator

    @property
    def neighbor_counts(self) -> np.ndarray:
        return self.W.neighbor_counts

    @property
    def pi_star(self) -> np.ndarray:
        return self.W.pi_star


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States of one averaging run.

    ``states`` holds x(0), x(1), ... when recording was requested and None
    in streaming mode; ``converged_at`` is the first step at which every
    entry is within tolerance of the limit pi* . x(0), or None if that never
    happened within the step budget.
    """

    states: tuple[np.ndarray, ...] | None
    converged_at: int | None
    limit: float
    final: np.ndarray

    @property
    def converged(self) -> bool:
        return self.converged_at is not None


@dataclass(frozen=True, eq=False)
class ExpectedStationary:
    """Expected consensus weights pi_E under the chosen urn law.

    ``mode`` is "exact-dp" or "monte-carlo"; ``std_error`` carries per-entry
    standard errors in Monte Carlo mode and is None in exact mode.
    """

    pi: np.ndarray
    mode: str
    std_error: np.ndarray | None
    urn_mode: str


@dataclass(frozen=True)
class SweepPoint:
    """One (delta, memory) cell of a memory sweep, with its infinite-memory
    baseline estimated from the same number of runs."""

    delta: float
    memory: int
    value: float
    std_error: float
    baseline: float
    baseline_se: float


_BLOCK_RUNS = _PASS_RUNS // 4  # runs per block of pi*, the unit the Monte Carlo sums see


def _urn_mode(params) -> str:
    if isinstance(params, FiniteMemoryParams):
        return f"finite-memory(M={params.memory})"
    return "infinite"


def sample_connected_graph(params, n: int, seed: int, *, stream_index: int = 0) -> ThresholdGraph:
    """Sample a realization with the last node forced universal, matching the
    connected experimental protocol: the urn's n - 1 free draws, then a
    pinned 1, checked once as one packed sequence.  ``n`` must be an
    integer (numpy's included)."""
    n = as_int("n", n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    draws = _draw_list(params, n - 1, seed, stream_index) if n > 1 else []
    draws.append(1)
    return build_graph(CreationSequence(bytes(draws)))


def averaging_matrix(g: ThresholdGraph) -> ConsensusSystem:
    """Build the averaging system for a connected realization.

    Rejects realizations whose last node is not universal: without it the
    graph may split into components and the consensus guarantees fail.
    """
    if g.draws[-1] != 1:
        raise ValueError(
            "averaging needs a connected realization: the last draw must be 1 "
            "(use sample_connected_graph)"
        )
    z = g._z  # the graph's read-only int64 copy of its draws
    return ConsensusSystem(graph=g, W=AveragingOperator(z, neighbor_counts(z)))


def _opinions(x0, n: int) -> np.ndarray:
    """x0 as a float vector, once it has length n and only finite entries: a
    NaN or an infinity would spread to every node and never converge."""
    x = np.asarray(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x0 must have length {n}, got shape {x.shape}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"x0 must be finite, got {float(x[bad[0]])} at entry {bad[0] + 1}")
    return x


def iterate(
    sys: ConsensusSystem,
    x0,
    t_max: int = 10_000,
    tol: float = 1e-10,
    record: bool = True,
) -> Trajectory:
    """Run x(t) = W x(t-1) until every entry is within ``tol`` of the known
    limit pi* . x(0), or until ``t_max`` steps have been taken.

    Convergence is detected against the closed-form limit rather than by
    successive differences, so slow mixing cannot fake convergence.  The
    test takes max|x - limit| as max(max(x) - limit, limit - min(x)): two
    reductions, no temporary, and the same bits.
    Non-convergence is reported through ``converged_at = None``, never
    silently.  ``record=False`` keeps only the current state.

    ``tol`` is absolute, but floored at 64 * eps * max|x0|: each step rounds
    every entry by a few ulps of the opinion scale, so no tolerance finer
    than that can ever be met.  The floor only binds once max|x0| exceeds
    about 7e3 for the default tol of 1e-10.
    """
    x = _opinions(x0, sys.graph.n)
    t_max = as_int("t_max", t_max)
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    tol = max(tol, 64 * np.finfo(float).eps * float(np.max(np.abs(x))))
    limit = float(sys.pi_star @ x)
    states = [x.copy()] if record else None
    stepper = _Stepper(sys.W, x)
    x = stepper.x  # the stepper holds the only state from here on
    converged_at = None
    if stepper.max_deviation(limit) < tol:
        converged_at = 0
    else:
        for t in range(1, t_max + 1):
            x = stepper.step()
            if record:
                states.append(x.copy())
            if stepper.max_deviation(limit) < tol:
                converged_at = t
                break
    return Trajectory(
        states=tuple(states) if record else None,
        converged_at=converged_at,
        limit=limit,
        final=x,
    )


_DP_BUDGET_BYTES = 64 << 20  # stored backward tables of the exact pi_E DP


class EnumerationLimitError(RuntimeError):
    """A request would exceed a size budget: the exact pi_E DP's table budget
    here, or an enumeration guard of :mod:`polyagraph.oracle`."""


def expected_stationary_exact(params, n: int) -> ExpectedStationary:
    """Exact pi_E as a finite sum over the urn's Markov chain.

    With z_n pinned to 1, N_i = 2 + (i-1) z_i + sum_{i<j<n} z_j for i < n,
    N_n = n, and sum_k N_k = D = 3n - 2 + 2W with W = sum_{j<n} (j-1) z_j.
    So pi_E,i = 2c + (i-1) a_i + sum_{i<j<n} a_j and pi_E,n = n c, where
    c = E[1/D] and a_j = E[z_j / D]: a sum of non-negative terms, so
    nothing cancels.  A forward-backward pass over (urn state, W) gives c
    and every a_j in polynomial time: O(n^4) for the infinite urn, and
    O(2^M n^3) under a finite memory M < n-1.

    Requests whose tables would exceed 64 MiB are refused with
    :class:`EnumerationLimitError` before anything is
    allocated; use :func:`expected_stationary_mc` for those.
    """
    n = as_int("n", n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return ExpectedStationary(pi=_pi_e_dp(params, n), mode="exact-dp", std_error=None, urn_mode=_urn_mode(params))


def _pi_e_dp(params, n: int) -> np.ndarray:
    # The free draws are a Markov chain whose state is the red count so far
    # (the infinite urn, or a memory covering all n-1 free draws) or the
    # window of the last M draws.  The backward pass stores
    # V_t(s, w) = E[1/D | state s and W = w before free draw t], only over
    # the (s, w) reachable at t; the forward pass streams the mass over
    # (s, w) and collects a_t = E[z_t / D].
    rho, delta, memory = _law(params, n - 1)
    window = memory < n - 1  # else min(t, memory) = t at every free draw

    def states(t):  # reachable states before free draw t are 0 .. states(t) - 1
        return 1 << min(t, memory) if window else t + 1

    def width(t):  # W before free draw t is at most 0 + 1 + .. + (t-1)
        return t * (t - 1) // 2 + 1

    stored = 0
    for t in range(n):
        stored += 8 * states(t) * width(t)
        if stored > _DP_BUDGET_BYTES:
            raise EnumerationLimitError(
                f"exact pi_E at n = {n} ({_urn_mode(params)}) needs more than "
                f"{_DP_BUDGET_BYTES >> 20} MiB of DP tables; use expected_stationary_mc instead"
            )

    s = np.arange(states(n - 1))
    if window:  # bit 0 is the latest draw; draws older than M leave the window
        reds = np.bitwise_count(s).astype(float)
        to_black = (s << 1) & ((1 << memory) - 1)
        to_red = to_black | 1
    else:
        reds, to_black, to_red = s.astype(float), s, s + 1
    steps = []
    for t in range(n - 1):
        k, w = states(t), min(t, memory)
        p_red = (rho + delta * reds[:k]) / (1.0 + delta * w)  # the sampler's expression
        p_black = (1.0 - rho + delta * (w - reds[:k])) / (1.0 + delta * w)
        steps.append((p_red[:, None], p_black[:, None], to_red[:k], to_black[:k], width(t)))

    # a red draw at 0-based t adds t to W
    V = [None] * n
    last = 1.0 / (3 * n - 2 + 2 * np.arange(width(n - 1)))  # 1/D, whatever the state
    V[n - 1] = np.broadcast_to(last, (states(n - 1), width(n - 1)))
    for t in range(n - 2, -1, -1):
        p_red, p_black, red, black, m = steps[t]
        V[t] = p_red * V[t + 1][red, t : t + m] + p_black * V[t + 1][black, :m]
    a = np.empty(n - 1)
    mass = np.ones((1, 1))
    for t, (p_red, p_black, red, black, m) in enumerate(steps):
        red_mass = mass * p_red
        a[t] = np.sum(red_mass * V[t + 1][red, t : t + m])
        nxt = np.zeros((states(t + 1), width(t + 1)))
        np.add.at(nxt, (red, slice(t, t + m)), red_mass)  # windows merge: indices repeat
        np.add.at(nxt, (black, slice(0, m)), mass * p_black)
        mass = nxt
    c = float(V[0][0, 0])
    pi = np.empty(n)
    # sum_{i<j<n} a_j for i = 1 .. n-1, as a compensated suffix sum
    pi[:-1] = 2.0 * c + np.arange(n - 1) * a + prefix_table(a[::-1])[-2::-1]
    pi[-1] = n * c
    return pi


def _pi_star_blocks(params, n: int, runs: int, seed: int, first_stream: int = 0):
    """pi* of the runs at streams first_stream .. first_stream + runs - 1, in
    run order, one (block, n) array per block of 256 runs.

    The runs are sampled in time-major passes of up to 1024: row t of the
    pass buffer holds draw t of every run, each row contiguous, and its
    last row the pinned 1.  Each block of the pass is copied, transposed,
    into one run-major block buffer, whose draws become pi* in place; the
    copied pass columns are the workspace of the neighbour counts.  So
    memory stays O(pass * n) whatever the number of runs.  A block is a
    view of the block buffer: it is valid until the next block is made, and
    its user may overwrite it.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    passes = np.empty((n, min(runs, _PASS_RUNS + 1)))
    blocks = np.empty((min(runs, _BLOCK_RUNS + 1), n))
    totals = np.empty((len(blocks), 1))
    start = 0
    while start < runs:
        stop = _chunk_stop(start, _PASS_RUNS, runs)
        draws = passes[:, : stop - start]
        draws[-1] = 1.0  # the last node is universal; the previous pass's counts overwrote it
        if n > 1:
            _draw_pass(params, seed, first_stream + start, draws[:-1])
        lo = 0
        while lo < stop - start:
            hi = _chunk_stop(lo, _BLOCK_RUNS, stop - start)
            cols, block = draws[:, lo:hi].T, blocks[: hi - lo]
            np.copyto(block, cols)
            neighbor_counts(block, out=block, work=cols)
            block /= np.sum(block, axis=-1, keepdims=True, out=totals[: hi - lo])
            yield block
            lo = hi
        start = stop


def _chunk_stop(start: int, size: int, end: int) -> int:
    # chunks end on multiples of their size, except that a last run on its
    # own joins the chunk before it: numpy takes a one-row matrix product as
    # a dot product, which sums in another order than a row of a larger one
    stop = min(start + size, end)
    return end if stop == end - 1 else stop


def expected_stationary_mc(params, n: int, runs: int, seed: int) -> ExpectedStationary:
    """Monte Carlo pi_E: mean of pi* over seeded sampled realizations.

    Run r draws from the (seed, r) stream, so the estimate is reproducible
    and independent of execution order.  The runs stream through in blocks,
    so memory is O(pass * n) for any number of runs.  pi is the sum over
    runs taken row by row in run order, the same bits as the mean of one
    (runs, n) array of samples.  The standard error merges per-block means
    and squared deviations (Chan, Golub & LeVeque, 1983); it differs from
    the two-pass value by rounding only (at most 5e-14 relative measured).
    """
    n, runs = as_int("n", n), as_int("runs", runs)
    if runs < 2:
        raise ValueError(f"need runs >= 2 for a standard error, got {runs}")
    total = np.zeros(n)
    mean = np.zeros(n)
    m2 = np.zeros(n)  # sum of squared deviations from the running mean
    done = 0
    for block in _pi_star_blocks(params, n, runs, seed):
        k = len(block)
        block_mean = block.mean(axis=0)
        dev = block - block_mean
        delta = block_mean - mean
        mean += delta * (k / (done + k))
        m2 += np.einsum("ij,ij->j", dev, dev) + delta * delta * (done * k / (done + k))
        done += k
        # an axis-0 sum adds row after row, so folding the running total
        # into the first row continues one sum across blocks
        block[0] += total
        total = block.sum(axis=0)
    return ExpectedStationary(
        pi=total / runs,
        mode="monte-carlo",
        std_error=np.sqrt(m2 / (runs - 1)) / math.sqrt(runs),
        urn_mode=_urn_mode(params),
    )


def memory_sweep(
    base: UrnParams,
    n: int,
    deltas,
    memories,
    runs: int,
    x0,
    seed: int,
) -> list[SweepPoint]:
    """Monte Carlo expected consensus across (delta, memory) cells.

    For each reinforcement strength the infinite-memory baseline is estimated
    from ``runs`` fresh realizations, then each memory length gets its own
    ``runs`` finite-memory realizations.  Every cell uses a disjoint block of
    run streams derived from ``seed``, so the full table is reproducible.
    ``n``, ``runs`` and the memory lengths (as :class:`FiniteMemoryParams`
    takes them) must be integers, numpy's included; a bool or a float is
    refused before any cell runs.
    """
    n, runs = as_int("n", n), as_int("runs", runs)
    memories = [FiniteMemoryParams(base, m).memory for m in memories]
    deltas = list(deltas)
    if not memories:
        raise ValueError("need at least one memory length")
    if runs < 2:
        raise ValueError(f"need runs >= 2, got {runs}")
    x = _opinions(x0, n)
    points: list[SweepPoint] = []
    block = 0

    def values(law, cell: int) -> np.ndarray:  # pi* . x0 of each run in the cell's streams
        return np.concatenate([pi @ x for pi in _pi_star_blocks(law, n, runs, seed, cell * runs)])

    for d in deltas:
        params = UrnParams.from_proportions(base.rho, d)
        base_vals = values(params, block)
        block += 1
        baseline = float(base_vals.mean())
        baseline_se = float(base_vals.std(ddof=1) / math.sqrt(runs))
        for memory in memories:
            vals = values(FiniteMemoryParams(params, memory), block)
            block += 1
            points.append(
                SweepPoint(
                    delta=float(d),
                    memory=memory,
                    value=float(vals.mean()),
                    std_error=float(vals.std(ddof=1) / math.sqrt(runs)),
                    baseline=baseline,
                    baseline_se=baseline_se,
                )
            )
    return points


def opinion_preset(name: str, n: int) -> np.ndarray:
    """Named initial-opinion vectors of length n, an integer >= 1.

    "paper-n10":  the reference 10-node experiment vector.
    "paper-n100": the same vector tiled to 100 nodes (x_{i+10k} = x_i).
    "polarized":  first half 0, second half 100.
    """
    n = as_int("n", n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    reference = (0.1, 0.6, 0.3, 1.0, 0.5, 3.0, 10.0, 2.0, 9.0, 0.2)
    if name == "paper-n10":
        if n != 10:
            raise ValueError(f"preset 'paper-n10' needs n = 10, got {n}")
        return np.array(reference)
    if name == "paper-n100":
        if n != 100:
            raise ValueError(f"preset 'paper-n100' needs n = 100, got {n}")
        return np.tile(np.array(reference), 10)
    if name == "polarized":
        x = np.full(n, 100.0)
        x[: n // 2] = 0.0
        return x
    raise ValueError(f"unknown preset {name!r}")
