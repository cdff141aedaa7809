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
(:func:`polyagraph.graph.neighbor_counts`), and one step costs two
compensated float chains, the prefix sums of x and the suffix sums of z*x,
run side by side as the two parts of one complex accumulate; this module
owns them, and :mod:`polyagraph.graph` keeps the exact integer sums.
:meth:`AveragingOperator.power` gives W^t x, and :func:`iterate` runs to
the limit; both step one vector or a (runs, n) batch in place, in one state
buffer with fixed scratch and tables whose views are made once, so a step
allocates no arrays and builds no views; the convergence test of
:func:`iterate` is two reductions.  The dense matrix is built only on
request, for oracles and tests.

Averaging pi* over the urn law of the free draws gives the expected
consensus weights pi_E: the expected opinion vector converges to
(pi_E . x(0)) at every node.  pi_E is computed exactly by a
forward-backward pass over the weighted red count W that fixes sum_k N_k
and the state of the urn's Markov chain, which :mod:`polyagraph.urn` states
once for the samplers and this pass, with one pull and one push as its
only moves (polynomial in n, guarded by a 64 MiB table budget), or
estimated by seeded Monte Carlo with one independent stream per run,
merged by run index so scheduling cannot change the estimate.  Monte Carlo
runs are sampled in time-major passes of up to 1024 runs (a memory sweep's
span consecutive cells, up to a tile of the Philox kernel), each drawn by
the urn's one draw loop, which reproduces the scalar sampler bit for bit:
row t of the pass buffer holds draw t of every run, each row contiguous,
so an urn step is a few array operations over one row.  Its uniforms come from
:func:`polyagraph.rng.uniform_rows`: for realizations of up to 33 nodes
(32 free draws) a Philox kernel computes a tile of runs at once, and
longer ones come from a generator re-keyed per run.  The draw loop leaves
each run's neighbour counts, less 1 + T, in the pass buffer, so a pass
becomes pi* by one add, one sum and one divide; the runs then stream on
as blocks of 256, each copied run-major into one block buffer: memory is
O(pass * n) for any number of runs.  The estimate is one row-by-row sum
in run order, bit for bit the mean of all samples at once; its standard
error merges per-block moments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._numeric import as_int, prefix_table, sum_errors
from .graph import ThresholdGraph, build_graph, neighbor_counts
from .rng import uniform_rows
from .urn import _PASS_RUNS, CreationSequence, UrnParams, _chain, _draw_list, _draw_pass, _pass_runs, sample_runs

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
    (x + A'x) / N with A'x the adjacency product without its diagonal, for
    x of shape (n,) or (runs, n); z and N may be (n,) for one realization
    or (runs, n) for one realization per row.  :meth:`toarray` builds the
    dense matrix of a single realization.
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
        n, runs = as_int("n", n, 1), as_int("runs", runs, 0)
        z = np.empty((runs, n))
        z[:, -1] = 1.0  # the urn's n - 1 free draws, then the pinned 1
        if n > 1:
            sample_runs(params, n - 1, runs, seed, first_stream=first_stream, out=z[:, :-1])
        else:  # sample_runs refuses zero draws; a zero-row pass still checks the law and seed
            _draw_pass(params, uniform_rows(seed, first_stream, runs, 0, out=z[:, :-1]).T)
        return cls(z, neighbor_counts(z))

    def power(self, x, t: int) -> np.ndarray:
        """W^t x: t steps in place over one set of buffers, refused where a
        state is not finite (:meth:`_Stepper.check`).  The result is a
        fresh array, also for t = 0."""
        t = as_int("t", t, 0)
        stepper = _Stepper(self, x)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(t):
                stepper.step()
        stepper.check(t)
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

    Holds z and N as floats of the state's shape (exact: both are small
    integers, and casting them every step costs more; they are copied only
    to cast a graph's int draws or to broadcast one realization over a
    (runs, n) batch), the state x, a scratch of its shape and two complex
    tables of its shape, T (the terms) and S (their sums): 4 * x.size
    floats.  x, the scratch and the tables are all the memory a step uses.

    A step computes the off-diagonal sums z_i * (x_1 + .. + x_{i-1}) +
    (z_{i+1} x_{i+1} + .. + z_n x_n) into the scratch, then x += sums and
    x /= N.  Both chains run as one complex accumulate: T.real is x, and
    T.imag is z*x written with the whole flat table reversed, so row r's
    suffix chain runs forward in row R-1-r; S = accumulate(T) along the
    rows adds each part with its own IEEE rounding.  The prefix at k is
    S.real[k-1] and the suffix at k the reversed S.imag at k+1.  Knuth's
    TwoSum recovers the rounding error of each S[k] = S[k-1] + T[k] over
    flat views at a distance of two floats, so each real and imaginary
    pair stays together; the errors overwrite T, with the scratch as the
    TwoSum's, in two halves of the flat range.  Column 0, where the flat
    pairs straddle two rows, gets the error of 0 + T[0] instead; a second
    accumulate of T, added to S, compensates both tables.  The edge columns
    keep explicit zeros: z*0.0 for the empty prefix and + 0.0 for the empty
    suffix.  So for a finite x every bit, signed zeros and the NaN of an
    overflow included, is that of two separate compensated tables, never
    cumsum(x) - x; with an inf or a NaN in x the NaNs fall in the same
    places, but where two NaNs meet, which one's sign survives is left
    open by IEEE 754.  The sums overflow once a row's partial sums pass the
    largest float, and a batch's flat pairs across rows may overflow where
    their errors are overwritten, so callers step with numpy's overflow
    warnings off and :meth:`check` the state.

    Every view is made here, once, and each is flat: numpy buffers a
    strided 2-d operand, not a flat one.  So a step runs the ufuncs alone
    and allocates no array.  :meth:`AveragingOperator.power` and
    :func:`iterate` step through it.
    """

    def __init__(self, W: AveragingOperator, x0):
        x0 = np.asarray(x0, dtype=float)
        shape = np.broadcast_shapes(W.z.shape, x0.shape)
        z = np.ascontiguousarray(np.broadcast_to(W.z, shape), dtype=float).reshape(-1)
        self._counts = np.ascontiguousarray(np.broadcast_to(W.neighbor_counts, shape), dtype=float)
        self.x = np.empty(shape)
        self.x[...] = x0
        self._sums = np.empty(shape)
        self._tables = tables, totals = np.empty((2,) + shape, dtype=complex)
        t, s = tables.reshape(-1).view(float), totals.reshape(-1).view(float)
        x, out = self.x.reshape(-1), self._sums.reshape(-1)
        self._terms = (x, t[0::2], z, t[1::2][::-1])
        m = max(self.x.size - 1, 0)  # each half of the 2 * size - 2 flat pairs
        self._halves = [(s[i : i + m], s[i + 2 : i + 2 + m], t[i + 2 : i + 2 + m], out[:m]) for i in (0, m)]
        self._row_starts = (totals[..., 0], tables[..., 0])
        self._row_ends = totals[..., -1]
        prefix, suffix = s[0::2], s[1::2][::-1]
        self._prefix = (z[1:], prefix[:-1], out[1:], z[:1], out[:1])
        self._suffix = (out[:-1], suffix[1:], out[-1:])
        self._zero = np.zeros(1)  # a Python 0.0 costs a conversion per step

    def step(self) -> np.ndarray:
        """Advance one step and return the state, the stepper's one buffer,
        which the next step overwrites."""
        x, real, z, imag = self._terms
        np.copyto(real, x)
        np.multiply(z, x, out=imag)
        tables, totals = self._tables
        np.add.accumulate(tables, axis=-1, out=totals)
        for prev, cur, a, scratch in self._halves:
            sum_errors(prev, cur, a, out=a, scratch=scratch)
        starts, errors = self._row_starts
        np.subtract(starts, starts, out=errors)  # the error of 0 + T[0]: 0, or NaN
        np.add.accumulate(tables, axis=-1, out=tables)
        np.add(totals, tables, out=totals)
        self._row_ends.fill(0)  # flat reads cross a row boundary here
        z, prefix, out, z_first, out_first = self._prefix
        np.multiply(z, prefix, out=out)
        np.multiply(z_first, self._zero, out=out_first)
        out, suffix, out_last = self._suffix
        np.add(out, suffix, out=out)
        np.add(out_last, self._zero, out=out_last)
        np.add(self.x, self._sums, out=self.x)
        return np.divide(self.x, self._counts, out=self.x)

    def check(self, t: int) -> None:
        """Raise ValueError if the state at step t holds a NaN or an inf:
        x0 did, or a step overflowed.  Two reductions, no temporary."""
        if not (-math.inf < self.x.min(initial=0.0) and self.x.max(initial=0.0) < math.inf):
            raise ValueError(
                f"x0 must keep every state and its averaging sums within +-{float(np.finfo(float).max)!r}; "
                f"the state at step {t} is not"
            )

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
    return "infinite" if params.memory is None else f"finite-memory(M={params.memory})"


def sample_connected_graph(params, n: int, seed: int, *, stream_index: int = 0) -> ThresholdGraph:
    """Sample a realization with the last node forced universal, matching the
    connected experimental protocol: the urn's n - 1 free draws, then a
    pinned 1, checked once as one packed sequence.  ``n`` must be an
    integer >= 1 (numpy's included)."""
    n = as_int("n", n, 1)
    draws = _draw_list(params, n - 1, seed, stream_index)
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
    silently.  ``record=False`` keeps only the current state.  An x0 whose
    averaging sums overflow is refused with ValueError at that step.

    ``tol`` is absolute, but floored at 64 * eps * max|x0|: each step rounds
    every entry by a few ulps of the opinion scale, so no tolerance finer
    than that can ever be met.  The floor only binds once max|x0| exceeds
    about 7e3 for the default tol of 1e-10.
    """
    x = _opinions(x0, sys.graph.n)
    t_max = as_int("t_max", t_max, 1)
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
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(1, t_max + 1):
                x = stepper.step()
                if record:
                    states.append(x.copy())
                deviation = stepper.max_deviation(limit)
                if deviation < tol:
                    converged_at = t
                    break
                if deviation != deviation:  # a NaN: x0 is finite, so a step overflowed
                    stepper.check(t)
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
    O(2^M n^3) under a finite memory M < n-1.  The pass walks the
    samplers' chain by its two moves: the backward pass pulls each state's
    expectation from its successors, the forward pass pushes each state's
    mass onto them, in a fixed order, and only the offset of W is its own.

    Requests whose tables would exceed 64 MiB are refused with
    :class:`EnumerationLimitError` before anything is
    allocated; use :func:`expected_stationary_mc` for those.
    """
    n = as_int("n", n, 1)
    return ExpectedStationary(pi=_pi_e_dp(params, n), mode="exact-dp", std_error=None, urn_mode=_urn_mode(params))


def _pi_e_dp(params, n: int) -> np.ndarray:
    # The free draws walk the urn's chain.  The backward pass pulls
    # V_t(s, w) = E[1/D | state s and W = w before free draw t], stored only
    # over the (s, w) reachable at t; the forward pass pushes the mass over
    # (s, w) and collects a_t = E[z_t / D].  A red draw at 0-based t adds t
    # to W, so its successor table starts t columns on.
    states, pull, push = _chain(params, n - 1)

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

    V = [None] * n
    last = 1.0 / (3 * n - 2 + 2 * np.arange(width(n - 1)))  # 1/D, whatever the state
    V[n - 1] = np.broadcast_to(last, (states(n - 1), width(n - 1)))
    for t in range(n - 2, -1, -1):
        m, after = width(t), V[t + 1]
        V[t] = pull(t, after[:, t : t + m], after[:, :m])
    a = np.empty(n - 1)
    mass = np.ones((1, 1))
    for t in range(n - 1):
        m, nxt = width(t), np.zeros((states(t + 1), width(t + 1)))
        a[t] = np.sum(push(t, mass, nxt[:, t : t + m], nxt[:, :m], V[t + 1][:, t : t + m]))
        mass = nxt
    c = float(V[0][0, 0])
    pi = np.empty(n)
    # sum_{i<j<n} a_j for i = 1 .. n-1, as a compensated suffix sum
    pi[:-1] = 2.0 * c + np.arange(n - 1) * a + prefix_table(a[::-1])[-2::-1]
    pi[-1] = n * c
    return pi


def _pi_star_blocks(laws, n: int, runs: int, seed: int, first_stream: int = 0, span: int = _PASS_RUNS + 1):
    """pi* of ``runs`` runs under each law of ``laws`` in turn, as (cell,
    block) pairs: cell c is the runs at streams first_stream + c * runs
    onwards, in run order, one (block, n) array per block of 256 runs.

    A cell is cut into pieces of 1024 runs and a piece into blocks of 256,
    a last run on its own joining the chunk before it (:func:`_chunks`).
    Consecutive pieces, of one cell or of several, are drawn in one
    time-major pass while it holds at most ``span`` runs (a piece is drawn
    whole whatever its size): row t of the pass buffer holds draw t of
    every run, each row contiguous, and its last row the pinned 1.  The
    pass's uniforms come from one call of
    :func:`polyagraph.rng.uniform_rows`, and each piece's draw loop, under
    its own law (:func:`polyagraph.urn._draw_pass`), leaves t z_t - C_t in
    row t and the red total of each run's free draws in ``totals``.  Then,
    over the whole pass, one add of 1 + T (T counting the pinned draw)
    gives the neighbour counts N, one exact axis-0 sum their total D and
    one divide pi* = N / D: small integers up to the divide, so every bit
    is that of the per-run pi*.  Each block is copied, transposed, into one
    run-major block buffer, so memory stays O(span * n) whatever the number
    of runs.  A block is a view of the block buffer: it is valid until the
    next block is made, and its user may overwrite it.  Its callers check
    n >= 1.
    """
    groups = []  # the pieces of each pass: (cell, law, start, stop) in the runs of all cells
    for cell, law in enumerate(laws):
        for start, stop in _chunks(runs, _PASS_RUNS):
            piece = (cell, law, cell * runs + start, cell * runs + stop)
            if groups and piece[3] - groups[-1][0][2] <= span:
                groups[-1].append(piece)
            else:
                groups.append([piece])
    width = max(group[-1][3] - group[0][2] for group in groups)
    passes = np.empty((n, width))
    red_totals = np.empty(width)
    blocks = np.empty((min(runs, _BLOCK_RUNS + 1), n))
    for group in groups:
        lo, hi = group[0][2], group[-1][3]
        draws, totals = passes[:, : hi - lo], red_totals[: hi - lo]
        uniform_rows(seed, first_stream + lo, hi - lo, n - 1, out=draws[:-1].T)
        for _, law, start, stop in group:
            _draw_pass(law, draws[:-1, start - lo : stop - lo], totals[start - lo : stop - lo])
        totals += 2.0  # 1 + T, with the pinned draw in T
        np.subtract(n, totals, out=draws[-1])  # the pinned draw's (n - 1) * 1 - T
        draws += totals
        draws /= np.sum(draws, axis=0, out=totals)
        for cell, _, start, stop in group:
            for a, b in _chunks(stop - start, _BLOCK_RUNS):
                block = blocks[: b - a]
                np.copyto(block, draws[:, start - lo + a : start - lo + b].T)
                yield cell, block


def _chunks(end: int, size: int):
    # (start, stop) of chunks that end on multiples of their size, except
    # that a last run on its own joins the chunk before it: numpy takes a
    # one-row matrix product as a dot product, which sums in another order
    # than a row of a larger one
    start = 0
    while start < end:
        stop = min(start + size, end)
        stop = end if stop == end - 1 else stop
        yield start, stop
        start = stop


def expected_stationary_mc(params, n: int, runs: int, seed: int) -> ExpectedStationary:
    """Monte Carlo pi_E: mean of pi* over seeded sampled realizations.

    Run r draws from the (seed, r) stream, so the estimate is reproducible
    and independent of execution order.  The runs are drawn in passes of
    up to 1024, whose pi* are computed whole (:func:`_pi_star_blocks`), and
    stream through in blocks of 256, so memory is O(pass * n) for any
    number of runs.  pi is the sum over
    runs taken row by row in run order, the same bits as the mean of one
    (runs, n) array of samples.  The standard error merges per-block means
    and squared deviations (Chan, Golub & LeVeque, 1983); it differs from
    the two-pass value by rounding only (at most 5e-14 relative measured).
    ``n`` and ``runs`` must be integers, numpy's included, with n >= 1 and
    runs >= 2: the standard error's sample variance divides by runs - 1.
    A bool, a float or a smaller value raises ValueError naming the
    argument.
    """
    n, runs = as_int("n", n, 1), as_int("runs", runs, 2)
    total = np.zeros(n)
    mean = np.zeros(n)
    m2 = np.zeros(n)  # sum of squared deviations from the running mean
    done = 0
    for _, block in _pi_star_blocks([params], n, runs, seed):
        k = len(block)
        block_mean = block.mean(axis=0)
        # an axis-0 sum adds row after row, so folding the running total
        # into the first row continues one sum across blocks
        first = block[0].copy()
        block[0] += total
        total = block.sum(axis=0)
        block[0] = first
        block -= block_mean  # the deviations, in place
        delta = block_mean - mean
        mean += delta * (k / (done + k))
        m2 += np.einsum("ij,ij->j", block, block) + delta * delta * (done * k / (done + k))
        done += k
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
    The cells' streams are consecutive, so passes span cells, as many runs
    per pass as :func:`polyagraph.urn.sample_runs` draws (at n = 10 two
    cells of 1000 share one tile of the Philox kernel), while each cell
    keeps its own draw loop, law and block edges, so each cell's values are
    those it would have on its own.
    ``base``, an :class:`UrnParams` without a memory, gives rho alone.
    ``n`` >= 1, ``runs`` >= 2 (each cell has a standard error) and the
    memory lengths (as :class:`UrnParams` takes them) must be integers,
    numpy's included.  A bool, a float or a smaller value there, or a delta
    that :meth:`UrnParams.from_proportions` refuses, is refused before any
    cell runs.
    """
    n, runs = as_int("n", n, 1), as_int("runs", runs, 2)
    if not (isinstance(base, UrnParams) and base.memory is None):
        raise TypeError(f"base must be UrnParams without a memory, got {base!r}")
    memories = [as_int("memory", m, 1) for m in memories]
    deltas = list(deltas)
    if not memories:
        raise ValueError("need at least one memory length")
    if not deltas:
        raise ValueError("need at least one delta")
    x = _opinions(x0, n)
    # every delta is checked here, before any cell samples
    laws = [UrnParams.from_proportions(base.rho, d, memory=m) for d in deltas for m in (None, *memories)]
    span = _pass_runs(n - 1)  # as many runs per pass as sample_runs draws

    def cell_stats():  # mean and standard error of pi* . x0 over each cell's runs
        cells = itertools.groupby(_pi_star_blocks(laws, n, runs, seed, span=span), key=lambda pair: pair[0])
        for _, blocks in cells:
            vals = np.concatenate([pi @ x for _, pi in blocks])
            yield float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(runs))

    stats = cell_stats()
    points: list[SweepPoint] = []
    for d in deltas:
        baseline, baseline_se = next(stats)
        for memory in memories:
            value, std_error = next(stats)
            points.append(SweepPoint(float(d), memory, value, std_error, baseline, baseline_se))
    return points


_OPINION_PRESETS = ("paper-n10", "paper-n100", "polarized")


def opinion_preset(name: str, n: int) -> np.ndarray:
    """Named initial-opinion vectors of length n, an integer >= 1.

    "paper-n10":  the reference 10-node experiment vector.
    "paper-n100": the same vector tiled to 100 nodes (x_{i+10k} = x_i).
    "polarized":  first half 0, second half 100.
    """
    n = as_int("n", n, 1)
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
    raise ValueError(f"unknown preset {name!r}; the presets are {', '.join(_OPINION_PRESETS)}")
