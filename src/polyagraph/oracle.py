"""Brute-force ground truth by full enumeration of draw vectors.

Every closed form in this package is validated against an expectation
computed the dumb way: enumerate all 2^n outcomes of the draw process,
weight each by its exact joint probability, and sum.  The evaluators used
here deliberately avoid the closed forms they check (degrees come from
adjacency row sums, distances from breadth-first search), so agreement is
evidence rather than tautology.

There is one enumeration: :func:`_gray_draws` stacks every length-n draw
vector in Gray-code order (consecutive rows differ in one position), and
:func:`_weight_table` holds their joint probabilities in the same order.
Correctness never depends on the order, and sums are exactly rounded
(:func:`math.fsum`).

The oracles do each piece of enumeration work once per n and read their
answers off tables indexed by Gray-order row:

- the joint probability of every vector (cached).  The plain urn's law
  depends on a vector only through its length and red count, so it is
  evaluated once per red count and indexed by each vector's popcount; the
  finite-memory law is evaluated per vector;
- the degree vector of every realization (cached), from row sums of the
  stacked adjacency matrices of the whole enumeration;
- the distance from every source to every node of every realization, from
  one level-synchronous breadth-first search over the whole enumeration at
  once: each level's frontier is the boolean product of the last frontier
  with the stacked adjacency matrices, less the nodes already reached
  (Kepner & Gilbert, *Graph Algorithms in the Language of Linear Algebra*,
  2011).  The distance law check reads that table, and so do the decay
  columns sum_t alpha^d(s, t), which are cached for every source s of an
  (n, alpha) at once; the table itself is not kept.  A decay sum depends on
  a realization only through its multiset of distances from s, so each
  source's distances are encoded as one int64 count code per realization
  and the exactly rounded sum is taken once per distinct code.

Each check of the validation suite is a function of its inputs: parameter
grid, sizes, seeds and counts.  ``_CHECKS`` lists the ``validate``
command's checks with the inputs they run on; the acceptance suite calls
the same functions on its own grids.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ._numeric import as_int, check_node
from .analytics import CentralityConfig, degree_pmf, distance_pmf, expected_decay_centrality
from .consensus import (
    EnumerationLimitError,
    averaging_matrix,
    expected_stationary_exact,
    expected_stationary_mc,
)
from .graph import build_graph
from .rng import stream
from .spectral import _eigenpair_flags, laplacian, spectrum
from .urn import FiniteMemoryParams, UrnParams, polya_joint_pmf

__all__ = [
    "enumerate_expectation",
    "oracle_degree_pmf",
    "oracle_centrality",
    "bfs_distances",
    "ValidationCheck",
    "run_validation_suite",
]

MAX_ENUMERATION_HORIZON = 24
MAX_DEGREE_HORIZON = 16
MAX_CENTRALITY_HORIZON = 12


def _gray_codes(n: int) -> np.ndarray:
    # Gray vector `step` is step ^ (step >> 1), with z_{t+1} at bit t
    step = np.arange(1 << n)
    return step ^ (step >> 1)


def _gray_draws(n: int) -> np.ndarray:
    """Every length-n draw vector as a (2^n, n) 0/1 stack, in Gray order."""
    return (_gray_codes(n)[:, None] >> np.arange(n)) & 1


def _stacked_adjacency(draws) -> np.ndarray:
    """Adjacency matrices, self-loops included, of a (rows, n) 0/1 stack of
    draw vectors, as bool: entry (r, s, t) is z_{max(s,t)} of row r."""
    idx = np.arange(np.shape(draws)[1])
    return np.asarray(draws, dtype=bool)[:, np.maximum.outer(idx, idx)]


@lru_cache(maxsize=8)
def _degree_table(n: int) -> np.ndarray:
    """Degree vectors of every length-n realization (Gray order), the degrees
    read off adjacency row sums rather than the degree formula."""
    return _stacked_adjacency(_gray_draws(n)).sum(axis=2)


@lru_cache(maxsize=32)
def _weight_table(params, n: int) -> np.ndarray:
    """Joint probabilities of every length-n draw vector (Gray order).

    The plain urn's law is evaluated once per red count k, on the vector of
    k reds then n - k blacks, and indexed by each vector's popcount; the
    values are those of one call per vector, bit for bit.
    """
    if isinstance(params, UrnParams):
        by_reds = np.array([polya_joint_pmf(params, (1,) * k + (0,) * (n - k)) for k in range(n + 1)])
        return by_reds[np.bitwise_count(_gray_codes(n))]
    if isinstance(params, FiniteMemoryParams):
        return np.array([polya_joint_pmf(params, z) for z in _gray_draws(n).tolist()])
    raise TypeError(f"expected UrnParams or FiniteMemoryParams, got {type(params).__name__}")


def enumerate_expectation(params, n: int, evaluator: Callable, *, pin_last: bool = False):
    """Exact expectation of ``evaluator`` over the draw process.

    ``evaluator`` must be a pure, total function of a 0/1 tuple of length n
    returning a float or a fixed-shape vector.  ``params`` selects the draw
    law: an UrnParams for the plain urn, a FiniteMemoryParams for the
    finite-memory variant.  All length-n vectors are enumerated; with
    ``pin_last`` the final draw is pinned to 1 and (z_1..z_{n-1}, 1) weighs
    the joint probability of the free n - 1 draws, which already sums to
    one.  Each component is the exactly rounded sum (:func:`math.fsum`) of
    its weighted terms, so the result does not depend on the enumeration
    order.
    """
    n = as_int("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_ENUMERATION_HORIZON:
        raise EnumerationLimitError(
            f"horizon {n} exceeds the enumeration guard of {MAX_ENUMERATION_HORIZON}"
        )
    free = n - 1 if pin_last else n
    weights = _weight_table(params, free).tolist() if free else [1.0]
    tail = (1,) if pin_last else ()
    terms = [
        w * np.asarray(evaluator((*z, *tail)), dtype=float)
        for z, w in zip(_gray_draws(free).tolist(), weights)
    ]
    stacked = np.array(terms)
    sums = np.array([math.fsum(column) for column in stacked.reshape(len(terms), -1).T.tolist()])
    return float(sums[0]) if stacked.ndim == 1 else sums.reshape(stacked.shape[1:])


def _node(n, i, horizon: int, what: str) -> tuple[int, int]:
    """(n, i) as Python ints, once both are integers, n is within the
    enumeration guard and 1 <= i <= n."""
    n = as_int("n", n)
    if n > horizon:
        raise EnumerationLimitError(f"{what} enumeration is guarded at n <= {horizon}, got {n}")
    return check_node(n, i)


def oracle_degree_pmf(params: UrnParams, n: int, i: int) -> dict[int, float]:
    """Degree law of node i by full enumeration."""
    n, i = _node(n, i, MAX_DEGREE_HORIZON, "degree")
    terms: dict[int, list[float]] = {}
    for k, w in zip(_degree_table(n)[:, i - 1].tolist(), _weight_table(params, n).tolist()):
        terms.setdefault(k, []).append(w)
    return {k: math.fsum(ws) for k, ws in sorted(terms.items())}


def _bfs_table(draws) -> np.ndarray:
    """Breadth-first-search distances over a (rows, n) 0/1 stack of draw
    vectors: entry (r, s, t) is the distance from 0-based s to t in
    realization r, for every row and source at once, as float32 (the
    levels and inf are exact).

    Each level's frontier is the boolean matrix product of the last one
    with the adjacency, less every node already reached; bool products
    cannot wrap, whatever the number of neighbours.  Independent of the
    closed-form distance rule.  The source starts reached, so its distance
    to itself is 0 with a self-loop and inf otherwise.
    """
    adjacency = _stacked_adjacency(draws)
    idx = np.arange(adjacency.shape[1])
    reached = np.zeros_like(adjacency)
    reached[:, idx, idx] = True
    dist = np.full(adjacency.shape, math.inf, dtype=np.float32)
    dist[:, idx, idx] = np.where(adjacency[:, idx, idx], 0.0, math.inf)
    frontier, spare = adjacency > reached, np.empty_like(adjacency)  # for bools, a > b is a and not b
    level = 1.0
    while frontier.any():
        np.putmask(dist, frontier, level)
        reached |= frontier
        np.greater(np.matmul(frontier, adjacency, out=spare), reached, out=frontier)
        level += 1.0
    return dist


def bfs_distances(z: tuple[int, ...], source: int) -> list[float]:
    """Breadth-first-search distances from 1-based ``source`` to every node.

    Independent of the closed-form distance rule.  The stated self-loop
    convention applies: the source is at distance 0 from itself only if it
    has a self-loop, inf otherwise.  This is the one-vector case of the
    search that builds the distance table.
    """
    source = check_node(len(z), source, "source")[1]
    return _bfs_table([z])[0, source - 1].tolist()


def _distance_table(n: int) -> np.ndarray:
    """BFS distances of every length-n realization (Gray order), shape
    (2^n, n, n): entry (row, s, t) is d(s+1, t+1).  Not cached: each reader
    takes what it needs in one pass (the decay columns are cached), so the
    table is freed before the next check runs."""
    return _bfs_table(_gray_draws(n))


@lru_cache(maxsize=16)
def _decay_columns(n: int, alpha: float) -> np.ndarray:
    """Read-only (n, 2^n) float64 array whose row s-1 is sum_t alpha^d(s, t)
    for 1-based source s over every length-n realization (Gray order),
    read off one distance table.

    The sum depends on a realization only through the multiset of its
    distances from s, and math.fsum is exactly rounded, so its value
    depends on that multiset alone.  Each realization's multiset is encoded
    as one int64 count code in base n + 1, whose digit j counts the nodes
    at BFS level j (digit n counts the unreachable ones); the sum is taken
    once per distinct code over all sources, and each row is filled from
    those sums.  The largest code, n (n+1)^n, fits int64 for n <= 14,
    above MAX_CENTRALITY_HORIZON.  The codes are built one source at a
    time, so no temporary outgrows (2^n, n).
    """
    assert n <= 14, f"count codes overflow int64 at n = {n}"
    # BFS distances are 0.0, 1.0, .., n - 1.0 or inf: each power is taken once
    powers = [alpha**d for d in (*map(float, range(n)), math.inf)]
    place = (n + 1) ** np.arange(n + 1, dtype=np.int64)

    def decay(code: int) -> float:
        terms = []
        for power in powers:
            code, count = divmod(code, n + 1)
            terms += [power] * count
        return math.fsum(terms)

    table = _distance_table(n)
    sums: dict[int, float] = {}
    columns = np.empty((n, len(table)))
    for s in range(n):
        # levels 0..n-1 are digits 0..n-1, and min(inf, n) is digit n
        codes = place[np.minimum(table[:, s], n).astype(np.intp)].sum(axis=1).tolist()
        sums.update((code, decay(code)) for code in set(codes).difference(sums))
        columns[s] = list(map(sums.__getitem__, codes))
    columns.flags.writeable = False
    return columns


def oracle_centrality(params: UrnParams, n: int, i: int, alpha: float = 0.5) -> float:
    """Expected decay centrality of node i by enumeration with BFS distances.

    ``alpha`` must lie in (0, 1), as :class:`CentralityConfig` requires; any
    other value raises its ValueError before anything is enumerated.
    """
    alpha = CentralityConfig(alpha).alpha
    n, i = _node(n, i, MAX_CENTRALITY_HORIZON, "centrality")
    return math.fsum((_weight_table(params, n) * _decay_columns(n, alpha)[i - 1]).tolist())


# ---------------------------------------------------------------------------
# validation suite (also reachable through the `validate` CLI subcommand)

@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str


_PARAM_GRID = (
    UrnParams(1.0, 1.0, 1.0),
    UrnParams(5.0, 5.0, 2.0),
    UrnParams(1.0, 9.0, 5.0),
)


def _check_degree_laws(grid, sizes) -> list[ValidationCheck]:
    """The degree law of every node at each size, against enumeration: the
    pmf, and its mean and variance, from one pass over the nodes."""
    worst_pmf = worst_mean = worst_var = 0.0
    for params in grid:
        for n in sizes:
            for i in range(1, n + 1):
                dist = degree_pmf(params, n, i)
                brute = oracle_degree_pmf(params, n, i)
                enumerated = np.zeros(n + 1)
                enumerated[list(brute)] = list(brute.values())
                worst_pmf = max(worst_pmf, float(np.abs(dist.probabilities - enumerated).max()))
                mean = math.fsum(k * p for k, p in brute.items())
                var = math.fsum((k - mean) ** 2 * p for k, p in brute.items())
                worst_mean = max(worst_mean, abs(dist.mean - mean))
                worst_var = max(worst_var, abs(dist.variance - var))
    return [
        ValidationCheck("degree pmf vs enumeration", worst_pmf < 1e-10, f"max |diff| = {worst_pmf:.3e}"),
        ValidationCheck(
            "degree mean/variance vs enumeration",
            worst_mean < 1e-10 and worst_var < 1e-8,
            f"max mean diff = {worst_mean:.3e}, max var diff = {worst_var:.3e}",
        ),
    ]


def _check_distance_law(grid, n, pairs) -> list[ValidationCheck]:
    worst = 0.0
    table = _distance_table(n)
    for params in grid:
        weights = _weight_table(params, n).tolist()
        for (i, j) in pairs:
            closed = distance_pmf(params, n, i, j).probabilities
            terms = {v: [] for v in closed}
            for d, w in zip(table[:, i - 1, j - 1].tolist(), weights):
                terms[d].append(w)
            worst = max(worst, max(abs(closed[v] - math.fsum(terms[v])) for v in closed))
    return [ValidationCheck("distance law vs enumeration", worst < 1e-12, f"max |diff| = {worst:.3e}")]


def _check_centrality(grid, sizes) -> list[ValidationCheck]:
    worst = 0.0
    for params in grid:
        for n in sizes:
            for i in range(1, n + 1):
                closed = expected_decay_centrality(params, n, i)
                worst = max(worst, abs(closed - oracle_centrality(params, n, i)))
    return [ValidationCheck("decay centrality vs BFS enumeration", worst < 1e-10, f"max |diff| = {worst:.3e}")]


def _check_spectrum(seed, graphs) -> list[ValidationCheck]:
    """``graphs`` random sequences of 1..30 draws; ``seed`` is a master seed
    or a Generator to continue."""
    rng = seed if isinstance(seed, np.random.Generator) else stream(seed)
    worst = 0.0
    for _ in range(graphs):
        n = int(rng.integers(1, 31))
        z = tuple(rng.integers(0, 2, size=n).tolist())
        g = build_graph(z)
        numeric = np.sort(np.linalg.eigvalsh(laplacian(g).astype(float)))
        exact = np.array(spectrum(g), dtype=float)
        worst = max(worst, float(np.max(np.abs(numeric - exact))))
    return [ValidationCheck("spectrum vs numeric eigensolver", worst < 1e-8, f"max |diff| = {worst:.3e}")]


def _check_eigenpairs(seed, runs, n) -> list[ValidationCheck]:
    # row by row the draws of `runs` calls of size n, kept as int16 like the
    # kernel's arithmetic at n = 50 (eigenvalues stay below 2n)
    z = stream(seed).integers(0, 2, size=(runs, n)).astype(np.int16)
    # the claimed spectrum 0, deg(2), .., deg(n): deg(i) = (i-1) z_i + #(universal nodes from i on)
    eigenvalues = z[:, ::-1].cumsum(axis=1, dtype=np.int16)[:, ::-1] + np.arange(n, dtype=np.int16) * z
    eigenvalues[:, 0] = 0
    failures = int(np.count_nonzero(~_eigenpair_flags(z, eigenvalues)))
    return [ValidationCheck("exact integer eigenpair identity", failures == 0, f"{failures} failures in {runs} runs")]


def _check_expected_stationary(params, sizes) -> list[ValidationCheck]:
    worst = 0.0
    for n in sizes:
        def pi_by_matrix_powers(z: tuple[int, ...]) -> np.ndarray:
            w = averaging_matrix(build_graph(z)).W.toarray()
            return np.linalg.matrix_power(w, 1 << 9)[0]

        brute = enumerate_expectation(params, n, pi_by_matrix_powers, pin_last=True)
        closed = expected_stationary_exact(params, n).pi
        worst = max(worst, float(np.max(np.abs(brute - closed))))
    exact3 = expected_stationary_exact(params, 3).pi
    known = np.array([13.0, 13.0, 16.0]) / 42.0
    worst = max(worst, float(np.max(np.abs(exact3 - known))))
    return [
        ValidationCheck("expected stationary vs matrix-power enumeration", worst < 1e-10, f"max |diff| = {worst:.3e}")
    ]


def _check_monte_carlo(params, n, runs, seed) -> list[ValidationCheck]:
    exact = expected_stationary_exact(params, n).pi
    mc = expected_stationary_mc(params, n, runs=runs, seed=seed)
    dev = np.abs(mc.pi - exact) / mc.std_error
    worst = float(np.max(dev))
    return [ValidationCheck("monte carlo stationary within 4 SE of exact", worst < 4.0, f"max |dev| = {worst:.2f} SE")]


def _check_finite_memory(params, sizes, extra_memory, short_memory) -> list[ValidationCheck]:
    """At each size n, memory n + m for m in ``extra_memory`` gives the plain
    urn's law vector by vector, and memory ``short_memory`` still sums to
    one; the sum reported is the one farthest from 1."""
    worst, total = 0.0, 1.0
    for n in sizes:
        plain = _weight_table(params, n)
        for m in extra_memory:
            worst = max(worst, float(np.max(np.abs(_weight_table(FiniteMemoryParams(params, n + m), n) - plain))))
        mass = math.fsum(_weight_table(FiniteMemoryParams(params, short_memory), n).tolist())
        total = max(total, mass, key=lambda s: abs(s - 1.0))
    return [
        ValidationCheck(
            "finite-memory law reduction and normalization",
            worst < 1e-12 and abs(total - 1.0) < 1e-12,
            f"max |diff| = {worst:.3e}, sum = {total:.15f}",
        )
    ]


def _check_exchangeability(grid, seed, sizes, samples, exhaustive_up_to) -> list[ValidationCheck]:
    """Permuting a draw vector keeps its probability: at each size, every
    vector under every permutation up to ``exhaustive_up_to`` draws, else
    ``samples`` random pairs drawn from stream ``seed`` across the grid.
    The law sums to one at every n from 1 to the largest size."""
    rng = stream(seed)
    worst_perm = worst_norm = 0.0
    for params in grid:
        for n in sizes:
            if n <= exhaustive_up_to:
                cases = itertools.product(_gray_draws(n).tolist(), itertools.permutations(range(n)))
            else:
                cases = ((rng.integers(0, 2, size=n).tolist(), rng.permutation(n).tolist()) for _ in range(samples))
            for z, sigma in cases:
                permuted = [z[s] for s in sigma]
                worst_perm = max(worst_perm, abs(polya_joint_pmf(params, z) - polya_joint_pmf(params, permuted)))
        for n in range(1, max(sizes) + 1):
            worst_norm = max(worst_norm, abs(math.fsum(_weight_table(params, n).tolist()) - 1.0))
    return [
        ValidationCheck(
            "exchangeability and normalization",
            worst_perm < 1e-12 and worst_norm < 1e-12,
            f"max perm diff = {worst_perm:.3e}, max norm error = {worst_norm:.3e}",
        )
    ]


# The checks of the `validate` command with their inputs, in report order;
# UrnParams(5, 5, 2) is _PARAM_GRID[1] and UrnParams(1, 9, 5) _PARAM_GRID[2]
_CHECKS = (
    (_check_degree_laws, dict(grid=_PARAM_GRID, sizes=(4, 8))),
    (_check_distance_law, dict(grid=_PARAM_GRID, n=8, pairs=((1, 2), (2, 5), (7, 8), (3, 3)))),
    (_check_centrality, dict(grid=_PARAM_GRID, sizes=(2, 6, 9))),
    (_check_spectrum, dict(seed=20260501, graphs=40)),
    (_check_eigenpairs, dict(seed=20260502, runs=200, n=50)),
    (_check_expected_stationary, dict(params=_PARAM_GRID[1], sizes=(3, 6))),
    (_check_monte_carlo, dict(params=_PARAM_GRID[1], n=8, runs=20000, seed=20260503)),
    (_check_finite_memory, dict(params=_PARAM_GRID[1], sizes=(8,), extra_memory=(0, 2), short_memory=2)),
    (
        _check_exchangeability,
        dict(grid=_PARAM_GRID[2:], seed=20260504, sizes=range(2, 11), samples=20, exhaustive_up_to=0),
    ),
)


def run_validation_suite() -> list[ValidationCheck]:
    """Run every oracle-equivalence check; used by the ``validate`` command."""
    return [check for run, inputs in _CHECKS for check in run(**inputs)]
