"""Brute-force ground truth by full enumeration of draw vectors.

Every closed form in this package is validated against an expectation
computed the dumb way: enumerate all 2^n outcomes of the draw process,
weight each by its exact joint probability, and sum.  The evaluators used
here deliberately avoid the closed forms they check (degrees come from
adjacency row sums, distances from breadth-first search), so agreement is
evidence rather than tautology.

Vectors are visited in Gray-code order (consecutive vectors differ in one
position) so stateful evaluators may update incrementally; correctness never
depends on the order, and sums are exactly rounded (:func:`math.fsum`).

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
  (n, alpha) at once; the table itself is not kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .analytics import degree_pmf, distance_pmf, expected_decay_centrality
from .consensus import (
    EnumerationLimitError,
    averaging_matrix,
    expected_stationary_exact,
    expected_stationary_mc,
)
from .graph import build_graph
from .rng import stream
from .spectral import _eigenpair_flags, laplacian, spectrum
from .urn import FiniteMemoryParams, UrnParams, finite_memory_joint_pmf, polya_joint_pmf

__all__ = [
    "FunctionalSpec",
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


def _gray_vectors(bits: int) -> Iterator[tuple[int, ...]]:
    """All 0/1 tuples of the given length in Gray-code order."""
    z = [0] * bits
    yield tuple(z)
    for step in range(1, 1 << bits):
        z[(step & -step).bit_length() - 1] ^= 1
        yield tuple(z)


def _joint_pmf_fn(params) -> Callable[[tuple[int, ...]], float]:
    if isinstance(params, FiniteMemoryParams):
        return lambda z: finite_memory_joint_pmf(params, z)
    if isinstance(params, UrnParams):
        return lambda z: polya_joint_pmf(params, z)
    raise TypeError(f"expected UrnParams or FiniteMemoryParams, got {type(params).__name__}")


@dataclass(frozen=True)
class FunctionalSpec:
    """What to average over the draw process.

    ``evaluator`` must be a pure, total function of a 0/1 tuple of length
    ``arity`` returning a float or a fixed-shape vector.  Under law "joint"
    all vectors of that length are enumerated.  Under law "last-universal"
    the final entry is pinned to 1 and the weight of (z_1..z_{n-1}, 1) is
    the joint probability of the free n-1 draws, which already sums to one.
    """

    arity: int
    evaluator: Callable
    law: str = "joint"

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        if self.law not in ("joint", "last-universal"):
            raise ValueError(f"unknown law {self.law!r}")


def enumerate_expectation(params, spec: FunctionalSpec):
    """Exact expectation of the functional under the chosen law.

    ``params`` selects the draw law: an UrnParams for the plain urn, a
    FiniteMemoryParams for the finite-memory variant.  Each component is
    the exactly rounded sum (:func:`math.fsum`) of its weighted terms, so
    the result does not depend on the enumeration order.
    """
    if spec.arity > MAX_ENUMERATION_HORIZON:
        raise EnumerationLimitError(
            f"horizon {spec.arity} exceeds the enumeration guard of {MAX_ENUMERATION_HORIZON}"
        )
    pmf = _joint_pmf_fn(params)
    pinned = spec.law == "last-universal"
    free = spec.arity - 1 if pinned else spec.arity
    evaluator = spec.evaluator
    if free == 0:
        terms = [np.asarray(evaluator((1,)), dtype=float)]
    else:
        terms = [
            pmf(z) * np.asarray(evaluator(z + (1,) if pinned else z), dtype=float)
            for z in _gray_vectors(free)
        ]
    stacked = np.array(terms)
    sums = np.array([math.fsum(column) for column in stacked.reshape(len(terms), -1).T.tolist()])
    return float(sums[0]) if stacked.ndim == 1 else sums.reshape(stacked.shape[1:])


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
    pmf = _joint_pmf_fn(params)
    return np.array([pmf(z) for z in _gray_vectors(n)])


def oracle_degree_pmf(params: UrnParams, n: int, i: int) -> dict[int, float]:
    """Degree law of node i by full enumeration."""
    if n > MAX_DEGREE_HORIZON:
        raise EnumerationLimitError(
            f"degree enumeration is guarded at n <= {MAX_DEGREE_HORIZON}, got {n}"
        )
    if not 1 <= i <= n:
        raise IndexError(f"node index {i} out of range 1..{n}")
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
    if not 1 <= source <= len(z):
        raise IndexError(f"node index {source} out of range 1..{len(z)}")
    return _bfs_table([z])[0, source - 1].tolist()


def _distance_table(n: int) -> np.ndarray:
    """BFS distances of every length-n realization (Gray order), shape
    (2^n, n, n): entry (row, s, t) is d(s+1, t+1).  Not cached: each reader
    takes what it needs in one pass (the decay columns are cached), so the
    table is freed before the next check runs."""
    return _bfs_table(_gray_draws(n))


@lru_cache(maxsize=16)
def _decay_columns(n: int, alpha: float) -> tuple[tuple[float, ...], ...]:
    """Entry s-1 is sum_t alpha^d(s, t) for 1-based source s over every
    length-n realization (Gray order), read off one distance table."""
    # BFS distances are 0.0, 1.0, .., n - 1.0 or inf: each power is taken once
    power = {d: alpha**d for d in (*map(float, range(n)), math.inf)}.__getitem__
    table = _distance_table(n)
    return tuple(tuple(math.fsum(map(power, row)) for row in table[:, s].tolist()) for s in range(n))


def oracle_centrality(params: UrnParams, n: int, i: int, alpha: float = 0.5) -> float:
    """Expected decay centrality of node i by enumeration with BFS distances."""
    if n > MAX_CENTRALITY_HORIZON:
        raise EnumerationLimitError(
            f"centrality enumeration is guarded at n <= {MAX_CENTRALITY_HORIZON}, got {n}"
        )
    if not 1 <= i <= n:
        raise IndexError(f"node index {i} out of range 1..{n}")
    decay = _decay_columns(n, alpha)[i - 1]
    return math.fsum(w * c for w, c in zip(_weight_table(params, n).tolist(), decay))


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


def _check_degree_pmf() -> ValidationCheck:
    worst = 0.0
    for params in _PARAM_GRID:
        for n in (4, 8):
            for i in range(1, n + 1):
                closed = degree_pmf(params, n, i).pmf
                brute = oracle_degree_pmf(params, n, i)
                keys = set(closed) | set(brute)
                worst = max(
                    worst,
                    max(abs(closed.get(k, 0.0) - brute.get(k, 0.0)) for k in keys),
                )
    return ValidationCheck("degree pmf vs enumeration", worst < 1e-10, f"max |diff| = {worst:.3e}")


def _check_degree_moments() -> ValidationCheck:
    worst_mean = worst_var = 0.0
    for params in _PARAM_GRID:
        for n in (4, 8):
            for i in range(1, n + 1):
                dist = degree_pmf(params, n, i)
                brute = oracle_degree_pmf(params, n, i)
                mean = math.fsum(k * p for k, p in brute.items())
                var = math.fsum((k - mean) ** 2 * p for k, p in brute.items())
                worst_mean = max(worst_mean, abs(dist.mean - mean))
                worst_var = max(worst_var, abs(dist.variance - var))
    ok = worst_mean < 1e-10 and worst_var < 1e-8
    return ValidationCheck(
        "degree mean/variance vs enumeration",
        ok,
        f"max mean diff = {worst_mean:.3e}, max var diff = {worst_var:.3e}",
    )


def _check_distance_law() -> ValidationCheck:
    worst = 0.0
    n = 8
    table = _distance_table(n)
    for params in _PARAM_GRID:
        weights = _weight_table(params, n).tolist()
        for (i, j) in ((1, 2), (2, 5), (7, 8), (3, 3)):
            closed = distance_pmf(params, n, i, j).probabilities
            terms = {v: [] for v in closed}
            for d, w in zip(table[:, i - 1, j - 1].tolist(), weights):
                terms[d].append(w)
            worst = max(worst, max(abs(closed[v] - math.fsum(terms[v])) for v in closed))
    return ValidationCheck("distance law vs enumeration", worst < 1e-12, f"max |diff| = {worst:.3e}")


def _check_centrality() -> ValidationCheck:
    worst = 0.0
    for params in _PARAM_GRID:
        for n in (2, 6, 9):
            for i in range(1, n + 1):
                closed = expected_decay_centrality(params, n, i)
                worst = max(worst, abs(closed - oracle_centrality(params, n, i)))
    return ValidationCheck("decay centrality vs BFS enumeration", worst < 1e-10, f"max |diff| = {worst:.3e}")


def _check_spectrum() -> ValidationCheck:
    rng = stream(20260501)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 31))
        z = tuple(rng.integers(0, 2, size=n).tolist())
        g = build_graph(z)
        numeric = np.sort(np.linalg.eigvalsh(laplacian(g).astype(float)))
        exact = np.array(spectrum(g), dtype=float)
        worst = max(worst, float(np.max(np.abs(numeric - exact))))
    return ValidationCheck("spectrum vs numeric eigensolver", worst < 1e-8, f"max |diff| = {worst:.3e}")


def _check_eigenpairs() -> ValidationCheck:
    # row by row the draws of 200 calls of size 50, kept as int16 like the
    # kernel's arithmetic at this size
    z = stream(20260502).integers(0, 2, size=(200, 50)).astype(np.int16)
    # the claimed spectrum 0, deg(2), .., deg(n): deg(i) = (i-1) z_i + #(universal nodes from i on)
    eigenvalues = z[:, ::-1].cumsum(axis=1, dtype=np.int16)[:, ::-1] + np.arange(50, dtype=np.int16) * z
    eigenvalues[:, 0] = 0
    failures = int(np.count_nonzero(~_eigenpair_flags(z, eigenvalues)))
    return ValidationCheck("exact integer eigenpair identity", failures == 0, f"{failures} failures in 200 runs")


def _check_expected_stationary() -> ValidationCheck:
    params = UrnParams(5.0, 5.0, 2.0)
    worst = 0.0
    for n in (3, 6):
        def pi_by_matrix_powers(z: tuple[int, ...]) -> np.ndarray:
            w = averaging_matrix(build_graph(z)).W.toarray()
            return np.linalg.matrix_power(w, 1 << 9)[0]

        brute = enumerate_expectation(
            params, FunctionalSpec(arity=n, evaluator=pi_by_matrix_powers, law="last-universal")
        )
        closed = expected_stationary_exact(params, n).pi
        worst = max(worst, float(np.max(np.abs(brute - closed))))
    exact3 = expected_stationary_exact(params, 3).pi
    known = np.array([13.0, 13.0, 16.0]) / 42.0
    worst = max(worst, float(np.max(np.abs(exact3 - known))))
    return ValidationCheck(
        "expected stationary vs matrix-power enumeration", worst < 1e-10, f"max |diff| = {worst:.3e}"
    )


def _check_monte_carlo() -> ValidationCheck:
    params = UrnParams(5.0, 5.0, 2.0)
    n, runs = 8, 20000
    exact = expected_stationary_exact(params, n).pi
    mc = expected_stationary_mc(params, n, runs=runs, seed=20260503)
    dev = np.abs(mc.pi - exact) / mc.std_error
    worst = float(np.max(dev))
    return ValidationCheck(
        "monte carlo stationary within 4 SE of exact", worst < 4.0, f"max |dev| = {worst:.2f} SE"
    )


def _check_finite_memory() -> ValidationCheck:
    params = UrnParams(5.0, 5.0, 2.0)
    n = 8
    worst = 0.0
    for memory in (n, n + 2):
        fm = FiniteMemoryParams(params, memory)
        for z in _gray_vectors(n):
            worst = max(worst, abs(finite_memory_joint_pmf(fm, z) - polya_joint_pmf(params, z)))
    total = math.fsum(
        finite_memory_joint_pmf(FiniteMemoryParams(params, 2), z) for z in _gray_vectors(n)
    )
    ok = worst < 1e-12 and abs(total - 1.0) < 1e-12
    return ValidationCheck(
        "finite-memory law reduction and normalization",
        ok,
        f"max |diff| = {worst:.3e}, sum = {total:.15f}",
    )


def _check_exchangeability() -> ValidationCheck:
    rng = stream(20260504)
    params = UrnParams(1.0, 9.0, 5.0)
    worst_perm = 0.0
    for n in range(2, 11):
        for _ in range(20):
            z = tuple(rng.integers(0, 2, size=n).tolist())
            sigma = rng.permutation(n)
            permuted = tuple(z[s] for s in sigma.tolist())
            worst_perm = max(worst_perm, abs(polya_joint_pmf(params, z) - polya_joint_pmf(params, permuted)))
    worst_norm = 0.0
    for n in range(1, 11):
        total = math.fsum(polya_joint_pmf(params, z) for z in _gray_vectors(n))
        worst_norm = max(worst_norm, abs(total - 1.0))
    ok = worst_perm < 1e-12 and worst_norm < 1e-12
    return ValidationCheck(
        "exchangeability and normalization",
        ok,
        f"max perm diff = {worst_perm:.3e}, max norm error = {worst_norm:.3e}",
    )


def run_validation_suite() -> list[ValidationCheck]:
    """Run every oracle-equivalence check; used by the ``validate`` command."""
    return [
        _check_degree_pmf(),
        _check_degree_moments(),
        _check_distance_law(),
        _check_centrality(),
        _check_spectrum(),
        _check_eigenpairs(),
        _check_expected_stationary(),
        _check_monte_carlo(),
        _check_finite_memory(),
        _check_exchangeability(),
    ]
