"""Brute-force ground truth by full enumeration of draw vectors.

Every closed form in this package is validated against an expectation
computed the dumb way: enumerate all 2^n outcomes of the draw process,
weight each by its exact joint probability, and sum.  The evaluators used
here deliberately avoid the closed forms they check (degrees come from
adjacency row sums, distances from breadth-first search), so agreement is
evidence rather than tautology.

Vectors are visited in Gray-code order (consecutive vectors differ in one
position) so stateful evaluators may update incrementally; correctness never
depends on the order, and sums are compensated.

The oracles do each piece of enumeration work once per n and read their
answers off cached tables indexed by Gray-order row:

- the joint probability of every vector.  The plain urn's law depends on a
  vector only through its length and red count, so it is evaluated once per
  red count and indexed by each vector's popcount; the finite-memory law is
  evaluated per vector;
- the degree vector of every realization, from adjacency row sums;
- the neighbor bitmasks of every realization, and per source s the decay
  column sum_t alpha^d(s, t) over every realization, from one BFS per
  (vector, source) over those masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from ._numeric import CompensatedSum
from .analytics import degree_pmf, distance_pmf, expected_decay_centrality
from .consensus import (
    EnumerationLimitError,
    averaging_matrix,
    expected_stationary_exact,
    expected_stationary_mc,
)
from .graph import build_graph
from .rng import stream
from .spectral import laplacian, spectrum, verify_eigenpairs
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
    FiniteMemoryParams for the finite-memory variant.
    """
    if spec.arity > MAX_ENUMERATION_HORIZON:
        raise EnumerationLimitError(
            f"horizon {spec.arity} exceeds the enumeration guard of {MAX_ENUMERATION_HORIZON}"
        )
    pmf = _joint_pmf_fn(params)
    pinned = spec.law == "last-universal"
    free = spec.arity - 1 if pinned else spec.arity
    acc = CompensatedSum()
    if free == 0:
        acc.add(np.asarray(spec.evaluator((1,)), dtype=float))
        return acc.value
    evaluator = spec.evaluator
    for z in _gray_vectors(free):
        w = pmf(z)
        full = z + (1,) if pinned else z
        acc.add(w * np.asarray(evaluator(full), dtype=float))
    return acc.value


@lru_cache(maxsize=8)
def _degree_table(n: int) -> np.ndarray:
    """Degree vectors of every length-n realization (Gray order), the degrees
    read off adjacency row sums rather than the degree formula."""
    idx = np.arange(n)
    pos = np.maximum.outer(idx, idx)
    degrees = np.empty((1 << n, n), dtype=np.int64)
    for row, z in enumerate(_gray_vectors(n)):
        adjacency = np.asarray(z, dtype=np.int64)[pos]
        degrees[row] = adjacency.sum(axis=1)
    return degrees


@lru_cache(maxsize=32)
def _weight_table(params, n: int) -> np.ndarray:
    """Joint probabilities of every length-n draw vector (Gray order).

    The plain urn's law is evaluated once per red count k, on the vector of
    k reds then n - k blacks, and indexed by each vector's popcount; the
    values are those of one call per vector, bit for bit.
    """
    if isinstance(params, UrnParams):
        by_reds = np.array([polya_joint_pmf(params, (1,) * k + (0,) * (n - k)) for k in range(n + 1)])
        step = np.arange(1 << n)
        return by_reds[np.bitwise_count(step ^ (step >> 1))]  # Gray vector `step` is step ^ (step >> 1)
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


def _adjacency_masks(z: tuple[int, ...]) -> list[int]:
    """Neighbor bitmasks (self excluded) of the realization z."""
    n = len(z)
    masks = [0] * n
    for t in range(n):
        if z[t]:
            for j in range(t):
                masks[t] |= 1 << j
                masks[j] |= 1 << t
    return masks


def bfs_distances(z: tuple[int, ...], source: int) -> list[float]:
    """Breadth-first-search distances from 1-based ``source`` to every node.

    Independent of the closed-form distance rule.  The stated self-loop
    convention applies: the source is at distance 0 from itself only if it
    has a self-loop, inf otherwise.
    """
    return _bfs(z, _adjacency_masks(z), source - 1)


def _bfs(z: tuple[int, ...], masks: list[int], src: int) -> list[float]:
    """BFS distances from 0-based ``src`` over the neighbor bitmasks of z."""
    n = len(z)
    dist = [math.inf] * n
    dist[src] = 0.0 if z[src] else math.inf
    visited = 1 << src
    frontier = masks[src] & ~visited
    d = 1
    while frontier:
        m = frontier
        nxt = 0
        while m:
            low = m & -m
            dist[low.bit_length() - 1] = float(d)
            nxt |= masks[low.bit_length() - 1]
            m ^= low
        visited |= frontier
        frontier = nxt & ~visited
        d += 1
    return dist


@lru_cache(maxsize=8)
def _mask_table(n: int) -> list[list[int]]:
    """Neighbor bitmasks of every length-n realization (Gray order)."""
    return [_adjacency_masks(z) for z in _gray_vectors(n)]


@lru_cache(maxsize=64)
def _decay_column(n: int, alpha: float, source: int) -> tuple[float, ...]:
    """sum_t alpha^d(s, t) for 1-based source s over every length-n
    realization (Gray order): one BFS per vector over the cached masks."""
    # BFS distances are 0.0, 1.0, .., n - 1.0 or inf: each power is taken once
    power = {d: alpha**d for d in (*map(float, range(n)), math.inf)}.__getitem__
    return tuple(
        math.fsum(map(power, _bfs(z, masks, source - 1)))
        for z, masks in zip(_gray_vectors(n), _mask_table(n))
    )


def oracle_centrality(params: UrnParams, n: int, i: int, alpha: float = 0.5) -> float:
    """Expected decay centrality of node i by enumeration with BFS distances."""
    if n > MAX_CENTRALITY_HORIZON:
        raise EnumerationLimitError(
            f"centrality enumeration is guarded at n <= {MAX_CENTRALITY_HORIZON}, got {n}"
        )
    if not 1 <= i <= n:
        raise IndexError(f"node index {i} out of range 1..{n}")
    decay = _decay_column(n, alpha, i)
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
    graphs = [build_graph(z) for z in _gray_vectors(n)]
    for params in _PARAM_GRID:
        weights = _weight_table(params, n).tolist()
        for (i, j) in ((1, 2), (2, 5), (7, 8), (3, 3)):
            closed = distance_pmf(params, n, i, j).probabilities
            terms = {v: [] for v in closed}
            for g, w in zip(graphs, weights):
                terms[g.distance(i, j)].append(w)
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
    rng = stream(20260502)
    failures = 0
    for _ in range(200):
        z = tuple(rng.integers(0, 2, size=50).tolist())
        failures += len(verify_eigenpairs(build_graph(z)).failures())
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
