"""Closed-form laws of the urn-driven threshold graph.

For a graph on n nodes the degree of node i is i*Z_i + (universal nodes
after i), which splits every probability into a Z_i = 1 branch and a
Z_i = 0 branch of the exchangeable draw process.  This module evaluates the
resulting exact expressions:

* the degree pmf, one float64 array over the degrees 0..n whose support is
  {0..n} when 2i <= n and otherwise {0..n-i} union {i..n}, with both branch
  terms added where they overlap (its support tuple and a read-only
  mapping of it are built only when first read);
* the degree mean n*rho (the same for every node) and the closed-form degree
  variance;
* the distance law over the attainable values {0, 1, 2, inf}, from a
  product of one-draw probabilities of black, so no entry is the
  difference of two nearly equal values;
* the expected decay centrality sum_j alpha^d(i,j), with alpha^inf = 0.

Every other rising-factorial ratio and binomial coefficient is read off the
urn's cached log tables (see :func:`polyagraph._numeric.log_tables`), so
each law lives in log space until one final exponentiation and costs O(n).
Node counts and indices pass the package's one integer guard,
:func:`polyagraph._numeric.as_int`: numpy integers are taken, a bool or a
float raises ValueError ("i must be an integer, got True"), and an index
outside 1..n raises IndexError.  The closed forms hold for the
exchangeable urn, :class:`polyagraph.urn.UrnParams` without a memory;
an urn with a memory raises TypeError naming its memory, and anything
else naming its type.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._numeric import check_node, log_tables
from .graph import ThresholdGraph
from .urn import UrnParams, _proportions

__all__ = [
    "DegreeDistribution",
    "DistanceDistribution",
    "CentralityConfig",
    "expected_degree",
    "degree_support",
    "degree_pmf",
    "degree_variance",
    "distance_pmf",
    "expected_decay_centrality",
    "empirical_decay_centrality",
]


@dataclass(frozen=True)
class CentralityConfig:
    """Decay parameter for the centrality score; 1/2 is the standard choice."""

    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")


class _LawView(Mapping):
    """Read-only {degree: probability} view of a degree law's array over its
    support, in increasing degree.  Entries are read from the array as
    Python floats when asked for; no dict is built."""

    __slots__ = ("_p", "_ranges")

    def __init__(self, p: np.ndarray, ranges: tuple[range, ...]):
        self._p, self._ranges = p, ranges

    def __getitem__(self, k) -> float:
        try:
            k = operator.index(k)  # any integer, numpy's included, in O(1)
        except TypeError:
            pass  # a float equal to a degree finds it too, as a dict key would
        if any(k in r for r in self._ranges):
            return self._p.item(int(k))
        raise KeyError(k)

    def __iter__(self):
        return itertools.chain(*self._ranges)

    def __len__(self) -> int:
        return sum(map(len, self._ranges))

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def values(self):
        return _LawValues(self)

    def items(self):
        return _LawItems(self)


class _LawValues(ValuesView):
    def __iter__(self):
        p = self._mapping._p
        return itertools.chain.from_iterable(p[r.start : r.stop].tolist() for r in self._mapping._ranges)


class _LawItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, _LawValues(self._mapping))


@dataclass(frozen=True, eq=False)
class DegreeDistribution:
    """Exact degree law of one node at a given horizon.

    ``probabilities`` is the law as one read-only float64 array over the
    degrees 0..n, zero off the support; :func:`degree_pmf` computes it and
    builds nothing per entry.  ``support`` (the attainable degrees, a tuple)
    and ``pmf`` (a read-only mapping from each of them to its probability,
    in increasing degree, which reads the array) are made when first read,
    then cached.  Two laws are equal when their fields are, the arrays
    entry by entry.
    """

    node: int
    horizon: int
    probabilities: np.ndarray
    mean: float
    variance: float

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(self.pmf)

    @cached_property
    def pmf(self) -> Mapping[int, float]:
        return _LawView(self.probabilities, _support_ranges(self.horizon, self.node))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.node, self.horizon, self.mean, self.variance) == (
            other.node, other.horizon, other.mean, other.variance
        ) and np.array_equal(self.probabilities, other.probabilities)

    def moment_mean(self) -> float:
        """Mean recomputed from the law (cross-check against ``mean``); the
        zeros off the support add nothing to the exactly rounded sum."""
        return math.fsum((np.arange(self.horizon + 1) * self.probabilities).tolist())

    def moment_variance(self) -> float:
        mu = self.moment_mean()
        # Python's float ** 2, which can differ from numpy's square in the last bit
        return math.fsum((k - mu) ** 2 * p for k, p in enumerate(self.probabilities.tolist()))


@dataclass(frozen=True)
class DistanceDistribution:
    """Distance law for a node pair; zero mass on inapplicable values."""

    i: int
    j: int
    probabilities: dict[float, float]

    def p(self, value: float) -> float:
        return self.probabilities[value]


def expected_degree(params: UrnParams, n: int, i: int) -> float:
    """Expected degree of node i: n * rho, independent of i."""
    n, i = check_node(n, i)
    return n * _proportions(params)[0]


def degree_support(n: int, i: int) -> tuple[int, ...]:
    """Attainable degrees of node i: all of 0..n when 2i <= n, otherwise the
    isolated branch 0..n-i together with the universal branch i..n."""
    n, i = check_node(n, i)
    return tuple(itertools.chain(*_support_ranges(n, i)))


def _support_ranges(n: int, i: int) -> tuple[range, ...]:
    # the branches 0..n-i and i..n overlap when 2i <= n, and are disjoint after
    return (range(n + 1),) if 2 * i <= n else (range(n - i + 1), range(i, n + 1))


def degree_pmf(params: UrnParams, n: int, i: int) -> DegreeDistribution:
    """Exact degree distribution of node i.

    P(deg = k) combines the isolated branch C(n-i, k) * g(k) for k <= n-i
    with the universal branch C(n-i, k-i) * g(k-i+1) for k >= i, where g(r)
    is the joint law of one draw vector with r reds at horizon n-i+1; both
    terms are summed where the branches overlap.  The law is returned as
    the read-only array it is computed in.
    """
    n, i = check_node(n, i)
    rho, delta = _proportions(params)
    t = log_tables(rho, delta, n)
    tail = n - i
    m = tail + 1
    # slices over r = 0..tail: [:m] reads entry r, [tail::-1] entry tail - r,
    # [m:0:-1] entry m - r and [1 : m + 1] entry r + 1.
    # log C(tail, r) minus the common denominator of the joint law
    log_base = t.fact[tail] - t.fact[:m] - t.fact[tail::-1] - t.total[m]
    p = np.zeros(n + 1)
    p[:m] += np.exp(log_base + t.red[:m] + t.black[m:0:-1])
    p[i:] += np.exp(log_base + t.red[1 : m + 1] + t.black[tail::-1])
    p.flags.writeable = False
    return DegreeDistribution(
        node=i,
        horizon=n,
        probabilities=p,
        mean=n * rho,
        variance=degree_variance(params, n, i),
    )


def degree_variance(params: UrnParams, n: int, i: int) -> float:
    """Closed-form variance of the degree of node i.

    With L = n - i later draws,
    Var = rho (1-rho) (i^2 + L (1 + L delta)/(1 + delta) + 2 i L delta/(1 + delta)):
    the Bernoulli, Beta-Binomial and covariance parts, all non-negative, so
    nothing cancels as rho approaches 0 or 1.
    """
    n, i = check_node(n, i)
    rho, delta = _proportions(params)
    tail = n - i
    return rho * (1.0 - rho) * (i * i + tail * (1.0 + tail * delta + 2.0 * i * delta) / (1.0 + delta))


def _blacks_after_black(rho: float, delta: float, m: int) -> tuple[float, float]:
    """P(m more draws are black | the first draw was black) and its log.

    P is the product of the factors 1 - q_s, q_s = rho/(1 + s delta) for
    s = 1..m, and log P the sum of their logs, all <= 0.  Each factor and
    log is formed to its relative accuracy.  exp(log P) then loses about
    |log P| ulps and the product about m, so P is taken from whichever
    loses fewer."""
    grow = np.arange(1.0, m + 1)
    grow *= delta
    grow += 1.0
    stay = np.divide(-rho, grow)  # -q_s
    logs = np.log1p(stay)
    stay += 1.0  # 1 - q_s
    # q falls with s; where q > 1/2, 1 - q cancels and log1p would magnify
    # q's rounding by 1/(1 - q), so take 1 - q = (1 - rho + s delta)/(1 + s delta)
    # there, with 1 - rho exact as rho > 1/2
    k = int(np.count_nonzero(stay < 0.5))
    if k:
        stay[:k] = ((1.0 - rho) + np.arange(1.0, k + 1) * delta) / grow[:k]
        logs[:k] = np.log(stay[:k])
    log_p = float(logs.sum())
    return (math.exp(log_p) if -log_p < m else float(stay.prod())), log_p


def distance_pmf(params: UrnParams, n: int, i: int, j: int) -> DistanceDistribution:
    """Exact distance law for the pair (i, j).

    Same node: distance 0 with probability rho (self-loop), inf otherwise.
    Distinct nodes: distance 1 with probability rho; unreachable iff no draw
    from max(i,j) on is red; distance 2 carries the remaining mass.  With
    P the chance that the n - max(i,j) draws after max(i,j) are all black
    given that draw max(i,j) is, P(inf) = (1-rho) P and
    P(2) = (1-rho) (1 - P), the latter from expm1(log P) and not as
    1 - rho - P(inf), where nearly equal values cancel.  So both keep their
    relative accuracy, and P(2) is exactly +0.0 when max(i,j) = n.
    """
    n, i = check_node(n, i)
    n, j = check_node(n, j, "j")
    rho, delta = _proportions(params)
    if i == j:
        probs = {0.0: rho, 1.0: 0.0, 2.0: 0.0, math.inf: 1.0 - rho}
    else:
        stay, log_stay = _blacks_after_black(rho, delta, n - max(i, j))
        # 0.0 - expm1(0.0) is +0.0, where -expm1(0.0) would be -0.0
        p_two = (1.0 - rho) * (0.0 - math.expm1(log_stay))
        probs = {0.0: 0.0, 1.0: rho, 2.0: p_two, math.inf: (1.0 - rho) * stay}
    return DistanceDistribution(i=i, j=j, probabilities=probs)


def expected_decay_centrality(
    params: UrnParams, n: int, i: int, cfg: CentralityConfig = CentralityConfig()
) -> float:
    """Expected decay centrality E(sum_j alpha^d(i,j)) of node i.

    Built from the distance law: the self term contributes rho, and each
    other node j contributes alpha*rho + alpha^2 * P(d(i,j) = 2), where
    P(d = 2) = 1 - rho - P(d = inf).  The i-1 earlier nodes share one
    unreachability probability; the later nodes j take one each, for
    horizons n-j+1 = 1..n-i.
    """
    n, i = check_node(n, i)
    alpha = cfg.alpha
    rho, delta = _proportions(params)
    t = log_tables(rho, delta, n)
    h = slice(1, n - i + 1)
    later = np.exp(t.black[h] - t.total[h]).tolist()
    # the n-i+1 draws from node i on all black: the joint law of that many blacks
    p_inf = (i - 1) * math.exp(t.log_joint(n - i + 1, 0)) + math.fsum(later)
    return rho + (n - 1) * (alpha * rho + alpha * alpha * (1.0 - rho)) - alpha * alpha * p_inf


def empirical_decay_centrality(
    g: ThresholdGraph, i: int, cfg: CentralityConfig = CentralityConfig()
) -> float:
    """Realized decay centrality sum_j alpha^d(i,j) on one graph, with
    alpha^inf = 0."""
    i = check_node(g.n, i)[1]
    alpha = cfg.alpha
    return math.fsum(alpha ** g.distance(i, j) for j in range(1, g.n + 1))
