"""Closed-form laws of the urn-driven threshold graph.

For a graph on n nodes the degree of node i is i*Z_i + (universal nodes
after i), which splits every probability into a Z_i = 1 branch and a
Z_i = 0 branch of the exchangeable draw process.  This module evaluates the
resulting exact expressions:

* the degree pmf, whose support is {0..n} when 2i <= n and otherwise
  {0..n-i} union {i..n}, with both branch terms added where they overlap;
* the degree mean n*rho (the same for every node) and the closed-form degree
  variance;
* the distance law over the attainable values {0, 1, 2, inf};
* the expected decay centrality sum_j alpha^d(i,j), with alpha^inf = 0.

Every rising-factorial ratio and binomial coefficient is read off the
urn's cached log tables (see :func:`polyagraph._numeric.log_tables`), so
each law lives in log space until one final exponentiation and costs O(n).
Node counts and indices must be integers, numpy's included; a bool or a
float raises ValueError naming the argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numeric import LogTables, as_int, log_tables
from .graph import ThresholdGraph
from .urn import UrnParams

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


def _check_node(n: int, i: int, name: str = "i") -> tuple[int, int]:
    """(n, i) as Python ints, once both are integers and 1 <= i <= n."""
    n, i = as_int("n", n), as_int(name, i)
    if not 1 <= i <= n:
        raise IndexError(f"node index {i} out of range 1..{n}")
    return n, i


@dataclass(frozen=True)
class CentralityConfig:
    """Decay parameter for the centrality score; 1/2 is the standard choice."""

    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")


@dataclass(frozen=True)
class DegreeDistribution:
    """Exact degree law of one node at a given horizon."""

    node: int
    horizon: int
    support: tuple[int, ...]
    pmf: dict[int, float]
    mean: float
    variance: float

    def moment_mean(self) -> float:
        """Mean recomputed from the pmf (cross-check against ``mean``)."""
        return math.fsum(k * p for k, p in self.pmf.items())

    def moment_variance(self) -> float:
        mu = self.moment_mean()
        return math.fsum((k - mu) ** 2 * p for k, p in self.pmf.items())


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
    n, i = _check_node(n, i)
    return n * params.rho


def degree_support(n: int, i: int) -> tuple[int, ...]:
    """Attainable degrees of node i: all of 0..n when 2i <= n, otherwise the
    isolated branch 0..n-i together with the universal branch i..n."""
    n, i = _check_node(n, i)
    if 2 * i <= n:
        return tuple(range(n + 1))
    return tuple(range(0, n - i + 1)) + tuple(range(i, n + 1))


def degree_pmf(params: UrnParams, n: int, i: int) -> DegreeDistribution:
    """Exact degree distribution of node i.

    P(deg = k) combines the isolated branch C(n-i, k) * g(k) for k <= n-i
    with the universal branch C(n-i, k-i) * g(k-i+1) for k >= i, where g(r)
    is the joint law of one draw vector with r reds at horizon n-i+1; both
    terms are summed where the branches overlap.
    """
    n, i = _check_node(n, i)
    t = log_tables(params.rho, params.delta, n)
    tail = n - i
    m = tail + 1
    r = np.arange(m)
    # log C(tail, r) minus the common denominator of the joint law
    log_base = t.fact[tail] - t.fact[r] - t.fact[tail - r] - t.total[m]
    p = np.zeros(n + 1)
    p[:m] += np.exp(log_base + t.red[r] + t.black[m - r])
    p[i:] += np.exp(log_base + t.red[r + 1] + t.black[tail - r])
    values = p.tolist()
    support = degree_support(n, i)
    pmf = {k: values[k] for k in support}
    return DegreeDistribution(
        node=i,
        horizon=n,
        support=support,
        pmf=pmf,
        mean=n * params.rho,
        variance=degree_variance(params, n, i),
    )


def degree_variance(params: UrnParams, n: int, i: int) -> float:
    """Closed-form variance of the degree of node i.

    With L = n - i later draws,
    Var = rho (1-rho) (i^2 + L (1 + L delta)/(1 + delta) + 2 i L delta/(1 + delta)):
    the Bernoulli, Beta-Binomial and covariance parts, all non-negative, so
    nothing cancels as rho approaches 0 or 1.
    """
    n, i = _check_node(n, i)
    rho, delta = params.rho, params.delta
    tail = n - i
    return rho * (1.0 - rho) * (i * i + tail * (1.0 + tail * delta + 2.0 * i * delta) / (1.0 + delta))


def _prob_unreachable(t: LogTables, h: int) -> float:
    # P(h given draws are all black) = prod_{s<h} (1-rho+s*delta)/(1+s*delta),
    # the joint law of h blacks; red[0] = 0.0 adds nothing to black[h]
    return math.exp(t.log_joint(h, 0))


def distance_pmf(params: UrnParams, n: int, i: int, j: int) -> DistanceDistribution:
    """Exact distance law for the pair (i, j).

    Same node: distance 0 with probability rho (self-loop), inf otherwise.
    Distinct nodes: distance 1 with probability rho; unreachable iff no draw
    from max(i,j) on is red; distance 2 carries the remaining mass.
    """
    n, i = _check_node(n, i)
    n, j = _check_node(n, j, "j")
    rho = params.rho
    if i == j:
        probs = {0.0: rho, 1.0: 0.0, 2.0: 0.0, math.inf: 1.0 - rho}
    else:
        t = log_tables(rho, params.delta, n)
        p_inf = _prob_unreachable(t, n - max(i, j) + 1)
        probs = {0.0: 0.0, 1.0: rho, 2.0: 1.0 - rho - p_inf, math.inf: p_inf}
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
    n, i = _check_node(n, i)
    alpha = cfg.alpha
    rho = params.rho
    t = log_tables(rho, params.delta, n)
    h = slice(1, n - i + 1)
    later = np.exp(t.black[h] - t.total[h]).tolist()
    p_inf = (i - 1) * _prob_unreachable(t, n - i + 1) + math.fsum(later)
    return rho + (n - 1) * (alpha * rho + alpha * alpha * (1.0 - rho)) - alpha * alpha * p_inf


def empirical_decay_centrality(
    g: ThresholdGraph, i: int, cfg: CentralityConfig = CentralityConfig()
) -> float:
    """Realized decay centrality sum_j alpha^d(i,j) on one graph, with
    alpha^inf = 0."""
    g._check_index(i)
    alpha = cfg.alpha
    return math.fsum(alpha ** g.distance(i, j) for j in range(1, g.n + 1))
