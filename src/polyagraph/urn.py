"""Two-color Polya urn draw process: samplers and exact joint laws.

The urn starts with ``red_initial`` red and ``black_initial`` black balls
(any positive reals; only proportions matter).  Each draw is put back
together with ``reinforcement`` extra balls of the drawn color, so colors
that come up often become more likely: the classic rich-get-richer
dependence.  Draw indicators are 1 (red) or 0 (black).

The draw process is exchangeable: the probability of a length-n outcome
depends only on how many of its draws are red.  Writing rho for the initial
red proportion and delta for the reinforcement as a fraction of the initial
total, the joint law of a vector with k red draws among n is

    prod_{i<k} (rho + i*delta) * prod_{j<n-k} (1 - rho + j*delta)
    ---------------------------------------------------------------
                     prod_{m<n} (1 + m*delta)

and the number of red draws follows a Beta-Binomial law with shape
(rho/delta, (1-rho)/delta).  Both are read off four prefix tables of log
rising products (:func:`polyagraph._numeric.log_tables`), built once per
(rho, delta, n) and read entry by entry as Python floats.

A finite-memory variant removes each reinforcement batch ``memory`` steps
after it was added.  The first ``memory`` draws keep the law above; later
draws depend on the previous ``memory`` outcomes only, making the process a
Markov chain of that order.

:func:`sample_polya` and :func:`sample_finite_memory` draw one realization;
:func:`sample_runs` draws a block of realizations, one per stream, in one
pass vectorized over runs, with rows identical to the per-run samplers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._numeric import as_int, log_tables
from .rng import stream, uniform_rows

__all__ = [
    "UrnParams",
    "FiniteMemoryParams",
    "CreationSequence",
    "as_draws",
    "sample_polya",
    "polya_joint_pmf",
    "beta_binomial_pmf",
    "sample_finite_memory",
    "finite_memory_joint_pmf",
    "sample_runs",
]


@dataclass(frozen=True)
class UrnParams:
    """Initial urn composition and reinforcement size.

    Ball counts may be any positive reals, since draws depend only on color
    proportions.  ``rho`` is the initial red proportion R/(R+B) and ``delta``
    the reinforcement divided by the initial total; both, and ``total``, are
    computed on first access and then kept.
    """

    red_initial: float
    black_initial: float
    reinforcement: float

    def __post_init__(self):
        for name in ("red_initial", "black_initial", "reinforcement"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
            object.__setattr__(self, name, v)

    @cached_property
    def total(self) -> float:
        return self.red_initial + self.black_initial

    @cached_property
    def rho(self) -> float:
        return self.red_initial / self.total

    @cached_property
    def delta(self) -> float:
        return self.reinforcement / self.total

    @classmethod
    def from_proportions(cls, rho: float, delta: float) -> "UrnParams":
        """Build parameters from (rho, delta), normalizing the total to 1."""
        if not (math.isfinite(rho) and 0.0 < rho < 1.0):
            raise ValueError(f"rho must lie strictly in (0, 1), got {rho!r}")
        if not (math.isfinite(delta) and delta > 0):
            raise ValueError(f"delta must be positive, got {delta!r}")
        return cls(rho, 1.0 - rho, delta)


@dataclass(frozen=True)
class FiniteMemoryParams:
    """Urn whose reinforcement balls expire ``memory`` steps after insertion.

    ``memory`` may be a Python or numpy integer and is stored as an int; a
    bool or a float is refused rather than truncated.
    """

    base: UrnParams
    memory: int

    def __post_init__(self):
        m = self.memory
        if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
            raise ValueError(f"memory must be an integer >= 1, got {m!r}")
        object.__setattr__(self, "memory", int(m))


@dataclass(frozen=True)
class CreationSequence:
    """Immutable vector of draw indicators.

    Doubles as the canonical encoding of a threshold graph: entry t says
    whether the node added at step t is universal (1) or isolated (0).
    """

    draws: tuple[int, ...]

    def __post_init__(self):
        raw = tuple(self.draws)
        if not raw:
            raise ValueError("a creation sequence needs at least one draw")
        # one C-level pass for the common case; the loop names the first bad draw
        if raw.count(0) + raw.count(1) != len(raw):
            for z in raw:
                if not (z == 0 or z == 1):
                    raise ValueError(f"draws must be 0 or 1, got {z!r}")
        object.__setattr__(self, "draws", tuple(map(int, raw)))

    def __len__(self) -> int:
        return len(self.draws)

    def __iter__(self):
        return iter(self.draws)

    def __getitem__(self, idx):
        return self.draws[idx]


def as_draws(z) -> tuple[int, ...]:
    """Coerce a CreationSequence or any iterable of 0/1 values to a tuple."""
    if isinstance(z, CreationSequence):
        return z.draws
    return CreationSequence(tuple(z)).draws


def sample_polya(params: UrnParams, n: int, seed: int, *, stream_index: int = 0) -> CreationSequence:
    """Draw n indicators from the urn.

    Given the history, draw t is red with probability
    (rho + delta * reds_so_far) / (1 + (t-1) * delta).  The output is fully
    determined by (seed, stream_index); see :func:`polyagraph.rng.stream`.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 draws, got {n}")
    u = stream(seed, stream_index).random(n)
    rho, delta = params.rho, params.delta
    draws = []
    reds = 0
    for t in range(n):
        p_red = (rho + delta * reds) / (1.0 + delta * t)
        z = 1 if u[t] < p_red else 0
        reds += z
        draws.append(z)
    return CreationSequence(tuple(draws))


def polya_joint_pmf(params: UrnParams, z) -> float:
    """Exact probability of one draw vector.

    Product of linear factors read off the log tables and exponentiated
    once.  Exchangeability is automatic: the value depends on the vector
    only through its length and its number of red draws.
    """
    draws = as_draws(z)
    n = len(draws)
    return math.exp(log_tables(params.rho, params.delta, n).log_joint(n, sum(draws)))


def beta_binomial_pmf(params: UrnParams, n: int, k: int) -> float:
    """P(number of red draws among n equals k).

    Beta-Binomial with shape (rho/delta, (1-rho)/delta): C(n, k) times the
    joint law of one vector with k reds, both read off the log tables.
    ``n`` and ``k`` must be integers (numpy's included); a bool or a float
    raises ValueError.
    """
    n = as_int("n", n)
    k = as_int("k", k)
    if k < 0 or k > n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    t = log_tables(params.rho, params.delta, n)
    return math.exp(t.log_choose(n, k) + t.log_joint(n, k))


def sample_finite_memory(fm: FiniteMemoryParams, n: int, seed: int, *, stream_index: int = 0) -> CreationSequence:
    """Draw n indicators from the finite-memory urn.

    Reinforcement added at step t leaves the urn at step t + memory, so the
    red probability at step t is (rho + delta * r) / (1 + w * delta) with
    w = min(t-1, memory) and r the number of red draws among the last w.
    For t <= memory this coincides with the infinite-memory urn.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 draws, got {n}")
    rho, delta = fm.base.rho, fm.base.delta
    memory = fm.memory
    u = stream(seed, stream_index).random(n)
    draws: list[int] = []
    for t in range(n):
        w = min(t, memory)
        r = sum(draws[t - w : t])
        p_red = (rho + delta * r) / (1.0 + delta * w)
        draws.append(1 if u[t] < p_red else 0)
    return CreationSequence(tuple(draws))


def finite_memory_joint_pmf(fm: FiniteMemoryParams, z) -> float:
    """Exact probability of a draw vector under finite memory.

    The first min(n, memory) draws carry the infinite-memory law; every later
    draw contributes an order-``memory`` Markov factor driven by the sliding
    window of the previous ``memory`` outcomes.  For n <= memory the value
    coincides with :func:`polya_joint_pmf`.
    """
    draws = as_draws(z)
    n = len(draws)
    memory = fm.memory
    rho, delta = fm.base.rho, fm.base.delta
    h = min(n, memory)
    acc = log_tables(rho, delta, h).log_joint(h, sum(draws[:h]))
    log_denom = math.log(1.0 + memory * delta)
    for t in range(memory, n):
        r = sum(draws[t - memory : t])
        if draws[t] == 1:
            acc += math.log(rho + delta * r) - log_denom
        else:
            acc += math.log(1.0 - rho + delta * (memory - r)) - log_denom
    return math.exp(acc)


def sample_runs(
    params, n: int, runs: int, seed: int, *, first_stream: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """Draw ``runs`` independent realizations of n indicators at once.

    Returns a (runs, n) int64 array of 0/1 whose row r is, byte for byte,
    the draw vector of :func:`sample_polya` (``params`` a
    :class:`UrnParams`) or :func:`sample_finite_memory` (a
    :class:`FiniteMemoryParams`) at stream index ``first_stream + r``.  One
    loop over t advances every run: the red count in the window of the last
    w = min(t, memory) draws is kept as a running sum, and the infinite urn
    is the case memory >= n, whose window is the whole past.  The red
    probability is the per-run samplers' expression, rounded identically.

    ``out``, a float64 (runs, n) array whose rows are each contiguous (for
    instance all but the last column of a C-contiguous buffer), receives
    the draws as 0.0/1.0 instead and is returned: the uniforms of
    :func:`polyagraph.rng.uniform_rows` are written into it and turned into
    draws column by column, in place.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 draws, got {n}")
    if isinstance(params, FiniteMemoryParams):
        rho, delta, memory = params.base.rho, params.base.delta, params.memory
    else:
        rho, delta, memory = params.rho, params.delta, n
    draws = uniform_rows(seed, first_stream, runs, n, out=out)
    # red counts are small integers, exact in float64
    reds = np.zeros(runs)
    p_red = np.empty(runs)
    for t in range(n):
        if t:
            reds += draws[:, t - 1]
            if t > memory:
                reds -= draws[:, t - 1 - memory]
        # the samplers' (rho + delta * reds) / (1 + delta * w), same roundings
        np.multiply(delta, reds, out=p_red)
        np.add(rho, p_red, out=p_red)
        p_red /= 1.0 + delta * min(t, memory)
        col = draws[:, t]
        np.less(col, p_red, out=col, casting="unsafe")
    return draws.astype(np.int64) if out is None else draws
