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
(rho, delta, n), the log factorials once per n, and read entry by entry as
Python floats; the Beta-Binomial law reads one log row built once per
(rho, delta, n) from those tables.

An urn with a ``memory`` removes each reinforcement batch ``memory`` steps
after it was added.  The first ``memory`` draws keep the law above; later
draws depend on the previous ``memory`` outcomes only, a Markov chain of
that order.  The infinite urn, ``memory=None``, is the finite-memory urn
whose window of past draws is the whole past, so one :class:`UrnParams`,
one sampler and one joint law serve both; ``_law`` alone turns the memory
into that window.
``_law`` and ``_chain`` are the one statement of the urn's transitions:
``_chain`` walks the draws as a Markov chain, whose state is the red count
so far or the window of the last ``memory`` draws.  Its two moves, a pull
of successor values back to each state and a push of each state's mass on
to its successors, are the only code that knows how states fold once the
window is full; the exact pi_E pass of :mod:`polyagraph.consensus` walks
them.  The samplers' loops round its red probability identically, and
tests pin them to it.

:func:`sample_polya` draws one realization.  :func:`_draw_pass` draws a
batch, one run per stream, with columns identical to the scalar sampler's:
it steps every run at once over a time-major buffer of uniforms, whose row
t holds draw t of each run, so each step works on one contiguous row.  The
batched samplers of :mod:`polyagraph.consensus` fill that buffer and size
its passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from ._numeric import as_int, log_tables
from .rng import stream

__all__ = [
    "UrnParams",
    "CreationSequence",
    "as_draws",
    "sample_polya",
    "polya_joint_pmf",
    "beta_binomial_pmf",
]


@dataclass(frozen=True)
class UrnParams:
    """Initial urn composition, reinforcement size and memory.

    Ball counts may be any positive reals, since draws depend only on color
    proportions.  ``rho`` is the initial red proportion R/(R+B) and ``delta``
    the reinforcement divided by the initial total; both, and ``total``, are
    computed once, at construction.  Counts whose proportions do not exist
    as floats, with rho rounded to 0 or 1 or delta to 0 or inf, are refused
    with ValueError, as :meth:`from_proportions` refuses them.

    ``memory``, keyword-only, is None for the infinite urn, or an integer
    M >= 1 (numpy's included, stored as an int) after which each
    reinforcement batch expires; a bool, a float or a smaller value raises
    ValueError rather than being truncated.
    """

    red_initial: float
    black_initial: float
    reinforcement: float
    memory: int | None = field(default=None, kw_only=True)

    def __post_init__(self):
        for name in ("red_initial", "black_initial", "reinforcement"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
            object.__setattr__(self, name, v)
        if self.memory is not None:
            object.__setattr__(self, "memory", as_int("memory", self.memory, 1))
        if not (0.0 < self.rho < 1.0 and 0.0 < self.delta < math.inf):
            raise ValueError(
                f"counts ({self.red_initial!r}, {self.black_initial!r}, {self.reinforcement!r}) give "
                f"rho = {self.rho!r} and delta = {self.delta!r} as floats; need 0 < rho < 1 and 0 < delta < inf"
            )

    @cached_property
    def total(self) -> float:
        return self.red_initial + self.black_initial

    @cached_property
    def rho(self) -> float:
        return self.red_initial / self.total

    @cached_property
    def delta(self) -> float:
        return self.reinforcement / self.total

    @cached_property
    def _exchangeable(self) -> tuple[float, float]:
        return _proportions(self)  # cached; an urn with a memory raises on every read

    @classmethod
    def from_proportions(cls, rho: float, delta: float, *, memory: int | None = None) -> "UrnParams":
        """Build parameters from (rho, delta), normalizing the total to 1."""
        if not (math.isfinite(rho) and 0.0 < rho < 1.0):
            raise ValueError(f"rho must lie strictly in (0, 1), got {rho!r}")
        if not (math.isfinite(delta) and delta > 0):
            raise ValueError(f"delta must be positive, got {delta!r}")
        return cls(rho, 1.0 - rho, delta, memory=memory)


@dataclass(frozen=True)
class CreationSequence:
    """Immutable vector of draw indicators.

    Doubles as the canonical encoding of a threshold graph: entry t says
    whether the node added at step t is universal (1) or isolated (0).

    ``draws`` may be any iterable of values equal to 0 or 1 that ``int``
    takes: ints, bools, numpy integers and bools, or floats 0.0 and 1.0.
    They are stored as a tuple of ints.  The check is two C-level ``count``
    calls: on ``bytes`` of 0 and 1, the packed form the samplers hand over,
    which ``tuple`` unpacks to ints; or on a tuple of any other iterable,
    whose values must equal 0 or 1 before ``int`` converts them, so a value
    that merely converts to 1 (through ``__index__``, say) is refused.  A
    refused draw raises ValueError naming the first.
    """

    draws: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "draws", _checked_draws(self.draws))

    def __len__(self) -> int:
        return len(self.draws)

    def __iter__(self):
        return iter(self.draws)

    def __getitem__(self, idx):
        return self.draws[idx]


def _checked_draws(draws) -> tuple[int, ...]:
    """The draws of a :class:`CreationSequence` as a tuple of ints, checked
    as its docstring says."""
    packed = isinstance(draws, bytes)
    raw = draws if packed else tuple(draws)
    if not raw:
        raise ValueError("a creation sequence needs at least one draw")
    # one C-level pass for the common case; the loop names the first bad draw
    if raw.count(0) + raw.count(1) != len(raw):
        for z in raw:
            if not (z == 0 or z == 1):
                raise ValueError(f"draws must be 0 or 1, got {z!r}")
    if packed:
        return tuple(raw)
    try:
        return tuple(map(int, raw))
    except TypeError:  # a draw equal to 0 or 1 that int refuses: (1+0j)
        for z in raw:
            try:
                int(z)
            except TypeError:
                raise ValueError(f"draws must be 0 or 1, got {z!r}") from None
        raise


def as_draws(z) -> tuple[int, ...]:
    """Coerce a CreationSequence or any iterable of 0/1 values to a tuple,
    with the checks and errors of :class:`CreationSequence`."""
    if isinstance(z, CreationSequence):
        return z.draws
    return _checked_draws(z)


def _law(law, n: int) -> tuple[float, float, int]:
    """(rho, delta, window) of an :class:`UrnParams` over n draws: the red
    probability of a draw is set by the last ``window`` draws, the memory
    capped at n, or the whole past, n, when the urn has no memory.
    Anything else raises TypeError."""
    if not isinstance(law, UrnParams):
        raise TypeError(f"expected UrnParams, got {type(law).__name__}")
    return law.rho, law.delta, n if law.memory is None else min(law.memory, n)


def _proportions(law) -> tuple[float, float]:
    """(rho, delta) of an :class:`UrnParams` without a memory, the
    exchangeable urn for which the closed-form laws hold.  Anything else,
    an urn with a memory included, raises TypeError."""
    if isinstance(law, UrnParams) and law.memory is None:
        return law.rho, law.delta
    got = f"memory = {law.memory}" if isinstance(law, UrnParams) else type(law).__name__
    raise TypeError(f"the closed forms hold for the exchangeable urn: expected UrnParams without a memory, got {got}")


def _chain(law, n: int):
    """The n draws of ``law`` as a Markov chain, ``(states, pull, push)``.

    The state before draw t is the red count so far if the window is the
    whole past, else the last min(t, window) draws as bits, bit 0 the
    latest; once the window is full the oldest bit drops, so the two halves
    of the states share their successors.  ``states(t)`` counts the states
    without allocating.  The moves take successor tables over the states
    after draw t, of any trailing shape, and the samplers' p_red and
    p_black.  ``pull(t, red, black)`` gives each state p_red * red[its red
    successor] + p_black * black[its black successor].  ``push(t, mass,
    red, black, value)`` adds mass * p_red into ``red`` and mass * p_black
    into ``black`` at the successors, halves in state order and red before
    black, and returns the red branch times ``value`` at the red
    successors, (mass * p_red) * value[its red successor], in state order.
    """
    rho, delta, window = _law(law, n)
    stride = 1 if window == n else 2  # a red count moves up one; bits shift left

    def states(t):
        return t + 1 if stride == 1 else 1 << min(t, window)

    @cache
    def step(t, ndim):
        # p_red and p_black, the halves that share successors stacked on
        # axis 0 and shaped against ndim - 1 trailing axes, and the rows of
        # their red and black successors as slices
        w, s = min(t, window), np.arange(states(t))
        reds = (s if stride == 1 else np.bitwise_count(s)).astype(float)
        p_red = (rho + delta * reds) / (1.0 + delta * w)
        p_black = (1.0 - rho + delta * (w - reds)) / (1.0 + delta * w)
        halves = 2 if t >= window else 1
        rows, shape = stride * (len(s) // halves), (halves, -1) + (1,) * (ndim - 1)
        return p_red.reshape(shape), p_black.reshape(shape), slice(1, rows + 1, stride), slice(0, rows, stride)

    def pull(t, red, black):
        p_red, p_black, up, down = step(t, red.ndim)
        value = p_red * red[up] + p_black * black[down]
        return value.reshape(-1, *value.shape[2:])

    def push(t, mass, red, black, value):
        p_red, p_black, up, down = step(t, mass.ndim)
        mass = mass.reshape(len(p_red), -1, *mass.shape[1:])
        branch = mass * p_red
        for half in branch:
            red[up] += half
        for half in mass * p_black:
            black[down] += half
        branch *= value[up]
        return branch.reshape(-1, *branch.shape[2:])

    return states, pull, push


def sample_polya(law, n: int, seed: int, *, stream_index: int = 0) -> CreationSequence:
    """Draw n indicators from the urn ``law``, an :class:`UrnParams`.

    Given the history, draw t (0-based) is red with probability
    (rho + delta * r) / (1 + w * delta), where w = min(t, memory) and r is
    the number of red draws among the last w; the infinite urn's window is
    the whole past, w = t.  The output is fully determined by
    (seed, stream_index); see :func:`polyagraph.rng.stream`.  ``n`` must
    be an integer >= 1 (numpy's included); a bool, a float or a smaller
    value raises ValueError.
    """
    n = as_int("n", n, 1)
    return CreationSequence(bytes(_draw_list(law, n, seed, stream_index)))


def _draw_list(law, n: int, seed: int, stream_index: int) -> list[int]:
    """The sampler loop: the n draws of :func:`sample_polya` as a list of
    0/1 ints, for a caller that appends to them before the one check."""
    rho, delta, window = _law(law, n)
    u = stream(seed, stream_index).random(n).tolist()
    draws: list[int] = []
    reds = 0  # red draws among the last w
    for t in range(n):
        if t > window:
            reds -= draws[t - 1 - window]
        z = 1 if u[t] < (rho + delta * reds) / (1.0 + delta * (t if t < window else window)) else 0
        reds += z
        draws.append(z)
    return draws


def polya_joint_pmf(law, z) -> float:
    """Exact probability of one draw vector under the urn ``law``, an
    :class:`UrnParams` with or without a memory.

    The first min(n, memory) draws carry the exchangeable law: a product of
    linear factors read off the log tables, which depends on those draws
    only through their number of reds.  Under a memory M < n every later
    draw contributes an order-M Markov factor driven by the red count of
    the previous M outcomes.  The log probability is exponentiated once.
    """
    draws = as_draws(z)
    n = len(draws)
    rho, delta, window = _law(law, n)
    reds = sum(draws[:window])
    acc = log_tables(rho, delta, window).log_joint(window, reds)
    if window < n:
        log_denom = math.log(1.0 + window * delta)
        for t in range(window, n):
            if draws[t] == 1:
                acc += math.log(rho + delta * reds) - log_denom
            else:
                acc += math.log(1.0 - rho + delta * (window - reds)) - log_denom
            reds += draws[t] - draws[t - window]
    return math.exp(acc)


def beta_binomial_pmf(params: UrnParams, n: int, k: int) -> float:
    """P(number of red draws among n equals k).

    Beta-Binomial with shape (rho/delta, (1-rho)/delta): C(n, k) times the
    joint law of one vector with k reds.  The log of every k's value at one
    (rho, delta, n) is one row built once with the log tables
    (:meth:`polyagraph._numeric.LogTables.log_pmf_row`); a call reads one
    entry and exponentiates it.  ``n`` and ``k`` must be integers (numpy's
    included); a bool or a float raises ValueError.  An urn with a memory
    has no such closed form and raises TypeError.
    """
    if not (type(n) is int and type(k) is int and 0 <= k <= n):
        n, k = as_int("n", n), as_int("k", k)
        if k < 0 or k > n:
            raise ValueError(f"k must lie in [0, {n}], got {k}")
    # a type test and one cached lookup, which refuses a memory, cost less
    # than a call to _proportions, which this scalar law would pay tens of
    # thousands of times in a sweep
    if type(params) is not UrnParams:
        _proportions(params)
    rho, delta = params._exchangeable
    return math.exp(log_tables(rho, delta, n).log_pmf_row()[k])


def _draw_pass(law, draws: np.ndarray) -> None:
    """Turn the uniforms in a time-major (n, runs) float64 view, whose rows
    are each contiguous, into draws: row t holds draw t of every run, and
    column r one run, whose uniforms :func:`polyagraph.rng.uniform_rows`
    wrote into the view's transpose.

    The red count in the window of the last w = min(t, memory) draws is kept
    as a running sum (the infinite urn's window is the whole past), and the
    red probability is the scalar sampler's expression, rounded
    identically, so with the uniforms of stream i column r is
    :func:`sample_polya`'s draw vector at stream index i, as 0.0/1.0.  A
    view of no rows draws nothing but still checks the law.
    """
    n, runs = draws.shape
    rho, delta, window = _law(law, n)
    # red counts are small integers, exact in float64
    reds = np.zeros(runs)
    p_red = np.empty(runs)
    for t, row in enumerate(draws):
        if t > window:
            reds -= draws[t - 1 - window]
        # the scalar sampler's (rho + delta * reds) / (1 + delta * w), same roundings
        np.multiply(delta, reds, out=p_red)
        np.add(rho, p_red, out=p_red)
        p_red /= 1.0 + delta * min(t, window)
        np.less(row, p_red, out=row, casting="unsafe")
        reds += row
