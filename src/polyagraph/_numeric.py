"""Internal numeric kernels shared across the package.

Every exact law of the urn is a ratio of rising products
prod_{s<k} (x + s*step).  :func:`log_rising` returns all prefixes of one such
product in log space at once; the laws combine a few of these tables and
exponentiate once, at the end.  Working with the products themselves, rather
than with differences of log-Gamma at arguments near x/step, avoids the
cancellation that sets in when step is far from 1.

The cached tables (:func:`log_tables`) are read two ways: vectorized laws
index the read-only arrays, and scalar laws read single entries through a
read-only memoryview of each array, which yields Python floats.  A numpy
scalar costs several times more to build and to add than a Python float,
and the arithmetic is the same IEEE double arithmetic, so a scalar law
evaluated either way gives the same bits.
"""

from __future__ import annotations

import numbers
from functools import lru_cache

import numpy as np


def as_int(name: str, value) -> int:
    """``value`` as a Python int: Python and numpy integers pass.  A bool, a
    float or anything else raises ValueError naming ``name``, because
    truncating it, or indexing with it (True reads entry 1), would silently
    answer for some other integer."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def prefix_table(a: np.ndarray, *, out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Prefix sums along the last axis: entry k is a[..., 0] + .. + a[..., k-1],
    for k = 0..m (m = a.shape[-1]); leading axes are independent rows.

    The running sum is compensated, so every entry stays within a few ulps
    of the exactly rounded sum of its terms even for thousands of terms.
    Integer input gives exact integer sums, uncompensated.

    ``out``, of shape a.shape[:-1] + (m + 1,), receives the table; ``work``,
    a contiguous 1-d float array of at least 2 * a.size entries, holds the
    compensation temporaries.  With both given the call allocates no array,
    and the table is bit for bit the one a call without them returns.
    """
    if out is None:
        out = np.empty(a.shape[:-1] + (a.shape[-1] + 1,), dtype=a.dtype)
    out[..., 0] = 0
    prev, cur = out[..., :-1], out[..., 1:]
    # cumsum is a sequential left-to-right sum, so each partial sum is the
    # rounded value of the previous one plus one term, and the rounding error
    # of that addition is recovered exactly from the three values (Knuth's
    # TwoSum, valid whatever their magnitudes)
    a.cumsum(axis=-1, out=cur)
    if out.dtype.kind in "iu":
        return out  # integer sums are exact: nothing to recover
    if work is None:
        work = np.empty(2 * a.size, dtype=out.dtype)
    b, err = work[: 2 * a.size].reshape((2,) + a.shape)
    cur += sum_errors(prev, cur, a, out=err, scratch=b).cumsum(axis=-1, out=b)
    return out


def sum_errors(prev, cur, a, *, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Rounding error of each floating-point sum cur = prev + a, into ``out``.

    Knuth's TwoSum: with b = cur - prev, the error is
    (prev - (cur - b)) + (a - b), exact whatever the magnitudes.  All five
    arrays have one shape; ``scratch`` holds b.  Contiguous operands keep
    numpy from buffering them.
    """
    np.subtract(cur, prev, out=scratch)
    np.subtract(cur, scratch, out=out)
    np.subtract(prev, out, out=out)  # prev - (cur - b)
    np.subtract(a, scratch, out=scratch)
    return np.add(out, scratch, out=out)  # (prev - (cur - b)) + (a - b)


def log_rising(x: float, step: float, m: int) -> np.ndarray:
    """Prefix table of log rising products: entry k is
    sum_{s<k} log(x + s*step), for k = 0..m, compensated by
    :func:`prefix_table`."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return prefix_table(np.log(x + step * np.arange(m, dtype=float)))


class LogTables:
    """Prefix tables of log rising products for one (rho, delta, n).

    Entry k of ``red``, ``black`` and ``total`` is the log of
    prod_{s<k} (x + s*delta) for x = rho, 1 - rho and 1; entry k of ``fact``
    is log k!.  A length-m draw vector with k reds then has log probability
    red[k] + black[m-k] - total[m], and log C(m, k) is
    fact[m] - fact[k] - fact[m-k], for every m <= n.

    The four tables are read-only float arrays, for vectorized reads.
    :meth:`log_joint` and :meth:`log_choose` read single entries through a
    read-only memoryview of each array instead: the items are Python floats
    (no copy of the table is made), and the results equal, bit for bit,
    the same expressions over numpy scalars.  Indices must be ints in range.
    """

    __slots__ = ("red", "black", "total", "fact", "_red", "_black", "_total", "_fact")

    def __init__(self, red: np.ndarray, black: np.ndarray, total: np.ndarray, fact: np.ndarray):
        for table in (red, black, total, fact):
            table.flags.writeable = False
        self.red, self.black, self.total, self.fact = red, black, total, fact
        self._red, self._black, self._total, self._fact = map(memoryview, (red, black, total, fact))

    def log_joint(self, m: int, k: int) -> float:
        """log P(a given length-m draw vector with k reds)."""
        return self._red[k] + self._black[m - k] - self._total[m]

    def log_choose(self, m: int, k: int) -> float:
        """log C(m, k)."""
        fact = self._fact
        return fact[m] - fact[k] - fact[m - k]


@lru_cache(maxsize=64)
def log_tables(rho: float, delta: float, n: int) -> LogTables:
    """The four tables up to horizon n, cached: exact enumeration evaluates
    the joint law at one (rho, delta, n) millions of times."""
    return LogTables(
        log_rising(rho, delta, n),
        log_rising(1.0 - rho, delta, n),
        log_rising(1.0, delta, n),
        log_rising(1.0, 1.0, n),
    )


class CompensatedSum:
    """Neumaier-compensated running sum of scalars or fixed-shape vectors.

    Keeps 2^n-term enumeration sums well inside a 1e-12 tolerance budget and
    makes the result independent of summation order at that scale.
    """

    __slots__ = ("_sum", "_comp")

    def __init__(self):
        self._sum = None
        self._comp = None

    def add(self, value) -> None:
        v = np.asarray(value, dtype=float)
        if self._sum is None:
            self._sum = np.zeros_like(v)
            self._comp = np.zeros_like(v)
        t = self._sum + v
        swap = np.abs(self._sum) >= np.abs(v)
        self._comp = self._comp + np.where(swap, (self._sum - t) + v, (v - t) + self._sum)
        self._sum = t

    @property
    def value(self):
        if self._sum is None:
            return 0.0
        total = self._sum + self._comp
        if total.ndim == 0:
            return float(total)
        return total
