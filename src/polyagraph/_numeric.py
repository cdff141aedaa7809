"""Internal numeric kernels shared across the package.

Every exact law of the urn is a ratio of rising products
prod_{s<k} (x + s*step).  :func:`log_rising` returns all prefixes of one such
product in log space at once; the laws combine a few of these tables and
exponentiate once, at the end.  Working with the products themselves, rather
than with differences of log-Gamma at arguments near x/step, avoids the
cancellation that sets in when step is far from 1.

The cached tables (:func:`log_tables`) are read two ways: vectorized laws
slice the read-only arrays, and scalar laws read single entries through a
read-only memoryview of each array, which yields Python floats.  A numpy
scalar costs several times more to build and to add than a Python float,
and the arithmetic is the same IEEE double arithmetic, so a scalar law
evaluated either way gives the same bits.  The log-factorial table depends
on the horizon alone, so it is built once per horizon and shared by the
tables of every (rho, delta).  The Beta-Binomial log row at the horizon,
one entry per red count, is built from the four tables on first use and
kept with them, so it lives and dies with their cache entry.
"""

from __future__ import annotations

import numbers
from functools import lru_cache

import numpy as np


def as_int(name: str, value, least: int | None = None) -> int:
    """``value`` as a Python int, the one rule for every count and index.

    Python and numpy integers pass.  A bool, a float or anything else raises
    ValueError "{name} must be an integer, got {value!r}", because
    truncating it, or indexing with it (True reads entry 1), would silently
    answer for some other integer.  With ``least``, a value below it raises
    ValueError "{name} must be >= {least}, got {value}"."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def check_node(n, i, name: str = "i") -> tuple[int, int]:
    """(n, i) as Python ints, once both are integers (:func:`as_int`) and
    the 1-based node index i lies in 1..n; out of range raises IndexError."""
    n, i = as_int("n", n), as_int(name, i)
    if not 1 <= i <= n:
        raise IndexError(f"node index {i} out of range 1..{n}")
    return n, i


def prefix_table(a: np.ndarray) -> np.ndarray:
    """Prefix sums of a float array along the last axis: entry k is
    a[..., 0] + .. + a[..., k-1], for k = 0..m (m = a.shape[-1]); leading
    axes are independent rows.

    The running sum is compensated, so every entry stays within a few ulps
    of the exactly rounded sum of its terms even for thousands of terms.
    """
    out = np.empty(a.shape[:-1] + (a.shape[-1] + 1,), dtype=a.dtype)
    out[..., 0] = 0
    prev, cur = out[..., :-1], out[..., 1:]
    # cumsum is a sequential left-to-right sum, so each partial sum is the
    # rounded value of the previous one plus one term, and the rounding error
    # of that addition is recovered exactly from the three values (Knuth's
    # TwoSum, valid whatever their magnitudes)
    a.cumsum(axis=-1, out=cur)
    b, err = np.empty((2,) + a.shape, dtype=a.dtype)
    cur += sum_errors(prev, cur, a, out=err, scratch=b).cumsum(axis=-1, out=b)
    return out


def sum_errors(prev, cur, a, *, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Rounding error of each floating-point sum cur = prev + a, into ``out``.

    Knuth's TwoSum: with b = cur - prev, the error is
    (prev - (cur - b)) + (a - b), exact whatever the magnitudes.  All five
    arrays have one shape; ``scratch`` holds b, and ``out`` may be ``a``
    itself, which is read before it is written.  Contiguous operands keep
    numpy from buffering them.
    """
    np.subtract(cur, prev, out=scratch)
    np.subtract(a, scratch, out=out)  # a - b
    np.subtract(cur, scratch, out=scratch)
    np.subtract(prev, scratch, out=scratch)  # prev - (cur - b)
    return np.add(scratch, out, out=out)  # (prev - (cur - b)) + (a - b)


def log_rising(x: float, step: float, m: int) -> np.ndarray:
    """Prefix table of log rising products: entry k is
    sum_{s<k} log(x + s*step), for k = 0..m, compensated by
    :func:`prefix_table`."""
    m = as_int("m", m, 0)
    return prefix_table(np.log(x + step * np.arange(m, dtype=float)))


class LogTables:
    """Prefix tables of log rising products for one (rho, delta, n).

    Entry k of ``red``, ``black`` and ``total`` is the log of
    prod_{s<k} (x + s*delta) for x = rho, 1 - rho and 1; entry k of ``fact``
    is log k!.  A length-m draw vector with k reds then has log probability
    red[k] + black[m-k] - total[m], and log C(m, k) is
    fact[m] - fact[k] - fact[m-k], for every m <= n.

    The four tables are read-only float arrays, for vectorized reads;
    ``fact`` is one array per horizon, shared by the tables of every
    (rho, delta).  :meth:`log_joint` reads single entries through a
    read-only memoryview of each array instead: the items are Python floats
    (no copy of the table is made), and the results equal, bit for bit, the
    same expression over numpy scalars.  :meth:`log_pmf_row` is the one
    derived table, built on first use.  Indices must be ints in range.
    """

    __slots__ = ("red", "black", "total", "fact", "_red", "_black", "_total", "_pmf_row")

    def __init__(self, red: np.ndarray, black: np.ndarray, total: np.ndarray, fact: np.ndarray):
        for table in (red, black, total, fact):
            table.flags.writeable = False
        self.red, self.black, self.total, self.fact = red, black, total, fact
        self._red, self._black, self._total = map(memoryview, (red, black, total))
        self._pmf_row = None

    def log_joint(self, m: int, k: int) -> float:
        """log P(a given length-m draw vector with k reds)."""
        return self._red[k] + self._black[m - k] - self._total[m]

    def log_pmf_row(self) -> memoryview:
        """Read-only memoryview whose item k is log P(k reds among the n
        draws of the horizon), k = 0..n, as a Python float.

        Built once, on the first call: entry k is
        fact[n] - fact[k] - fact[n-k] + (red[k] + black[n-k] - total[n]),
        evaluated in that order by whole-array operations.  Each numpy
        float64 add and subtract is correctly rounded, as a Python float's
        is, so every entry has the bits of that expression over single
        table entries.
        """
        row = self._pmf_row
        if row is None:
            n = len(self.fact) - 1
            log_p = np.subtract(self.fact[n], self.fact)
            log_p -= self.fact[::-1]
            joint = np.add(self.red, self.black[::-1])
            joint -= self.total[n]
            log_p += joint
            log_p.flags.writeable = False
            row = self._pmf_row = memoryview(log_p)
        return row


@lru_cache(maxsize=64)
def _log_factorials(n: int) -> np.ndarray:
    # log k! for k = 0..n, whatever the urn
    return log_rising(1.0, 1.0, n)


@lru_cache(maxsize=64)
def log_tables(rho: float, delta: float, n: int) -> LogTables:
    """The four tables up to horizon n, cached: exact enumeration evaluates
    the joint law at one (rho, delta, n) millions of times."""
    return LogTables(
        log_rising(rho, delta, n),
        log_rising(1.0 - rho, delta, n),
        log_rising(1.0, delta, n),
        _log_factorials(n),
    )

