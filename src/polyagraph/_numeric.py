"""Internal numeric kernels shared across the package.

Every exact law of the urn is a ratio of rising products
prod_{s<k} (x + s*step).  :func:`log_rising` returns all prefixes of one such
product in log space at once; the laws combine a few of these tables and
exponentiate once, at the end.  Working with the products themselves, rather
than with differences of log-Gamma at arguments near x/step, avoids the
cancellation that sets in when step is far from 1.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np


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
    b, err = work[: 2 * a.size].reshape((2,) + a.shape)  # contiguous: no ufunc buffering
    np.subtract(cur, prev, out=b)
    np.subtract(cur, b, out=err)
    np.subtract(prev, err, out=err)  # prev - (cur - b)
    np.subtract(a, b, out=b)
    np.add(err, b, out=err)  # (prev - (cur - b)) + (a - b)
    cur += err.cumsum(axis=-1, out=b)
    return out


def log_rising(x: float, step: float, m: int) -> np.ndarray:
    """Prefix table of log rising products: entry k is
    sum_{s<k} log(x + s*step), for k = 0..m, compensated by
    :func:`prefix_table`."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return prefix_table(np.log(x + step * np.arange(m, dtype=float)))


class LogTables(NamedTuple):
    """Prefix tables of log rising products for one (rho, delta, n).

    Entry k of ``red``, ``black`` and ``total`` is the log of
    prod_{s<k} (x + s*delta) for x = rho, 1 - rho and 1; entry k of ``fact``
    is log k!.  A length-m draw vector with k reds then has log probability
    red[k] + black[m-k] - total[m], and log C(m, k) is
    fact[m] - fact[k] - fact[m-k], for every m <= n.
    """

    red: np.ndarray
    black: np.ndarray
    total: np.ndarray
    fact: np.ndarray

    def log_joint(self, m: int, k: int) -> float:
        """log P(a given length-m draw vector with k reds)."""
        return float(self.red[k] + self.black[m - k] - self.total[m])


@lru_cache(maxsize=64)
def log_tables(rho: float, delta: float, n: int) -> LogTables:
    """The four tables up to horizon n, cached: exact enumeration evaluates
    the joint law at one (rho, delta, n) millions of times."""
    tables = LogTables(
        log_rising(rho, delta, n),
        log_rising(1.0 - rho, delta, n),
        log_rising(1.0, delta, n),
        log_rising(1.0, 1.0, n),
    )
    for t in tables:
        t.flags.writeable = False
    return tables


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
