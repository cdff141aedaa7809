"""Laplacian of a threshold graph: exact integer spectrum and eigenbasis.

The Laplacian is degree matrix minus adjacency; a self-loop raises the
degree but cancels against the adjacency diagonal, so entry (i, i) is
deg(i) - z_i and entry (i, j) is -z_{max(i,j)} for i != j.  Its eigenvalues
are exactly {0, deg(2), deg(3), ..., deg(n)} (the degree of node 1 plays no
role), and the eigenvectors do not depend on the realization at all:
u_1 is all ones and u_m (m >= 2) has m-1 leading ones followed by -(m-1).

Everything here is exact integer arithmetic; no eigensolver is involved
anywhere in the library path.  L u is (N - 1) u - A' u, with N - 1 the
off-diagonal degrees (:func:`polyagraph.graph.neighbor_counts`) and A' the
off-diagonal adjacency, whose product costs two exact prefix sums
(:func:`polyagraph.graph.neighbor_sums`), so checking all n eigenpairs is
O(n^2) work.  One kernel checks a whole (runs, n) stack of draw vectors
against the eigenvalues claimed for them; :func:`verify_eigenpairs` is its
one-row case.  The basis is the same for every realization, so the kernel
takes blocks of basis rows times as many graphs as fit, and one
neighbour-sum call takes the prefix sums of those rows once for all of
the block's graphs.  Its arithmetic runs in the narrowest integer type
that holds every intermediate, and every array of a block, workspace
included, counts against a fixed number of bytes, with the buffers
allocated once per call.  So memory stays O(n) for one graph, and the
Laplacian matrix is built only by :func:`laplacian`.  The report is
the eigenvalues and the pass flags, two length-n arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import as_int
from .graph import ThresholdGraph, neighbor_counts, neighbor_sums

__all__ = [
    "laplacian",
    "spectrum",
    "eigenbasis",
    "EigenpairReport",
    "verify_eigenpairs",
]


_BLOCK_BYTES = 1 << 19  # all of one eigenpair-check block's arrays, for one realization
_STACK_BLOCK_BYTES = 3 << 14  # the same for a stack of realizations (48 KiB)


def laplacian(g: ThresholdGraph) -> np.ndarray:
    """Integer Laplacian matrix of the realization."""
    L = -g.adjacency()
    np.fill_diagonal(L, g.degrees() - np.asarray(g.draws, dtype=np.int64))
    return L


def spectrum(g: ThresholdGraph) -> tuple[int, ...]:
    """Eigenvalue multiset {0, deg(2), ..., deg(n)} as a sorted tuple,
    computed in O(n) from the creation sequence."""
    deg = g.degrees()
    return tuple(sorted([0, *map(int, deg[1:])]))


def _basis_rows(n: int, start: int, stop: int, dtype=np.int64) -> np.ndarray:
    # rows u_{start+1} .. u_stop: row m-1 holds m-1 ones then -(m-1), and u_1 is all ones
    m = np.arange(start, stop)
    rows = np.greater.outer(m, np.arange(n)).astype(dtype)
    rows[m - start, m] = -m
    if start == 0:
        rows[0] = 1
    return rows


def eigenbasis(n: int) -> list[np.ndarray]:
    """The deterministic eigenbasis shared by every realization of size n.
    ``n`` must be an integer (numpy's included)."""
    n = as_int("n", n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return list(_basis_rows(n, 0, n))


@dataclass(frozen=True, eq=False)
class EigenpairReport:
    """Per-eigenpair outcome of the exact identity L u_m = deg(m) u_m.

    Entry m-1 of ``eigenvalues`` and ``passed`` belongs to u_m.
    """

    eigenvalues: np.ndarray
    passed: np.ndarray

    @property
    def all_passed(self) -> bool:
        return bool(self.passed.all())

    def failures(self) -> tuple[int, ...]:
        """The 1-based indices m of the eigenpairs u_m that failed."""
        return tuple((np.flatnonzero(~self.passed) + 1).tolist())


def verify_eigenpairs(g: ThresholdGraph) -> EigenpairReport:
    """Check L u_1 = 0 and L u_m = deg(m) u_m for m = 2..n in exact integer
    arithmetic.  Failures become report entries, never exceptions."""
    eigenvalues = np.concatenate(([0], g.degrees()[1:])).astype(np.int64)
    draws = np.asarray(g.draws, dtype=np.int64)[None]
    return EigenpairReport(eigenvalues=eigenvalues, passed=_eigenpair_flags(draws, eigenvalues[None])[0])


def _eigenpair_flags(draws: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """Pass flags of L u_m = lambda_m u_m for a (runs, n) integer stack of
    draw vectors and the same-shaped stack of claimed eigenvalues lambda_m;
    entry (r, m-1) belongs to u_m on realization r.

    The arithmetic runs in the narrowest of int16, int32 and int64 that
    holds every intermediate, so it is exact.  A block is ``graphs``
    realizations times ``rows`` basis rows.  Its arrays (A'u, the
    neighbour-sum workspace of twice its size, which then holds the
    comparison, the block's draws and Laplacian diagonals, and its basis
    rows) take at most _BLOCK_BYTES for one realization and
    _STACK_BLOCK_BYTES for a stack, which also holds its draws, eigenvalues
    and flags.
    """
    runs, n = draws.shape
    dtype = _work_dtype(n, eigenvalues)
    # (3 rows + 2) n entries per graph and n per basis row: as many graphs
    # as fit with one row each, then as many rows as fit
    per_n = (_BLOCK_BYTES if runs == 1 else _STACK_BLOCK_BYTES) // dtype.itemsize // n
    graphs = max(1, min(runs, (per_n - 1) // 5))
    rows = max(1, min(n, (per_n - 2 * graphs) // (3 * graphs + 1)))
    buffer = np.empty(3 * graphs * rows * n, dtype=dtype)
    z_block, off_block = np.empty((2, graphs, n), dtype=dtype)
    flags = np.empty((runs, n), dtype=bool)
    for first in range(0, runs, graphs):
        count = min(graphs, runs - first)
        z, off = z_block[:count], off_block[:count]
        z[...] = draws[first : first + count]
        # the diagonal of L: the off-diagonal degrees N - 1
        neighbor_counts(z, out=off, work=buffer[: z.size].reshape(z.shape))
        off -= 1
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            lam = eigenvalues[first : first + count, start:stop].astype(dtype)
            basis = _basis_rows(n, start, stop, dtype)  # u_m is row m-1-start
            shape = (count, stop - start, n)
            size = count * (stop - start) * n
            out = neighbor_sums(z[:, None], basis, out=buffer[:size].reshape(shape), work=buffer[size : 3 * size])
            # L u - lambda u = (off - lambda) u - A'u
            residual = np.subtract(off[:, None], lam[:, :, None], out=buffer[size : 2 * size].reshape(shape))
            residual *= basis
            same = np.equal(residual, out, out=buffer[2 * size : 3 * size].view(bool)[:size].reshape(shape))
            same.all(axis=-1, out=flags[first : first + count, start:stop])
    return flags


def _work_dtype(n: int, eigenvalues: np.ndarray) -> np.dtype:
    # The basis entries, their partial sums and the Laplacian diagonal are
    # below n in size, A'u below 2n, and (off - lambda) u at most
    # (n - 1) (n - 1 + |lambda|)
    peak = max(int(eigenvalues.max(initial=0)), -int(eigenvalues.min(initial=0)))
    bound = max(2 * n, (n - 1) * (n - 1 + peak))
    return next(np.dtype(t) for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)
