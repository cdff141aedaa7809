"""Laplacian of a threshold graph: exact integer spectrum and eigenbasis.

The Laplacian is degree matrix minus adjacency; a self-loop raises the
degree but cancels against the adjacency diagonal, so entry (i, i) is
deg(i) - z_i and entry (i, j) is -z_{max(i,j)} for i != j.  Its eigenvalues
are exactly {0, deg(2), deg(3), ..., deg(n)} (the degree of node 1 plays no
role), and the eigenvectors do not depend on the realization at all:
u_1 is all ones and u_m (m >= 2) has m-1 leading ones followed by -(m-1).

Everything here is exact int64 arithmetic; no eigensolver is involved
anywhere in the library path.  L u is (deg - z) u - A' u with A' the
off-diagonal adjacency, whose product costs two prefix sums
(:func:`polyagraph.graph.neighbor_sums`), so checking all n eigenpairs is
O(n^2) work.  The check builds the basis a block of rows at a time, so its
memory stays O(n) for a fixed block, and the Laplacian matrix is built only
by :func:`laplacian`.  Its report stores the eigenvalues and the pass flags
as two length-n arrays; per-eigenpair records are built only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ThresholdGraph, neighbor_sums

__all__ = [
    "laplacian",
    "spectrum",
    "eigenbasis",
    "EigenpairCheck",
    "EigenpairReport",
    "verify_eigenpairs",
]


_BLOCK_ENTRIES = 1 << 16  # basis entries per block of the eigenpair check


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


def _basis_rows(n: int, start: int, stop: int) -> np.ndarray:
    # rows u_{start+1} .. u_stop: row m-1 holds m-1 ones then -(m-1), and u_1 is all ones
    m = np.arange(start, stop)[:, None]
    cols = np.arange(n)
    rows = (cols < m).astype(np.int64) - m * (cols == m)
    if start == 0:
        rows[0] = 1
    return rows


def eigenbasis(n: int) -> list[np.ndarray]:
    """The deterministic eigenbasis shared by every realization of size n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return list(_basis_rows(n, 0, n))


@dataclass(frozen=True)
class EigenpairCheck:
    index: int
    eigenvalue: int
    passed: bool


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

    @property
    def checks(self) -> tuple[EigenpairCheck, ...]:
        return self._records(range(len(self.passed)))

    def failures(self) -> tuple[EigenpairCheck, ...]:
        return self._records(np.flatnonzero(~self.passed).tolist())

    def _records(self, indices) -> tuple[EigenpairCheck, ...]:
        return tuple(
            EigenpairCheck(index=m + 1, eigenvalue=int(self.eigenvalues[m]), passed=bool(self.passed[m]))
            for m in indices
        )


def verify_eigenpairs(g: ThresholdGraph) -> EigenpairReport:
    """Check L u_1 = 0 and L u_m = deg(m) u_m for m = 2..n in exact integer
    arithmetic.  Failures become report entries, never exceptions."""
    n = g.n
    z = np.asarray(g.draws, dtype=np.int64)
    deg = g.degrees()
    eigenvalues = np.concatenate(([0], deg[1:])).astype(np.int64)
    ok = np.empty(n, dtype=bool)
    rows = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        basis = _basis_rows(n, start, stop)  # u_m is row m-1-start
        lhs = (deg - z) * basis - neighbor_sums(z, basis)
        ok[start:stop] = (lhs == basis * eigenvalues[start:stop, None]).all(axis=1)
    return EigenpairReport(eigenvalues=eigenvalues, passed=ok)
