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
O(n^2) and the Laplacian matrix is built only by :func:`laplacian`.
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


def eigenbasis(n: int) -> list[np.ndarray]:
    """The deterministic eigenbasis shared by every realization of size n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    basis = [np.ones(n, dtype=np.int64)]
    for m in range(2, n + 1):
        u = np.zeros(n, dtype=np.int64)
        u[: m - 1] = 1
        u[m - 1] = -(m - 1)
        basis.append(u)
    return basis


@dataclass(frozen=True)
class EigenpairCheck:
    index: int
    eigenvalue: int
    passed: bool


@dataclass(frozen=True)
class EigenpairReport:
    """Per-eigenpair outcome of the exact identity L u_m = deg(m) u_m."""

    checks: tuple[EigenpairCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[EigenpairCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def verify_eigenpairs(g: ThresholdGraph) -> EigenpairReport:
    """Check L u_1 = 0 and L u_m = deg(m) u_m for m = 2..n in exact integer
    arithmetic.  Failures become report entries, never exceptions."""
    z = np.asarray(g.draws, dtype=np.int64)
    deg = g.degrees()
    basis = np.array(eigenbasis(g.n))  # u_m is row m-1
    eigenvalues = np.concatenate(([0], deg[1:])).astype(np.int64)
    lhs = (deg - z) * basis - neighbor_sums(z, basis)
    rhs = basis * eigenvalues[:, None]
    ok = (lhs == rhs).all(axis=1)
    checks = tuple(
        EigenpairCheck(index=m + 1, eigenvalue=int(eigenvalues[m]), passed=bool(ok[m]))
        for m in range(g.n)
    )
    return EigenpairReport(checks=checks)
