"""Threshold graphs and their creation-sequence representation.

A creation sequence z records, step by step, whether the added node connects
to every earlier node and to itself (z_t = 1, a universal node) or to
nothing at all (z_t = 0, an isolated node).  Everything structural follows
from z alone: the adjacency entry for nodes i and j is z_{max(i,j)}
(including i = j, the self-loop indicator), node degrees are
i*z_i + #(later universal nodes), and any two nodes are at distance 0, 1, 2
or unreachable.  A node without a self-loop counts as disconnected from
itself.

The same graphs admit a weight characterization: node weights Phi and a
threshold tau > 0 with an edge (u, v) exactly when Phi(u) + Phi(v) > tau
(strictly).  Both directions of that equivalence are implemented here:
:func:`creation_sequence_from_weights` peels extreme-weight nodes off to
recover z (up to a relabeling, which is returned), and
:func:`weights_from_sequence` builds explicit weights realizing a given z
with no relabeling at all.

Node indices in the public API are 1-based creation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from ._numeric import prefix_table, sum_errors
from .urn import CreationSequence, as_draws

__all__ = [
    "ThresholdGraph",
    "WeightAssignment",
    "build_graph",
    "creation_sequence_from_weights",
    "weights_from_sequence",
]


@dataclass(frozen=True)
class ThresholdGraph:
    """Immutable threshold graph; the creation sequence is the stored form.

    The graph stays O(n), and so do products with its adjacency-based
    operators (see :func:`neighbor_sums`); only :meth:`adjacency` builds an
    O(n^2) matrix, for oracles and tests.  Safe to share across threads.
    """

    sequence: CreationSequence

    @property
    def n(self) -> int:
        return len(self.sequence)

    @property
    def draws(self) -> tuple[int, ...]:
        return self.sequence.draws

    @cached_property
    def _z(self) -> np.ndarray:
        z = np.array(self.sequence.draws, dtype=np.int64)
        z.flags.writeable = False
        return z

    @cached_property
    def _suffix_universal(self) -> np.ndarray:
        # entry i: number of universal nodes strictly after 1-based node i+1
        z = self._z
        total = np.cumsum(z[::-1])[::-1]
        suffix = total - z
        suffix.flags.writeable = False
        return suffix

    @cached_property
    def _degree_array(self) -> np.ndarray:
        z = self._z
        deg = np.arange(1, self.n + 1, dtype=np.int64) * z + self._suffix_universal
        deg.flags.writeable = False
        return deg

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexError(f"node index {i} out of range 1..{self.n}")

    def adjacency(self) -> np.ndarray:
        """Dense adjacency matrix, entry (i, j) = z_{max(i,j)}."""
        idx = np.arange(self.n)
        return self._z[np.maximum.outer(idx, idx)].copy()

    def has_self_loop(self, i: int) -> bool:
        self._check_index(i)
        return self.sequence.draws[i - 1] == 1

    def degree(self, i: int) -> int:
        """Edges at node i, a self-loop counting exactly once."""
        self._check_index(i)
        return int(self._degree_array[i - 1])

    def degrees(self) -> np.ndarray:
        """All node degrees in creation order."""
        return self._degree_array.copy()

    def trace(self) -> int:
        """Trace of the adjacency matrix = number of universal nodes."""
        return int(self._z.sum())

    def distance(self, i: int, j: int) -> float:
        """Shortest-path distance between nodes i and j.

        Returns 0.0, 1.0, 2.0 or math.inf; no other value is attainable.
        d(i, i) is 0 with a self-loop and inf without one.
        """
        self._check_index(i)
        self._check_index(j)
        draws = self.sequence.draws
        if i == j:
            return 0.0 if draws[i - 1] == 1 else math.inf
        m = max(i, j)
        if draws[m - 1] == 1:
            return 1.0
        if self._suffix_universal[m - 1] > 0:
            return 2.0
        return math.inf

    def edges(self) -> Iterator[tuple[int, int]]:
        """Undirected edges, each once, as (u, v) with u >= v in creation
        order; self-loops appear as (t, t)."""
        for t, z in enumerate(self.sequence.draws, start=1):
            if z == 1:
                for j in range(1, t + 1):
                    yield (t, j)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges())


def neighbor_sums(
    z: np.ndarray, x: np.ndarray, *, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """sum_{j != i} z_{max(i,j)} x_j for every i, along the last axis.

    This is the adjacency product A x without its diagonal.  Threshold
    neighbourhoods are nested, so it equals z_i * (x_1 + .. + x_{i-1}) +
    (z_{i+1} x_{i+1} + .. + z_n x_n): one exclusive prefix sum of x and one
    exclusive suffix sum of z*x, O(n) per vector.  Both are compensated
    prefix tables of the other entries alone, never cumsum(x) - x, so a
    large x_i cannot swamp its neighbours' sum.  Leading axes broadcast: x
    of shape (runs, n) with z of shape (n,) or (runs, n) works row by row.
    Integer input gives exact integers.

    ``out``, of the broadcast shape of z and x, receives the sums; ``work``,
    a contiguous 1-d array of out's dtype with at least 4 * out.size
    entries, holds z*x, the suffix table and the compensation workspace.
    With both given the call allocates no array, so a stepping loop can
    reuse them every step.  For a float batch with x and out C-contiguous,
    the compensation runs over contiguous operands, with the same bits.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(z.shape, x.shape), dtype=np.result_type(z, x))
    if work is None:  # integer tables need no compensation workspace
        work = np.empty((4 if out.dtype.kind == "f" else 2) * out.size, dtype=out.dtype)
    batch = out.ndim > 1 and out.dtype.kind == "f" and x.shape == out.shape
    if batch and out.flags.c_contiguous and x.flags.c_contiguous:
        return _batch_neighbor_sums(z, x, out, work)
    if x.shape != out.shape:
        x = np.broadcast_to(x, out.shape)
    zx, suffix = work[: 2 * out.size].reshape((2,) + out.shape)
    scratch = work[2 * out.size :]
    prefix_table(x[..., :-1], out=out, work=scratch)
    np.multiply(z, x, out=zx)
    prefix_table(zx[..., :0:-1], out=suffix, work=scratch)
    np.multiply(z, out, out=out)
    return np.add(out, suffix[..., ::-1], out=out)


def _batch_neighbor_sums(z, x, out, work):
    # The float batch case, with x and out C-contiguous: the same two tables,
    # bit for bit, but their compensation runs over flat views, where entry k
    # follows entry k - 1 of its row except at row boundaries.  The error
    # there is garbage and is zeroed before each row's cumsum of errors.
    # The suffix table is kept in natural order.
    zx, suffix, b, err = work[: 4 * out.size].reshape((4,) + out.shape)
    flat_out, flat_x, flat_zx, flat_suffix = (a.reshape(-1) for a in (out, x, zx, suffix))
    flat_b, flat_err = b.reshape(-1), err.reshape(-1)
    # out[..., i] = x[..., 0] + .. + x[..., i-1]
    out[..., 0] = 0
    x[..., :-1].cumsum(axis=-1, out=out[..., 1:])
    sum_errors(flat_out[:-1], flat_out[1:], flat_x[:-1], out=flat_err[1:], scratch=flat_b[1:])
    err[..., 0] = 0
    out += err.cumsum(axis=-1, out=b)
    # suffix[..., i] = zx[..., i+1] + .. + zx[..., n-1]
    np.multiply(z, x, out=zx)
    suffix[..., -1] = 0
    zx[..., :0:-1].cumsum(axis=-1, out=suffix[..., -2::-1])
    sum_errors(flat_suffix[1:], flat_suffix[:-1], flat_zx[1:], out=flat_err[:-1], scratch=flat_b[:-1])
    err[..., -1] = 0
    err[..., ::-1].cumsum(axis=-1, out=b[..., ::-1])
    suffix += b
    np.multiply(z, out, out=out)
    return np.add(out, suffix, out=out)


def build_graph(z) -> ThresholdGraph:
    """Graph for a creation sequence: node t added at step t, connected to
    all earlier nodes and itself when z_t = 1 and to nothing when z_t = 0."""
    draws = as_draws(z)
    return ThresholdGraph(CreationSequence(draws))


@dataclass(frozen=True)
class WeightAssignment:
    """Node weights and threshold realizing a threshold graph.

    The edge rule is strict: (i, j) is an edge iff weights[i] + weights[j]
    exceeds the threshold.  ``epsilons`` records the offsets used when the
    assignment was produced from a creation sequence.
    """

    weights: tuple[float, ...]
    threshold: float
    epsilons: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.threshold > 0:
            raise ValueError(f"threshold must be positive, got {self.threshold!r}")
        if len(self.weights) < 1:
            raise ValueError("need at least one node weight")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @property
    def n(self) -> int:
        return len(self.weights)

    def edge_present(self, i: int, j: int) -> bool:
        return self.weights[i - 1] + self.weights[j - 1] > self.threshold

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """Induced edges as (u, v) with u >= v, self-loops included."""
        pairs = []
        for u in range(1, self.n + 1):
            for v in range(1, u + 1):
                if self.edge_present(u, v):
                    pairs.append((u, v))
        return frozenset(pairs)


def creation_sequence_from_weights(assignment: WeightAssignment) -> tuple[CreationSequence, tuple[int, ...]]:
    """Recover a creation sequence from node weights, peeling extremes.

    Repeatedly compare the lightest and heaviest remaining nodes: if their
    weights sum to at most the threshold the lightest is isolated, otherwise
    the heaviest is universal; the verdicts fill z from the back.  Equal
    weights are ordered by original node index, so the output is
    deterministic.

    Returns (sequence, relabeling) where relabeling[t-1] is the 1-based
    original node occupying creation slot t; the graph built from the
    sequence, relabeled that way, has exactly the weight-induced edge set.
    """
    weights = assignment.weights
    tau = assignment.threshold
    n = assignment.n
    order = sorted(range(n), key=lambda idx: (weights[idx], idx))
    lo, hi = 0, n - 1
    z = [0] * n
    relabeling = [0] * n
    for t in range(n, 0, -1):
        light, heavy = order[lo], order[hi]
        if weights[light] + weights[heavy] <= tau:
            z[t - 1] = 0
            relabeling[t - 1] = light + 1
            lo += 1
        else:
            z[t - 1] = 1
            relabeling[t - 1] = heavy + 1
            hi -= 1
    return CreationSequence(tuple(z)), tuple(relabeling)


def weights_from_sequence(z, tau: float) -> WeightAssignment:
    """Explicit weights realizing a creation sequence, no relabeling needed.

    Node i gets tau/2 + eps_i when universal and tau/2 - eps_i when isolated,
    with the strictly increasing ladder eps_i = i*tau / (2*(n+1)); the
    uniform spacing keeps every comparison safely away from the threshold.
    """
    draws = as_draws(z)
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau!r}")
    n = len(draws)
    eps = tuple((i + 1) * tau / (2.0 * (n + 1)) for i in range(n))
    weights = tuple(
        tau / 2.0 + eps[i] if draws[i] == 1 else tau / 2.0 - eps[i] for i in range(n)
    )
    return WeightAssignment(weights=weights, threshold=float(tau), epsilons=eps)
