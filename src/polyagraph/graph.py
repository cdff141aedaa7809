"""Threshold graphs and their creation-sequence representation.

A creation sequence z records, step by step, whether the added node connects
to every earlier node and to itself (z_t = 1, a universal node) or to
nothing at all (z_t = 0, an isolated node).  Everything structural follows
from z alone: the adjacency entry for nodes i and j is z_{max(i,j)}
(including i = j, the self-loop indicator), node degrees are
i*z_i + #(later universal nodes), and any two nodes are at distance 0, 1, 2
or unreachable.  A node without a self-loop counts as disconnected from
itself.  :func:`neighbor_counts` (one plus the off-diagonal degrees) and
:func:`neighbor_sums` (the off-diagonal adjacency product) read z, or a
stack of them, and serve the degrees, consensus and the eigenpair check.
The float sums are a compensated prefix chain of x and suffix chain of z*x,
run as the two parts of one complex accumulate, the suffix chain written
reversed over the whole flat table (:class:`_FloatSums`); their workspace
is 4 * out.size floats.

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

from ._numeric import check_node, sum_errors
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
        z = np.frombuffer(bytes(self.sequence.draws), np.uint8).astype(np.int64)
        z.flags.writeable = False
        return z

    @cached_property
    def _degree_array(self) -> np.ndarray:
        # the self-loop, which N leaves out, counts once
        deg = neighbor_counts(self._z) - 1 + self._z
        deg.flags.writeable = False
        return deg

    def _check_index(self, i: int, name: str = "i") -> int:
        """i as a Python int, once it is an integer node index in 1..n."""
        return check_node(self.n, i, name)[1]

    def adjacency(self) -> np.ndarray:
        """Dense adjacency matrix, entry (i, j) = z_{max(i,j)}."""
        idx = np.arange(self.n)
        return self._z[np.maximum.outer(idx, idx)].copy()

    def has_self_loop(self, i: int) -> bool:
        i = self._check_index(i)
        return self.sequence.draws[i - 1] == 1

    def degree(self, i: int) -> int:
        """Edges at node i, a self-loop counting exactly once."""
        i = self._check_index(i)
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
        i, j = self._check_index(i), self._check_index(j, "j")
        draws = self.sequence.draws
        if i == j:
            return 0.0 if draws[i - 1] == 1 else math.inf
        m = max(i, j)
        if draws[m - 1] == 1:
            return 1.0
        if self._degree_array[m - 1] > 0:  # m is isolated: its neighbours are universal
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
    exclusive suffix sum of z*x, O(n) per vector.  Leading axes broadcast:
    x of shape (runs, n) with z of shape (n,) or (runs, n) works row by row.

    Float sums are compensated prefix tables of the other entries alone,
    never cumsum(x) - x, so a large x_i cannot swamp its neighbours' sum;
    a z that is not a C-contiguous array of out's shape, or an x that is
    not one of out's dtype too, is first copied into one.  The prefix chain
    of x and the suffix chain of z*x run as the real and imaginary parts of
    one complex accumulate (:class:`_FloatSums`).  Integer sums are exact
    cumsums, and an x shared by the rows of z (one set of vectors for a
    stack of sequences) has its prefix sums taken once.

    ``out``, C-contiguous and of the broadcast shape of z and x, receives
    the sums; ``work``, a contiguous 1-d array of out's dtype with at least
    4 * out.size entries (2 * out.size for integers), holds the tables and
    their errors.  Any other ``work`` is refused with ValueError.  With both
    given, and neither z nor x copied, the call allocates no array.  A
    float call builds a plan of its tables' views and runs it once; a
    stepping loop keeps the plan and calls it instead, paying for the views
    once.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(z.shape, x.shape), dtype=np.result_type(z, x))
    integer = out.dtype.kind in "iu"
    per_entry = 2 if integer else 4
    if work is None:
        work = np.empty(per_entry * out.size, dtype=out.dtype)
    elif not (
        work.dtype == out.dtype and work.ndim == 1 and work.flags.c_contiguous and work.size >= per_entry * out.size
    ):
        raise ValueError(
            f"work must be a contiguous 1-d {out.dtype} array of at least {per_entry} * out.size = "
            f"{per_entry * out.size} entries, got {work.dtype} of shape {work.shape}"
        )
    if integer:
        # the suffix table is kept in reversed order: a cumsum into a
        # reversed view is slower
        zx, suffix = work[: 2 * out.size].reshape((2,) + out.shape)
        prefix = zx.reshape(-1)[: x.size].reshape(x.shape)  # x's own shape
        prefix[..., 0] = 0
        x[..., :-1].cumsum(axis=-1, out=prefix[..., 1:])
        np.multiply(z, prefix, out=out)
        np.multiply(z, x, out=zx)
        suffix[..., 0] = 0
        zx[..., :0:-1].cumsum(axis=-1, out=suffix[..., 1:])
        return np.add(out, suffix[..., ::-1], out=out)
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    if x.shape != out.shape or x.dtype != out.dtype or not x.flags.c_contiguous:
        x = np.ascontiguousarray(np.broadcast_to(x, out.shape), dtype=out.dtype)
    z = np.ascontiguousarray(np.broadcast_to(z, out.shape))
    return _FloatSums(z, x, out, work)()


class _FloatSums:
    """The float path of :func:`neighbor_sums` for one fixed (z, x, out, work).

    z and x are C-contiguous of out's shape, x of its dtype too (any other
    z is refused with ValueError), and ``work`` holds
    4 * out.size floats of that dtype: two complex tables of out's shape,
    T (the terms) and S (their sums).  T.real is x, and T.imag is z*x
    written with the whole flat buffer reversed, so row r's suffix chain
    runs forward in row R-1-r.  One complex accumulate along the rows, S,
    then gives both inclusive chains, each part added with its own IEEE
    rounding; the prefix at k is S.real[k-1] and the suffix at k the
    reversed S.imag at k+1.  Knuth's TwoSum recovers the rounding error of
    each S[k] = S[k-1] + T[k] over flat views at a distance of two floats,
    so each real and imaginary pair stays together; the errors overwrite
    T, with out as the scratch of the TwoSum, in two halves of the flat
    range.  Column 0, where the flat pairs straddle two rows, gets the
    error of 0 + T[0] instead; a second accumulate of T, added to S,
    compensates both tables.  The edge columns keep explicit zeros: z*0.0
    for the empty prefix and + 0.0 for the empty suffix.  So for a finite
    x every bit, signed zeros and the NaN of an overflow included, is that
    of two separate compensated tables; with an inf or a NaN in x the NaNs
    fall in the same places, but where two NaNs meet, which one's sign
    survives is left open by IEEE 754.

    Every view is made here, once, and each is flat: numpy buffers a
    strided 2-d operand, not a flat one.  A call runs the ufuncs alone, so
    a stepping loop keeps one plan and calls it every step.  Each call
    reads x only at its start, into the tables, and writes the sums into
    out, which it returns; its caller may then overwrite x.
    """

    def __init__(self, z: np.ndarray, x: np.ndarray, out: np.ndarray, work: np.ndarray):
        shape, size = out.shape, out.size
        pair = np.result_type(out.dtype, np.complex64)
        if pair.itemsize != 2 * out.dtype.itemsize:
            raise ValueError(f"float sums need float32, float64 or longdouble, got {out.dtype}")
        if z.shape != shape or not z.flags.c_contiguous:
            raise ValueError(f"z must be C-contiguous of out's shape {shape}, got shape {z.shape}")
        tables, sums = work[: 4 * size].view(pair).reshape((2,) + shape)
        t, s, flat_out = tables.reshape(-1).view(out.dtype), sums.reshape(-1).view(out.dtype), out.reshape(-1)
        z, x = z.reshape(-1), x.reshape(-1)
        self._out, self._tables, self._sums = out, tables, sums
        self._x_in = (x, t[0::2])
        self._zx = (z, x, t[1::2][::-1])
        m = max(size - 1, 0)  # each half of the 2 * size - 2 flat pairs
        self._halves = [(s[i : i + m], s[i + 2 : i + 2 + m], t[i + 2 : i + 2 + m], flat_out[:m]) for i in (0, m)]
        self._row_starts = (sums[..., 0], tables[..., 0])
        self._row_ends = sums[..., -1]
        prefix, suffix = s[0::2], s[1::2][::-1]
        self._prefix = (z[1:], prefix[:-1], flat_out[1:], z[:1], flat_out[:1])
        self._suffix = (flat_out[:-1], suffix[1:], flat_out[-1:])
        self._zero = np.zeros(1, out.dtype)  # a Python 0.0 costs a conversion per call

    def __call__(self) -> np.ndarray:
        x, real = self._x_in
        np.copyto(real, x)
        z, x, imag = self._zx
        np.multiply(z, x, out=imag)
        tables, sums = self._tables, self._sums
        np.add.accumulate(tables, axis=-1, out=sums)
        for prev, cur, a, scratch in self._halves:
            sum_errors(prev, cur, a, out=a, scratch=scratch)
        starts, errors = self._row_starts
        np.subtract(starts, starts, out=errors)  # the error of 0 + T[0]: 0, or NaN
        np.add.accumulate(tables, axis=-1, out=tables)
        np.add(sums, tables, out=sums)
        self._row_ends.fill(0)  # flat reads cross a row boundary here
        z, prefix, out, z_first, out_first = self._prefix
        np.multiply(z, prefix, out=out)
        np.multiply(z_first, self._zero, out=out_first)
        out, suffix, out_last = self._suffix
        np.add(out, suffix, out=out)
        np.add(out_last, self._zero, out=out_last)
        return self._out


def neighbor_counts(draws, *, out=None, work=None) -> np.ndarray:
    """One plus the off-diagonal degree along the last axis: for 1-based i,
    N_i = 1 + (i-1) z_i + #(universal nodes after i), which are T - c_i for
    the inclusive cumsum c and total T.  Exact integers of the draws' dtype,
    integer or float.  ``out`` may be the draws themselves, and ``work``, of
    their shape, receives c."""
    z = np.asarray(draws)
    c = np.cumsum(z, axis=-1, dtype=z.dtype, out=work)
    counts = np.multiply(z, np.arange(z.shape[-1], dtype=z.dtype), out=out)
    counts += 1
    counts += c[..., -1:]
    counts -= c
    return counts


def build_graph(z) -> ThresholdGraph:
    """Graph for a creation sequence: node t added at step t, connected to
    all earlier nodes and itself when z_t = 1 and to nothing when z_t = 0.
    A CreationSequence is kept as it is; anything else is validated once."""
    return ThresholdGraph(z if isinstance(z, CreationSequence) else CreationSequence(tuple(z)))


@dataclass(frozen=True)
class WeightAssignment:
    """Node weights and threshold realizing a threshold graph.

    The edge rule is strict: (i, j) is an edge iff weights[i] + weights[j]
    exceeds the threshold, which is finite and positive; the weights are
    finite.  ``epsilons`` records the offsets used when the assignment was
    produced from a creation sequence.
    """

    weights: tuple[float, ...]
    threshold: float
    epsilons: tuple[float, ...] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(f"threshold must be finite and positive, got {self.threshold!r}")
        if len(self.weights) < 1:
            raise ValueError("need at least one node weight")
        weights = tuple(float(w) for w in self.weights)
        for i, w in enumerate(weights, start=1):
            if not math.isfinite(w):
                raise ValueError(f"weight {i} must be finite, got {w!r}")
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return len(self.weights)

    def edge_present(self, i: int, j: int) -> bool:
        """Whether 1-based nodes i and j are joined; each index must be an
        integer (numpy's included) in 1..n, else ValueError or IndexError."""
        i, j = check_node(self.n, i, "i")[1], check_node(self.n, j, "j")[1]
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
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    n = len(draws)
    eps = tuple((i + 1) * tau / (2.0 * (n + 1)) for i in range(n))
    weights = tuple(
        tau / 2.0 + eps[i] if draws[i] == 1 else tau / 2.0 - eps[i] for i in range(n)
    )
    return WeightAssignment(weights=weights, threshold=float(tau), epsilons=eps)
