import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyagraph import (
    ThresholdGraph,
    WeightAssignment,
    build_graph,
    creation_sequence_from_weights,
    weights_from_sequence,
)
from polyagraph.oracle import bfs_distances
from polyagraph.rng import stream

EXAMPLE_DRAWS = (1, 0, 0, 1, 0)


def all_vectors(n):
    return itertools.product((0, 1), repeat=n)


draw_vectors = st.lists(st.integers(0, 1), min_size=1, max_size=12).map(tuple)


# ---------------------------------------------------------------------------
# construction and structure

def test_example_graph_edges():
    g = build_graph(EXAMPLE_DRAWS)
    assert g.edge_set() == {(1, 1), (4, 1), (4, 2), (4, 3), (4, 4)}


def test_build_graph_validates_each_sequence_once(monkeypatch):
    from polyagraph import urn

    seq = urn.CreationSequence(EXAMPLE_DRAWS)
    assert build_graph(seq).sequence is seq
    checks = []
    real = urn.CreationSequence.__post_init__
    monkeypatch.setattr(urn.CreationSequence, "__post_init__", lambda self: checks.append(real(self)))
    assert build_graph(EXAMPLE_DRAWS).draws == EXAMPLE_DRAWS
    assert len(checks) == 1
    build_graph(seq)
    assert len(checks) == 1
    with pytest.raises(ValueError, match="draws must be 0 or 1, got 2"):
        build_graph((1, 0, 2, 3))
    with pytest.raises(ValueError, match="at least one draw"):
        build_graph(())


def test_all_isolated_graph_is_empty():
    assert build_graph((0, 0, 0)).edge_set() == frozenset()


def test_adjacency_entries():
    g = build_graph(EXAMPLE_DRAWS)
    A = g.adjacency()
    assert A[1, 2] == 0  # a_23 = z_3
    assert A[0, 3] == 1  # a_14 = z_4
    for i in range(5):
        for j in range(5):
            assert A[i, j] == EXAMPLE_DRAWS[max(i, j)]


@settings(max_examples=60, deadline=None)
@given(z=draw_vectors)
def test_adjacency_symmetric(z):
    A = build_graph(z).adjacency()
    assert np.array_equal(A, A.T)


@settings(max_examples=60, deadline=None)
@given(z=draw_vectors)
def test_degree_equals_adjacency_row_sum(z):
    g = build_graph(z)
    row_sums = g.adjacency().sum(axis=1)
    assert np.array_equal(g.degrees(), row_sums)


def test_degree_examples():
    g = build_graph(EXAMPLE_DRAWS)
    assert g.degree(4) == 4
    assert g.degree(5) == 0
    assert g.degree(1) == 2
    with pytest.raises(IndexError):
        g.degree(0)
    with pytest.raises(IndexError):
        g.degree(6)


def test_trace_counts_universal_nodes():
    assert build_graph(EXAMPLE_DRAWS).trace() == 2
    assert build_graph((0, 0, 0)).trace() == 0
    assert build_graph((1, 1, 1, 1)).trace() == 4


# ---------------------------------------------------------------------------
# distances

def test_distance_examples():
    g = build_graph(EXAMPLE_DRAWS)
    assert g.distance(2, 3) == 2.0  # node 4 bridges
    assert g.distance(5, 1) == math.inf
    assert g.distance(1, 1) == 0.0
    assert g.distance(3, 3) == math.inf
    assert g.distance(4, 2) == 1.0
    with pytest.raises(IndexError):
        g.distance(1, 6)


def test_node_methods_follow_the_integer_rule():
    # True used to answer for node 1, and a float index failed inside a tuple
    g = build_graph((1, 0, 1))
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match="i must be an integer"):
            g.degree(bad)
        with pytest.raises(ValueError, match="i must be an integer"):
            g.has_self_loop(bad)
        with pytest.raises(ValueError, match="i must be an integer"):
            g.distance(bad, 2)
        with pytest.raises(ValueError, match="j must be an integer"):
            g.distance(2, bad)
    assert g.distance(np.int64(1), np.int32(2)) == g.distance(1, 2)
    assert g.degree(np.int64(3)) == g.degree(3) and g.has_self_loop(np.int8(1))
    with pytest.raises(IndexError, match=r"node index 4 out of range 1\.\.3"):
        g.degree(np.int64(4))


def test_distance_rule_equals_bfs_exhaustively():
    # every realization up to n = 10, every ordered pair
    for n in range(1, 11):
        for z in all_vectors(n):
            g = build_graph(z)
            for i in range(1, n + 1):
                bfs = bfs_distances(z, i)
                for j in range(1, n + 1):
                    assert g.distance(i, j) == bfs[j - 1], (z, i, j)


def test_degrees_and_distances_equal_bfs_on_random_sequences():
    # the degree kernel behind degrees() and distance, past the exhaustive sizes
    rng = stream(100)
    for _ in range(40):
        n = int(rng.integers(11, 40))
        z = tuple(int(b) for b in rng.integers(0, 2, size=n))
        g = build_graph(z)
        assert np.array_equal(g.degrees(), g.adjacency().sum(axis=1))
        for i in range(1, n + 1):
            bfs = bfs_distances(z, i)
            assert [g.distance(i, j) for j in range(1, n + 1)] == list(bfs), (z, i)


def test_connected_when_last_node_universal():
    rng = stream(99)
    for _ in range(100):
        n = int(rng.integers(1, 15))
        z = tuple(int(b) for b in rng.integers(0, 2, size=n - 1)) + (1,)
        g = build_graph(z)
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                if i != j:
                    assert g.distance(i, j) <= 2.0


# ---------------------------------------------------------------------------
# weight characterization

def test_forward_algorithm_reference_example():
    w = WeightAssignment(weights=(0.6, 0.8, 0.4, 0.4, 0.1), threshold=1.0)
    seq, relabeling = creation_sequence_from_weights(w)
    assert seq.draws == (1, 0, 0, 1, 0)
    # relabeled creation graph reproduces the weight-induced edges exactly
    g = build_graph(seq)
    relabeled = {
        (max(relabeling[u - 1], relabeling[v - 1]), min(relabeling[u - 1], relabeling[v - 1]))
        for (u, v) in g.edge_set()
    }
    assert relabeled == w.edge_set()
    assert w.edge_set() == {(2, 1), (2, 2), (1, 1), (3, 2), (4, 2)}


def test_forward_algorithm_single_node():
    seq, _ = creation_sequence_from_weights(WeightAssignment((0.6,), 1.0))
    assert seq.draws == (1,)  # 1.2 > 1
    seq, _ = creation_sequence_from_weights(WeightAssignment((0.4,), 1.0))
    assert seq.draws == (0,)  # 0.8 <= 1


def test_equality_with_threshold_means_no_edge():
    # strict inequality: weights summing exactly to tau give no edge
    w = WeightAssignment(weights=(0.5, 0.5), threshold=1.0)
    assert w.edge_set() == frozenset()
    seq, _ = creation_sequence_from_weights(w)
    assert build_graph(seq).edge_set() == frozenset()


def test_weights_from_sequence_basics():
    w = weights_from_sequence((1,), 1.0)
    assert w.weights[0] > 0.5
    assert w.edge_set() == {(1, 1)}
    w = weights_from_sequence((0, 0), 1.0)
    assert all(wt < 0.5 for wt in w.weights)
    assert w.edge_set() == frozenset()
    with pytest.raises(ValueError):
        weights_from_sequence((1, 0), 0.0)


def test_edge_present_checks_its_indices():
    # index 0 used to read the last weight, True passed as node 1 and n + 1
    # raised a bare IndexError of the weight tuple
    w = WeightAssignment((0.2, 0.9), 1.0)
    for bad in (True, 1.0, np.float64(2.0)):
        with pytest.raises(ValueError, match=re.escape(f"i must be an integer, got {bad!r}")):
            w.edge_present(bad, 2)
        with pytest.raises(ValueError, match=re.escape(f"j must be an integer, got {bad!r}")):
            w.edge_present(2, bad)
    for bad in (0, 3, -1):
        with pytest.raises(IndexError, match=f"node index {bad} out of range 1..2"):
            w.edge_present(bad, 1)
        with pytest.raises(IndexError, match=f"node index {bad} out of range 1..2"):
            w.edge_present(1, bad)
    assert w.edge_present(np.int64(1), np.int32(2)) and not w.edge_present(np.uint8(1), 1)
    assert w.edge_set() == {(2, 1), (2, 2)}


def test_weights_and_thresholds_must_be_finite():
    # an infinite tau used to give weights (inf, nan, inf) and no edges, and
    # a NaN weight silently answered edge queries
    for tau in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match=f"tau must be finite and positive, got {tau!r}"):
            weights_from_sequence((1, 0, 1), tau)
    for threshold in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match=f"threshold must be finite and positive, got {threshold!r}"):
            WeightAssignment((0.2, 1.0), threshold)
    for weight in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"weight 1 must be finite, got {weight!r}"):
            WeightAssignment((weight, 1.0), 1.0)
        with pytest.raises(ValueError, match=f"weight 3 must be finite, got {weight!r}"):
            WeightAssignment((0.5, 1.0, weight), 1.0)


def test_epsilon_ladder_strictly_increasing():
    w = weights_from_sequence((1, 0, 1, 1, 0, 0), 2.0)
    eps = w.epsilons
    assert all(0 < a < 1.0 for a in eps)  # below tau/2
    assert all(a < b for a, b in zip(eps, eps[1:]))


def test_weight_round_trip_random():
    # 500 random sequences with n <= 20: induced edges == creation edges,
    # and re-extracting a sequence from those weights reproduces the graph
    rng = stream(314159)
    for _ in range(500):
        n = int(rng.integers(1, 21))
        z = tuple(int(b) for b in rng.integers(0, 2, size=n))
        g = build_graph(z)
        w = weights_from_sequence(z, tau=float(rng.uniform(0.5, 4.0)))
        assert w.edge_set() == g.edge_set()
        seq, relabeling = creation_sequence_from_weights(w)
        h = build_graph(seq)
        relabeled = {
            (max(relabeling[u - 1], relabeling[v - 1]), min(relabeling[u - 1], relabeling[v - 1]))
            for (u, v) in h.edge_set()
        }
        assert relabeled == g.edge_set()


@settings(max_examples=60, deadline=None)
@given(z=draw_vectors)
def test_weight_round_trip_property(z):
    # with the canonical epsilon ladder, node t is always the extreme removed
    # at step t, so the recovered sequence and labels coincide outright
    w = weights_from_sequence(z, 1.0)
    seq, relabeling = creation_sequence_from_weights(w)
    assert seq.draws == z
    assert relabeling == tuple(range(1, len(z) + 1))
    assert build_graph(seq).edge_set() == build_graph(z).edge_set()
