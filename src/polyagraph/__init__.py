"""Urn-driven random threshold graphs.

A two-color reinforced urn drives a sequential graph construction: each draw
decides whether the new node connects to everything so far (and itself) or
to nothing.  The package covers the whole pipeline: samplers and exact
joint laws for the draw process (infinite and finite memory), the graphs and
their weight characterization, closed-form degree/distance/centrality laws,
the exact integer Laplacian spectrum with its deterministic eigenbasis, and
averaging-consensus dynamics with exact and Monte Carlo expected consensus
weights.  Every closed form is validated against brute-force enumeration;
see :mod:`polyagraph.oracle`.
"""

from .analytics import (
    CentralityConfig,
    DegreeDistribution,
    DistanceDistribution,
    degree_pmf,
    degree_support,
    degree_variance,
    distance_pmf,
    empirical_decay_centrality,
    expected_decay_centrality,
    expected_degree,
)
from .consensus import (
    ConsensusSystem,
    EnumerationLimitError,
    ExpectedStationary,
    SweepPoint,
    Trajectory,
    averaging_matrix,
    expected_stationary_exact,
    expected_stationary_mc,
    iterate,
    memory_sweep,
    opinion_preset,
    sample_connected_graph,
)
from .graph import (
    ThresholdGraph,
    WeightAssignment,
    build_graph,
    creation_sequence_from_weights,
    weights_from_sequence,
)
from .spectral import EigenpairReport, eigenbasis, laplacian, spectrum, verify_eigenpairs
from .urn import (
    CreationSequence,
    UrnParams,
    beta_binomial_pmf,
    polya_joint_pmf,
    sample_polya,
)

__version__ = "0.1.0"
