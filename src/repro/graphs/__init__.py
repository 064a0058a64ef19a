"""Graph substrate: representation, generators, spectra, and random walks.

The paper models network shuffling as a random walk on an undirected
communication graph (Section 4.1).  This package provides:

* :class:`~repro.graphs.graph.Graph` — an immutable CSR-backed undirected
  graph with degree/neighbor accessors;
* generators for the standard topologies used in the evaluation
  (:mod:`repro.graphs.generators`);
* connectivity / bipartiteness / ergodicity predicates
  (:mod:`repro.graphs.connectivity`);
* spectral machinery — transition matrix (plain and lazy), spectral
  gap, mixing time (:mod:`repro.graphs.spectral`);
* time-varying topologies — :class:`~repro.graphs.dynamic.DynamicGraphSchedule`
  (:mod:`repro.graphs.dynamic`);
* the random-walk engine — exact distribution evolution and Monte-Carlo
  token walks, one function per operation for a static graph or a
  schedule alike (:mod:`repro.graphs.walks`);
* graph metrics such as the irregularity measure ``Gamma_G``
  (:mod:`repro.graphs.metrics`).
"""

from repro.graphs.graph import Graph
from repro.graphs.connectivity import (
    connected_components,
    is_bipartite,
    is_connected,
    is_ergodic,
    largest_connected_component,
    require_ergodic,
)
from repro.graphs.generators import (
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    from_networkx,
    grid_graph,
    path_graph,
    random_regular_graph,
    star_graph,
    watts_strogatz_graph,
)
from repro.graphs.spectral import (
    SpectralSummary,
    lazy_transition_matrix,
    mixing_time,
    normalized_adjacency_eigenvalues,
    spectral_gap,
    spectral_summary,
    stationary_distribution,
    transition_matrix,
)
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.walks import (
    evolve_distribution,
    position_distribution,
    simulate_token_walks,
    simulate_trial_walks,
    sum_squared_positions,
    total_variation_to_stationary,
)
from repro.graphs.metrics import (
    degree_statistics,
    irregularity_gamma,
    stationary_collision_probability,
)

__all__ = [
    "Graph",
    "connected_components",
    "is_bipartite",
    "is_connected",
    "is_ergodic",
    "largest_connected_component",
    "require_ergodic",
    "barabasi_albert_graph",
    "complete_graph",
    "cycle_graph",
    "erdos_renyi_graph",
    "from_networkx",
    "grid_graph",
    "path_graph",
    "random_regular_graph",
    "star_graph",
    "watts_strogatz_graph",
    "SpectralSummary",
    "lazy_transition_matrix",
    "mixing_time",
    "normalized_adjacency_eigenvalues",
    "spectral_gap",
    "spectral_summary",
    "stationary_distribution",
    "transition_matrix",
    "DynamicGraphSchedule",
    "evolve_distribution",
    "position_distribution",
    "simulate_token_walks",
    "simulate_trial_walks",
    "sum_squared_positions",
    "total_variation_to_stationary",
    "degree_statistics",
    "irregularity_gamma",
    "stationary_collision_probability",
]
