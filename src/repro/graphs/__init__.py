"""Graph substrate: representation, generators, spectra, and random walks.

The paper models network shuffling as a random walk on an undirected
communication graph (Section 4.1).  This package provides:

* :class:`~repro.graphs.graph.Graph` — an immutable CSR-backed undirected
  graph with degree/neighbor accessors;
* generators for the standard topologies used in the evaluation
  (:mod:`repro.graphs.generators`);
* connectivity / bipartiteness / ergodicity predicates
  (:mod:`repro.graphs.connectivity`);
* spectral machinery — transition matrix, spectral gap, mixing time
  (:mod:`repro.graphs.spectral`);
* the random-walk engine — exact distribution evolution and Monte-Carlo
  token walks (:mod:`repro.graphs.walks`);
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
    mixing_time,
    normalized_adjacency_eigenvalues,
    spectral_gap,
    spectral_summary,
    stationary_distribution,
    transition_matrix,
)
from repro.graphs.walks import (
    WalkTrace,
    evolve_distribution,
    lazy_transition_matrix,
    position_distribution,
    simulate_token_walks,
    sum_squared_positions,
    total_variation_to_stationary,
)
from repro.graphs.dynamic import (
    DynamicGraphSchedule,
    evolve_on_schedule,
    position_distribution_on_schedule,
    simulate_tokens_on_schedule,
    simulate_trial_walks_on_schedule,
    trace_collision_on_schedule,
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
    "mixing_time",
    "normalized_adjacency_eigenvalues",
    "spectral_gap",
    "spectral_summary",
    "stationary_distribution",
    "transition_matrix",
    "WalkTrace",
    "evolve_distribution",
    "lazy_transition_matrix",
    "position_distribution",
    "simulate_token_walks",
    "sum_squared_positions",
    "total_variation_to_stationary",
    "DynamicGraphSchedule",
    "evolve_on_schedule",
    "position_distribution_on_schedule",
    "simulate_tokens_on_schedule",
    "simulate_trial_walks_on_schedule",
    "trace_collision_on_schedule",
    "degree_statistics",
    "irregularity_gamma",
    "stationary_collision_probability",
]
