"""Graph generators for the topologies used in the paper's evaluation.

Key topologies:

* ``random_regular_graph`` — the k-regular graphs of the *symmetric
  distribution* scenario (Theorems 5.4/5.6, Figure 5);
* power-law style graphs (Barabasi-Albert, and the configuration-model
  based generators in :mod:`repro.datasets.synthetic`) as stand-ins for
  the social networks of Table 4;
* classical pedagogical graphs (cycle, complete, star, grid, path) used
  in tests — e.g. a cycle of even length is bipartite and therefore *not*
  ergodic (Theorem 4.3), which the ergodicity predicate must detect.

All generators take ``rng`` (seed / Generator / None) and never mutate
global RNG state.
"""

from __future__ import annotations

from itertools import chain

import networkx as nx
import numpy as np

from repro.exceptions import ValidationError
from repro.graphs.graph import Graph
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int, check_probability


def from_networkx(nx_graph) -> Graph:
    """Convert a :class:`networkx.Graph` to a :class:`Graph`.

    Node labels may be arbitrary hashables; they are relabeled to
    ``0 .. n-1`` in sorted-by-insertion order.
    """
    index = {node: position for position, node in enumerate(nx_graph.nodes())}
    endpoints = map(index.__getitem__, chain.from_iterable(nx_graph.edges()))
    edges = np.fromiter(endpoints, np.int64, 2 * nx_graph.number_of_edges()).reshape(-1, 2)
    return Graph(len(index), edges[edges[:, 0] != edges[:, 1]])


def _from_generated(nx_graph) -> Graph:
    """:func:`from_networkx` for a networkx graph built here, then freed.

    networkx caches its ``nodes``/``edges``/``degree`` views on the graph,
    and each view points back at it.  That reference cycle kept every
    generated graph (megabytes of dicts) alive until the next full
    garbage collection, often into the next graph build.  Dropping the
    attributes breaks the cycle, so reference counting frees it here.
    """
    graph = from_networkx(nx_graph)
    nx_graph.__dict__.clear()
    return graph


def complete_graph(num_nodes: int) -> Graph:
    """Complete graph ``K_n``: shuffling on it mixes in one step."""
    check_positive_int(num_nodes, "num_nodes")
    edges = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    return Graph(num_nodes, edges)


def cycle_graph(num_nodes: int) -> Graph:
    """Cycle ``C_n``.  Even cycles are bipartite (hence non-ergodic)."""
    check_positive_int(num_nodes, "num_nodes")
    if num_nodes < 3:
        raise ValidationError(f"cycle requires >= 3 nodes, got {num_nodes}")
    edges = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    return Graph(num_nodes, edges)


def path_graph(num_nodes: int) -> Graph:
    """Path ``P_n`` — bipartite, so non-ergodic; used in negative tests."""
    check_positive_int(num_nodes, "num_nodes")
    edges = [(i, i + 1) for i in range(num_nodes - 1)]
    return Graph(num_nodes, edges)


def star_graph(num_leaves: int) -> Graph:
    """Star with one hub and ``num_leaves`` leaves.

    The most irregular connected graph for its size: its stationary
    distribution puts probability 1/2 on the hub, making ``Gamma_G``
    large — a useful extreme case for the irregularity-dependent bounds.
    """
    check_positive_int(num_leaves, "num_leaves")
    edges = [(0, leaf) for leaf in range(1, num_leaves + 1)]
    return Graph(num_leaves + 1, edges)


def grid_graph(rows: int, cols: int, *, periodic: bool = False) -> Graph:
    """2-D grid (optionally a torus) — the wireless-sensor-network use case."""
    check_positive_int(rows, "rows")
    check_positive_int(cols, "cols")
    nodes = np.arange(rows * cols).reshape(rows, cols)
    pairs = [(nodes[:, :-1], nodes[:, 1:]), (nodes[:-1], nodes[1:])]
    if periodic and cols > 2:
        pairs.append((nodes[:, -1], nodes[:, 0]))
    if periodic and rows > 2:
        pairs.append((nodes[-1], nodes[0]))
    edges = np.concatenate([np.stack([u.ravel(), v.ravel()], axis=1) for u, v in pairs])
    return Graph(rows * cols, edges)


def random_regular_graph(degree: int, num_nodes: int, rng: RngLike = None) -> Graph:
    """Random ``k``-regular graph (the symmetric-distribution scenario).

    Delegates to networkx's pairing-model implementation, retrying with
    fresh randomness until a simple graph is produced.
    """
    check_positive_int(degree, "degree")
    check_positive_int(num_nodes, "num_nodes")
    if degree >= num_nodes:
        raise ValidationError(
            f"degree ({degree}) must be < num_nodes ({num_nodes})"
        )
    if (degree * num_nodes) % 2 != 0:
        raise ValidationError("degree * num_nodes must be even")
    generator = ensure_rng(rng)
    seed = int(generator.integers(0, 2**31 - 1))
    nx_graph = nx.random_regular_graph(degree, num_nodes, seed=seed)
    return _from_generated(nx_graph)


def erdos_renyi_graph(num_nodes: int, edge_probability: float, rng: RngLike = None) -> Graph:
    """Erdos-Renyi ``G(n, p)`` via fast sparse sampling."""
    check_positive_int(num_nodes, "num_nodes")
    check_probability(edge_probability, "edge_probability")
    generator = ensure_rng(rng)
    seed = int(generator.integers(0, 2**31 - 1))
    nx_graph = nx.fast_gnp_random_graph(num_nodes, edge_probability, seed=seed)
    return _from_generated(nx_graph)


def barabasi_albert_graph(num_nodes: int, attachment: int, rng: RngLike = None) -> Graph:
    """Barabasi-Albert preferential-attachment graph.

    Produces a heavy-tailed degree distribution similar to social
    networks; the Table 4 stand-ins use the finer-grained calibrated
    generator in :mod:`repro.datasets.synthetic`.
    """
    check_positive_int(num_nodes, "num_nodes")
    check_positive_int(attachment, "attachment")
    if attachment >= num_nodes:
        raise ValidationError(
            f"attachment ({attachment}) must be < num_nodes ({num_nodes})"
        )
    generator = ensure_rng(rng)
    seed = int(generator.integers(0, 2**31 - 1))
    nx_graph = nx.barabasi_albert_graph(num_nodes, attachment, seed=seed)
    return _from_generated(nx_graph)


def watts_strogatz_graph(
    num_nodes: int,
    nearest_neighbors: int,
    rewire_probability: float,
    rng: RngLike = None,
) -> Graph:
    """Watts-Strogatz small-world graph (connected variant)."""
    check_positive_int(num_nodes, "num_nodes")
    check_positive_int(nearest_neighbors, "nearest_neighbors")
    check_probability(rewire_probability, "rewire_probability")
    generator = ensure_rng(rng)
    seed = int(generator.integers(0, 2**31 - 1))
    nx_graph = nx.connected_watts_strogatz_graph(
        num_nodes, nearest_neighbors, rewire_probability, seed=seed
    )
    return _from_generated(nx_graph)
