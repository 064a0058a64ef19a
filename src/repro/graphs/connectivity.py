"""Connectivity, bipartiteness, and ergodicity predicates.

Theorem 4.3 of the paper: a random walk on a graph ``G`` is ergodic if
and only if ``G`` is connected and not bipartite.  The privacy theorems
assume ergodic graphs (Section 4.2); disconnected graphs are a parallel
composition of their components, so the library analyzes the largest
connected component, exactly as the paper does for Table 4.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.exceptions import NotErgodicError
from repro.graphs.graph import Graph
from repro.utils.mathutils import stable_argsort


def _component_labels(adjacency: sp.csr_matrix) -> Tuple[int, np.ndarray]:
    """``(count, labels)``; strong components of a symmetric CSR are the
    undirected ones, found without the transpose ``directed=False`` builds."""
    return csgraph.connected_components(adjacency, connection="strong")


def connected_components(graph: Graph) -> List[np.ndarray]:
    """Connected components as sorted arrays of node ids.

    Largest first, ties by smallest node, so the largest component is
    deterministic.  One stable argsort of the csgraph labels groups the
    nodes of every component at once.
    """
    count, labels = _component_labels(graph.adjacency_matrix())
    members = stable_argsort(labels)
    ends = np.cumsum(np.bincount(labels, minlength=count))
    components = np.split(members, ends)[:-1]
    components.sort(key=lambda component: (-component.size, component[0]))
    return components


def is_connected(graph: Graph) -> bool:
    """Whether the graph has exactly one connected component."""
    return graph.num_nodes > 0 and _component_labels(graph.adjacency_matrix())[0] == 1


def largest_connected_component(graph: Graph) -> Graph:
    """Induced subgraph on the largest connected component.

    Matches the paper's Table 4 convention: "the largest connected
    graphs are chosen when calculating the values of n and Gamma_G".
    """
    components = connected_components(graph)
    return graph.subgraph(components[0]) if components else graph


def is_bipartite(graph: Graph) -> bool:
    """2-colorability; vacuously true for edgeless graphs.

    A graph is bipartite iff its bipartite double cover
    ``[[0, A], [A, 0]]`` has twice as many components: an odd cycle
    joins the two copies of its component, an even one never does.
    """
    n, indptr, indices = graph.num_nodes, graph.indptr, graph.indices
    # Built as CSR directly: ``sp.bmat`` would stage a COO copy of 2m edges.
    cover = sp.csr_matrix(
        (
            np.ones(2 * indices.size),
            np.concatenate([indices + n, indices]),
            np.concatenate([indptr, indptr[1:] + indices.size]),
        ),
        shape=(2 * n, 2 * n),
    )
    count = _component_labels(graph.adjacency_matrix())[0]
    return _component_labels(cover)[0] == 2 * count


def is_ergodic(graph: Graph) -> bool:
    """Theorem 4.3: ergodic iff connected and not bipartite.

    An isolated node or an edgeless graph is not ergodic.
    """
    if graph.num_nodes == 0 or graph.num_edges == 0:
        return False
    return is_connected(graph) and not is_bipartite(graph)


def require_ergodic(graph: Graph) -> None:
    """Raise :class:`NotErgodicError` with a diagnostic if not ergodic."""
    if graph.num_nodes == 0 or graph.num_edges == 0:
        raise NotErgodicError("graph has no edges; the walk cannot mix")
    if not is_connected(graph):
        raise NotErgodicError(
            "graph is disconnected; analyze each connected component "
            "separately (parallel composition, Section 4.2)"
        )
    if is_bipartite(graph):
        raise NotErgodicError(
            "graph is bipartite; the walk oscillates between the two sides "
            "and never converges (Theorem 4.3) — consider a lazy walk"
        )
