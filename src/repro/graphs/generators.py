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

The four random generators are stream-exact ports of networkx 3.x's
``random_regular_graph``, ``fast_gnp_random_graph``,
``barabasi_albert_graph`` and ``connected_watts_strogatz_graph``
(networkx is BSD-3-licensed, Copyright (C) 2004-2024 NetworkX
Developers).  Each draws one seed from ``rng``, seeds a
:class:`random.Random` with it exactly as networkx does for an integer
``seed``, and makes the same ``shuffle``/``random``/``choice`` calls in
the same order, so a seeded graph here is edge-for-edge the graph
``from_networkx(nx.<generator>(..., seed=seed))`` gives — without
building a networkx graph.  networkx is not a runtime dependency:
:func:`from_networkx` and :meth:`Graph.to_networkx` are interop helpers,
and the tests use networkx as the oracle for the ports.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from itertools import chain

import numpy as np

from repro.exceptions import GraphError, ValidationError
from repro.graphs.connectivity import is_connected
from repro.graphs.graph import Graph
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int, check_probability

#: Graphs :func:`watts_strogatz_graph` draws before giving up on a
#: connected one (networkx's ``tries`` default).
WATTS_STROGATZ_TRIES = 100


def from_networkx(nx_graph) -> Graph:
    """Convert a :class:`networkx.Graph` to a :class:`Graph`.

    Node labels may be arbitrary hashables; they are relabeled to
    ``0 .. n-1`` in sorted-by-insertion order.
    """
    index = {node: position for position, node in enumerate(nx_graph.nodes())}
    endpoints = map(index.__getitem__, chain.from_iterable(nx_graph.edges()))
    edges = np.fromiter(endpoints, np.int64, 2 * nx_graph.number_of_edges()).reshape(-1, 2)
    return Graph(len(index), edges[edges[:, 0] != edges[:, 1]])


def _python_random(rng: RngLike) -> random.Random:
    """The :class:`random.Random` networkx would use for the seed drawn
    from ``rng`` (one ``integers(0, 2**31 - 1)`` draw)."""
    return random.Random(int(ensure_rng(rng).integers(0, 2**31 - 1)))


def _from_keys(num_nodes: int, keys) -> Graph:
    """The graph whose edges are the keys ``u * num_nodes + v``."""
    heads, tails = np.divmod(np.fromiter(keys, np.int64, len(keys)), num_nodes)
    return Graph(num_nodes, np.stack([heads, tails], axis=1))


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

    A port of networkx's ``random_regular_graph``: Steger & Wormald's
    pairing algorithm ("Generating random regular graphs quickly",
    1999).  Each pass shuffles the open stubs and pairs them off; pairs
    that would make a self-loop or a parallel edge go back as stubs for
    the next pass, and an attempt left with no suitable pair starts over.
    """
    check_positive_int(degree, "degree")
    check_positive_int(num_nodes, "num_nodes")
    if degree >= num_nodes:
        raise ValidationError(
            f"degree ({degree}) must be < num_nodes ({num_nodes})"
        )
    if (degree * num_nodes) % 2 != 0:
        raise ValidationError("degree * num_nodes must be even")
    stream = _python_random(rng)
    edges = _try_pairing(degree, num_nodes, stream)
    while edges is None:
        edges = _try_pairing(degree, num_nodes, stream)
    return _from_keys(num_nodes, edges)


def _try_pairing(degree: int, num_nodes: int, stream: random.Random):
    """One attempt: the edge set as ``s1 * n + s2`` keys (``s1 < s2``),
    or ``None`` when the open stubs admit no new edge."""
    n = num_nodes
    edges = set()
    stubs = list(range(n)) * degree
    while stubs:
        potential_edges = defaultdict(int)
        stream.shuffle(stubs)
        stubiter = iter(stubs)
        for s1, s2 in zip(stubiter, stubiter):
            if s1 > s2:
                s1, s2 = s2, s1
            key = s1 * n + s2
            if s1 != s2 and key not in edges:
                edges.add(key)
            else:
                potential_edges[s1] += 1
                potential_edges[s2] += 1
        if not _suitable(edges, potential_edges, n):
            return None
        stubs = [
            node
            for node, potential in potential_edges.items()
            for _ in range(potential)
        ]
    return edges


def _suitable(edges, potential_edges, n: int) -> bool:
    """Whether some pair of open stubs can still become a new edge.

    Kept as networkx writes it: the swap rebinds the outer ``s1`` too,
    which changes which pairs the inner loop reaches — and so when an
    attempt is abandoned, and so the graph a seed gives.
    """
    if not potential_edges:
        return True
    for s1 in potential_edges:
        for s2 in potential_edges:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 * n + s2 not in edges:
                return True
    return False


def erdos_renyi_graph(num_nodes: int, edge_probability: float, rng: RngLike = None) -> Graph:
    """Erdos-Renyi ``G(n, p)``.

    A port of networkx's ``fast_gnp_random_graph``: geometric skipping
    over the pairs ``w < v`` (Batagelj & Brandes, "Efficient generation
    of large random networks", 2005), one ``random()`` per edge drawn.
    ``p == 0`` gives the empty graph and ``p == 1`` the complete one,
    neither drawing a random number.
    """
    check_positive_int(num_nodes, "num_nodes")
    p = check_probability(edge_probability, "edge_probability")
    stream = _python_random(rng)
    n = num_nodes
    if p >= 1:
        return complete_graph(n)
    keys = []
    if p > 0:
        lp = math.log(1.0 - p)
        v, w = 1, -1
        while v < n:
            lr = math.log(1.0 - stream.random())
            w = w + 1 + int(lr / lp)
            while w >= v and v < n:
                w = w - v
                v = v + 1
            if v < n:
                keys.append(v * n + w)
    return _from_keys(n, keys)


def barabasi_albert_graph(num_nodes: int, attachment: int, rng: RngLike = None) -> Graph:
    """Barabasi-Albert preferential-attachment graph.

    Produces a heavy-tailed degree distribution similar to social
    networks; the Table 4 stand-ins use the finer-grained calibrated
    generator in :mod:`repro.datasets.synthetic`.

    A port of networkx's ``barabasi_albert_graph``: start from the star
    on ``m + 1`` nodes, then join each new node to ``m`` distinct nodes
    drawn from the list holding every node once per incident edge.
    """
    check_positive_int(num_nodes, "num_nodes")
    check_positive_int(attachment, "attachment")
    m = attachment
    if m >= num_nodes:
        raise ValidationError(
            f"attachment ({m}) must be < num_nodes ({num_nodes})"
        )
    stream = _python_random(rng)
    # The star's edges (0, i) as a block [0] * m + [1 .. m]; every later
    # block is a node's m targets followed by m copies of the node, so
    # the list read as (n - m, 2, m) blocks pairs up every edge.
    repeated_nodes = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, num_nodes):
        targets = _random_subset(repeated_nodes, m, stream)
        repeated_nodes.extend(targets)
        repeated_nodes.extend([source] * m)
    blocks = np.asarray(repeated_nodes, dtype=np.int64).reshape(-1, 2, m)
    return Graph(num_nodes, np.stack([blocks[:, 0].ravel(), blocks[:, 1].ravel()], axis=1))


def _random_subset(seq, m: int, stream: random.Random) -> set:
    """``m`` distinct elements of ``seq`` by repeated ``choice``.

    A ``set`` on purpose: the caller extends its list in the set's
    iteration order, which the later draws depend on.
    """
    targets = set()
    while len(targets) < m:
        targets.add(stream.choice(seq))
    return targets


def watts_strogatz_graph(
    num_nodes: int,
    nearest_neighbors: int,
    rewire_probability: float,
    rng: RngLike = None,
) -> Graph:
    """Watts-Strogatz small-world graph (connected variant).

    A port of networkx's ``connected_watts_strogatz_graph``: draw ring
    lattices with rewired edges from one stream until one is connected,
    at most :data:`WATTS_STROGATZ_TRIES` times.  ``nearest_neighbors ==
    num_nodes`` gives the complete graph.

    Raises
    ------
    ValidationError
        If ``nearest_neighbors`` exceeds ``num_nodes`` or is below 2 (a
        ring with no edges never connects).
    GraphError
        If no draw is connected.
    """
    check_positive_int(num_nodes, "num_nodes")
    check_positive_int(nearest_neighbors, "nearest_neighbors")
    p = check_probability(rewire_probability, "rewire_probability")
    n, k = num_nodes, nearest_neighbors
    if k > n:
        raise ValidationError(
            f"nearest_neighbors ({k}) must be <= num_nodes ({n})"
        )
    if k < 2:
        raise ValidationError(
            f"nearest_neighbors must be >= 2 for a connected ring, got {k}"
        )
    stream = _python_random(rng)
    for _ in range(WATTS_STROGATZ_TRIES):
        graph = _watts_strogatz(n, k, p, stream)
        if is_connected(graph):
            return graph
    raise GraphError(
        f"no connected Watts-Strogatz graph in {WATTS_STROGATZ_TRIES} tries "
        f"(num_nodes={n}, nearest_neighbors={k}, rewire_probability={p})"
    )


def _watts_strogatz(n: int, k: int, p: float, stream: random.Random) -> Graph:
    """One draw of networkx's ``watts_strogatz_graph``: join each node
    to its ``k // 2`` clockwise neighbours, then rewire each lattice
    edge ``(u, v)`` to ``(u, w)`` with probability ``p``, distance by
    distance and node by node, never making a self-loop or a parallel
    edge."""
    if k == n:
        return complete_graph(n)
    nodes = list(range(n))
    neighbors = [set() for _ in nodes]
    for j in range(1, k // 2 + 1):
        for u in nodes:
            v = (u + j) % n
            neighbors[u].add(v)
            neighbors[v].add(u)
    for j in range(1, k // 2 + 1):
        for u in nodes:
            if stream.random() < p:
                adjacent = neighbors[u]
                w = stream.choice(nodes)
                while w == u or w in adjacent:
                    w = stream.choice(nodes)
                    if len(adjacent) >= n - 1:
                        break  # u already neighbours everyone: skip
                else:
                    v = (u + j) % n
                    adjacent.remove(v)
                    neighbors[v].remove(u)
                    adjacent.add(w)
                    neighbors[w].add(u)
    degrees = np.fromiter(map(len, neighbors), np.int64, n)
    heads = np.repeat(np.arange(n, dtype=np.int64), degrees)
    tails = np.fromiter(chain.from_iterable(neighbors), np.int64, heads.size)
    return Graph(n, np.stack([heads, tails], axis=1))
