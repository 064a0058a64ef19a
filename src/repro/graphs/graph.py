"""Immutable undirected graph backed by a CSR adjacency structure.

The representation is a flat ``indptr``/``indices`` pair (the classic
compressed-sparse-row layout) which makes the hot operations of this
library cheap:

* ``neighbors(i)`` is a zero-copy slice;
* vectorized "sample one random neighbor for every token" used by the
  walk engine is a couple of NumPy gathers;
* conversion to :class:`scipy.sparse.csr_matrix` for spectral analysis
  is free.

Self-loops are rejected (a user does not relay a report to herself in the
basic protocol; laziness is modeled explicitly by
:func:`repro.graphs.spectral.lazy_transition_matrix`).  Parallel edges are
collapsed.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError, ValidationError


class Graph:
    """An undirected, unweighted graph on nodes ``0 .. n-1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``; nodes are the integers ``0 .. n-1``.
    edges:
        An ``(m, 2)`` integer array, used as is, or any iterable of
        ``(u, v)`` integer pairs with ``u != v``.  Order, orientation and
        duplicates are ignored.

    Notes
    -----
    The constructor is the one place where edges become the canonical
    CSR (every generator and builder hands it an edge array).
    Instances are immutable: all mutating operations return new graphs.
    """

    __slots__ = ("_num_nodes", "_indptr", "_indices", "_num_edges")

    def __init__(self, num_nodes: int, edges: Iterable[Tuple[int, int]]):
        if num_nodes < 0:
            raise ValidationError(f"num_nodes must be non-negative, got {num_nodes}")
        n = self._num_nodes = int(num_nodes)

        edge_array = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if edge_array.size == 0:
            edge_array = np.empty((0, 2), dtype=np.int64)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise ValidationError("edges must be an iterable of (u, v) pairs")
        if not np.issubdtype(edge_array.dtype, np.integer):
            raise ValidationError(
                f"edge endpoints must be integers, got dtype {edge_array.dtype}"
            )
        edge_array = edge_array.astype(np.int64, copy=False)
        if edge_array.size:
            if edge_array.min() < 0 or edge_array.max() >= n:
                raise ValidationError(
                    "edge endpoints must lie in [0, num_nodes); "
                    f"got range [{edge_array.min()}, {edge_array.max()}] "
                    f"with num_nodes={n}"
                )
            if np.any(edge_array[:, 0] == edge_array[:, 1]):
                raise ValidationError("self-loops are not allowed")

        # Canonicalize: each edge contributes both orientations as one
        # int64 key ``head * n + tail``; one sort orders them exactly as
        # the CSR does, and an adjacent-difference mask drops duplicates.
        heads, tails = edge_array[:, 0], edge_array[:, 1]
        keys = np.concatenate([heads * n + tails, tails * n + heads])
        keys.sort()
        heads, self._indices = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
        self._num_edges = int(self._indices.size // 2)
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=n), out=self._indptr[1:])

    # ------------------------------------------------------------------
    # Alternate constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, num_nodes: int, indptr: np.ndarray, indices: np.ndarray) -> "Graph":
        """Wrap an already canonical CSR structure without re-checking it.

        Only for trusted spills encoded by :mod:`repro.graphs.io` from a
        :class:`Graph`; everything else builds through the constructor.
        """
        graph = cls.__new__(cls)
        graph._num_nodes = int(num_nodes)
        graph._indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        graph._indices = np.ascontiguousarray(indices, dtype=np.int64)
        graph._num_edges = int(indices.size // 2)
        return graph

    @classmethod
    def from_edge_list(cls, edges: Sequence[Tuple[int, int]]) -> "Graph":
        """Build a graph whose node count is ``max endpoint + 1``."""
        edge_list = list(edges)
        num_nodes = 1 + max((max(u, v) for u, v in edge_list), default=-1)
        return cls(num_nodes, edge_list)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._num_edges

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array (read-only view)."""
        view = self._indptr.view()
        view.flags.writeable = False
        return view

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array (read-only view)."""
        view = self._indices.view()
        view.flags.writeable = False
        return view

    def degrees(self) -> np.ndarray:
        """Degree vector ``k`` of all nodes."""
        return np.diff(self._indptr)

    def degree(self, node: int) -> int:
        """Degree of a single node."""
        self._check_node(node)
        return int(self._indptr[node + 1] - self._indptr[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor array of ``node`` (zero-copy slice)."""
        self._check_node(node)
        return self._indices[self._indptr[node]: self._indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        self._check_node(u)
        self._check_node(v)
        row = self.neighbors(u)
        position = np.searchsorted(row, v)
        return bool(position < row.size and row[position] == v)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate undirected edges as ``(u, v)`` with ``u < v``."""
        heads, tails = self._upper_halves()
        return zip(heads.tolist(), tails.tolist())

    def is_regular(self) -> bool:
        """Whether every node has the same degree (``k``-regular graph)."""
        if self._num_nodes == 0:
            return True
        degrees = self.degrees()
        return bool(np.all(degrees == degrees[0]))

    # ------------------------------------------------------------------
    # Conversions & derived graphs
    # ------------------------------------------------------------------
    def adjacency_matrix(self) -> sp.csr_matrix:
        """The ``n x n`` sparse 0/1 adjacency matrix ``A``."""
        data = np.ones(self._indices.size, dtype=np.float64)
        return sp.csr_matrix(
            (data, self._indices, self._indptr),
            shape=(self._num_nodes, self._num_nodes),
        )

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (for interop/debugging)."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(self._num_nodes))
        nx_graph.add_edges_from(self.edges())
        return nx_graph

    def subgraph(self, nodes: Sequence[int]) -> "Graph":
        """Induced subgraph on ``nodes``, relabeled to ``0 .. len(nodes)-1``.

        The relabeling follows the order of ``nodes``.
        """
        node_array = np.asarray(nodes, dtype=np.int64)
        if np.any((node_array < 0) | (node_array >= self._num_nodes)):
            raise ValidationError(f"subgraph nodes must lie in [0, {self._num_nodes})")
        if node_array.size != np.unique(node_array).size:
            raise ValidationError("subgraph nodes must be distinct")
        mapping = np.full(self._num_nodes, -1, dtype=np.int64)
        mapping[node_array] = np.arange(node_array.size)
        heads, tails = (mapping[half] for half in self._upper_halves())
        inside = (heads >= 0) & (tails >= 0)
        return Graph(node_array.size, np.stack([heads[inside], tails[inside]], axis=1))

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._num_nodes == other._num_nodes
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash((self._num_nodes, self._indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self._num_nodes}, num_edges={self._num_edges})"

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------
    def _upper_halves(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(heads, tails)`` of every edge once, ``head < tail``, in CSR order."""
        heads = np.repeat(np.arange(self._num_nodes), np.diff(self._indptr))
        upper = heads < self._indices
        return heads[upper], self._indices[upper]

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise GraphError(
                f"node {node} out of range for graph with {self._num_nodes} nodes"
            )
