"""Graphs and schedules as flat dicts of NumPy arrays.

The encoding of the graph cache's disk tier
(:mod:`repro.scenario.artifacts` writes and reads the files): a
materialized graph round-trips exactly (same CSR layout, hence the same
hop draws under the exchange engine's RNG contract) without re-running
the generator.  A :class:`DynamicGraphSchedule` stores its phase CSRs
side by side plus its selector spec — round-robin (the
``selector=None`` default) or an :class:`EpochSelector` (two integers).
"""

from __future__ import annotations

from typing import Dict, Mapping, Union

import numpy as np

from repro.exceptions import ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule, EpochSelector
from repro.graphs.graph import Graph


def to_arrays(
    graph: Union[Graph, DynamicGraphSchedule]
) -> Dict[str, np.ndarray]:
    """The arrays :func:`from_arrays` rebuilds ``graph`` from.

    A schedule with a custom selector callable has no declarative form
    and is refused: switch it to ``EpochSelector`` or keep the sweep on
    fork workers (which inherit the object).
    """
    if isinstance(graph, Graph):
        return {
            "num_nodes": np.int64(graph.num_nodes),
            "indptr": graph.indptr,
            "indices": graph.indices,
        }
    if not isinstance(graph, DynamicGraphSchedule):
        raise ValidationError(
            f"expected a Graph or DynamicGraphSchedule, got "
            f"{type(graph).__name__}"
        )
    selector = graph.selector
    arrays: Dict[str, np.ndarray] = {
        "num_nodes": np.int64(graph.num_nodes),
        "num_graphs": np.int64(graph.num_graphs),
    }
    if selector is None:
        arrays["selector_kind"] = np.array("round_robin")
    elif isinstance(selector, EpochSelector):
        arrays["selector_kind"] = np.array("epoch")
        arrays["selector_block"] = np.int64(selector.block)
        arrays["selector_count"] = np.int64(selector.count)
    else:
        raise ValidationError(
            "cannot serialize a schedule with a custom selector "
            f"callable ({type(selector).__name__}); use the default "
            "round-robin or an EpochSelector"
        )
    for index, phase in enumerate(graph.graphs):
        arrays[f"graph{index}_indptr"] = phase.indptr
        arrays[f"graph{index}_indices"] = phase.indices
    return arrays


def _csr(num_nodes: int, indptr, indices) -> Graph:
    return Graph.from_csr(
        num_nodes,
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.int64),
    )


def from_arrays(
    arrays: Mapping[str, np.ndarray]
) -> Union[Graph, DynamicGraphSchedule]:
    """Inverse of :func:`to_arrays` (``KeyError`` on foreign arrays)."""
    num_nodes = int(arrays["num_nodes"])
    if "num_graphs" not in arrays:
        return _csr(num_nodes, arrays["indptr"], arrays["indices"])
    graphs = [
        _csr(num_nodes, arrays[f"graph{i}_indptr"], arrays[f"graph{i}_indices"])
        for i in range(int(arrays["num_graphs"]))
    ]
    selector_kind = str(arrays["selector_kind"])
    if selector_kind == "epoch":
        selector = EpochSelector(
            block=int(arrays["selector_block"]),
            count=int(arrays["selector_count"]),
        )
    elif selector_kind == "round_robin":
        selector = None
    else:
        raise ValidationError(f"unknown selector kind {selector_kind!r}")
    return DynamicGraphSchedule(graphs, selector)
