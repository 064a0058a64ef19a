"""Community-structured stand-ins: matching the paper's *mixing speed*.

Pure configuration-model graphs are expanders: our Table 4 stand-ins
match the published ``(n, Gamma_G)`` but mix in tens of rounds
(``alpha ~ 0.2``), while the paper reports ``alpha ~ 1e-2`` and mixing
times around ``1e3`` for the real social graphs — real networks have
*community structure* that slows the walk down.

This module adds that missing ingredient: a degree-preserving planted
partition.  Nodes are split into ``num_communities`` blocks; each
node's stubs are wired inside its own block except for an
``inter_fraction`` share wired across blocks.  Degrees (hence
``Gamma_G``) are essentially unchanged, while the spectral gap shrinks
roughly linearly with ``inter_fraction`` — tune it to land on the
paper's gap.  The ablation bench measures exactly that trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.calibration import calibrate_shape, pareto_degree_sequence
from repro.datasets.registry import get_dataset
from repro.exceptions import ValidationError
from repro.graphs.connectivity import largest_connected_component
from repro.graphs.graph import Graph
from repro.graphs.metrics import irregularity_gamma
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int, check_probability


def planted_partition_from_degrees(
    degrees: np.ndarray,
    num_communities: int,
    inter_fraction: float,
    rng: RngLike = None,
) -> Graph:
    """Degree-preserving planted partition via blockwise stub pairing.

    Each node keeps its prescribed degree; a ``1 - inter_fraction``
    share of its stubs pairs within its community and the rest pairs in
    a global cross-community pool.  Self-loops and parallel edges are
    erased (as in the plain configuration model).
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    check_positive_int(num_communities, "num_communities")
    check_probability(inter_fraction, "inter_fraction")
    if degrees.ndim != 1 or degrees.size < num_communities:
        raise ValidationError(
            "need at least one node per community"
        )
    generator = ensure_rng(rng)
    n = degrees.size
    communities = np.arange(n) % num_communities

    intra_edges = []
    cross_stub_pool = []
    for community in range(num_communities):
        members = np.flatnonzero(communities == community)
        member_degrees = degrees[members]
        intra_degrees = np.round(member_degrees * (1.0 - inter_fraction)).astype(
            np.int64
        )
        cross_degrees = member_degrees - intra_degrees
        # Intra-community stub pairing.
        stubs = np.repeat(members, intra_degrees)
        if stubs.size % 2 == 1:
            stubs = stubs[:-1]
        generator.shuffle(stubs)
        heads, tails = stubs[0::2], stubs[1::2]
        keep = heads != tails
        intra_edges.append(np.stack([heads[keep], tails[keep]], axis=1))
        cross_stub_pool.append(np.repeat(members, cross_degrees))

    cross_stubs = np.concatenate(cross_stub_pool)
    if cross_stubs.size % 2 == 1:
        cross_stubs = cross_stubs[:-1]
    generator.shuffle(cross_stubs)
    cross_heads, cross_tails = cross_stubs[0::2], cross_stubs[1::2]
    keep = cross_heads != cross_tails
    cross_edges = np.stack([cross_heads[keep], cross_tails[keep]], axis=1)

    return Graph(n, np.concatenate(intra_edges + [cross_edges]))


@dataclass(frozen=True)
class CommunityDataset:
    """A community-structured stand-in and its achieved statistics."""

    name: str
    graph: Graph
    achieved_gamma: float
    num_communities: int
    inter_fraction: float


def build_community_dataset(
    name: str,
    *,
    num_communities: int = 20,
    inter_fraction: float = 0.05,
    scale: float = 1.0,
    seed: int = 0,
) -> CommunityDataset:
    """A Table 4 stand-in with planted community structure.

    Same ``(n, Gamma_G)`` calibration as :func:`repro.datasets.
    synthetic.build_dataset`, but wired with
    :func:`planted_partition_from_degrees` so the walk mixes slowly —
    use ``inter_fraction ~ 0.02-0.1`` to land near the paper's
    ``alpha ~ 1e-2``.
    """
    spec = get_dataset(name)
    num_nodes = spec.scaled_nodes(scale)
    calibration = calibrate_shape(
        num_nodes, spec.gamma, min_degree=spec.min_degree, seed=seed
    )
    degrees = pareto_degree_sequence(
        num_nodes, calibration.shape, min_degree=spec.min_degree, rng=seed
    )
    raw = planted_partition_from_degrees(
        degrees, num_communities, inter_fraction, rng=seed + 1
    )
    lcc = largest_connected_component(raw)
    return CommunityDataset(
        name=name,
        graph=lcc,
        achieved_gamma=irregularity_gamma(lcc),
        num_communities=num_communities,
        inter_fraction=inter_fraction,
    )
