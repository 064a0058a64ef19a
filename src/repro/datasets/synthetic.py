"""Materializing calibrated synthetic stand-in graphs.

Pipeline (per dataset):

1. calibrate a Pareto ``shape`` against the published ``Gamma_G``
   (:mod:`repro.datasets.calibration`);
2. sample the degree sequence and wire it with a fast *erased
   configuration model* (stub pairing, then dropping self-loops and
   parallel edges);
3. take the largest connected component — exactly the paper's Table 4
   convention — and report the achieved ``(n, Gamma_G, alpha)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.datasets.calibration import calibrate_shape, pareto_degree_sequence
from repro.exceptions import CalibrationError
from repro.datasets.registry import DatasetSpec, get_dataset
from repro.exceptions import ValidationError
from repro.graphs.connectivity import largest_connected_component
from repro.graphs.graph import Graph
from repro.graphs.metrics import irregularity_gamma
from repro.utils.rng import RngLike, ensure_rng


def configuration_model_graph(degrees: np.ndarray, rng: RngLike = None) -> Graph:
    """Erased configuration model: pair stubs, drop loops and multi-edges.

    O(sum degrees) with pure NumPy.  The realized degrees are slightly
    below the prescribed ones when collisions are erased; the dataset
    calibration loop operates on realized values so this bias is
    absorbed.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.ndim != 1 or degrees.size == 0:
        raise ValidationError("degrees must be a non-empty 1-D array")
    if degrees.min() < 0:
        raise ValidationError("degrees must be non-negative")
    if degrees.sum() % 2 != 0:
        raise ValidationError("degree sum must be even")
    generator = ensure_rng(rng)
    stubs = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    generator.shuffle(stubs)
    heads, tails = stubs[0::2], stubs[1::2]
    keep = heads != tails
    return Graph(degrees.size, np.stack([heads[keep], tails[keep]], axis=1))


@dataclass(frozen=True)
class SyntheticDataset:
    """A materialized stand-in graph plus its published/achieved stats."""

    spec: DatasetSpec
    graph: Graph
    scale: float
    achieved_gamma: float
    calibrated_shape: float

    @property
    def name(self) -> str:
        """Dataset registry name."""
        return self.spec.name

    @property
    def num_nodes(self) -> int:
        """Nodes of the materialized largest connected component."""
        return self.graph.num_nodes

    @property
    def published_num_nodes(self) -> int:
        """Published Table 4 ``n`` (full scale)."""
        return self.spec.num_nodes

    @property
    def published_gamma(self) -> float:
        """Published Table 4 ``Gamma_G``."""
        return self.spec.gamma

    @property
    def gamma_relative_error(self) -> float:
        """``|achieved - published| / published`` for ``Gamma_G``."""
        return abs(self.achieved_gamma - self.spec.gamma) / self.spec.gamma


def build_dataset(
    name: str,
    *,
    scale: Optional[float] = None,
    seed: int = 0,
    tolerance: float = 0.02,
) -> SyntheticDataset:
    """Build a calibrated stand-in for one Table 4 dataset.

    Parameters
    ----------
    name:
        Registry key (``facebook``, ``twitch``, ``deezer``, ``enron``,
        ``google``).
    scale:
        Fraction of the published node count to materialize; defaults to
        the spec's ``default_scale`` (1.0 except Google).
    seed:
        Seed controlling both calibration and wiring; same seed, same
        graph.
    tolerance:
        Relative ``Gamma`` tolerance passed to the calibrator.

    Notes
    -----
    Calibration targets the *degree-sequence* ``Gamma``; the erased
    configuration model plus LCC extraction shifts it slightly, so a
    one-step correction re-calibrates against the realized offset.
    """
    spec = get_dataset(name)
    effective_scale = spec.default_scale if scale is None else scale
    num_nodes = spec.scaled_nodes(effective_scale)
    return _build_cached(spec.name, num_nodes, effective_scale, seed, tolerance)


@lru_cache(maxsize=32)
def _build_cached(
    name: str, num_nodes: int, scale: float, seed: int, tolerance: float
) -> SyntheticDataset:
    spec = get_dataset(name)
    calibration = calibrate_shape(
        num_nodes,
        spec.gamma,
        min_degree=spec.min_degree,
        seed=seed,
        tolerance=tolerance,
    )
    graph, achieved = _materialize(spec, num_nodes, calibration.shape, seed)

    # Node-count compensation: with low minimum degree the LCC can lose a
    # noticeable fraction of nodes (e.g. the Enron stand-in); regenerate
    # with the node count inflated by the observed coverage so the LCC
    # lands near the published n.
    coverage = graph.num_nodes / num_nodes
    if coverage < 0.98:
        num_nodes = int(round(num_nodes / coverage))
        calibration = calibrate_shape(
            num_nodes,
            spec.gamma,
            min_degree=spec.min_degree,
            seed=seed,
            tolerance=tolerance,
        )
        graph, achieved = _materialize(spec, num_nodes, calibration.shape, seed)

    # Corrective rounds: the erased configuration model plus LCC
    # extraction realize a slightly lower Gamma than the degree sequence
    # prescribes; retarget the degree-sequence calibration by the
    # cumulative offset until the realized value is within tolerance.
    target = spec.gamma
    for _ in range(3):
        offset = spec.gamma - achieved
        if abs(offset) / spec.gamma <= tolerance:
            break
        target = target + offset
        if target < 1.0:
            break
        try:
            corrected = calibrate_shape(
                num_nodes,
                target,
                min_degree=spec.min_degree,
                seed=seed,
                tolerance=tolerance,
            )
        except CalibrationError:
            break
        graph2, achieved2 = _materialize(spec, num_nodes, corrected.shape, seed)
        if abs(achieved2 - spec.gamma) < abs(achieved - spec.gamma):
            graph, achieved = graph2, achieved2
            calibration = corrected
        else:
            break
    return SyntheticDataset(
        spec=spec,
        graph=graph,
        scale=scale,
        achieved_gamma=achieved,
        calibrated_shape=calibration.shape,
    )


def _materialize(
    spec: DatasetSpec, num_nodes: int, shape: float, seed: int
) -> tuple[Graph, float]:
    """Degree sequence -> erased configuration model -> LCC -> Gamma."""
    degrees = pareto_degree_sequence(
        num_nodes, shape, min_degree=spec.min_degree, rng=seed
    )
    raw_graph = configuration_model_graph(degrees, rng=seed + 1)
    lcc = largest_connected_component(raw_graph)
    return lcc, irregularity_gamma(lcc)
