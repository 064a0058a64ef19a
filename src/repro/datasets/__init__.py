"""Dataset substrate: synthetic stand-ins for the paper's real graphs.

The paper evaluates on five real-world networks (Table 4): Facebook,
Twitch, Deezer (social), Enron (communication), and Google (web).  Those
datasets are not redistributable here, so this package builds *synthetic
stand-ins*: power-law configuration-model graphs calibrated so that the
largest connected component matches the published node count ``n`` and
irregularity ``Gamma_G``.

Every privacy theorem in the paper consumes the graph only through
``n``, ``sum_i P_i(t)^2`` (asymptotically ``Gamma_G / n``), and the
spectral gap ``alpha`` — so matching ``(n, Gamma_G)`` and reporting the
achieved ``alpha`` preserves the quantities that drive every figure.
See README.md, "Substitutions".
"""

from repro.datasets.registry import (
    DATASETS,
    DatasetSpec,
    dataset_names,
    get_dataset,
)
from repro.datasets.calibration import (
    CalibrationResult,
    calibrate_shape,
    pareto_degree_sequence,
)
from repro.datasets.synthetic import (
    SyntheticDataset,
    build_dataset,
    configuration_model_graph,
)
from repro.datasets.community import (
    CommunityDataset,
    build_community_dataset,
    planted_partition_from_degrees,
)

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "dataset_names",
    "get_dataset",
    "CalibrationResult",
    "calibrate_shape",
    "pareto_degree_sequence",
    "SyntheticDataset",
    "build_dataset",
    "configuration_model_graph",
    "CommunityDataset",
    "build_community_dataset",
    "planted_partition_from_degrees",
]
