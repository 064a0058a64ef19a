"""Table 4 — real-world dataset statistics, reproduced on stand-ins.

For each of the five datasets: published ``(n, Gamma_G)`` versus the
values achieved by the calibrated synthetic stand-in's largest connected
component, plus the stand-in's spectral gap and mixing time (which the
paper reports in prose: ``alpha ~= 1e-2`` and mixing ``~1e3`` for the
real social graphs; configuration-model stand-ins are better expanders,
see README.md, "Substitutions").

Each stand-in is one declarative ``dataset``-graph scenario (the wiring
seed pinned as spec data, so the graphs match the historical builds);
the achieved statistics read off the scenario cache's materialized
bundle — building Table 4 then pricing those same scenarios elsewhere
costs one materialization total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.datasets.registry import dataset_names, get_dataset
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.reporting import format_table
from repro.scenario import (
    GraphSpec,
    Scenario,
    build_graph,
    graph_summary,
)


@dataclass(frozen=True)
class DatasetRow:
    """One Table 4 row: published vs achieved."""

    name: str
    category: str
    published_n: int
    achieved_n: int
    published_gamma: float
    achieved_gamma: float
    spectral_gap: float
    mixing_time: int
    scale: float

    @property
    def gamma_relative_error(self) -> float:
        """Relative Gamma calibration error."""
        return abs(self.achieved_gamma - self.published_gamma) / self.published_gamma


def table4_scenario(
    name: str,
    *,
    scale: Optional[float] = None,
    config: ExperimentConfig = DEFAULT_CONFIG,
) -> Scenario:
    """The declarative scenario whose graph is one Table 4 stand-in."""
    return Scenario(
        graph=GraphSpec.of("dataset", name=name, scale=scale, seed=config.seed),
        seed=config.seed,
    )


def run_table4(
    *,
    names: Optional[Sequence[str]] = None,
    config: ExperimentConfig = DEFAULT_CONFIG,
) -> List[DatasetRow]:
    """Build every stand-in and collect published-vs-achieved stats."""
    rows: List[DatasetRow] = []
    for name in names if names is not None else dataset_names():
        spec = get_dataset(name)
        scale = None if spec.default_scale != 1.0 else config.dataset_scale
        scenario = table4_scenario(name, scale=scale, config=config)
        graph = build_graph(scenario)
        summary = graph_summary(scenario)
        rows.append(
            DatasetRow(
                name=name,
                category=spec.category,
                published_n=spec.num_nodes,
                achieved_n=graph.num_nodes,
                published_gamma=spec.gamma,
                achieved_gamma=graph.num_nodes * summary.stationary_collision,
                spectral_gap=summary.spectral_gap,
                mixing_time=summary.mixing_time,
                scale=spec.default_scale if scale is None else scale,
            )
        )
    return rows


def render_table4(rows: Sequence[DatasetRow]) -> str:
    """ASCII rendering of the Table 4 reproduction."""
    return format_table(
        [
            "dataset", "category", "n (paper)", "n (ours)",
            "Gamma (paper)", "Gamma (ours)", "rel.err", "alpha", "mixing t", "scale",
        ],
        [
            (
                row.name,
                row.category,
                row.published_n,
                row.achieved_n,
                row.published_gamma,
                round(row.achieved_gamma, 4),
                f"{row.gamma_relative_error:.1%}",
                round(row.spectral_gap, 4),
                row.mixing_time,
                row.scale,
            )
            for row in rows
        ],
    )


def main() -> None:
    """Regenerate and print Table 4."""
    print(render_table4(run_table4()))


if __name__ == "__main__":
    main()
