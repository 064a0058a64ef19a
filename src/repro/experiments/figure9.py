"""Figure 9 — privacy-utility trade-off (PrivUnit mean estimation).

Paper setup (Section 5.6): on the Twitch graph, ``d = 200``-dimensional
bimodal normalized samples, PrivUnit at sampled ``eps0`` values; for
each protocol plot the central ``eps`` (from the theorems) against the
expected squared error of the mean estimate (from simulation).

Expected shape: at any fixed central ``eps``, ``A_all``'s error is
consistently *below* ``A_single``'s — the dummy-report and dropped-
report penalty outweighs ``A_single``'s stronger amplification, the
paper's counter-example to "``A_single`` is better at large eps0".

The whole experiment is declarative: one scenario carries the Twitch
stand-in (wiring seed pinned as spec data), the ``privunit`` mechanism,
the ``bimodal_unit_vectors`` workload, and the ``privunit_normal``
dummy factory (the paper's normalized ``N(5, 1)^d`` dummy — the spec
kind this migration introduced).  Per ``(protocol, eps0)`` point the
``repeats`` replications are ``seed`` points of a sweep in ``run`` mode with
``results="full"`` (the estimator needs payloads).  The stand-in's
wiring seed is pinned spec data, so every replica resolves to the same
calibrated graph (one expensive ``build_dataset`` for the whole
figure), and the mixing time is derived once and pinned as ``rounds``
before the seed axis — replicas vary only the values/protocol streams.
Per ``eps0`` the sweep's axes are ``seed`` then ``protocol``, so each
seed's two protocol points share one randomize-and-exchange walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.estimation.mean import mean_estimate_from_run
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.reporting import format_table
from repro.scenario import (
    DummySpec,
    GraphSpec,
    MechanismSpec,
    Scenario,
    ValuesSpec,
    graph_summary,
    sweep,
)


@dataclass(frozen=True)
class TradeoffPoint:
    """One (protocol, eps0) point of the privacy-utility plane."""

    protocol: str
    epsilon0: float
    central_epsilon: float
    squared_error: float
    dummy_count: int


def figure9_scenario(
    *,
    epsilon0: float = 1.0,
    protocol: str = "all",
    dataset: str = "twitch",
    dimension: int = 200,
    scale: Optional[float] = None,
    config: ExperimentConfig = DEFAULT_CONFIG,
) -> Scenario:
    """The declarative scenario behind one Figure 9 point."""
    return Scenario(
        graph=GraphSpec.of(
            "dataset", name=dataset, scale=scale, seed=config.seed
        ),
        mechanism=MechanismSpec.of(
            "privunit", epsilon=epsilon0, dimension=dimension
        ),
        values=ValuesSpec.of("bimodal_unit_vectors", dimension=dimension),
        dummies=DummySpec.of("privunit_normal"),
        protocol=protocol,
        delta=config.delta,
        delta2=config.delta2,
        seed=config.seed,
    )


def run_figure9(
    *,
    eps0_values: Sequence[float] = (1.0, 2.0, 3.0, 4.0, 5.0),
    dataset: str = "twitch",
    dimension: int = 200,
    scale: Optional[float] = None,
    repeats: int = 3,
    config: ExperimentConfig = DEFAULT_CONFIG,
) -> List[TradeoffPoint]:
    """Simulate the mean-estimation trade-off on the Twitch stand-in.

    ``repeats`` seed-derived runs are averaged per point to smooth the
    squared error.
    """
    base = figure9_scenario(
        dataset=dataset, dimension=dimension, scale=scale, config=config
    )
    # Resolve the operating point (the stand-in's mixing time) once:
    # the seed axis below varies only the values/protocol streams, and
    # pinning `rounds` keeps the replicas from each re-deriving it
    # through a fresh spectral summary.
    base = base.updated(rounds=graph_summary(base).mixing_time)
    seeds = [config.seed + repeat for repeat in range(repeats)]
    protocols = ("all", "single")
    points: List[TradeoffPoint] = []
    for eps0 in eps0_values:
        # Protocol innermost: a seed's A_all and A_single points are
        # adjacent, so the sweep runs their shared walk once.
        replicas = sweep(
            base.updated(**{"mechanism.epsilon": float(eps0)}),
            axis={"seed": seeds, "protocol": list(protocols)},
            mode="run", results="full",
        )
        for protocol in protocols:
            runs = [p for p in replicas if p.scenario.protocol == protocol]
            estimates = [mean_estimate_from_run(p.outcome) for p in runs]
            points.append(
                TradeoffPoint(
                    protocol=protocol,
                    epsilon0=float(eps0),
                    central_epsilon=float(runs[0].epsilon),
                    squared_error=float(
                        np.mean([e.squared_error for e in estimates])
                    ),
                    dummy_count=int(np.mean([e.dummy_count for e in estimates])),
                )
            )
    return points


def render_figure9(points: Sequence[TradeoffPoint]) -> str:
    """ASCII rendering of the trade-off points."""
    return format_table(
        ["protocol", "eps0", "central eps", "E[squared error]", "dummies"],
        [
            (
                p.protocol,
                p.epsilon0,
                round(p.central_epsilon, 4),
                round(p.squared_error, 5),
                p.dummy_count,
            )
            for p in points
        ],
    )


def main() -> None:
    """Regenerate and print Figure 9's points (table + ASCII chart)."""
    points = run_figure9()
    print(render_figure9(points))
    from repro.experiments.plotting import Series, ascii_chart

    chart_series = []
    for protocol in ("all", "single"):
        subset = sorted(
            (p for p in points if p.protocol == protocol),
            key=lambda p: p.central_epsilon,
        )
        chart_series.append(
            Series(
                f"A_{protocol}",
                np.array([p.central_epsilon for p in subset]),
                np.array([p.squared_error for p in subset]),
            )
        )
    print()
    print(ascii_chart(
        chart_series, log_y=True,
        title="Figure 9 — privacy-utility trade-off (PrivUnit on Twitch)",
        x_label="central eps (log-eps not shown; points span decades)",
        y_label="E[squared error]",
    ))


if __name__ == "__main__":
    main()
