"""The case table: ``case id -> (handler, inputs)``, inputs as plain data.

A graph is named by ``{"generator": <repro.graphs.generators function>,
"args": [...], "kwargs": {...}}``; ``run`` and ``bound`` inputs are
:class:`~repro.scenario.spec.Scenario` keyword arguments.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

Case = Tuple[str, Dict[str, Any]]


def _graph(generator: str, *args: Any, **kwargs: Any) -> Dict[str, Any]:
    return {"generator": generator, "args": list(args), "kwargs": kwargs}


# -- graph: seeded generator CSRs -------------------------------------------
_GENERATORS = {
    "k_regular": ("random_regular_graph", [(3, 20, 0), (5, 12, 0), (7, 8, 2), (8, 1000, 1)]),
    "erdos_renyi": ("erdos_renyi_graph", [(200, 0.05, 3), (50, 0.5, 1), (2000, 0.002, 5)]),
    "barabasi_albert": ("barabasi_albert_graph", [(96, 3, 20240), (300, 2, 4), (50, 49, 0)]),
    "watts_strogatz": (
        "watts_strogatz_graph", [(100, 6, 0.3, 0), (64, 5, 0.2, 1), (30, 4, 0.9, 2)],
    ),
}
GRAPH_CASES: Dict[str, Case] = {
    f"graph/{kind}-" + "-".join(map(str, call)): ("graph", _graph(name, *call[:-1], rng=call[-1]))
    for kind, (name, calls) in _GENERATORS.items()
    for call in calls
}

# -- run: seeded repro.run outputs ------------------------------------------
_BA_96 = {"kind": "barabasi_albert", "params": {"num_nodes": 96, "attachment": 3}}
_SCHEDULE = {
    "kind": "schedule",
    "params": {
        "graphs": [
            {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}},
            {"kind": "k_regular", "params": {"degree": 6, "num_nodes": 64}},
        ],
        "selector": "epoch",
        "block": 2,
    },
}
_LOADS: Dict[str, Dict[str, Any]] = {
    "rr": dict(
        mechanism={"kind": "rr", "params": {"epsilon": 1.0}},
        values={"kind": "bernoulli", "params": {"rate": 0.3}},
    ),
    "privunit": dict(
        mechanism={"kind": "privunit", "params": {"epsilon": 2.0, "dimension": 8}},
        values={"kind": "bimodal_unit_vectors", "params": {"dimension": 8}},
        dummies={"kind": "privunit_normal", "params": {}},
    ),
    "novalues": dict(epsilon0=1.0),
}


def _run(kind: str, protocol: str, laziness: float) -> Dict[str, Any]:
    load = dict(_LOADS["rr" if kind == "schedule" else kind])
    if protocol == "all":
        load.pop("dummies", None)
    graph = _SCHEDULE if kind == "schedule" else _BA_96
    return dict(graph=graph, protocol=protocol, rounds=7, seed=20240, laziness=laziness, **load)


RUN_CASES: Dict[str, Case] = {
    f"run/{kind}-{protocol}-{laziness:g}": ("run", _run(kind, protocol, laziness))
    for kind in ("rr", "privunit", "novalues", "schedule")
    for protocol in ("all", "single")
    for laziness in ((0.0,) if kind == "schedule" else (0.0, 0.3))
}
# Figure 9's shape: PrivUnit at d = 200 under A_single on the twitch
# stand-in, whose 2047 dummies span four 512-row randomization blocks.
RUN_CASES["run/figure9-twitch-0.4-single"] = ("run", dict(
    graph={"kind": "dataset", "params": {"name": "twitch", "scale": 0.4, "seed": 2022}},
    protocol="single", rounds=7, seed=20240,
    mechanism={"kind": "privunit", "params": {"epsilon": 2.0, "dimension": 200}},
    values={"kind": "bimodal_unit_vectors", "params": {"dimension": 200}},
    dummies={"kind": "privunit_normal", "params": {}},
))
# A_single deliveries that mix None with ints: a mechanism without
# values (None reals, randomized dummies) and values without a
# mechanism (raw reals, None dummies).
RUN_CASES.update({
    f"run/{kind}-single": ("run", dict(
        graph=_BA_96, protocol="single", rounds=7, seed=20240, **load,
    ))
    for kind, load in (
        ("mechanism-only", dict(mechanism={"kind": "rr", "params": {"epsilon": 1.0}})),
        ("values-only", dict(
            values={"kind": "bernoulli", "params": {"rate": 0.3}}, epsilon0=1.0,
        )),
    )
})

# -- bound: the sparse (Lanczos) spectral path ------------------------------
BOUND_CASES: Dict[str, Case] = {
    "bound/k_regular-8-1600-0": ("bound", dict(
        graph={"kind": "k_regular", "params": {"degree": 8, "num_nodes": 1600}},
        mechanism={"kind": "rr", "params": {"epsilon": 1.0}},
        seed=0,
    )),
    # The symmetric analysis: the exact walk from node 0 (no eigensolve).
    **{
        f"bound/symmetric-k_regular-4-256-{rounds}-0.3": ("bound", dict(
            graph={"kind": "k_regular", "params": {"degree": 4, "num_nodes": 256}},
            mechanism={"kind": "rr", "params": {"epsilon": 1.0}},
            analysis="symmetric", rounds=rounds, laziness=0.3, seed=0,
        ))
        for rounds in (5, 20)
    },
}

# -- audit: default-path distinguishing games -------------------------------
_AUDIT_GRAPH = [_graph("random_regular_graph", 4, 64, rng=0)]
_AUDIT_SCHEDULE = [
    _graph("random_regular_graph", 4, 60, rng=0),
    _graph("random_regular_graph", 6, 60, rng=1),
]


def _audit(topology, rounds: int, laziness: float, seed: int) -> Case:
    return ("audit", dict(
        topology=topology, epsilon0=2.0, rounds=rounds, trials=500,
        laziness=laziness, seed=seed,
    ))


AUDIT_CASES: Dict[str, Case] = {
    "audit/static-tiled": _audit(_AUDIT_GRAPH, 3, 0.0, 11),
    "audit/static-kernel": _audit(_AUDIT_GRAPH, 12, 0.0, 12),
    "audit/lazy-kernel": _audit(_AUDIT_GRAPH, 10, 0.3, 13),
    "audit/schedule": _audit(_AUDIT_SCHEDULE, 5, 0.2, 14),
}

# -- secure: the encrypted per-message driver -------------------------------
SECURE_CASES: Dict[str, Case] = {
    **{
        f"secure/{n}-{rounds}-{seed}": ("secure", dict(
            graph=_graph("random_regular_graph", 4, n, rng=seed),
            rounds=rounds, values=list(range(n)), seed=seed,
        ))
        for n, rounds, seed in [(8, 1, 1), (12, 4, 2), (20, 7, 3)]
    },
    **{
        f"secure/meters-{rounds}": ("secure", dict(
            graph=_graph("random_regular_graph", 4, 16, rng=7),
            rounds=rounds, values=list(range(16)), seed=11,
        ))
        for rounds in (1, 5)
    },
    "secure/randomizer": ("secure", dict(
        graph=_graph("complete_graph", 10),
        rounds=3, values=[0] * 10, randomizer=0.6, seed=5,
    )),
}

# -- artifact: every paper table and figure at small scale ------------------
ARTIFACT_CASES: Dict[str, Case] = {
    f"artifact/{name}": ("artifact", dict(name=name, kwargs=kwargs))
    for name, kwargs in {
        "figure4": dict(datasets=["twitch"], max_steps=20, num_points=10),
        "figure5": dict(degrees=[4, 8], num_nodes=256, max_steps=10),
        "figure6": dict(eps0_values=[0.5, 1.0], datasets=["google", "twitch"]),
        "figure7": dict(
            eps0_values=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0], datasets=["twitch"],
        ),
        "figure8": dict(
            eps0_values=[0.5, 1.0], gammas=[1.0, 10.0], n_values=[10_000],
            protocols=["all", "single"],
        ),
        "figure9": dict(
            eps0_values=[1.0, 3.0], dataset="twitch", dimension=16, scale=0.4, repeats=2,
        ),
        "table1": dict(n_values=[10_000, 100_000], eps0_values=[1.5, 2.0, 2.5]),
        "table3": dict(n_values=[64, 128]),
        "table4": dict(names=["twitch"], config={"dataset_scale": 0.3}),
    }.items()
}

CASES: Dict[str, Case] = {
    **GRAPH_CASES, **RUN_CASES, **BOUND_CASES, **AUDIT_CASES, **SECURE_CASES, **ARTIFACT_CASES,
}
