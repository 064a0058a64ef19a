#!/usr/bin/env python
"""Which trust model should you deploy?  A side-by-side comparison.

For a fixed population and local budget, prints the central guarantee of
every amplification mechanism in the paper's Table 1 plus the measured
system costs of the three architectures in Table 3 — the decision table
a practitioner would actually want.

The network-shuffling rows are priced through the declarative Scenario
API (`repro.stationary_bound` — closed form, no graph build even at
n=10,000) and the network-shuffling cost row is one metered `repro.run`
of the same scenario.

Run:  python examples/compare_mechanisms.py
"""

from __future__ import annotations

from repro import Scenario, run, stationary_bound
from repro.amplification import (
    clones_epsilon,
    subsampling_epsilon,
    uniform_shuffle_epsilon,
)
from repro.baselines import run_mixnet, run_prochlo
from repro.experiments.reporting import format_table

N = 10_000
EPSILON0 = 1.0
DELTA = 1e-6


def _network_scenario(protocol: str, n: int) -> Scenario:
    return Scenario(
        graph={"kind": "k_regular", "params": {"degree": 8, "num_nodes": n}},
        protocol=protocol,
        epsilon0=EPSILON0,
        delta=DELTA,
        delta2=DELTA,
        seed=0,
    )


def main() -> None:
    print(f"population n={N}, local budget eps0={EPSILON0}, delta={DELTA}\n")

    # --- privacy comparison (Table 1) ---------------------------------
    rows = [
        ("no amplification (pure LDP)", "none", EPSILON0),
        ("uniform subsampling", "trusted sampler",
         subsampling_epsilon(EPSILON0, N)),
        ("uniform shuffling (EFMRTT19)", "trusted shuffler",
         uniform_shuffle_epsilon(EPSILON0, N, DELTA)),
        ("uniform shuffling (clones, FMT21)", "trusted shuffler",
         clones_epsilon(EPSILON0, N, DELTA)),
        ("network shuffling, A_all", "none (decentralized)",
         stationary_bound(_network_scenario("all", N)).epsilon),
        ("network shuffling, A_single", "none (decentralized)",
         stationary_bound(_network_scenario("single", N)).epsilon),
    ]
    print(format_table(
        ["mechanism", "trusted entity", "central eps"],
        [(name, trust, round(eps, 4)) for name, trust, eps in rows],
    ))

    # --- measured system costs (Table 3), small scale -----------------
    n_sim = 512
    values = [0] * n_sim
    prochlo = run_prochlo(values, rng=0)
    mixnet = run_mixnet(values, rng=0)
    shuffle = run(_network_scenario("all", n_sim).updated(rounds=8))
    user_meters = [shuffle.meters.meter(u) for u in range(n_sim)]

    print("\nmeasured system costs at n=512:")
    print(format_table(
        ["architecture", "entity peak memory", "max user traffic"],
        [
            ("Prochlo (central batch)", prochlo.shuffler_peak_memory,
             prochlo.max_user_traffic),
            ("mix-net (full cover)", mixnet.relay_peak_memory(),
             mixnet.max_user_traffic()),
            ("network shuffling (8 rounds)",
             max(m.peak_items for m in user_meters),
             max(m.messages_sent for m in user_meters)),
        ],
    ))


if __name__ == "__main__":
    main()
