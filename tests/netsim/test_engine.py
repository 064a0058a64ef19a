"""Exchange equivalence: the array engine against the oracle.

The array engine promises an *exact* RNG contract with the per-message
simulator (:class:`repro.testing.oracle.FaithfulNetwork`) — a seeded
run must produce identical per-round held counts, meters, and server
deliveries on every variant (``faithful``, the oracle ≡ ``vectorized``
≡ ``compiled``, two engine spellings that both run the array engine's
one NumPy round) — plus statistical agreement with the exact
distribution evolution of :mod:`repro.graphs.walks`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError, ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.generators import (
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    random_regular_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.walks import position_distribution, simulate_token_walks
from repro.netsim.engine import (
    _DEGREE_CACHE_LIMIT,
    VectorizedExchange,
    backend_info,
)
from repro.netsim.faults import (
    AdversarialDropout,
    IndependentDropout,
    NoFaults,
)
from repro.netsim.network import RoundBasedNetwork
from repro.protocols.all_protocol import ENGINES, run_all_protocol
from repro.protocols.single_protocol import run_single_protocol
from repro.scenario import RunDigest
from repro.testing.oracle import FaithfulNetwork


#: The per-message simulator, then two engine spellings that must both
#: run the same exchange: the array engine's NumPy round.
VARIANTS = ("faithful", "vectorized", "compiled")


@pytest.fixture
def network_on():
    """``network_on(variant, graph, **kwargs)`` builds a network on one
    oracle variant."""

    def build(variant, graph, **kwargs):
        if variant == "faithful":
            return FaithfulNetwork(graph, **kwargs)
        return RoundBasedNetwork(graph, backend="vectorized", **kwargs)

    return build


@pytest.fixture
def paired_networks(network_on):
    """Identically seeded networks, one per oracle variant."""

    def build(graph, faults_factory, seed):
        nets = []
        for variant in VARIANTS:
            network = network_on(
                variant, graph, faults=faults_factory(), rng=seed
            )
            network.seed_items(
                {i: [("r", i)] for i in range(graph.num_nodes)}
            )
            nets.append(network)
        return nets

    return build


FAULT_FACTORIES = [
    NoFaults,
    lambda: IndependentDropout(0.25),
    lambda: AdversarialDropout(np.arange(0, 50, 5)),
]


class TestSeededEquivalence:
    @pytest.mark.parametrize("faults_factory", FAULT_FACTORIES)
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_identical_held_counts_every_round(
        self, small_regular, faults_factory, seed, paired_networks
    ):
        faithful, vectorized, compiled = paired_networks(
            small_regular, faults_factory, seed
        )
        for _ in range(10):
            faithful.run_exchange_round()
            for other in (vectorized, compiled):
                other.run_exchange_round()
                np.testing.assert_array_equal(
                    faithful.held_counts(), other.held_counts()
                )

    @pytest.mark.parametrize("faults_factory", FAULT_FACTORIES)
    def test_identical_meters(
        self, small_regular, faults_factory, paired_networks
    ):
        faithful, vectorized, compiled = paired_networks(
            small_regular, faults_factory, 11
        )
        faithful.run_exchange(8)
        for other in (vectorized, compiled):
            other.run_exchange(8)
            for user in range(small_regular.num_nodes):
                a = faithful.meters.meter(user)
                b = other.meters.meter(user)
                assert a.messages_sent == b.messages_sent
                assert a.messages_received == b.messages_received
                assert a.current_items == b.current_items
                assert a.peak_items == b.peak_items
            assert (
                faithful.meters.max_peak_items()
                == other.meters.max_peak_items()
            )
            assert (
                faithful.meters.total_messages_sent()
                == other.meters.total_messages_sent()
            )

    def test_identical_server_delivery(self, small_regular, paired_networks):
        nets = paired_networks(small_regular, NoFaults, 3)
        for net in nets:
            net.run_exchange(6)
            net.deliver_to_server()
            assert net.held_counts().sum() == 0
        faithful, vectorized, compiled = nets
        for other in (vectorized, compiled):
            assert faithful.server.delivered_by == other.server.delivered_by
            assert faithful.server.reports == other.server.reports

    def test_identical_drain_held(self, small_regular, paired_networks):
        faithful, vectorized, compiled = paired_networks(
            small_regular, NoFaults, 5
        )
        for net in (faithful, vectorized, compiled):
            net.run_exchange(4)
        reference = faithful.drain_held()
        assert reference == vectorized.drain_held()
        assert reference == compiled.drain_held()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_irregular_multi_item_order_every_round(self, network_on, seed):
        """Ordering oracle on an irregular graph: several items per
        node, independent dropout, and after every round count the
        variants deliver to the server and drain in identical order —
        which held counts alone cannot see."""
        graph = barabasi_albert_graph(60, 2, rng=3)
        seeds = {
            user: [(user, copy) for copy in range(1 + user % 4)]
            for user in range(graph.num_nodes)
        }

        def after(rounds):
            nets = []
            for variant in VARIANTS:
                net = network_on(
                    variant, graph, faults=IndependentDropout(0.3), rng=seed
                )
                net.seed_items(seeds)
                net.run_exchange(rounds)
                nets.append(net)
            return nets

        for rounds in range(13):
            faithful, *others = after(rounds)
            faithful.deliver_to_server()
            for other in others:
                other.deliver_to_server()
                assert faithful.server.delivered_by == other.server.delivered_by
                assert faithful.server.reports == other.server.reports
            reference, *drained = (net.drain_held() for net in after(rounds))
            assert sum(map(len, reference)) == sum(map(len, seeds.values()))
            for held in drained:
                assert held == reference

    def test_all_protocol_identical_across_engines(
        self, small_regular, on_oracle
    ):
        fast = run_all_protocol(small_regular, 7, rng=9)
        with on_oracle():
            faithful = run_all_protocol(small_regular, 7, rng=9)
        compiled = run_all_protocol(
            small_regular, 7, rng=9, engine="compiled"
        )
        for other in (faithful, compiled):
            np.testing.assert_array_equal(fast.allocation, other.allocation)
            np.testing.assert_array_equal(
                fast.delivered_by, other.delivered_by
            )
            assert [r.origin for r in fast.server_reports] == [
                r.origin for r in other.server_reports
            ]

    def test_single_protocol_identical_across_engines(
        self, small_regular, on_oracle
    ):
        fast = run_single_protocol(small_regular, 7, rng=9)
        with on_oracle():
            faithful = run_single_protocol(small_regular, 7, rng=9)
        compiled = run_single_protocol(
            small_regular, 7, rng=9, engine="compiled"
        )
        for other in (faithful, compiled):
            np.testing.assert_array_equal(fast.allocation, other.allocation)
            assert fast.dummy_count == other.dummy_count
            assert [r.origin for r in fast.server_reports] == [
                r.origin for r in other.server_reports
            ]

    def test_laziness_equivalent_to_dropout(self, small_regular):
        lazy = run_all_protocol(small_regular, 6, laziness=0.4, rng=2)
        dropout = run_all_protocol(
            small_regular, 6, faults=IndependentDropout(0.4), rng=2
        )
        np.testing.assert_array_equal(lazy.allocation, dropout.allocation)


def _meter_rows(network, num_users):
    """Every user meter and the server meter, as plain tuples."""
    return [
        (m.messages_sent, m.messages_received, m.current_items, m.peak_items)
        for m in map(network.meters.meter, range(-1, num_users))
    ]


class TestTokenLevelEquivalence:
    """The token-level interface the protocols run on — ``seed_tokens``,
    ``deliver_tokens`` and ``drain_tokens`` — on all three variants, with
    dropout, on a static irregular graph and on a schedule, seeded with
    several out-of-order tokens per origin over two calls."""

    GRAPHS = {
        "static": lambda: barabasi_albert_graph(50, 2, rng=3),
        "schedule": lambda: _three_phase_schedule(),
    }

    @staticmethod
    def _origins(num_users):
        rng = np.random.default_rng(4)
        first = rng.permutation(np.repeat(np.arange(num_users), 2))
        return first, rng.integers(0, num_users, size=num_users // 2)

    def _seeded(self, network_on, graph_kind, seed):
        graph = self.GRAPHS[graph_kind]()
        nets = []
        for variant in VARIANTS:
            net = network_on(
                variant, graph, faults=IndependentDropout(0.3), rng=seed
            )
            for origins in self._origins(graph.num_nodes):
                net.seed_tokens(origins)
            nets.append(net)
        return graph.num_nodes, nets

    @pytest.mark.parametrize("graph_kind", sorted(GRAPHS))
    @pytest.mark.parametrize("rounds", [0, 1, 7])
    def test_deliver_tokens(self, network_on, graph_kind, rounds):
        num_users, nets = self._seeded(network_on, graph_kind, rounds + 5)
        delivered = []
        for net in nets:
            net.run_exchange(rounds)
            counts = net.held_counts()
            tokens, senders = net.deliver_tokens()
            np.testing.assert_array_equal(
                np.bincount(senders, minlength=num_users), counts
            )
            delivered.append((tokens, senders, _meter_rows(net, num_users)))
        (tokens, senders, meters), *others = delivered
        assert tokens.dtype == senders.dtype == np.int64
        np.testing.assert_array_equal(np.sort(tokens), np.arange(tokens.size))
        assert np.all(np.diff(senders) >= 0)
        for other_tokens, other_senders, other_meters in others:
            np.testing.assert_array_equal(tokens, other_tokens)
            np.testing.assert_array_equal(senders, other_senders)
            assert meters == other_meters
        assert meters[0][1:] == (tokens.size, tokens.size, tokens.size)

    @pytest.mark.parametrize("graph_kind", sorted(GRAPHS))
    def test_drain_then_send_one_each(self, network_on, graph_kind):
        """A_single's final round: drain, then one metered send per user."""
        num_users, nets = self._seeded(network_on, graph_kind, 6)
        metered = []
        for net in nets:
            net.run_exchange(3)
            net.drain_tokens()
            net.send_one_each()
            metered.append(_meter_rows(net, num_users))
        meters, *others = metered
        assert all(other == meters for other in others)
        assert meters[0][1:] == (num_users, num_users, num_users)

    @pytest.mark.parametrize("graph_kind", sorted(GRAPHS))
    def test_drain_tokens_and_reseed(self, network_on, graph_kind):
        """Drain in holder order, then a second campaign whose token
        ids restart from 0, crossing more swaps on the schedule."""
        num_users, nets = self._seeded(network_on, graph_kind, 9)
        drained = []
        for net in nets:
            net.run_exchange(5)
            counts = net.held_counts()
            first = net.drain_tokens()
            assert net.held_counts().sum() == 0
            net.seed_tokens(np.arange(num_users)[::-1])
            net.run_exchange(4)
            drained.append(
                (first, counts, net.deliver_tokens(),
                 _meter_rows(net, num_users))
            )
        (first, counts, (tokens, senders), meters), *others = drained
        np.testing.assert_array_equal(np.sort(tokens), np.arange(num_users))
        for other in others:
            np.testing.assert_array_equal(first, other[0])
            np.testing.assert_array_equal(counts, other[1])
            np.testing.assert_array_equal(tokens, other[2][0])
            np.testing.assert_array_equal(senders, other[2][1])
            assert meters == other[3]


#: ``seed_items``/``drain_held``/``deliver_to_server`` outputs on a
#: seeded 5-cycle with IndependentDropout(0.3), captured before the
#: item methods became adapters over the token-level ones.
_ADAPTER_HELD = [[], ["d", 2, 3.0, "e", "b"], [None], [], ["a", "c"]]
_ADAPTER_DELIVERY = (
    ["p", "s", "q", "r", "u", "t"], [0, 0, 2, 2, 4, 4],
)


@pytest.mark.parametrize("variant", VARIANTS)
def test_item_adapters_keep_their_outputs(network_on, variant):
    net = network_on(
        variant, cycle_graph(5), faults=IndependentDropout(0.3), rng=8
    )
    net.seed_items({4: list("abc"), 1: ["d", 2, 3.0], 0: [None]})
    net.seed_items({1: ["e"]})
    net.run_exchange(3)
    assert net.held_counts().tolist() == [0, 5, 1, 0, 2]
    assert net.drain_held() == _ADAPTER_HELD
    net.seed_items({2: list("pqrst"), 0: ["u"]})
    net.run_exchange(2)
    net.deliver_to_server()
    assert (net.server.reports, net.server.delivered_by) == _ADAPTER_DELIVERY
    assert _meter_rows(net, 5) == [
        (0, 6, 6, 6), (11, 9, 0, 7), (7, 8, 0, 5), (7, 3, 0, 5),
        (3, 3, 0, 3), (5, 4, 0, 3),
    ]


class TestDistributionMatch:
    """Every variant must match the exact walk-engine marginals."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_marginal_matches_evolve_distribution(self, variant, network_on):
        graph = random_regular_graph(4, 30, rng=1)
        steps, start, samples = 4, 0, 4000
        exact = position_distribution(graph, start, steps)
        network = network_on(variant, graph, rng=77)
        network.seed_items({start: list(range(samples))})
        network.run_exchange(steps)
        empirical = network.held_counts() / samples
        # L1 (graph total variation) tolerance ~ O(sqrt(n / samples)).
        assert np.abs(empirical - exact).sum() < 0.15

    def test_engine_marginal_with_laziness(self):
        # Node-level dropout correlates tokens sharing a holder (they
        # stay or move together), so one run never concentrates — the
        # single-token marginal is checked by averaging independent
        # seeded runs instead.
        graph = cycle_graph(11)
        steps, start, runs = 5, 3, 600
        exact = position_distribution(graph, start, steps, laziness=0.3)
        counts = np.zeros(graph.num_nodes)
        for seed in range(runs):
            engine = VectorizedExchange(
                graph, faults=IndependentDropout(0.3), rng=seed
            )
            engine.seed_tokens(np.array([start]))
            engine.run(steps)
            counts += engine.held_counts()
        empirical = counts / runs
        assert np.abs(empirical - exact).sum() < 0.15


class TestVectorizedEngineApi:
    def test_seed_rejects_out_of_range(self, k4):
        engine = VectorizedExchange(k4, rng=0)
        with pytest.raises(ValidationError):
            engine.seed_tokens(np.array([7]))

    def test_seed_rejects_isolated_nodes(self):
        graph = Graph(3, [(0, 1)])  # node 2 is isolated
        engine = VectorizedExchange(graph, rng=0)
        with pytest.raises(ValidationError):
            engine.seed_tokens(np.array([2]))

    def test_negative_rounds_rejected(self, k4):
        engine = VectorizedExchange(k4, rng=0)
        with pytest.raises(SimulationError):
            engine.run(-1)

    def test_trajectories_require_flag(self, k4):
        engine = VectorizedExchange(k4, rng=0)
        engine.seed_tokens(np.arange(4))
        with pytest.raises(SimulationError):
            engine.trajectories()

    def test_trajectories_shape_and_start(self, small_regular):
        engine = VectorizedExchange(
            small_regular, rng=0, record_trajectories=True
        )
        engine.seed_tokens(np.arange(small_regular.num_nodes))
        engine.run(6)
        paths = engine.trajectories()
        assert paths.shape == (small_regular.num_nodes, 7)
        np.testing.assert_array_equal(
            paths[:, 0], np.arange(small_regular.num_nodes)
        )
        np.testing.assert_array_equal(paths[:, -1], engine.token_position)

    def test_tokens_conserved(self, medium_regular):
        engine = VectorizedExchange(medium_regular, rng=0)
        origins = np.repeat(np.arange(medium_regular.num_nodes), 3)
        engine.seed_tokens(origins)
        engine.run(20)
        assert engine.held_counts().sum() == origins.size
        np.testing.assert_array_equal(engine.token_origin, origins)

    def test_double_delivery_is_idempotent(self, k4, network_on):
        """A second final delivery must deliver nothing (all variants)."""
        for variant in VARIANTS:
            network = network_on(variant, k4, rng=0)
            network.seed_items({i: [f"p{i}"] for i in range(4)})
            network.run_exchange(2)
            network.deliver_to_server()
            network.deliver_to_server()
            assert len(network.server) == 4, variant

    def test_post_delivery_rounds_are_noops_on_all_backends(self, network_on):
        """Rounds after final delivery move nothing, meter nothing, and
        keep the variants in lockstep (including fault-model draws)."""
        graph = cycle_graph(6)
        nets = {}
        for variant in VARIANTS:
            net = network_on(
                variant, graph, faults=IndependentDropout(0.3), rng=0
            )
            net.seed_items({i: [i] for i in range(6)})
            net.run_exchange(3)
            net.deliver_to_server()
            net.run_exchange_round()
            net.seed_items({i: [("n", i)] for i in range(6)})
            net.run_exchange(2)
            nets[variant] = net
        faithful = nets["faithful"]
        for variant in ("vectorized", "compiled"):
            other = nets[variant]
            np.testing.assert_array_equal(
                faithful.held_counts(), other.held_counts()
            )
            assert (
                faithful.meters.total_messages_sent()
                == other.meters.total_messages_sent()
            )
            for user in range(6):
                a = faithful.meters.meter(user)
                b = other.meters.meter(user)
                assert a.messages_sent == b.messages_sent
                assert a.current_items == b.current_items
                assert a.peak_items == b.peak_items

    def test_reseed_after_delivery_maps_new_payloads(self, k4):
        """A second campaign must not see the first campaign's payloads."""
        network = RoundBasedNetwork(k4, rng=0, backend="vectorized")
        network.seed_items({i: [("first", i)] for i in range(4)})
        network.run_exchange(2)
        network.deliver_to_server()
        network.seed_items({i: [("second", i)] for i in range(4)})
        network.run_exchange(2)
        flat = [p for held in network.drain_held() for p in held]
        assert len(flat) == 4
        assert all(tag == "second" for tag, _ in flat)

    def test_bare_tokens_carry_no_item(self, k4):
        """Tokens seeded through ``seed_tokens`` read back as ``None``
        through the item adapters, before and after seeded items."""
        network = RoundBasedNetwork(k4, rng=0, backend="vectorized")
        network.seed_tokens(np.array([0, 1]))
        network.seed_items({2: ["A"]})
        network.seed_tokens(np.array([3]))
        assert network.drain_held() == [[None], [None], ["A"], [None]]

    def test_rejected_seed_leaves_payload_mapping_intact(self, k4):
        """A failed seed must not orphan payloads (token-id alignment)."""
        network = RoundBasedNetwork(k4, rng=0, backend="vectorized")
        network.seed_items({0: ["A"]})
        with pytest.raises(ValidationError):
            network.seed_items({99: ["B"]})
        network.seed_items({1: ["C"]})
        flat = sorted(p for held in network.drain_held() for p in held)
        assert flat == ["A", "C"]

    def test_mid_run_seeding_rejected(self, k4):
        """Interleaving seeds with rounds would break the RNG contract."""
        engine = VectorizedExchange(k4, rng=0)
        engine.seed_tokens(np.arange(4))
        engine.seed_tokens(np.arange(2))  # still pre-run: allowed
        engine.run(1)
        with pytest.raises(SimulationError):
            engine.seed_tokens(np.arange(2))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_mid_run_seed_items_rejected_on_both_backends(
        self, k4, variant, network_on
    ):
        """The network enforces the seeding rule identically per backend."""
        network = network_on(variant, k4, rng=0)
        network.seed_items({0: ["a"]})
        network.seed_items({1: ["b"]})  # pre-run: allowed
        network.run_exchange(1)
        with pytest.raises(SimulationError):
            network.seed_items({2: ["c"]})
        # After the final delivery a fresh campaign may seed again.
        network.deliver_to_server()
        network.seed_items({2: ["c"]})
        network.run_exchange(1)
        assert network.held_counts().sum() == 1

    def test_drained_run_only_advances_clock(self):
        engine = VectorizedExchange(cycle_graph(8), rng=0)
        engine.seed_tokens(np.arange(8))
        engine.run(2)
        engine.drain()
        engine.run(5)
        assert engine.round_index == 7
        assert engine.held_counts().sum() == 0

    def test_backend_info_payload(self):
        assert backend_info() == {"compiled_kernels": "numpy"}

    def test_backend_label_per_engine(self):
        """Every engine spelling labels the one network backend."""
        for engine in ENGINES:
            summary = RunDigest(
                protocol="all", engine=engine, num_users=1, rounds=0,
                dummy_count=0, elapsed_seconds=0.0,
            ).summary()
            assert summary["backend"] == "vectorized"

    def test_trajectories_leave_the_walk_unchanged(self):
        graph = cycle_graph(9)
        plain = VectorizedExchange(graph, rng=4)
        recording = VectorizedExchange(graph, rng=4, record_trajectories=True)
        for engine in (plain, recording):
            engine.seed_tokens(np.arange(9))
            engine.run(5)
        paths = recording.trajectories()
        assert paths.shape == (9, 6)
        np.testing.assert_array_equal(paths[:, -1], plain.token_position)

    def test_reseed_after_drain_drops_old_tokens(self, small_regular):
        """Drained tokens left the network; reseeding must not revive them."""
        engine = VectorizedExchange(small_regular, rng=0)
        engine.seed_tokens(np.arange(small_regular.num_nodes))
        engine.run(3)
        engine.drain()
        engine.seed_tokens(np.arange(10))
        engine.run(2)
        assert engine.held_counts().sum() == 10

    def test_delivery_order_empty_after_drain(self, k4):
        """Drained tokens are gone: no delivery order survives them."""
        engine = VectorizedExchange(k4, rng=0)
        engine.seed_tokens(np.arange(4))
        engine.run(2)
        assert sorted(engine.drain().tolist()) == [0, 1, 2, 3]
        assert engine.delivery_order().dtype == np.int64
        assert engine.delivery_order().size == 0
        assert engine.drain().size == 0
        assert engine.held_counts().sum() == 0

    def test_unknown_backend_rejected(self, k4):
        """Only ``vectorized`` runs; ``faithful`` moved to the oracle."""
        for backend in ("quantum", "faithful"):
            with pytest.raises(ValidationError, match="repro.testing.oracle"):
                RoundBasedNetwork(k4, backend=backend)

    def test_compiled_backend_rejected(self, k4):
        """``compiled`` is an engine alias, not a network backend."""
        with pytest.raises(ValidationError):
            RoundBasedNetwork(k4, backend="compiled")

    def test_vector_meter_board_queries(self, k4):
        network = RoundBasedNetwork(k4, rng=0, backend="vectorized")
        network.seed_items({i: [i] for i in range(4)})
        network.run_exchange(3)
        board = network.meters
        assert len(board) == 5  # four users + server
        assert 0 in board and -1 in board and 99 not in board
        assert board.total_messages_sent() == 12
        assert board.max_peak_items() >= 1
        with pytest.raises(KeyError):
            board.meter(99)


def _three_phase_schedule(n: int = 50) -> DynamicGraphSchedule:
    return DynamicGraphSchedule([
        random_regular_graph(4, n, rng=0),
        random_regular_graph(6, n, rng=1),
        cycle_graph(n),
    ])


class TestDynamicScheduleEquivalence:
    """The exact RNG contract must survive per-round graph swaps."""

    @pytest.mark.parametrize("faults_factory", FAULT_FACTORIES)
    @pytest.mark.parametrize("seed", [0, 11])
    def test_identical_held_counts_across_swaps(
        self, faults_factory, seed, paired_networks
    ):
        schedule = _three_phase_schedule()
        faithful, vectorized, compiled = paired_networks(
            schedule, faults_factory, seed
        )
        for _ in range(9):
            faithful.run_exchange_round()
            for other in (vectorized, compiled):
                other.run_exchange_round()
                np.testing.assert_array_equal(
                    faithful.held_counts(), other.held_counts()
                )

    def test_identical_meters_and_delivery_across_swaps(self, paired_networks):
        schedule = _three_phase_schedule()
        nets = paired_networks(schedule, NoFaults, 5)
        for net in nets:
            net.run_exchange(7)
            net.deliver_to_server()
        faithful, vectorized, compiled = nets
        for other in (vectorized, compiled):
            for user in range(schedule.num_nodes):
                a = faithful.meters.meter(user)
                b = other.meters.meter(user)
                assert a.messages_sent == b.messages_sent
                assert a.messages_received == b.messages_received
                assert a.peak_items == b.peak_items
            assert faithful.server.delivered_by == other.server.delivered_by
            assert faithful.server.reports == other.server.reports

    def test_drain_then_reseed_across_swap_boundary(self, network_on):
        """A second campaign seeded mid-schedule must stay in lockstep:
        the reseed validates against (and the next round walks) the
        topology in force at that round, on every variant."""
        schedule = _three_phase_schedule()
        nets = {}
        for variant in VARIANTS:
            net = network_on(
                variant, schedule, faults=IndependentDropout(0.2), rng=3
            )
            net.seed_items({i: [("first", i)] for i in range(50)})
            net.run_exchange(2)          # stops on the swap boundary
            net.deliver_to_server()
            net.seed_items({i: [("second", i)] for i in range(50)})
            net.run_exchange(4)          # crosses two more swaps
            nets[variant] = net
        faithful = nets["faithful"]
        for variant in ("vectorized", "compiled"):
            np.testing.assert_array_equal(
                faithful.held_counts(), nets[variant].held_counts()
            )
        reference = faithful.drain_held()
        for variant in ("vectorized", "compiled"):
            assert reference == nets[variant].drain_held()

    def test_schedule_of_one_matches_static_graph(self, small_regular):
        """A single-graph schedule is bit-identical to the static run —
        the swap machinery consumes no randomness."""
        static = RoundBasedNetwork(small_regular, rng=9, backend="vectorized")
        dynamic = RoundBasedNetwork(
            DynamicGraphSchedule([small_regular]), rng=9, backend="vectorized"
        )
        for net in (static, dynamic):
            net.seed_items({i: [i] for i in range(small_regular.num_nodes)})
            net.run_exchange(6)
        np.testing.assert_array_equal(
            static.held_counts(), dynamic.held_counts()
        )
        assert static.drain_held() == dynamic.drain_held()

    def test_engine_tracks_scheduled_topology(self):
        schedule = _three_phase_schedule()
        engine = VectorizedExchange(schedule, rng=0)
        engine.seed_tokens(np.arange(50))
        for round_index in range(5):
            engine.run_round()
            assert engine.graph is schedule.graph_at(round_index)

    def test_engine_marginal_matches_exact_schedule_evolution(self):
        schedule = _three_phase_schedule()
        samples = 4000
        engine = VectorizedExchange(schedule, rng=123)
        engine.seed_tokens(np.zeros(samples, dtype=np.int64))
        engine.run(5)
        empirical = engine.held_counts() / samples
        exact = position_distribution(schedule, 0, 5)
        assert np.abs(empirical - exact).sum() < 0.15

    def test_set_graph_rejects_node_count_mismatch(self, small_regular):
        engine = VectorizedExchange(small_regular, rng=0)
        with pytest.raises(ValidationError):
            engine.set_graph(complete_graph(small_regular.num_nodes + 1))
        network = FaithfulNetwork(small_regular, rng=0)
        with pytest.raises(ValidationError):
            network.set_graph(complete_graph(small_regular.num_nodes + 1))

    def test_set_graph_rebinds_both_backends(self, small_regular):
        replacement = complete_graph(small_regular.num_nodes)
        for network_type in (FaithfulNetwork, RoundBasedNetwork):
            network = network_type(small_regular, rng=0)
            network.set_graph(replacement)
            assert network.graph is replacement
            if network_type is FaithfulNetwork:
                np.testing.assert_array_equal(
                    network.nodes[0].neighbors, replacement.neighbors(0)
                )

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_isolated_node_under_swap_raises(self, variant, network_on):
        """An item stranded on a node the new topology isolates must
        fail loudly — with the same exception type on every variant —
        not hop through a garbage CSR offset."""
        path = Graph(3, [(0, 1), (1, 2)])
        isolating = Graph(3, [(0, 2)])  # node 1 isolated
        schedule = DynamicGraphSchedule([path, isolating])
        network = network_on(variant, schedule, rng=0)
        network.seed_items({0: ["item"]})
        network.run_exchange_round()  # node 0's only neighbor is 1
        np.testing.assert_array_equal(network.held_counts(), [0, 1, 0])
        with pytest.raises(SimulationError):
            network.run_exchange_round()  # round 1 isolates node 1

    def test_seed_validates_against_scheduled_topology(self):
        """Reseeding after a drain checks isolation against the graph in
        force at the seeding round, not graph 0."""
        full = Graph(2, [(0, 1)])
        isolating = Graph(2, [])
        schedule = DynamicGraphSchedule(
            [full, isolating], selector=lambda r: 0 if r < 1 else 1
        )
        engine = VectorizedExchange(schedule, rng=0)
        engine.seed_tokens(np.array([0]))  # valid on graph 0
        engine.run_round()
        engine.drain()
        with pytest.raises(ValidationError):
            engine.seed_tokens(np.array([0]))  # round 1 isolates node 0


class _PinnedRng(np.random.Generator):
    """A real Generator whose uniform doubles are pinned to one value."""

    def __init__(self, value: float):
        super().__init__(np.random.PCG64(0))
        self._value = value

    def random(self, size=None, dtype=np.float64, out=None):
        if size is None:
            return self._value
        return np.full(size, self._value)


def _holder_of_one(network) -> int:
    """The node holding a one-token network's only token."""
    (holder,) = np.flatnonzero(network.held_counts())
    return int(holder)


class TestOffsetBoundaryClamp:
    """floor(u * degree) must never index past the neighbor slice.

    A conforming float64 draw (u <= 1 - 2^-53) provably cannot reach
    offset == degree, so the top-of-range stub asserts the exact
    last-neighbor mapping; the u == 1.0 stub models a contract-violating
    generator (custom RngLike subclass, float32 upstream) and fails
    without the clamp — the regression the fix guards.
    """

    @pytest.mark.parametrize("variant", ["vectorized", "compiled"])
    @pytest.mark.parametrize("value", [1.0 - 2.0**-53, 1.0])
    def test_vectorized_boundary_draw_hits_last_neighbor(
        self, variant, value, network_on
    ):
        graph = cycle_graph(7)
        last = graph.num_nodes - 1  # pre-fix, u=1.0 indexes past indices
        network = network_on(variant, graph, rng=_PinnedRng(value))
        network.seed_tokens(np.array([last]))
        network.run_exchange_round()
        assert _holder_of_one(network) == int(graph.neighbors(last)[-1])

    @pytest.mark.parametrize("value", [1.0 - 2.0**-53, 1.0])
    def test_compiled_fused_boundary_draw_hits_last_neighbor(
        self, value, network_on
    ):
        """A multi-round run applies the same clamp in every round."""
        graph = cycle_graph(7)
        last = graph.num_nodes - 1
        network = network_on("compiled", graph, rng=_PinnedRng(value))
        network.seed_tokens(np.array([last]))
        network.run_exchange(3)
        walked = last
        for _ in range(3):
            walked = int(graph.neighbors(walked)[-1])
        assert _holder_of_one(network) == walked

    @pytest.mark.parametrize("value", [1.0 - 2.0**-53, 1.0])
    def test_faithful_boundary_draw_hits_last_neighbor(self, value):
        graph = cycle_graph(7)
        node = FaithfulNetwork(graph, rng=0).nodes[0]
        assert node.sample_neighbor(_PinnedRng(value)) == int(
            graph.neighbors(0)[-1]
        )

    @pytest.mark.parametrize("value", [1.0 - 2.0**-53, 1.0])
    def test_token_walk_boundary_draw_hits_last_neighbor(self, value):
        graph = cycle_graph(7)
        last = graph.num_nodes - 1
        finals = simulate_token_walks(
            graph, np.array([last]), 1, rng=_PinnedRng(value)
        )
        assert int(finals[0]) == int(graph.neighbors(last)[-1])


class TestBoundedDegreeCache:
    def test_static_engine_never_populates_cache(self):
        """Manual swaps on a static engine bypass the cache entirely —
        nothing pins the replaced graphs alive."""
        engine = VectorizedExchange(cycle_graph(10), rng=0)
        assert engine._degree_cache_limit == 1
        for seed in range(6):
            engine.set_graph(random_regular_graph(4, 10, rng=seed))
            assert len(engine._degree_cache) == 0

    def test_schedule_cache_bounded_by_distinct_graphs(self):
        schedule = DynamicGraphSchedule([
            random_regular_graph(4, 20, rng=0),
            cycle_graph(20),
            complete_graph(20),
        ])
        engine = VectorizedExchange(schedule, rng=0)
        assert engine._degree_cache_limit == 3
        engine.seed_tokens(np.arange(20))
        engine.run(9)  # cycles through every graph three times
        assert len(engine._degree_cache) <= 3

    def test_repeated_graph_hits_cache(self):
        schedule = DynamicGraphSchedule([
            random_regular_graph(4, 16, rng=0),
            cycle_graph(16),
        ])
        engine = VectorizedExchange(schedule, rng=0)
        engine.seed_tokens(np.arange(16))
        engine.run_round()  # graph 0 (bound at construction)
        engine.run_round()  # graph 1 — cached by set_graph
        degrees_graph_one = engine._degrees
        engine.run_round()  # graph 0 again
        engine.run_round()  # graph 1 — must hit, not recompute
        assert engine._degrees is degrees_graph_one

    def test_cache_limit_caps_lazy_schedules(self):
        graphs = [random_regular_graph(4, 12, rng=seed) for seed in range(5)]
        schedule = DynamicGraphSchedule(graphs)
        engine = VectorizedExchange(schedule, rng=0)
        # The bound formula: min(num_graphs, module cap).
        assert engine._degree_cache_limit == min(
            schedule.num_graphs, _DEGREE_CACHE_LIMIT
        )
        for graph in graphs * 2:
            engine.set_graph(graph)
        assert len(engine._degree_cache) <= engine._degree_cache_limit
