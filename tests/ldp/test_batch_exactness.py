"""Registry-wide exactness of batched randomization.

``LocalRandomizer.randomize_batch`` promises to be bit for bit the
per-value loop, leaving the generator in the same state; the protocols
and the ``A_single`` dummy factories rely on it to randomize every user
in one call without moving a seeded stream.  k-ary RR is the one
documented exception (its batch draws all coins before any substitute).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graphs.generators import random_regular_graph
from repro.ldp import KaryRandomizedResponse
from repro.ldp.privunit import _BLOCK_ROWS, _row_norms
from repro.protocols.all_protocol import run_all_protocol
from repro.protocols.reports import payload_list
from repro.protocols.single_protocol import DUMMY_ORIGIN, run_single_protocol
from repro.scenario import DUMMIES, MECHANISMS, VALUES
from repro.testing.oracle import FaithfulNetwork

#: Figure 9's shape: PrivUnit at d = 200 over more rows than one block.
FIGURE9 = {"epsilon": 2.0, "dimension": 200}
FIGURE9_COUNT = _BLOCK_ROWS + 88


def _values(kind: str, count: int, rng: np.random.Generator, params=None):
    """Valid raw inputs for a registered mechanism kind."""
    params = params or MECHANISMS.example(kind)
    if kind == "rr":
        return VALUES.build("bernoulli", rng, count, rate=0.4)
    if kind in ("kary_rr", "unary"):
        return VALUES.build("choice", rng, count, num_options=params["num_symbols"])
    if kind in ("laplace", "gaussian"):
        return rng.random(count).tolist()
    if kind == "privunit":
        return VALUES.build(
            "bimodal_unit_vectors", rng, count, dimension=params["dimension"]
        )
    raise AssertionError(f"no exactness inputs for mechanism {kind!r}; add them here")


def _cases(counts, *, skip=()):
    """``(kind, count)`` over the registry."""
    return [
        pytest.param(kind, count, None, id=f"{kind}-{count}")
        for kind in MECHANISMS.available()
        if kind not in skip
        for count in counts
    ]


def _assert_same_payloads(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert type(a) is type(b)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


def _assert_same_state(a: np.random.Generator, b: np.random.Generator):
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("kind, count, params", [
    *_cases([0, 5, 1300]),
    pytest.param("privunit", FIGURE9_COUNT, FIGURE9, id="privunit-figure9"),
])
def test_randomize_batch_matches_per_value_loop(kind, count, params):
    mechanism = MECHANISMS.build(kind, **(params or MECHANISMS.example(kind)))
    values = _values(kind, count, np.random.default_rng(count), params) if count else []
    looped_rng, batched_rng = np.random.default_rng(9), np.random.default_rng(9)
    looped = [mechanism.randomize(value, looped_rng) for value in values]
    batched = payload_list(mechanism.randomize_batch(values, batched_rng))
    _assert_same_payloads(batched, looped)
    _assert_same_state(batched_rng, looped_rng)


_INVALID = {
    "rr": [0.5, 2, -1],
    "kary_rr": [2.7, 5, -1],
    "unary": [2.7, 5, -1],
    "laplace": [1.5, -0.1, float("nan")],
    "gaussian": [1.5, -0.1, float("nan")],
    "privunit": [np.full(8, 0.5)],
}


@pytest.mark.parametrize("kind", MECHANISMS.available())
def test_batch_rejects_what_randomize_rejects(kind):
    mechanism = MECHANISMS.build(kind, **MECHANISMS.example(kind))
    good = _values(kind, 3, np.random.default_rng(0))
    for bad in _INVALID[kind]:
        with pytest.raises(ValidationError):
            mechanism.randomize(bad, 0)
        with pytest.raises(ValidationError):
            mechanism.randomize_batch([*good, bad], 0)


def test_protocol_run_rejects_fractional_bits(small_regular):
    values = [0] * small_regular.num_nodes
    values[3] = 0.5
    with pytest.raises(ValidationError):
        run_all_protocol(
            small_regular, 2, values=values,
            randomizer=MECHANISMS.build("rr", epsilon=1.0), rng=0,
        )


@pytest.mark.parametrize("count, params", [
    *(pytest.param(count, None, id=str(count)) for count in (0, 5, 600)),
    pytest.param(FIGURE9_COUNT, FIGURE9, id="figure9"),
])
def test_privunit_dummy_batch_matches_sequential_calls(count, params):
    """The batch is the paper's dummy drawn one at a time: ``z ~ N(5,
    1)^d`` normalized by its 1-D norm, then randomized."""
    mechanism = MECHANISMS.build("privunit", **(params or MECHANISMS.example("privunit")))

    def dummy(rng):
        z = rng.normal(5.0, 1.0, size=mechanism.dimension)
        return mechanism.randomize(z / np.linalg.norm(z), rng)

    factory = DUMMIES.build("privunit_normal", mechanism)
    _check_dummy_batch(factory, count, reference=dummy)
    _check_dummy_batch(factory, count)


# PrivUnit cannot randomize the scalar default value.
@pytest.mark.parametrize("kind, count, params", _cases([0, 5, 600], skip=("privunit",)))
def test_mechanism_zero_dummy_batch_matches_sequential_calls(kind, count, params):
    mechanism = MECHANISMS.build(kind, **(params or MECHANISMS.example(kind)))
    _check_dummy_batch(DUMMIES.build("mechanism_zero", mechanism), count)


def _check_dummy_batch(factory, count, *, reference=None):
    """``factory(rng, count)`` is one array of ``count`` dummies equal to
    ``count`` one-dummy draws (by default ``factory(rng, 1)``), values
    and final generator state."""
    if reference is None:
        def reference(rng):
            return payload_list(factory(rng, 1))[0]
    looped_rng, batched_rng = np.random.default_rng(4), np.random.default_rng(4)
    looped = [reference(looped_rng) for _ in range(count)]
    batch = factory(batched_rng, count)
    assert isinstance(batch, np.ndarray) and len(batch) == count
    _assert_same_payloads(payload_list(batch), looped)
    _assert_same_state(batched_rng, looped_rng)


@pytest.mark.parametrize("dimension", [2, 7, 200, 201])
def test_stacked_row_norms_match_one_dimensional_norms(dimension):
    """Drawn PrivUnit inputs are normalized a block at a time; each row
    norm must be ``np.linalg.norm`` of that row as a fresh 1-D array."""
    block = np.random.default_rng(dimension).normal(5.0, 1.0, (FIGURE9_COUNT, dimension))
    fresh = [np.linalg.norm(np.array(row)) for row in block]
    assert _row_norms(block).tobytes() == np.array(fresh)[:, None].tobytes()


# ----------------------------------------------------------------------
# Protocols against a hand-written per-user reference
# ----------------------------------------------------------------------
def _reference_run(protocol, graph, rounds, values, randomizer, dummy_factory, seed):
    """Algorithms 1-2 with the per-user randomize/dummy loops spelled out."""
    generator = np.random.default_rng(seed)
    payloads = [randomizer.randomize(value, generator) for value in values]
    network = FaithfulNetwork(graph, rng=generator)
    network.seed_items({
        user: [(user, payload)] for user, payload in enumerate(payloads)
    })
    network.run_exchange(rounds)
    allocation = network.held_counts()
    if protocol == "all":
        network.deliver_to_server()
        return allocation, list(network.server.reports)
    held = network.drain_held()
    nonempty = np.flatnonzero(allocation > 0)
    picks = np.empty(graph.num_nodes, dtype=np.int64)
    picks[nonempty] = generator.integers(0, allocation[nonempty])
    delivered = []
    for user in range(graph.num_nodes):
        if held[user]:
            delivered.append(held[user][picks[user]])
        else:
            dummy, = payload_list(dummy_factory(generator, 1))
            delivered.append((DUMMY_ORIGIN, dummy))
    return allocation, delivered


@pytest.fixture(scope="module")
def exchange_graph():
    return random_regular_graph(4, 120, rng=3)


@pytest.mark.parametrize("engine", ["fast", "faithful"])
@pytest.mark.parametrize("protocol", ["all", "single"])
@pytest.mark.parametrize("kind, dummy", [
    ("rr", "mechanism_zero"),
    ("privunit", "privunit_normal"),
])
def test_protocol_matches_per_user_reference(
    exchange_graph, engine, protocol, kind, dummy, on_oracle
):
    """The per-user reference exchanges on the per-message oracle; the
    ``faithful`` case runs the protocol on the oracle too."""
    mechanism = MECHANISMS.build(kind, **MECHANISMS.example(kind))
    factory = DUMMIES.build(dummy, mechanism)
    values = _values(kind, exchange_graph.num_nodes, np.random.default_rng(1))
    rounds = 6
    allocation, expected = _reference_run(
        protocol, exchange_graph, rounds, values, mechanism, factory, seed=21
    )
    with on_oracle(engine == "faithful"):
        if protocol == "all":
            result = run_all_protocol(
                exchange_graph, rounds, values=values, randomizer=mechanism,
                rng=21,
            )
        else:
            result = run_single_protocol(
                exchange_graph, rounds, values=values, randomizer=mechanism,
                dummy_factory=factory, rng=21,
            )
    if protocol == "single":
        assert result.dummy_count > 0
    np.testing.assert_array_equal(result.allocation, allocation)
    assert [r.origin for r in result.server_reports] == [o for o, _ in expected]
    _assert_same_payloads(result.payloads(), [p for _, p in expected])


def test_single_protocol_draws_dummies_in_one_call(exchange_graph):
    """A factory is called once, with the dummy count; its dummies go
    to the empty-handed users in user order."""
    draws = []

    def factory(rng, count):
        draws.append(rng.random(count))
        return draws[-1]

    result = run_single_protocol(exchange_graph, 6, dummy_factory=factory, rng=2)
    assert len(draws) == 1 and draws[0].size == result.dummy_count > 0
    dummies = [r.payload for r in result.server_reports if r.is_dummy]
    assert dummies == draws[0].tolist()


# ----------------------------------------------------------------------
# k-ary RR: the recorded stream change stays within its statistical band
# ----------------------------------------------------------------------
def test_kary_protocol_frequency_estimate_within_band():
    num_symbols, epsilon = 5, 2.0
    graph = random_regular_graph(6, 4000, rng=11)
    rng = np.random.default_rng(5)
    symbols = rng.choice(num_symbols, size=graph.num_nodes, p=[0.4, 0.3, 0.15, 0.1, 0.05])
    randomizer = KaryRandomizedResponse(epsilon, num_symbols)
    result = run_all_protocol(
        graph, 8, values=symbols.tolist(), randomizer=randomizer, rng=13
    )
    estimate = randomizer.estimate_frequencies(result.payloads())
    truth = np.bincount(symbols, minlength=num_symbols) / symbols.size
    # Var(f_hat_j) = f_obs (1 - f_obs) / (n (p - q)^2) per symbol.
    p = randomizer.truth_probability
    q = (1.0 - p) / (num_symbols - 1.0)
    observed = (p - q) * truth + q
    sigma = np.sqrt(observed * (1.0 - observed) / symbols.size) / (p - q)
    assert np.all(np.abs(estimate - truth) <= 4.0 * sigma)
