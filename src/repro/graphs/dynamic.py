"""Random walks on *dynamic* graphs (paper Section 4.5 / future work).

The paper suggests modeling user churn and adversarial node removal
with walks on time-varying graphs (citing Zhong-Shen-Seiferas).  A
:class:`DynamicGraphSchedule` supplies one graph per round; the walk
engine below evolves position distributions and token walks across the
sequence, and the privacy bounds consume the resulting exact
``sum_i P_i(t)^2`` — no stationarity assumption needed.

Convergence caveat: a dynamic walk need not converge at all (e.g.
alternating between two bipartite graphs); the exact evolution is the
honest tool here, which is why these helpers return full distributions
rather than spectral shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SimulationError, ValidationError
from repro.graphs.graph import Graph
from repro.graphs.walks import lazy_transition_matrix
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_probability, check_probability_vector

#: A column panel of user distributions: dense ``(n, B)`` array, or a
#: scipy sparse matrix of the same shape while the columns are still
#: mostly one-hot (early rounds / truncated evolution).
Panel = Union[np.ndarray, sp.spmatrix]

#: Densify a sparse panel once its fill fraction crosses this.  The
#: sparse-sparse product grows superlinearly with fill while the
#: sparse-dense product costs ``nnz(M) * B`` flat, so already at 5% fill
#: the dense panel wins (measured at n = 1000-5000, 4-16 rounds).
_DENSIFY_FRACTION = 0.05


class DynamicGraphSchedule:
    """A time-indexed sequence of communication graphs.

    Parameters
    ----------
    graphs:
        The distinct topologies.
    selector:
        Maps a round index to an index into ``graphs``; defaults to
        round-robin.  All graphs must share the same node count.
    """

    def __init__(
        self,
        graphs: Sequence[Graph],
        selector: Optional[Callable[[int], int]] = None,
    ):
        if not graphs:
            raise ValidationError("need at least one graph")
        sizes = {graph.num_nodes for graph in graphs}
        if len(sizes) != 1:
            raise ValidationError(
                f"all graphs must share a node count, got sizes {sorted(sizes)}"
            )
        self._graphs = list(graphs)
        self._selector = selector

    @property
    def num_nodes(self) -> int:
        """Shared node count of all scheduled graphs."""
        return self._graphs[0].num_nodes

    @property
    def num_graphs(self) -> int:
        """Number of distinct topologies."""
        return len(self._graphs)

    @property
    def graphs(self) -> Tuple[Graph, ...]:
        """The distinct topologies, in schedule order."""
        return tuple(self._graphs)

    @property
    def selector(self) -> Optional[Callable[[int], int]]:
        """The round→graph selector (``None`` means round-robin)."""
        return self._selector

    def graph_at(self, round_index: int) -> Graph:
        """The topology in force at ``round_index``."""
        if round_index < 0:
            raise ValidationError(f"round must be non-negative, got {round_index}")
        if self._selector is None:
            return self._graphs[round_index % len(self._graphs)]
        index = self._selector(round_index)
        if not 0 <= index < len(self._graphs):
            raise ValidationError(
                f"selector returned {index}, valid range is "
                f"[0, {len(self._graphs)})"
            )
        return self._graphs[index]


@dataclass(frozen=True)
class EpochSelector:
    """Hold each scheduled graph for ``block`` consecutive rounds.

    A module-level callable (not a lambda) so built schedules — and the
    RunResults that carry them — stay picklable for pooled sweeps, and
    so :func:`repro.graphs.io.save_schedule_npz` can serialize the
    selector by its two integers.
    """

    block: int
    count: int

    def __call__(self, round_index: int) -> int:
        return (round_index // self.block) % self.count


class _TransitionCache:
    """Memoized per-graph transposed transition CSRs for one traversal.

    Schedules typically cycle a handful of distinct topologies; building
    (and transposing) ``lazy_transition_matrix`` once per *distinct
    graph object* instead of once per round turns an O(rounds) rebuild
    cost into O(num_graphs).  The cached matrix is exactly the one the
    unmemoized loop would rebuild, so results stay bit-identical.

    Entries key by ``id(graph)`` but *hold the graph object too*: a
    schedule subclass may generate phase graphs lazily, and once such a
    graph is garbage-collected its ``id`` is free for reuse — a bare
    ``id -> matrix`` map could then silently hand a different topology
    the wrong transition matrix.  Keeping the reference pins every
    keyed graph alive for the cache's lifetime, so ids stay unique.
    """

    def __init__(self, schedule: DynamicGraphSchedule, laziness: float):
        self._schedule = schedule
        self._laziness = laziness
        self._matrices: Dict[int, Tuple[Graph, sp.csr_matrix]] = {}

    def at(self, round_index: int) -> sp.csr_matrix:
        """``M_t^T`` (CSR) for the graph in force at ``round_index``."""
        graph = self._schedule.graph_at(round_index)
        entry = self._matrices.get(id(graph))
        if entry is None or entry[0] is not graph:
            matrix = lazy_transition_matrix(graph, self._laziness).T.tocsr()
            self._matrices[id(graph)] = (graph, matrix)
            return matrix
        return entry[1]


def evolve_on_schedule(
    schedule: DynamicGraphSchedule,
    initial: np.ndarray,
    steps: int,
    *,
    laziness: float = 0.0,
    start_round: int = 0,
) -> np.ndarray:
    """Exact ``P(t)`` across a dynamic schedule.

    Each round applies the transition matrix of that round's graph:
    ``P(t+1) = M_t^T P(t)``.  ``start_round`` offsets the schedule clock
    so evolutions can resume mid-schedule (incremental sweeps).
    """
    if steps < 0:
        raise ValidationError(f"steps must be non-negative, got {steps}")
    current = check_probability_vector(
        initial, "initial", size=schedule.num_nodes
    ).astype(np.float64)
    cache = _TransitionCache(schedule, laziness)
    for round_index in range(start_round, start_round + steps):
        current = cache.at(round_index) @ current
    return current


def position_distribution_on_schedule(
    schedule: DynamicGraphSchedule,
    start_node: int,
    steps: int,
    *,
    laziness: float = 0.0,
) -> np.ndarray:
    """``P(t)`` for a walk started deterministically at ``start_node``.

    The schedule counterpart of
    :func:`repro.graphs.walks.position_distribution` — what the
    informed-adversary audit statistics weigh payloads by.
    """
    if not 0 <= start_node < schedule.num_nodes:
        raise ValidationError(
            f"start_node {start_node} out of range for "
            f"{schedule.num_nodes} nodes"
        )
    initial = np.zeros(schedule.num_nodes)
    initial[start_node] = 1.0
    return evolve_on_schedule(schedule, initial, steps, laziness=laziness)


def trace_collision_on_schedule(
    schedule: DynamicGraphSchedule,
    initial: np.ndarray,
    steps: int,
    *,
    laziness: float = 0.0,
) -> List[float]:
    """``sum_i P_i(t)^2`` for ``t = 0 .. steps`` on a dynamic schedule.

    Feed any entry straight into the Theorem 5.3/5.5 bounds as the
    exact collision mass for a protocol stopping at that round.
    """
    if steps < 0:
        raise ValidationError(f"steps must be non-negative, got {steps}")
    current = check_probability_vector(
        initial, "initial", size=schedule.num_nodes
    ).astype(np.float64)
    cache = _TransitionCache(schedule, laziness)
    collisions = [float(current @ current)]
    for round_index in range(steps):
        current = cache.at(round_index) @ current
        collisions.append(float(current @ current))
    return collisions


# ----------------------------------------------------------------------
# Blocked / sparsity-aware profile evolution (out-of-core accounting)
# ----------------------------------------------------------------------
def identity_panel(num_nodes: int, start: int, stop: int) -> sp.csc_matrix:
    """Columns ``start .. stop`` of the ``(n, n)`` identity, as sparse CSC.

    The starting state of one user block: column ``j`` is user
    ``start + j``'s one-hot position distribution.  Rows are sorted and
    the matrix is canonical, so the very first product sees the same
    operand values the dense ``np.eye`` path sees.
    """
    if not 0 <= start < stop <= num_nodes:
        raise ValidationError(
            f"invalid column block [{start}, {stop}) for {num_nodes} nodes"
        )
    width = stop - start
    return sp.csc_matrix(
        (
            np.ones(width, dtype=np.float64),
            np.arange(start, stop, dtype=np.int64),
            np.arange(width + 1, dtype=np.int64),
        ),
        shape=(num_nodes, width),
    )


def _sequential_sum(values: np.ndarray) -> float:
    """Strictly left-to-right IEEE sum (no pairwise trees, no SIMD lanes).

    ``np.add.accumulate`` is sequential *by definition* — every prefix
    is the running partial — which makes the result a pure function of
    the value sequence, independent of array width, stride, or SIMD
    remainder handling.  That is the property the blocked accounting
    leans on: a dense column (zeros included — adding ``0.0`` to a
    non-negative partial is exact) reduces to the same bits as the
    sparse column holding only its non-zeros.
    """
    if values.size == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1])


def panel_collisions(panel: Panel) -> np.ndarray:
    """Per-column collision mass ``sum_i panel[i, j]^2``, shape ``(B,)``.

    Bit-stable across representations and block widths: each column
    reduces with :func:`_sequential_sum` in ascending row order,
    whether its values live in a sparse CSC segment or a dense slice.
    """
    if sp.issparse(panel):
        matrix = panel.tocsc()
        matrix.sort_indices()
        squares = matrix.data * matrix.data
        return np.array([
            _sequential_sum(squares[matrix.indptr[j]:matrix.indptr[j + 1]])
            for j in range(matrix.shape[1])
        ])
    dense = np.asarray(panel, dtype=np.float64)
    return np.array([
        _sequential_sum(dense[:, j] * dense[:, j])
        for j in range(dense.shape[1])
    ])


def _truncate_panel(
    panel: Panel, tol: float, dropped: np.ndarray
) -> Panel:
    """Zero entries in ``(0, tol)``, accumulating the mass per column.

    The truncated evolution stays an elementwise *lower* bound of the
    exact one (the transition matrices are non-negative), so the mass
    recorded in ``dropped`` prices the error: the exact collision of
    column ``j`` lies within ``2 * dropped[j]`` above the truncated one.
    Dropped mass accumulates with the same sequential reduction as
    :func:`panel_collisions`, so it too is representation-independent.
    """
    if sp.issparse(panel):
        matrix = panel.tocsc()
        matrix.sort_indices()
        mask = matrix.data < tol
        if mask.any():
            masked = np.where(mask, matrix.data, 0.0)
            for j in range(matrix.shape[1]):
                segment = masked[matrix.indptr[j]:matrix.indptr[j + 1]]
                if segment.size:
                    dropped[j] += _sequential_sum(segment)
            matrix.data[mask] = 0.0
            matrix.eliminate_zeros()
        return matrix
    mask = (panel > 0.0) & (panel < tol)
    if mask.any():
        masked = np.where(mask, panel, 0.0)
        for j in range(panel.shape[1]):
            dropped[j] += _sequential_sum(masked[:, j])
        panel = np.where(mask, 0.0, panel)
    return panel


def evolve_panel_on_schedule(
    schedule: DynamicGraphSchedule,
    panel: Panel,
    steps: int,
    *,
    laziness: float = 0.0,
    start_round: int = 0,
    transitions: Optional[_TransitionCache] = None,
    truncation: Optional[float] = None,
    dropped: Optional[np.ndarray] = None,
) -> Tuple[Panel, np.ndarray]:
    """Evolve one column block of user distributions across the schedule.

    The blocked counterpart of the dense reference
    :func:`repro.testing.oracle.evolve_profile_on_schedule`: the
    panel holds ``B`` users' distributions and advances through the
    same per-round transposed transition CSRs, so each column's value
    sequence is **bit-identical** to the corresponding column of the
    dense ``(n, n)`` evolution (sparse products accumulate each output
    element over the same operands in the same order; the dense path
    merely adds exact zeros).  One-hot columns stay sparse until the
    fill fraction crosses ``_DENSIFY_FRACTION``, so early rounds (and
    truncated evolutions, which never densify on bounded-degree churn)
    cost ``O(nnz)`` instead of ``O(n * B)``.

    ``truncation`` zeroes entries below the tolerance after every
    round; the cumulative mass removed from each column is returned in
    the second element (resuming evolutions pass the previous
    ``dropped`` back in).  Without truncation that array is all zeros.
    """
    if steps < 0:
        raise ValidationError(f"steps must be non-negative, got {steps}")
    if truncation is not None and not 0.0 < truncation < 1.0:
        raise ValidationError(
            f"truncation must be in (0, 1), got {truncation}"
        )
    n = schedule.num_nodes
    if panel.ndim != 2 or panel.shape[0] != n:
        raise ValidationError(
            f"panel must have shape ({n}, B), got {panel.shape}"
        )
    width = panel.shape[1]
    dropped = (
        np.zeros(width, dtype=np.float64)
        if dropped is None
        else np.asarray(dropped, dtype=np.float64).copy()
    )
    cache = transitions or _TransitionCache(schedule, laziness)
    if not sp.issparse(panel):
        panel = np.asarray(panel, dtype=np.float64)
    for round_index in range(start_round, start_round + steps):
        panel = cache.at(round_index) @ panel
        if sp.issparse(panel):
            panel = panel.tocsc()
            panel.sort_indices()
            panel.eliminate_zeros()
            if panel.nnz > _DENSIFY_FRACTION * n * width:
                panel = panel.toarray()
        if truncation is not None:
            panel = _truncate_panel(panel, truncation, dropped)
    return panel, dropped


class _HopContext:
    """Per-graph arrays the vectorized hop needs, computed once.

    This is the single home of the hop's graph-side setup — the token
    walk memoizes one per distinct topology (a static walk is a
    one-graph schedule) — so the degree/CSR contract lives in one place.
    ``uniform_degree`` is the scalar degree of a regular graph (the
    paper's main scenario: same uniform draws, one fewer million-element
    gather per round, bit-identical to the general path) or ``None``.
    """

    __slots__ = ("degrees", "uniform_degree", "has_isolated", "indptr", "indices")

    def __init__(self, graph: Graph):
        self.degrees = graph.degrees()
        self.uniform_degree = (
            int(self.degrees[0])
            if self.degrees.size and self.degrees.min() == self.degrees.max()
            else None
        )
        self.has_isolated = bool(self.degrees.size) and self.degrees.min() == 0
        self.indptr = graph.indptr
        self.indices = graph.indices


def _hop_tokens(
    holders: np.ndarray,
    context: _HopContext,
    laziness: float,
    generator: np.random.Generator,
) -> np.ndarray:
    """One walk hop on a prebuilt :class:`_HopContext`.

    A *moving* token on an isolated node raises ``SimulationError`` —
    the lazy-walk fault-model semantics of the exchange engine: a token
    that stays put this round (laziness) tolerates temporary isolation.
    The draw order (hop uniforms, then the laziness mask) is the
    established stream contract; the guard consumes no randomness.
    """
    degrees = context.degrees
    node_degrees = (
        context.uniform_degree if context.uniform_degree else degrees[holders]
    )
    offsets = (generator.random(holders.size) * node_degrees).astype(np.int64)
    # Same boundary clamp as the exchange engine: floor(u * degree)
    # can only reach degree on a contract-violating draw (u == 1.0
    # from a stubbed/custom generator); bit-identical otherwise.
    np.minimum(offsets, node_degrees - 1, out=offsets)
    if context.has_isolated:
        # Gather only where a neighbor exists (the draws above are
        # still one per token, keeping the stream contract); whether a
        # stranded token is an *error* depends on whether it moves.
        stranded = degrees[holders] == 0
        destinations = holders.copy()
        valid = ~stranded
        destinations[valid] = context.indices[
            context.indptr[holders[valid]] + offsets[valid]
        ]
    else:
        stranded = None
        destinations = context.indices[context.indptr[holders] + offsets]
    if laziness > 0.0:
        moving = generator.random(holders.size) >= laziness
        if stranded is not None and np.any(moving & stranded):
            raise SimulationError(
                "a moving token's node is isolated in the current topology"
            )
        return np.where(moving, destinations, holders)
    if stranded is not None and np.any(stranded):
        raise SimulationError(
            "a moving token's node is isolated in the current topology"
        )
    return destinations


def simulate_tokens_on_schedule(
    schedule: DynamicGraphSchedule,
    start_nodes: np.ndarray,
    steps: int,
    *,
    laziness: float = 0.0,
    rng: RngLike = None,
) -> np.ndarray:
    """Monte-Carlo token walks across a dynamic schedule.

    The one token walker: :func:`repro.graphs.walks.simulate_token_walks`
    runs it on a one-graph schedule.  Per-graph degree/CSR lookups
    (:class:`_HopContext`) are memoized per *distinct topology* so a
    cycling schedule pays one degree scan per graph, not per round.  A
    *moving* token stranded on a node the current
    topology isolates raises
    :class:`~repro.exceptions.SimulationError` — the exchange engine's
    lazy-walk semantics: a token that stays put this round tolerates
    temporary isolation.  Isolated *start* nodes stay a
    :class:`~repro.exceptions.ValidationError`, like the static walk.
    """
    if steps < 0:
        raise ValidationError(f"steps must be non-negative, got {steps}")
    check_probability(laziness, "laziness")
    holders = np.asarray(start_nodes, dtype=np.int64).copy()
    if holders.size and (
        holders.min() < 0 or holders.max() >= schedule.num_nodes
    ):
        raise ValidationError("start_nodes out of range")
    generator = ensure_rng(rng)
    # Like _TransitionCache, hold the graph alongside its context so a
    # lazily generated phase graph's id cannot be recycled mid-walk.
    contexts: Dict[int, Tuple[Graph, _HopContext]] = {}

    def context_for(round_index: int) -> _HopContext:
        graph = schedule.graph_at(round_index)
        entry = contexts.get(id(graph))
        if entry is None or entry[0] is not graph:
            context = _HopContext(graph)
            contexts[id(graph)] = (graph, context)
            return context
        return entry[1]

    start_context = context_for(0)
    if holders.size and start_context.has_isolated and np.any(
        start_context.degrees[holders] == 0
    ):
        raise ValidationError("some tokens start on isolated nodes")
    for round_index in range(steps):
        try:
            holders = _hop_tokens(
                holders, context_for(round_index), laziness, generator
            )
        except SimulationError as error:
            raise SimulationError(f"round {round_index}: {error}") from None
    return holders


def simulate_trial_walks_on_schedule(
    schedule: DynamicGraphSchedule,
    start_nodes: np.ndarray,
    steps: int,
    trials: int,
    *,
    laziness: float = 0.0,
    rng: RngLike = None,
) -> np.ndarray:
    """``trials`` independent repetitions of a scheduled token-walk batch.

    The schedule counterpart of
    :func:`repro.graphs.walks.simulate_trial_walks`: the trial axis is
    tiled into the token axis so all ``trials x num_tokens`` walks
    advance together, one NumPy hop per scheduled round.  Returns shape
    ``(trials, num_tokens)``.
    """
    if trials < 1:
        raise ValidationError(f"trials must be positive, got {trials}")
    starts = np.asarray(start_nodes, dtype=np.int64)
    tiled = np.tile(starts, trials)
    finals = simulate_tokens_on_schedule(
        schedule, tiled, steps, laziness=laziness, rng=rng
    )
    return finals.reshape(trials, starts.size)
