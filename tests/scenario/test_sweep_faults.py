"""Fault-tolerant sweeps: isolation, crash recovery, checkpoint resume.

Every failure here is *real* — injected via :mod:`repro.testing.faults`,
points genuinely raise, ``os._exit`` their worker process, or hang —
and the assertions are the ISSUE 8 contracts: ``on_error="collect"``
isolates failures as :class:`PointFailure` values, killed workers are
rebuilt and their points retried, poison points are quarantined after
``retries`` extra attempts, hung points die at ``point_timeout``, and
store-backed sweeps resume from whatever was checkpointed before an
interruption.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro

from repro.exceptions import (
    ExecutionTimeoutError,
    ValidationError,
    WorkerCrashError,
)
from repro.scenario import (
    GraphSpec,
    MechanismSpec,
    PointFailure,
    Scenario,
    clear_graph_cache,
    sweep,
)
from repro.store import ResultsStore, campaign_status
from repro.testing import FaultRule, InjectedFaultError, inject

AXIS = {"rounds": [2, 3, 4, 5]}  # grid points 0..3, in grid order


@pytest.fixture(autouse=True)
def _fresh_cache():
    from repro.scenario import GRAPH_CACHE

    clear_graph_cache()
    GRAPH_CACHE.spill_dir = None
    yield
    clear_graph_cache()
    GRAPH_CACHE.spill_dir = None


def _base(**overrides) -> Scenario:
    kwargs = dict(
        graph=GraphSpec.of("k_regular", degree=4, num_nodes=64),
        mechanism=MechanismSpec.of("rr", epsilon=1.0),
        rounds=2,
        seed=1,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def _pooled(**overrides):
    kwargs = dict(
        axis=AXIS,
        mode="stationary_bound",
        workers=2,
        mp_context="fork",
        on_error="collect",
        backoff=0.01,
    )
    kwargs.update(overrides)
    return sweep(_base(), **kwargs)


class TestArgumentValidation:
    def test_unknown_on_error_refused(self):
        with pytest.raises(ValidationError, match="on_error"):
            sweep(_base(), axis=AXIS, mode="stationary_bound",
                  on_error="ignore")

    def test_negative_retries_refused(self):
        with pytest.raises(ValidationError, match="retries"):
            sweep(_base(), axis=AXIS, mode="stationary_bound", retries=-1)

    def test_nonpositive_timeout_refused(self):
        with pytest.raises(ValidationError, match="point_timeout"):
            sweep(_base(), axis=AXIS, mode="stationary_bound",
                  point_timeout=0)

    def test_negative_backoff_refused(self):
        with pytest.raises(ValidationError, match="backoff"):
            sweep(_base(), axis=AXIS, mode="stationary_bound", backoff=-0.1)


class TestSequentialIsolation:
    def test_collect_isolates_the_failing_point(self):
        with inject([FaultRule(point=1, message="wired to fail")]):
            result = sweep(
                _base(), axis=AXIS, mode="stationary_bound",
                on_error="collect",
            )
        assert result.computed == 3 and result.failed == 1
        assert len(result.points) == 4
        point = result.points[1]
        assert point.failed and point.outcome is None
        assert point.epsilon is None
        failure = point.failure
        assert isinstance(failure, PointFailure)
        assert failure.error == "InjectedFaultError"
        assert failure.kind == "exception"
        assert failure.attempts == 1 and not failure.quarantined
        assert "wired to fail" in failure.message
        assert [p.failure.error for p in result.failures] == [
            "InjectedFaultError"
        ]

    def test_raise_aborts_on_first_failure(self):
        with inject([FaultRule(point=1)]):
            with pytest.raises(InjectedFaultError):
                sweep(_base(), axis=AXIS, mode="stationary_bound")

    def test_deterministic_exceptions_are_never_retried(self):
        # retries budget crash/timeout recovery, not plain exceptions.
        with inject([FaultRule(point=0, times=5)]):
            result = sweep(
                _base(), axis=AXIS, mode="stationary_bound",
                on_error="collect", retries=3,
            )
        assert result.failed == 1
        assert result.points[0].failure.attempts == 1


class TestCrashRecovery:
    def test_killed_worker_is_rebuilt_and_the_point_retried(self):
        with inject([FaultRule(point=2, action="exit", times=1)]) as plan:
            result = _pooled(retries=2)
            assert plan.fired(0) == 1
        assert result.failed == 0 and result.computed == 4
        assert all(point.outcome is not None for point in result.points)

    def test_poison_point_is_quarantined(self):
        with inject([FaultRule(point=1, action="exit", times=10)]):
            result = _pooled(retries=1)
        assert result.failed == 1 and result.computed == 3
        failure = result.points[1].failure
        assert failure.error == "WorkerCrashError"
        assert failure.kind == "crash"
        assert failure.quarantined
        assert failure.attempts == 2  # first try + retries=1
        # Bystander points sharing the doomed pool still complete.
        assert all(
            point.outcome is not None
            for index, point in enumerate(result.points)
            if index != 1
        )

    def test_poison_point_raises_without_collect(self):
        with inject([FaultRule(point=1, action="exit", times=10)]):
            with pytest.raises(WorkerCrashError, match="poison"):
                _pooled(on_error="raise", retries=1)


class TestHungPoints:
    def test_hung_point_is_killed_and_retried(self):
        with inject([FaultRule(point=3, action="hang", seconds=60,
                               times=1)]):
            result = _pooled(retries=1, point_timeout=0.75)
        assert result.failed == 0 and result.computed == 4

    def test_persistent_hang_is_quarantined_as_timeout(self):
        with inject([FaultRule(point=0, action="hang", seconds=60,
                               times=10)]):
            result = _pooled(retries=1, point_timeout=0.5)
        failure = result.points[0].failure
        assert failure.error == "ExecutionTimeoutError"
        assert failure.kind == "timeout"
        assert failure.quarantined and failure.attempts == 2
        assert result.computed == 3

    def test_persistent_hang_raises_without_collect(self):
        with inject([FaultRule(point=0, action="hang", seconds=60,
                               times=10)]):
            with pytest.raises(ExecutionTimeoutError, match="point_timeout"):
                _pooled(on_error="raise", retries=0, point_timeout=0.5)


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_only_the_missing_tail(self, tmp_path):
        store = str(tmp_path / "results.sqlite")
        with inject([FaultRule(point=2)]):
            with pytest.raises(InjectedFaultError):
                sweep(
                    _base(), axis=AXIS, mode="stationary_bound",
                    store=store, campaign="doomed",
                )
        with ResultsStore(store) as opened:
            # Points 0 and 1 were checkpointed as they completed.
            assert opened.point_count() == 2
            assert campaign_status(opened, "doomed") == "interrupted"

        resumed = sweep(
            _base(), axis=AXIS, mode="stationary_bound",
            store=store, campaign="second-try",
        )
        assert resumed.reused == 2 and resumed.computed == 2
        assert resumed.failed == 0
        with ResultsStore(store) as opened:
            assert opened.point_count() == 4
            assert campaign_status(opened, "second-try") == "complete"

    def test_failed_points_are_not_checkpointed(self, tmp_path):
        store = str(tmp_path / "results.sqlite")
        with inject([FaultRule(point=1, times=1)]):
            first = sweep(
                _base(), axis=AXIS, mode="stationary_bound",
                store=store, on_error="collect",
            )
            assert first.failed == 1 and first.computed == 3
            # Same process, fault budget now spent: only the failed
            # point is recomputed, the checkpointed three are reused.
            second = sweep(
                _base(), axis=AXIS, mode="stationary_bound",
                store=store, on_error="collect",
            )
        assert second.failed == 0
        assert second.computed == 1 and second.reused == 3

    def test_collected_failures_leave_campaign_complete(self, tmp_path):
        # A failure handled by on_error="collect" is not an
        # interruption: the sweep ran to the end of its grid.
        store = str(tmp_path / "results.sqlite")
        with inject([FaultRule(point=0)]):
            sweep(
                _base(), axis=AXIS, mode="stationary_bound",
                store=store, campaign="lossy", on_error="collect",
            )
        with ResultsStore(store) as opened:
            assert campaign_status(opened, "lossy") == "complete"

    def test_pooled_sweep_checkpoints_through_a_worker_kill(self, tmp_path):
        # The ISSUE 8 acceptance scenario: store-backed pooled sweep,
        # one worker killed mid-flight, still completes under collect
        # with every point computed and recorded.
        store = str(tmp_path / "results.sqlite")
        with inject([FaultRule(point=1, action="exit", times=1)]):
            result = _pooled(retries=2, store=store, campaign="chaos")
        assert result.failed == 0 and result.computed == 4
        with ResultsStore(store) as opened:
            assert opened.point_count() == 4
            assert campaign_status(opened, "chaos") == "complete"


#: A process that owns a spawn pool, runs one point on it, prints its
#: worker pids and idles (until the test SIGKILLs it).
_POOL_OWNER = textwrap.dedent(
    """
    import multiprocessing
    import time

    from repro.scenario import GraphSpec, MechanismSpec, Scenario
    from repro.scenario.sweep import PointPool

    if __name__ == "__main__":
        pool = PointPool(1, context=multiprocessing.get_context("spawn"))
        scenario = Scenario(
            graph=GraphSpec.of("k_regular", degree=4, num_nodes=64),
            mechanism=MechanismSpec.of("rr", epsilon=1.0),
            rounds=2,
            seed=1,
        )
        pool.submit(0, scenario.to_json(), "bound")
        assert all(point.error is None for point in pool.drain())
        print(*pool._pool._processes, flush=True)
        time.sleep(600)
    """
)


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (an exited, not yet reaped zombie does not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


class TestOrphanedWorkers:
    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        script = tmp_path / "owner.py"
        script.write_text(_POOL_OWNER)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(repro.__file__).resolve().parents[1]),
            env.get("PYTHONPATH"),
        ]))
        owner = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE,
            text=True, env=env,
        )
        workers = []
        try:
            ready, _, _ = select.select([owner.stdout], [], [], 120)
            assert ready, "the pool owner did not finish its point"
            workers = [int(pid) for pid in owner.stdout.readline().split()]
            assert workers, "the pool owner reported no worker"
            owner.send_signal(signal.SIGKILL)
            owner.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            owner.kill()
            owner.wait(timeout=10)
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
