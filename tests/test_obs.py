"""The process-wide counter registry, :mod:`repro.obs`."""

from __future__ import annotations

import sys
import threading

from repro import obs


def test_since_reports_only_what_moved_and_add_folds_it_in():
    obs.count("test_obs.untouched")
    before = obs.snapshot()
    obs.count("test_obs.moved")
    obs.count("test_obs.moved", 4)
    delta = obs.since(before)
    assert delta == {"test_obs.moved": 5}
    obs.add(delta)
    assert obs.since(before) == {"test_obs.moved": 10}


def test_concurrent_counts_are_never_lost():
    # More threads than cores, switching as often as the interpreter
    # allows: a lost read-modify-write would leave the total short.
    threads, each = 16, 2_000
    before = obs.snapshot()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(
                target=lambda: [obs.count("test_obs.stress") for _ in range(each)]
            )
            for _ in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(previous)
    assert obs.since(before) == {"test_obs.stress": threads * each}
