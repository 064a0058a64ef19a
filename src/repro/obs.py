"""Process-wide counters: the one registry every layer counts into.

Counters are named integers (``graph_cache.builds``,
``kernel_sampler.hits``, ``profile_store.spill_bytes``, ...) that only
grow, so readers compare two :func:`snapshot` values.  A pool worker
returns :func:`since` of the point it ran, and the parent folds it in
with :func:`add`, so a process's counts include its workers' work.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping

_LOCK = threading.Lock()
_COUNTS: Dict[str, int] = {}


def count(name: str, amount: int = 1) -> None:
    """Raise counter ``name`` by ``amount``."""
    with _LOCK:
        _COUNTS[name] = _COUNTS.get(name, 0) + amount


def snapshot() -> Dict[str, int]:
    """Every counter counted so far, by name."""
    with _LOCK:
        return dict(_COUNTS)


def since(before: Mapping[str, int]) -> Dict[str, int]:
    """The counters that moved after the ``before`` snapshot, by how much."""
    now = snapshot()
    return {
        name: value - before.get(name, 0)
        for name, value in now.items()
        if value != before.get(name, 0)
    }


def add(delta: Mapping[str, int]) -> None:
    """Fold another process's :func:`since` into this one's counters."""
    with _LOCK:
        for name, amount in delta.items():
            _COUNTS[name] = _COUNTS.get(name, 0) + amount
