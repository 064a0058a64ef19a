"""One dispatch per decision, checked on the source tree.

The four Theorem 5.3-5.6 functions are called only inside
``repro.amplification``, whose ``theorem_bound`` picks among them; the
two protocol runners only inside ``repro.protocols``, whose
``run_protocol`` picks between them.  Every other layer goes through
those two functions, so a change to either choice lands in one place.
Likewise one job runtime: worker pools are constructed only in
``repro.scenario.sweep``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SOURCE = Path(repro.__file__).parent

#: Package -> the functions only its own modules may call.
CONFINED = {
    "amplification": {
        "epsilon_all_stationary",
        "epsilon_all_symmetric",
        "epsilon_single_stationary",
        "epsilon_single_symmetric",
    },
    "protocols": {"run_all_protocol", "run_single_protocol"},
}


def _called_names(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None:
                yield name, node.lineno


@pytest.mark.parametrize("package", sorted(CONFINED))
def test_called_only_inside_their_package(package):
    names = CONFINED[package]
    stray = [
        f"{path.relative_to(SOURCE)}:{line} calls {name}"
        for path in sorted(SOURCE.rglob("*.py"))
        if path.relative_to(SOURCE).parts[0] != package
        for name, line in _called_names(path)
        if name in names
    ]
    assert not stray, f"call outside repro.{package}: {stray}"


#: Worker-pool classes constructed only in the sweep engine: served
#: jobs and pooled sweeps share its one supervised pool.
POOL_CLASSES = {"ProcessPoolExecutor", "ThreadPoolExecutor"}
POOL_SITE = Path("scenario", "sweep.py")


def test_worker_pools_are_built_only_by_the_sweep_engine():
    stray = [
        f"{path.relative_to(SOURCE)}:{line} constructs {name}"
        for path in sorted(SOURCE.rglob("*.py"))
        if path.relative_to(SOURCE) != POOL_SITE
        for name, line in _called_names(path)
        if name in POOL_CLASSES
    ]
    assert not stray, f"worker pool outside {POOL_SITE}: {stray}"
