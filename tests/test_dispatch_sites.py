"""One dispatch per decision, checked on the source tree.

The four Theorem 5.3-5.6 functions are called only inside
``repro.amplification``, whose ``theorem_bound`` picks among them; the
two protocol runners and final rounds only inside ``repro.protocols``,
whose ``run_protocol`` and ``deliver`` pick between them.  Every other
layer goes through those functions, so a change to either choice lands
in one place.
Likewise one ``t``-step kernel: ``lazy_transition_matrix`` is called
only inside ``repro.graphs``, whose walks and profile panels every
exact consumer reads (the reference oracle in ``repro.testing`` keeps
its own dense chain).  One job runtime: worker pools are constructed
only in ``repro.scenario.sweep``; one counter site: counts are
raised only through ``repro.obs``; and one artifact writer: only
``repro.scenario.artifacts`` saves ``.npz`` files or renames them into
place.
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
    "protocols": {
        "run_all_protocol", "run_single_protocol", "deliver_all", "deliver_single",
    },
    "graphs": {"lazy_transition_matrix"},
}

#: Package -> modules outside it that may still call its functions.
EXEMPT = {"graphs": {Path("testing", "oracle.py")}}


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
        and path.relative_to(SOURCE) not in EXEMPT.get(package, ())
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


#: Counter names no module but :mod:`repro.obs` may ``+=``: the graph
#: cache, kernel sampler and profile store count through ``obs.count``.
COUNTER_NAMES = {
    "builds", "hits", "memory_hits", "disk_hits", "kernel_builds",
    "kernel_hits", "dense_profiles", "blocked_profiles", "blocks_evolved",
    "blocks_resumed", "blocks_spilled", "spill_bytes", "truncated_profiles",
}
COUNTER_SITE = Path("obs.py")


def _incremented_names(path: Path):
    """Names, attributes and string keys that a ``+=`` raises."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)):
            continue
        target = node.target
        if isinstance(target, ast.Name):
            yield target.id, node.lineno
        elif isinstance(target, ast.Attribute):
            yield target.attr, node.lineno
        elif (
            isinstance(target, ast.Subscript)
            and isinstance(target.slice, ast.Constant)
            and isinstance(target.slice.value, str)
        ):
            yield target.slice.value, node.lineno


def test_counters_are_raised_only_in_obs():
    stray = [
        f"{path.relative_to(SOURCE)}:{line} raises {name}"
        for path in sorted(SOURCE.rglob("*.py"))
        if path.relative_to(SOURCE) != COUNTER_SITE
        for name, line in _incremented_names(path)
        if name in COUNTER_NAMES
    ]
    assert not stray, f"counter raised outside repro/{COUNTER_SITE}: {stray}"


#: File writes only :mod:`repro.scenario.artifacts` may make: its one
#: atomic writer names every on-disk artifact by the code version.
WRITER_FUNCTIONS = {
    ("os", "replace"), ("np", "savez"), ("np", "savez_compressed"),
}
WRITER_SITE = Path("scenario", "artifacts.py")


def _writer_references(path: Path):
    """``os.replace``/``np.savez*`` references, called or not (``numpy``
    spelled out counts as ``np``)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = "np" if node.value.id == "numpy" else node.value.id
            if (module, node.attr) in WRITER_FUNCTIONS:
                yield f"{module}.{node.attr}", node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", "numpy"):
            for alias in node.names:
                if alias.name in {name for _, name in WRITER_FUNCTIONS}:
                    yield f"{node.module}.{alias.name}", node.lineno


def test_artifacts_are_written_only_by_the_artifact_module():
    assert {name for name, _ in _writer_references(SOURCE / WRITER_SITE)} == {
        f"{module}.{name}" for module, name in WRITER_FUNCTIONS
    }
    stray = [
        f"{path.relative_to(SOURCE)}:{line} uses {name}"
        for path in sorted(SOURCE.rglob("*.py"))
        if path.relative_to(SOURCE) != WRITER_SITE
        for name, line in _writer_references(path)
    ]
    assert not stray, f"file writer outside repro/{WRITER_SITE}: {stray}"


def test_writer_scan_sees_every_spelling(tmp_path):
    """The source check above is only as good as its scanner."""
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\n"
        "import numpy\n"
        "import numpy as np\n"
        "from numpy import savez_compressed\n"
        "os.replace('a', 'b')\n"
        "numpy.savez('a', x=1)\n"
        "save = np.savez_compressed\n"
        "os.rename('a', 'b')\n",
        encoding="utf-8",
    )
    assert sorted(_writer_references(probe)) == [
        ("np.savez", 6),
        ("np.savez_compressed", 7),
        ("numpy.savez_compressed", 4),
        ("os.replace", 5),
    ]
