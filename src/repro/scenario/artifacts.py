"""Every on-disk artifact except the results store, in one place.

The graph cache's disk tier (a graph's CSR or a schedule's phase CSRs,
see :mod:`repro.graphs.io`) and the profile store's spilled column
blocks (:mod:`repro.scenario.profile`) are caches of values the code
computes, so a file may only answer for the code that wrote it.  This
module owns:

* the spill root — the attached ``GRAPH_CACHE.spill_dir``, or a
  per-process temporary directory (removed at exit) — with panels
  under ``profiles/``;
* the name of an artifact, ``sha256(kind | identity | code_version())``:
  a source edit (:func:`repro.store.code_version`) renames every
  artifact, so a persistent spill directory never serves one from
  other code — such files are simply never looked up;
* one atomic writer: a unique temp name in the target directory, then
  an atomic rename onto the name.  Concurrent writers race benignly to
  identical bytes and a reader never observes a partial file;
* one reader, which returns ``None`` for a missing, foreign, corrupt or
  truncated file.  A miss costs a rebuild, which is bit-identical, so
  a torn file can slow a run but never fail or poison it.

The fingerprint covers the repro source tree only, not dependency
versions (see :mod:`repro.store.fingerprint`).
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import os
import shutil
import tempfile
import threading
import zipfile
import zlib
from pathlib import Path
from typing import Callable, Mapping, Optional, TypeVar, Union

import numpy as np

PathLike = Union[str, Path]
T = TypeVar("T")

_FALLBACK_LOCK = threading.Lock()
_FALLBACK_ROOT: Optional[Path] = None


def _spill_root(directory: Optional[PathLike] = None) -> Path:
    """``directory`` (the attached spill dir), else this process's temp dir.

    Pooled sweep workers mount the attached directory, which is how a
    block evolved by one worker is resumed by another (and how a killed
    process's completed blocks survive it).  Without one, the temp
    directory still caps the profile's memory high-water.
    """
    if directory is not None:
        return Path(directory)
    global _FALLBACK_ROOT
    with _FALLBACK_LOCK:
        if _FALLBACK_ROOT is None or not _FALLBACK_ROOT.exists():
            root = Path(tempfile.mkdtemp(prefix="repro-spill-"))
            atexit.register(shutil.rmtree, str(root), ignore_errors=True)
            _FALLBACK_ROOT = root
        return _FALLBACK_ROOT


def artifact_name(kind: str, identity: str) -> str:
    """The code-versioned name of one artifact (32 hex characters)."""
    # Imported lazily: repro.store imports repro.scenario.
    from repro.store import code_version

    raw = f"{kind}|{identity}|{code_version()}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:32]


def graph_path(directory: PathLike, key: str) -> Path:
    """Where the graph (or schedule) cached under ``key`` lives."""
    return Path(directory) / f"{artifact_name('graph', key)}.npz"


def panel_directory(directory: Optional[PathLike], identity: str) -> Path:
    """Where the column blocks of the profile store ``identity`` live."""
    return _spill_root(directory) / "profiles" / artifact_name(
        "panel", identity
    )


def write(
    path: Path, arrays: Mapping[str, np.ndarray], *, compress: bool
) -> int:
    """Atomically write ``arrays`` as one ``.npz`` at ``path``; returns
    the bytes written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            save = np.savez_compressed if compress else np.savez
            save(stream, **arrays)
        size = os.path.getsize(temp)
        os.replace(temp, path)
    finally:
        Path(temp).unlink(missing_ok=True)
    return size


def read(
    path: Path, decode: Callable[[Mapping[str, np.ndarray]], T]
) -> Optional[T]:
    """``decode`` of the arrays at ``path``, or ``None`` on a miss.

    A miss is a missing file, or one ``decode`` cannot read: foreign
    (missing keys, wrong shapes), corrupt or truncated.  ``decode`` may
    also return ``None`` to refuse a file it parsed.  An unreadable
    file is removed, since the graph spill skips a name that exists;
    losing a racing rewrite to that costs one more miss.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            return decode(archive)
    except FileNotFoundError:
        return None
    except (
        OSError, EOFError, KeyError, ValueError,
        zipfile.BadZipFile, zlib.error,
    ):
        with contextlib.suppress(OSError):
            path.unlink()
        return None
