"""Conformance vectors: every seeded output the project pins, in one file.

A case is a ``(handler, inputs)`` pair in :data:`tests.vectors.cases.CASES`;
its handler (:mod:`tests.vectors.handlers`) runs the inputs and returns
canonical bytes, and ``vectors.json`` holds only ``case id -> sha256``
of those bytes.  ``test_vectors.py`` replays every case against the file
and never writes it; ``run`` and ``bound`` cases replay on the
per-message oracle and the engine's NumPy round.

The file is rewritten only by::

    PYTHONPATH=src python -m tests.vectors --regenerate

which prints the ids whose digest moved.  A change that moves seeded
outputs on purpose regenerates in its own commit, with a CHANGES.md line
naming the moved ids and why.  Without ``--regenerate`` the command only
reports the moved ids (exit status 1 if any).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

VECTORS_PATH = Path(__file__).with_name("vectors.json")


def load_vectors() -> Dict[str, str]:
    return json.loads(VECTORS_PATH.read_text())
