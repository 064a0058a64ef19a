"""Regenerate every paper artifact in one command.

Usage::

    python -m repro.experiments.runall [output_dir] [--fast | --full]

Writes one ``<artifact>.txt`` per table/figure (default directory:
``experiments_output/``) plus a machine-readable ``manifest.json``
recording, for every artifact, its path, generation preset, and elapsed
seconds.  Artifact filenames are identical across presets — the
manifest, not the name, says how each file was produced (historically
the half-scale default and ``--full`` wrote indistinguishable files).

Figure 9 runs at half scale by default to keep the full regeneration
under a couple of minutes; pass ``--full`` for the full-scale Twitch
stand-in, or ``--fast`` for the toy-scale CI smoke preset.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional


def main(argv: Optional[list] = None) -> Dict[str, object]:
    """Regenerate all artifacts; returns (and writes) the manifest.

    The same command as ``python -m repro runall``.
    """
    from repro.__main__ import main as cli

    return cli(["runall", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    main()
