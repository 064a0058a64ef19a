"""Paper artifacts as campaigns: one registry, presets, a manifest.

Every table/figure module exposes ``run_*``/``render_*`` pairs; this
module binds them into named :class:`Artifact` entries with three
presets each —

* ``default`` — the paper-scale configuration (Figure 9 at half scale,
  matching the historical ``runall`` behavior);
* ``fast`` — toy-scale parameters that regenerate every artifact in
  seconds (the CI smoke preset);
* ``full`` — full-scale where it differs (Figure 9's full Twitch
  stand-in).

``run_campaign`` regenerates a set of artifacts, writes one
``<name>.txt`` per artifact plus a machine-readable ``manifest.json``
(artifact -> path, preset, elapsed seconds), and returns the manifest —
the single entry point behind ``python -m repro experiments`` and
``python -m repro runall``.  Output naming is preset-independent: the
same artifact always lands at the same path, and the manifest (not the
filename) records how it was produced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.exceptions import ValidationError
from repro.experiments import (
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    table1,
    table3,
    table4,
)
from repro.experiments.config import ExperimentConfig

#: Recognized generation presets.
PRESETS = ("default", "fast", "full")


@dataclass(frozen=True)
class Artifact:
    """One paper artifact: its title and per-preset text generators."""

    name: str
    title: str
    default: Callable[[], str]
    fast: Callable[[], str]
    full: Optional[Callable[[], str]] = None

    def generate(self, preset: str = "default") -> str:
        """Render the artifact text under ``preset``."""
        if preset not in PRESETS:
            raise ValidationError(
                f"preset must be one of {PRESETS}, got {preset!r}"
            )
        if preset == "fast":
            return self.fast()
        if preset == "full" and self.full is not None:
            return self.full()
        return self.default()


_FAST_TABLE4_CONFIG = ExperimentConfig(dataset_scale=0.3)


def _table1(**kwargs) -> str:
    return table1.render_table1(table1.run_table1(**kwargs))


def _table3(**kwargs) -> str:
    return table3.render_table3(*table3.run_table3(**kwargs))


def _table4(**kwargs) -> str:
    return table4.render_table4(table4.run_table4(**kwargs))


def _figure4(**kwargs) -> str:
    return figure4.render_figure4(figure4.run_figure4(**kwargs))


def _figure5(**kwargs) -> str:
    return figure5.render_figure5(figure5.run_figure5(**kwargs))


def _figure6(**kwargs) -> str:
    return figure6.render_figure6(figure6.run_figure6(**kwargs))


def _figure7(**kwargs) -> str:
    return figure7.render_figure7(figure7.run_figure7(**kwargs))


def _figure8(**kwargs) -> str:
    return figure8.render_figure8(figure8.run_figure8(**kwargs))


def _figure9(**kwargs) -> str:
    return figure9.render_figure9(figure9.run_figure9(**kwargs))


#: The paper's artifacts, in publication order.  ``fast`` parameters are
#: chosen so the whole campaign regenerates in well under a minute (the
#: CI smoke bar); ``default`` matches the historical runall scales.
ARTIFACTS: Dict[str, Artifact] = {
    artifact.name: artifact
    for artifact in (
        Artifact(
            name="table1",
            title="Table 1 — amplification mechanism scalings",
            default=_table1,
            fast=lambda: _table1(
                n_values=(10_000, 100_000), eps0_values=(1.5, 2.0, 2.5)
            ),
        ),
        Artifact(
            name="table3",
            title="Table 3 — space/traffic complexity, measured",
            default=_table3,
            fast=lambda: _table3(n_values=(64, 128)),
        ),
        Artifact(
            name="table4",
            title="Table 4 — dataset stand-in calibration",
            default=_table4,
            fast=lambda: _table4(
                names=("twitch",), config=_FAST_TABLE4_CONFIG
            ),
        ),
        Artifact(
            name="figure4",
            title="Figure 4 — eps vs rounds (bound route)",
            default=_figure4,
            fast=lambda: _figure4(
                datasets=("twitch",), scale=0.4, max_steps=16, num_points=8
            ),
        ),
        Artifact(
            name="figure5",
            title="Figure 5 — exact eps(t) on k-regular graphs",
            default=_figure5,
            fast=lambda: _figure5(
                degrees=(4, 8), num_nodes=256, max_steps=10
            ),
        ),
        Artifact(
            name="figure6",
            title="Figure 6 — eps vs eps0 per dataset",
            default=_figure6,
            fast=lambda: _figure6(eps0_values=(0.1, 0.5, 1.0, 1.2)),
        ),
        Artifact(
            name="figure7",
            title="Figure 7 — A_all vs A_single",
            default=_figure7,
            fast=lambda: _figure7(eps0_values=(0.2, 1.0, 2.0, 5.0)),
        ),
        Artifact(
            name="figure8",
            title="Figure 8 — stationary-limit parameter grid",
            default=_figure8,
            fast=lambda: _figure8(eps0_values=(0.2, 1.0, 2.0)),
        ),
        Artifact(
            name="figure9",
            title="Figure 9 — privacy-utility trade-off",
            # Historical runall behavior: half scale by default, full
            # Twitch stand-in behind --full.
            default=lambda: _figure9(
                eps0_values=(1.0, 2.0, 3.0, 4.0, 5.0), scale=0.5, repeats=3
            ),
            fast=lambda: _figure9(
                eps0_values=(1.0, 3.0), scale=0.4, dimension=16, repeats=1
            ),
            full=lambda: _figure9(
                eps0_values=(1.0, 2.0, 3.0, 4.0, 5.0), repeats=3
            ),
        ),
    )
}


def artifact_names() -> List[str]:
    """Artifact names in publication order."""
    return list(ARTIFACTS)


def get_artifact(name: str) -> Artifact:
    """Look up an artifact, raising with the known names on a miss."""
    if name not in ARTIFACTS:
        known = ", ".join(ARTIFACTS)
        raise ValidationError(f"unknown artifact {name!r}; known: {known}")
    return ARTIFACTS[name]


def generate(name: str, preset: str = "default") -> str:
    """Render one artifact's text under ``preset``."""
    return get_artifact(name).generate(preset)


def run_campaign(
    names: Optional[List[str]] = None,
    *,
    preset: str = "default",
    output_dir: Optional[Union[str, Path]] = None,
    echo: Optional[Callable[[str], None]] = None,
    store: Optional[object] = None,
    campaign: Optional[str] = None,
) -> Dict[str, object]:
    """Regenerate ``names`` (default: all artifacts) under ``preset``.

    When ``output_dir`` is given, writes ``<name>.txt`` per artifact
    plus ``manifest.json``; filenames never depend on the preset — the
    manifest records it.  When ``store`` is given (a results-store path
    or an open :class:`~repro.store.ResultsStore`), the run is recorded
    as a campaign with one artifact row per regenerated artifact, and
    the manifest gains ``campaign_id``/``store``.  Returns the manifest:

    ``{"preset", "output_dir", "artifacts": [{"name", "title", "path",
    "elapsed_seconds", "bytes"}, ...]}``
    """
    if preset not in PRESETS:
        raise ValidationError(f"preset must be one of {PRESETS}, got {preset!r}")
    selected = [get_artifact(name) for name in (names or artifact_names())]
    directory: Optional[Path] = None
    if output_dir is not None:
        directory = Path(output_dir)
        directory.mkdir(parents=True, exist_ok=True)

    store_obj = None
    owns_store = False
    campaign_id: Optional[int] = None
    if store is not None:
        from repro.store import open_store

        store_obj = open_store(store)
        owns_store = store_obj is not store
        campaign_id = store_obj.begin_campaign(
            campaign or "experiments",
            preset=preset,
            meta={"artifacts": [artifact.name for artifact in selected]},
        )

    entries: List[Dict[str, object]] = []
    try:
        for artifact in selected:
            started = time.perf_counter()
            text = artifact.generate(preset)
            elapsed = time.perf_counter() - started
            entry: Dict[str, object] = {
                "name": artifact.name,
                "title": artifact.title,
                "elapsed_seconds": round(elapsed, 3),
                "bytes": len(text.encode("utf-8")),
                "path": None,
            }
            if directory is not None:
                path = directory / f"{artifact.name}.txt"
                path.write_text(text + "\n")
                entry["path"] = str(path)
            if store_obj is not None:
                store_obj.record_artifact(
                    campaign_id,
                    name=artifact.name,
                    title=artifact.title,
                    preset=preset,
                    path=entry["path"],
                    size_bytes=entry["bytes"],
                    elapsed_seconds=entry["elapsed_seconds"],
                )
            if echo is not None:
                where = entry["path"] or "stdout"
                echo(f"{artifact.name:>8}: {where} ({elapsed:.1f}s)")
                if directory is None:
                    echo(text)
            entries.append(entry)
    finally:
        if owns_store and store_obj is not None:
            store_obj.close()

    manifest: Dict[str, object] = {
        "preset": preset,
        "output_dir": None if directory is None else str(directory),
        "artifacts": entries,
    }
    if campaign_id is not None:
        manifest["campaign_id"] = campaign_id
        manifest["store"] = str(getattr(store_obj, "path", store))
    if directory is not None:
        import json

        (directory / "manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n"
        )
        manifest["manifest_path"] = str(directory / "manifest.json")
    return manifest
