"""The package version has one source: ``repro.__version__``."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_reads_version_from_package():
    config = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    dynamic = config["tool"]["setuptools"]["dynamic"]["version"]
    assert dynamic == {"attr": "repro.__version__"}
    assert repro.__version__.count(".") == 2
