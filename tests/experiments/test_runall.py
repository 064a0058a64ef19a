"""Tests for the campaign-backed runall regenerator and its manifest."""

from __future__ import annotations

import json

from repro.experiments import campaigns, runall


class TestArtifactNames:
    def test_covers_every_artifact(self):
        assert set(campaigns.artifact_names()) == {
            "table1", "table3", "table4",
            "figure4", "figure5", "figure6", "figure7", "figure8", "figure9",
        }


def _stub_artifacts(monkeypatch, names=("table1", "figure9")):
    """Replace the campaign registry with instant stub artifacts."""
    stubs = {
        name: campaigns.Artifact(
            name=name,
            title=f"stub {name}",
            default=lambda n=name: f"content of {n} (default)",
            fast=lambda n=name: f"content of {n} (fast)",
            full=lambda n=name: f"content of {n} (full)",
        )
        for name in names
    }
    monkeypatch.setattr(campaigns, "ARTIFACTS", stubs)
    return stubs


class TestMain:
    def test_writes_one_file_per_artifact_plus_manifest(
        self, tmp_path, monkeypatch, capsys
    ):
        _stub_artifacts(monkeypatch)
        manifest = runall.main([str(tmp_path)])
        written = sorted(p.name for p in tmp_path.glob("*.txt"))
        assert written == ["figure9.txt", "table1.txt"]
        assert (tmp_path / "table1.txt").read_text() == (
            "content of table1 (default)\n"
        )
        assert "all artifacts regenerated" in capsys.readouterr().out
        # The returned manifest matches the one on disk.
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["preset"] == "default"
        assert [a["name"] for a in on_disk["artifacts"]] == ["table1", "figure9"]
        assert manifest["preset"] == "default"
        assert manifest["manifest_path"] == str(tmp_path / "manifest.json")
        for entry in on_disk["artifacts"]:
            assert entry["path"].endswith(f"{entry['name']}.txt")
            assert entry["elapsed_seconds"] >= 0
            assert entry["bytes"] > 0

    def test_full_and_fast_flags_select_presets(self, tmp_path, monkeypatch):
        _stub_artifacts(monkeypatch, names=("figure9",))
        runall.main([str(tmp_path), "--full"])
        assert "(full)" in (tmp_path / "figure9.txt").read_text()
        runall.main([str(tmp_path), "--fast"])
        assert "(fast)" in (tmp_path / "figure9.txt").read_text()

    def test_artifact_paths_identical_across_presets(
        self, tmp_path, monkeypatch
    ):
        """The historical bug: half-scale vs --full outputs were
        indistinguishable.  Paths stay unified; the manifest records
        the preset."""
        _stub_artifacts(monkeypatch, names=("figure9",))
        default = runall.main([str(tmp_path)])
        full = runall.main([str(tmp_path), "--full"])
        assert (
            default["artifacts"][0]["path"] == full["artifacts"][0]["path"]
        )
        assert (default["preset"], full["preset"]) == ("default", "full")

    def test_default_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _stub_artifacts(monkeypatch, names=("table1",))
        runall.main([])
        assert (tmp_path / "experiments_output" / "table1.txt").exists()
        assert (tmp_path / "experiments_output" / "manifest.json").exists()


class TestCampaignRegistry:
    def test_unknown_artifact_rejected(self):
        import pytest

        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match="unknown artifact"):
            campaigns.generate("figure99")

    def test_unknown_preset_rejected(self):
        import pytest

        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match="preset"):
            campaigns.generate("table1", preset="warp")

    def test_full_falls_back_to_default_when_absent(self, monkeypatch):
        artifact = campaigns.Artifact(
            name="x", title="x",
            default=lambda: "default text", fast=lambda: "fast text",
        )
        assert artifact.generate("full") == "default text"

    def test_run_campaign_without_output_dir_returns_manifest(
        self, monkeypatch
    ):
        _stub_artifacts(monkeypatch, names=("table1",))
        manifest = campaigns.run_campaign(preset="fast")
        assert manifest["output_dir"] is None
        assert manifest["artifacts"][0]["path"] is None
        assert "manifest_path" not in manifest
