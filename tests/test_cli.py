"""Tests for the ``python -m repro`` CLI."""

from __future__ import annotations

import argparse
import pathlib

import pytest

from repro import Scenario
from repro.__main__ import main


@pytest.fixture
def scenario_file(tmp_path):
    scenario = Scenario(
        graph={"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}},
        mechanism={"kind": "rr", "params": {"epsilon": 1.0}},
        rounds=4,
        seed=0,
    )
    path = tmp_path / "scenario.json"
    path.write_text(scenario.to_json())
    return str(path)


@pytest.fixture
def schedule_scenario_file(tmp_path):
    scenario = Scenario(
        graph={
            "kind": "schedule",
            "params": {
                "graphs": [
                    {"kind": "k_regular",
                     "params": {"degree": 4, "num_nodes": 64}},
                    {"kind": "k_regular",
                     "params": {"degree": 6, "num_nodes": 64}},
                ],
                "selector": "epoch",
                "block": 2,
            },
        },
        mechanism={"kind": "rr", "params": {"epsilon": 1.0}},
        rounds=6,
        seed=0,
    )
    path = tmp_path / "schedule_scenario.json"
    path.write_text(scenario.to_json())
    return str(path)


class TestCli:
    def test_info(self, capsys):
        main(["info"])
        output = capsys.readouterr().out
        assert "repro" in output
        assert "Network Shuffling" in output

    def test_no_arguments_prints_info(self, capsys):
        main([])
        assert "repro" in capsys.readouterr().out

    def test_plan(self, capsys):
        main(["plan", "100000", "1.0"])
        output = capsys.readouterr().out
        assert "A_all" in output
        assert "A_single" in output
        assert "eps0" in output

    def test_plan_unreachable_target(self, capsys):
        # The achievable floor at n=1000 is ~2e-5; 1e-7 is below it.
        main(["plan", "1000", "0.0000001"])
        output = capsys.readouterr().out
        assert "unreachable" in output

    def test_plan_usage_error(self):
        with pytest.raises(SystemExit):
            main(["plan", "100000"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit, match="unknown command"):
            main(["dance"])

    def test_artifact_dispatch(self, capsys):
        main(["figure8"])
        output = capsys.readouterr().out
        assert "Gamma" in output

    def test_runall_writes_files(self, tmp_path, capsys):
        # Only verify dispatch wiring (a full runall takes minutes):
        # monkeypatching generators would test nothing, so run the
        # cheapest artifact through the same path instead.
        main(["table1"])
        assert "mechanism" in capsys.readouterr().out

    def test_plan_uses_config_delta(self, capsys):
        from repro.experiments.config import DEFAULT_CONFIG

        main(["plan", "100000", "1.0"])
        assert f"delta={DEFAULT_CONFIG.delta}" in capsys.readouterr().out


class TestScenarioCommands:
    def test_run_prints_digest(self, scenario_file, capsys):
        main(["run", scenario_file])
        output = capsys.readouterr().out
        assert "central_epsilon" in output
        assert "empirical_epsilon" in output
        assert "rounds" in output

    def test_run_usage_error(self):
        with pytest.raises(SystemExit, match="usage"):
            main(["run"])

    def test_run_schedule_scenario(self, schedule_scenario_file, capsys):
        main(["run", schedule_scenario_file])
        output = capsys.readouterr().out
        assert "central_epsilon" in output
        assert "rounds" in output

    def test_run_schedule_scenario_indents_accounting(
        self, schedule_scenario_file, capsys
    ):
        # The one printer renders a mapping value as an indented block,
        # as ``bound`` does its ``accounting``, never as a dict repr.
        main(["run", schedule_scenario_file])
        lines = capsys.readouterr().out.splitlines()
        block = lines[lines.index("  schedule_accounting:") + 1:]
        assert block and all(line.startswith("    ") for line in block)
        assert "strategy" in [line.split()[0] for line in block]
        assert not any("{" in line for line in lines)

    def test_run_schedule_json_is_the_summary(
        self, schedule_scenario_file, capsys
    ):
        import json

        from repro.api import parse_scenario, run

        main(["run", schedule_scenario_file, "--json"])
        printed = capsys.readouterr().out
        with open(schedule_scenario_file, encoding="utf-8") as handle:
            summary = run(parse_scenario(handle.read())).summary()
        summary["elapsed_seconds"] = json.loads(printed)["elapsed_seconds"]
        assert printed == json.dumps(summary, indent=2) + "\n"

    def test_audit_schedule_scenario(self, schedule_scenario_file, capsys):
        main(["audit", schedule_scenario_file, "--trials", "100"])
        output = capsys.readouterr().out
        assert "epsilon_lower_bound" in output

    def test_bound_prints_guarantee(self, scenario_file, capsys):
        main(["bound", scenario_file])
        output = capsys.readouterr().out
        assert "epsilon" in output
        assert "theorem" in output

    def test_bound_solver_failure_is_the_typed_message(
        self, stalled_lanczos, tmp_path
    ):
        import json

        from repro.api import AccountingError, bound, error_payload, parse_scenario

        with pytest.raises(AccountingError) as raised:
            bound(parse_scenario(stalled_lanczos))
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(stalled_lanczos))
        with pytest.raises(SystemExit) as excinfo:
            main(["bound", str(path)])
        assert str(excinfo.value) == (
            f"bound failed: {error_payload(raised.value)['message']}"
        )

    def test_bound_schedule_scenario_shows_accounting(
        self, schedule_scenario_file, capsys
    ):
        main(["bound", schedule_scenario_file])
        output = capsys.readouterr().out
        assert "accounting:" in output
        assert "strategy" in output

    def test_bound_json(self, schedule_scenario_file, capsys):
        import json

        main(["bound", schedule_scenario_file, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["accounting"]["strategy"] in ("dense", "blocked")
        assert payload["epsilon"] > 0

    def test_bound_profile_budget_escalates(
        self, schedule_scenario_file, capsys
    ):
        import json

        from repro.api import ProfilePolicy, set_profile_policy

        try:
            main([
                "bound", schedule_scenario_file, "--json",
                "--profile-budget", "16K",
            ])
        finally:
            # The flag installs process policy; restore for other tests.
            set_profile_policy(ProfilePolicy())
        payload = json.loads(capsys.readouterr().out)
        # 16*64*64 bytes of dense profile exceed a 16 KiB budget.
        assert payload["accounting"]["strategy"] == "blocked"

    def test_bound_rejects_bad_budget(self, scenario_file):
        from repro.api import ProfilePolicy, set_profile_policy

        try:
            with pytest.raises(SystemExit, match="profile-budget"):
                main([
                    "bound", scenario_file, "--profile-budget", "lots",
                ])
        finally:
            set_profile_policy(ProfilePolicy())

    @pytest.mark.parametrize("budget", ["inf", "1e400"])
    def test_bound_overflowing_budget_is_a_usage_error(
        self, scenario_file, budget
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["bound", scenario_file, "--profile-budget", budget])
        message = str(excinfo.value)
        assert message.startswith("usage:")
        assert "--profile-budget" in message
        assert "cannot parse memory budget" in message

    def test_bound_usage_error(self):
        with pytest.raises(SystemExit, match="usage"):
            main(["bound"])

    def test_sweep_schedule_scenario(self, schedule_scenario_file, capsys):
        main([
            "sweep", schedule_scenario_file,
            "--axis", "rounds=2,4",
            "--axis", "graph.block=1,2",
            "--mode", "bound",
        ])
        output = capsys.readouterr().out
        assert "central eps" in output
        assert output.count("\n") >= 6  # 4 grid rows plus table frame

    def test_stationary_sweep_on_schedule_fails_cleanly(
        self, schedule_scenario_file
    ):
        with pytest.raises(SystemExit, match="sweep failed"):
            main([
                "sweep", schedule_scenario_file,
                "--axis", "rounds=2,4",
                "--mode", "stationary_bound",
            ])

    def test_sweep_prints_grid_table(self, scenario_file, capsys):
        main([
            "sweep", scenario_file,
            "--axis", "rounds=2,4",
            "--axis", "protocol=all,single",
            "--mode", "bound",
        ])
        output = capsys.readouterr().out
        assert "central eps" in output
        assert "single" in output
        assert output.count("\n") >= 6  # 4 grid rows plus table frame

    def test_sweep_run_mode_includes_empirical(self, scenario_file, capsys):
        main(["sweep", scenario_file, "--axis", "rounds=2,3"])
        output = capsys.readouterr().out
        assert "empirical eps" in output
        assert "dummies" in output

    def test_axis_value_parsing(self):
        from repro.__main__ import _parse_axis_value

        assert _parse_axis_value("8") == 8
        assert _parse_axis_value("0.5") == 0.5
        assert _parse_axis_value("True") is True
        assert _parse_axis_value("false") is False
        assert _parse_axis_value("single") == "single"
        # Scientific-notation integers collapse to int so int-validated
        # builder params (num_nodes, ...) accept them.
        assert _parse_axis_value("1e6") == 1_000_000
        assert isinstance(_parse_axis_value("1e6"), int)
        assert _parse_axis_value("2.5e-1") == 0.25

    def test_sweep_requires_axis(self, scenario_file):
        with pytest.raises(SystemExit, match="usage"):
            main(["sweep", scenario_file])

    def test_run_invalid_scenario_exits_cleanly(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"graf": {"kind": "k_regular"}}')
        with pytest.raises(SystemExit, match="invalid"):
            main(["run", str(path)])

    def test_sweep_rejects_duplicate_axis(self, scenario_file):
        with pytest.raises(SystemExit, match="duplicate"):
            main(["sweep", scenario_file,
                  "--axis", "rounds=2,4", "--axis", "rounds=8"])

    def test_sweep_rejects_non_numeric_workers(self, scenario_file):
        with pytest.raises(SystemExit, match="usage"):
            main(["sweep", scenario_file, "--axis", "rounds=2",
                  "--workers", "two"])

    def test_sweep_rejects_bad_mode(self, scenario_file):
        with pytest.raises(SystemExit, match="mode"):
            main(["sweep", scenario_file, "--axis", "rounds=2", "--mode", "warp"])


class TestJsonAndAuditCommands:
    def test_run_json(self, scenario_file, capsys):
        import json

        main(["run", scenario_file, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_users"] == 64
        assert "central_epsilon" in payload
        assert "empirical_epsilon" in payload

    def test_audit_prints_digest(self, scenario_file, capsys):
        main(["audit", scenario_file, "--trials", "300"])
        output = capsys.readouterr().out
        assert "epsilon_lower_bound" in output
        assert "best_threshold" in output

    def test_audit_json(self, scenario_file, capsys):
        import json

        main(["audit", scenario_file, "--trials", "300", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 300
        assert payload["mechanism"].startswith("scenario:weighted_evidence")
        assert isinstance(payload["epsilon_lower_bound"], float)

    def test_audit_usage_errors(self, scenario_file):
        with pytest.raises(SystemExit, match="usage"):
            main(["audit"])
        with pytest.raises(SystemExit, match="usage"):
            main(["audit", scenario_file, "--trials"])
        with pytest.raises(SystemExit, match="usage"):
            main(["audit", scenario_file, "--trials", "many"])

    def test_audit_invalid_scenario_fails_cleanly(self, tmp_path):
        from repro import Scenario

        scenario = Scenario(
            graph={"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}},
            mechanism={"kind": "laplace", "params": {"epsilon": 1.0}},
            rounds=2,
        )
        path = tmp_path / "laplace.json"
        path.write_text(scenario.to_json())
        with pytest.raises(SystemExit, match="audit failed"):
            main(["audit", str(path)])

    def test_sweep_audit_mode_table(self, tmp_path, capsys):
        from repro import Scenario

        scenario = Scenario(
            graph={"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}},
            mechanism={"kind": "rr", "params": {"epsilon": 1.0}},
            audit={"kind": "weighted_evidence", "params": {"trials": 200}},
            rounds=4,
            seed=0,
        )
        path = tmp_path / "audited.json"
        path.write_text(scenario.to_json())
        main([
            "sweep", str(path),
            "--axis", "rounds=0,4",
            "--mode", "audit",
        ])
        output = capsys.readouterr().out
        assert "eps_hat" in output
        assert "threshold" in output
        assert "200" in output


class TestExperimentsCommand:
    def test_single_artifact_prints_to_stdout(self, capsys):
        main(["experiments", "figure7", "--fast"])
        output = capsys.readouterr().out
        assert "figure7" in output
        assert "A_single wins" in output

    def test_out_dir_writes_files_and_manifest(self, tmp_path, capsys):
        main(["experiments", "figure8", "--fast", "--out", str(tmp_path)])
        assert (tmp_path / "figure8.txt").exists()
        assert (tmp_path / "manifest.json").exists()
        assert "manifest" in capsys.readouterr().out

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit, match="unknown artifact"):
            main(["experiments", "figure99"])

    def test_usage_error_without_artifact(self):
        with pytest.raises(SystemExit, match="usage"):
            main(["experiments"])

    def test_fast_and_full_mutually_exclusive(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["experiments", "figure8", "--fast", "--full"])

    def test_runall_rejects_fast_plus_full(self, tmp_path):
        from repro.experiments.runall import main as runall_main

        with pytest.raises(SystemExit, match="mutually exclusive"):
            runall_main([str(tmp_path), "--fast", "--full"])


class TestResultsCommand:
    def test_sweep_store_then_query_diff_gc(self, scenario_file, tmp_path, capsys):
        store = str(tmp_path / "results.sqlite")
        main(["sweep", scenario_file, "--axis", "rounds=1,2",
              "--mode", "stationary_bound",
              "--store", store, "--campaign", "one"])
        output = capsys.readouterr().out
        assert "2 computed, 0 reused" in output

        main(["sweep", scenario_file, "--axis", "rounds=1,2",
              "--mode", "stationary_bound",
              "--store", store, "--campaign", "two"])
        output = capsys.readouterr().out
        assert "0 computed, 2 reused" in output

        main(["results", "query", "--store", store,
              "--x", "rounds", "--y", "epsilon"])
        output = capsys.readouterr().out
        assert "k_regular" in output and "mean epsilon" in output

        main(["results", "diff", "one", "two", "--store", store])
        output = capsys.readouterr().out
        assert "no differences" in output

        main(["results", "campaigns", "--store", store])
        output = capsys.readouterr().out
        assert "one" in output and "two" in output

        main(["results", "gc", "--store", store, "--dry-run"])
        output = capsys.readouterr().out
        assert "would delete 0 points" in output

    def test_query_json_output(self, scenario_file, tmp_path, capsys):
        import json

        store = str(tmp_path / "results.sqlite")
        main(["sweep", scenario_file, "--axis", "rounds=1,2",
              "--mode", "stationary_bound", "--store", store])
        capsys.readouterr()
        main(["results", "query", "--store", store, "--json"])
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2 and all(row["points"] == 1 for row in rows)

    def test_diff_exits_nonzero_on_changes(self, tmp_path, capsys):
        from repro.scenario import GraphSpec, MechanismSpec
        from repro.store import ResultsStore

        store_path = tmp_path / "results.sqlite"
        scenario = Scenario(
            graph=GraphSpec.of("k_regular", degree=4, num_nodes=64),
            mechanism=MechanismSpec.of("rr", epsilon=1.0),
            rounds=4,
            seed=0,
        )
        with ResultsStore(store_path) as store:
            a = store.begin_campaign("a", fingerprint="1.0.0+aaaa")
            b = store.begin_campaign("b", fingerprint="1.0.0+bbbb")
            store.record_point(scenario, "bound", {"epsilon": 1.0},
                               campaign_id=a, fingerprint="1.0.0+aaaa")
            store.record_point(scenario, "bound", {"epsilon": 2.0},
                               campaign_id=b, fingerprint="1.0.0+bbbb")
        with pytest.raises(SystemExit):
            main(["results", "diff", "a", "b", "--store", str(store_path)])
        assert "1 changed" in capsys.readouterr().out

    def test_usage_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="usage"):
            main(["results"])
        with pytest.raises(SystemExit, match="usage"):
            main(["results", "frobnicate", "--store", "x"])
        with pytest.raises(SystemExit, match="usage"):
            main(["results", "query"])  # --store is required

    def test_query_unknown_axis_fails_loudly(self, scenario_file, tmp_path):
        store = str(tmp_path / "results.sqlite")
        main(["sweep", scenario_file, "--axis", "rounds=1",
              "--mode", "stationary_bound", "--store", store])
        with pytest.raises(SystemExit, match="must match"):
            main(["results", "query", "--store", store,
                  "--x", "rounds; DROP TABLE points"])

    def test_experiments_records_campaign(self, tmp_path, capsys):
        store = str(tmp_path / "results.sqlite")
        main(["experiments", "table3", "--fast", "--store", store])
        output = capsys.readouterr().out
        assert "recorded campaign" in output
        from repro.store import ResultsStore

        with ResultsStore(store) as handle:
            artifacts = handle.artifacts()
            assert [entry["name"] for entry in artifacts] == ["table3"]
            assert artifacts[0]["preset"] == "fast"


class TestSweepFaultFlags:
    def test_collect_prints_failures_and_exits_nonzero(
        self, scenario_file, capsys
    ):
        from repro.testing import FaultRule, inject

        with inject([FaultRule(point=0, message="wired to fail")]):
            with pytest.raises(SystemExit) as excinfo:
                main(["sweep", scenario_file, "--axis", "rounds=1,2",
                      "--mode", "stationary_bound",
                      "--on-error", "collect"])
        assert excinfo.value.code == 1
        output = capsys.readouterr().out
        assert "1 of 2 points failed:" in output
        assert "InjectedFaultError (exception, 1 attempt(s))" in output
        assert "wired to fail" in output
        # The surviving point still renders in the grid table.
        assert "central eps" in output

    def test_invalid_on_error_fails_cleanly(self, scenario_file):
        with pytest.raises(SystemExit, match="sweep failed"):
            main(["sweep", scenario_file, "--axis", "rounds=1",
                  "--mode", "stationary_bound", "--on-error", "ignore"])

    def test_non_numeric_retries_is_usage_error(self, scenario_file):
        with pytest.raises(SystemExit, match="usage"):
            main(["sweep", scenario_file, "--axis", "rounds=1",
                  "--retries", "many"])

    def test_non_numeric_point_timeout_is_usage_error(self, scenario_file):
        with pytest.raises(SystemExit, match="usage"):
            main(["sweep", scenario_file, "--axis", "rounds=1",
                  "--point-timeout", "soon"])

    def test_campaigns_table_shows_status(self, scenario_file, tmp_path, capsys):
        store = str(tmp_path / "results.sqlite")
        main(["sweep", scenario_file, "--axis", "rounds=1",
              "--mode", "stationary_bound", "--store", store,
              "--campaign", "steady"])
        capsys.readouterr()
        main(["results", "campaigns", "--store", store])
        output = capsys.readouterr().out
        assert "status" in output
        assert "complete" in output

    def test_store_summary_counts_failed_points(
        self, scenario_file, tmp_path, capsys
    ):
        from repro.testing import FaultRule, inject

        store = str(tmp_path / "results.sqlite")
        with inject([FaultRule(point=1)]):
            with pytest.raises(SystemExit):
                main(["sweep", scenario_file, "--axis", "rounds=1,2",
                      "--mode", "stationary_bound", "--store", store,
                      "--on-error", "collect"])
        output = capsys.readouterr().out
        assert "1 computed, 0 reused, 1 failed" in output


class TestEngineFlag:
    """``--engine`` is gone; a stored ``engine`` spelling still loads."""

    def test_run_default_engine_backend_recorded(self, scenario_file, capsys):
        import json

        main(["run", scenario_file, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "fast"
        assert payload["backend"] == "vectorized"

    def test_run_engine_spelling_recorded_in_summary(
        self, scenario_file, capsys, tmp_path
    ):
        """A stored scenario's ``engine`` spelling still loads and is
        echoed; the backend is the one array engine whatever it says."""
        import json

        stored = json.loads(pathlib.Path(scenario_file).read_text())
        path = tmp_path / "faithful.json"
        path.write_text(json.dumps(dict(stored, engine="faithful")))
        main(["run", str(path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "faithful"
        assert payload["backend"] == "vectorized"

    def test_run_rejects_unknown_engine(self, scenario_file):
        """No command takes ``--engine`` any more: it selected nothing."""
        commands = (
            ["run", scenario_file],
            ["sweep", scenario_file, "--axis", "rounds=2"],
            ["serve"],
        )
        for command in commands:
            with pytest.raises(
                SystemExit, match="unrecognized arguments: --engine quantum"
            ):
                main([*command, "--engine", "quantum"])

    def test_run_engine_flag_requires_value(self, scenario_file):
        """A bare ``--engine`` is refused with the usage line."""
        with pytest.raises(SystemExit, match="usage"):
            main(["run", scenario_file, "--engine"])

    def test_engine_is_sweepable_axis(self, scenario_file, capsys):
        main([
            "sweep", scenario_file,
            "--axis", "engine=vectorized,compiled",
            "--mode", "bound",
        ])
        output = capsys.readouterr().out
        assert "compiled" in output


def _command_paths():
    """Every command in the CLI tree, the nested ``results`` actions too."""
    from repro.__main__ import _parser

    _, commands = _parser()
    paths = []
    for name, parser in commands.items():
        paths.append([name])
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                paths.extend([name, nested] for nested in action.choices)
    return paths


class TestCommandTree:
    @pytest.mark.parametrize("path", _command_paths(), ids=" ".join)
    def test_every_command_prints_help(self, path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*path, "-h"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("arguments", [[], ["--help"]])
    def test_bare_and_help_print_info_banner(self, arguments, capsys):
        main(arguments)
        assert "Network Shuffling" in capsys.readouterr().out


class TestMalformedInput:
    """Input that used to crash or be silently ignored is a usage error."""

    def test_plan_non_numeric_is_usage_error(self):
        with pytest.raises(SystemExit, match="usage"):
            main(["plan", "100", "abc"])

    def test_plan_rejects_empty_population(self):
        with pytest.raises(SystemExit, match="n must be at least 1"):
            main(["plan", "0", "1.0"])

    @pytest.mark.parametrize(
        "arguments", [["--out", "somewhere"], ["one", "two"]], ids=" ".join
    )
    def test_runall_rejects_stray_arguments(
        self, arguments, tmp_path, monkeypatch
    ):
        from repro.experiments import campaigns

        monkeypatch.chdir(tmp_path)
        stub = campaigns.Artifact(
            name="table1", title="stub", default=lambda: "stub",
            fast=lambda: "stub",
        )
        monkeypatch.setattr(campaigns, "ARTIFACTS", {"table1": stub})
        with pytest.raises(SystemExit, match="usage"):
            main(["runall", *arguments])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["info", "table1"])
    def test_flagless_commands_reject_flags(self, command):
        with pytest.raises(SystemExit, match="unrecognized arguments: --full"):
            main([command, "--full"])

    def test_abbreviated_flags_are_rejected(self, scenario_file):
        # Only the declared spellings parse: argparse's prefix matching
        # would otherwise accept ``--work`` for ``--workers``.
        with pytest.raises(SystemExit, match="unrecognized arguments: --work"):
            main(["sweep", scenario_file, "--axis", "rounds=2", "--work", "2"])
