"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``info``
    Print the library version and package map.
``table1 | table3 | table4 | figure4 .. figure9``
    Regenerate one paper artifact (same as
    ``python -m repro.experiments.<id>``).
``experiments <artifact|all> [--fast | --full] [--out DIR]``
    Regenerate paper artifacts through the campaign registry.
    ``--fast`` uses the toy-scale CI preset, ``--full`` the full-scale
    one; ``--out`` writes ``<artifact>.txt`` files plus a
    machine-readable ``manifest.json`` instead of printing.
``runall [dir] [--fast | --full]``
    Regenerate every artifact into a directory (plus manifest.json).
``plan <n> <target_eps>``
    Deployment planning: local budgets achieving a central target on a
    regular graph of ``n`` users (both protocols).
``run <scenario.json> [--json] [--engine NAME] [--profile-budget BYTES]``
    Execute one declarative scenario (simulate + account) and print the
    result digest (``--json`` emits machine-readable JSON).  ``-`` reads
    the scenario from stdin.  ``--engine
    fast|vectorized|faithful|compiled`` overrides the scenario's
    simulation engine (``fast`` and ``compiled`` are aliases of
    ``vectorized``; ``--require-jit`` makes a process without working
    numba kernels a hard error).  Time-varying topologies ride the same
    commands via the ``schedule`` graph spec (sub-specs plus a
    round-robin/epoch selector, or ``base`` + ``phases`` churn); such
    scenarios must set ``rounds`` explicitly and are accounted via the
    exact scheduled collision mass.  ``--profile-budget`` caps the
    memory schedule accounting may spend (``512M``, ``2G``, bytes);
    over-budget schedules escalate to blocked/spilled evolution with
    bit-identical results.
``bound <scenario.json> [--json] [--profile-budget BYTES]``
    Price a scenario without simulating: the closed-form guarantee plus
    — for schedule scenarios — the ``accounting`` block reporting the
    strategy (dense/blocked), block size, and truncation bound behind
    the collision mass.
``audit <scenario.json> [--trials N] [--json]``
    Run the Theorem 6.1 distinguishing game against the scenario and
    print the measured epsilon lower bound.
``sweep <scenario.json> --axis path=v1,v2,... [--axis ...]``
    Expand a parameter grid over the base scenario and print the curve.
    ``--mode bound|stationary_bound`` prices without simulating;
    ``--mode audit`` measures the empirical epsilon per point;
    ``--workers N`` fans out to a process pool; ``--store DB``
    records every point in the campaign store *as it completes* and
    re-runs only what is missing (``--campaign NAME`` labels the run).
    Fault tolerance: ``--on-error collect`` turns failing points into
    reported failures instead of aborting the grid, ``--retries N``
    retries points whose worker crashed (rebuilding the pool), and
    ``--point-timeout S`` kills and retries hung points; a sweep with
    failed points exits nonzero after printing them.  ``--engine`` /
    ``--require-jit`` work as on ``run`` (the ``engine`` field is also
    a sweepable axis: ``--axis engine=vectorized,faithful``).
``results <query|diff|gc|campaigns> --store DB ...``
    Query the campaign store: ``query`` aggregates a metric over any
    recorded axis straight from SQL (``--x``/``--y``/``--group-by``/
    ``--mode``/``--campaign``), ``diff`` compares two campaigns'
    observed points for regressions, ``gc`` reclaims rows stranded by
    old code versions, ``campaigns`` lists recorded campaigns with
    their lifecycle status (``running``/``complete``/``interrupted``).
``serve [--host HOST] [--port PORT] [--workers N] [--spill-dir DIR]
[--store DB] [--max-queue N] [--job-timeout S]``
    Boot the HTTP serving tier (:mod:`repro.serve`): synchronous
    closed-form ``POST /bound`` / ``POST /stationary_bound`` queries
    against the process-wide graph cache, enqueue-able ``POST /run`` /
    ``POST /audit`` jobs with ``GET /jobs/<id>`` polling, and
    ``GET /healthz`` / ``GET /stats`` introspection.  ``--store``
    persists job outcomes across restarts and serves ``GET /results``;
    ``--max-queue`` turns on 429 back-pressure; ``--job-timeout``
    fails jobs that outlive their wall-clock budget with a 504;
    ``--engine`` pins the exchange backend every submitted job runs on
    (``GET /stats`` reports which kernels the array engine runs).

All surfaces share one error taxonomy (:mod:`repro.exceptions`): the
message a failed command prints here is byte-identical to the
``message`` member the serving tier returns for the same fault.
"""

from __future__ import annotations

import sys

import repro
from repro.exceptions import ReproError, error_payload

_ARTIFACTS = (
    "table1", "table3", "table4",
    "figure4", "figure5", "figure6", "figure7", "figure8", "figure9",
)


def _info() -> None:
    print(f"repro {repro.__version__} — Network Shuffling (SIGMOD 2022) reproduction")
    print(repro.__doc__)


def _artifact(name: str) -> None:
    import importlib

    module = importlib.import_module(f"repro.experiments.{name}")
    module.main()


def _experiments(arguments: list[str]) -> None:
    usage = (
        "usage: python -m repro experiments <artifact|all> "
        "[--fast | --full] [--out DIR] [--store DB]"
    )
    from repro.experiments import campaigns

    preset, arguments = campaigns.parse_preset_flags(arguments)
    out: str | None = None
    if "--out" in arguments:
        index = arguments.index("--out")
        if index + 1 >= len(arguments):
            raise SystemExit(usage)
        out = arguments[index + 1]
        del arguments[index:index + 2]
    store: str | None = None
    if "--store" in arguments:
        index = arguments.index("--store")
        if index + 1 >= len(arguments):
            raise SystemExit(usage)
        store = arguments[index + 1]
        del arguments[index:index + 2]
    if len(arguments) != 1:
        raise SystemExit(usage)
    name = arguments[0]
    names = None if name == "all" else [name]
    if names is not None and name not in campaigns.ARTIFACTS:
        known = ", ".join(["all", *campaigns.artifact_names()])
        raise SystemExit(f"unknown artifact {name!r}; known: {known}")
    manifest = campaigns.run_campaign(
        names, preset=preset, output_dir=out, echo=print, store=store
    )
    if out is not None:
        print(f"manifest: {manifest['manifest_path']}")
    if store is not None:
        print(f"recorded campaign {manifest['campaign_id']} in {store}")


def _plan(arguments: list[str]) -> None:
    from repro.amplification.planning import required_epsilon0
    from repro.core.config import DEFAULT_CONFIG

    if len(arguments) != 2:
        raise SystemExit("usage: python -m repro plan <n> <target_eps>")
    n = int(arguments[0])
    target = float(arguments[1])
    delta = DEFAULT_CONFIG.delta
    sum_squared = 1.0 / n
    print(f"planning for n={n}, target central eps={target}, delta={delta}")
    print("(regular communication graph, Gamma = 1, at the mixing time)")
    for protocol in ("all", "single"):
        try:
            eps0 = required_epsilon0(target, protocol, n, sum_squared, delta)
            print(f"  A_{protocol:<6}: local eps0 <= {eps0:.4f}")
        except ReproError as error:
            print(f"  A_{protocol:<6}: unreachable — {error}")


def _load_scenario(source: str) -> "repro.Scenario":
    from repro.api import parse_scenario

    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as error:
        raise SystemExit(f"cannot read scenario {source!r}: {error}") from None
    try:
        return parse_scenario(text)
    except ReproError as error:
        # Same ingestion path (and therefore same message) as an HTTP
        # body rejected by the serving tier.
        raise SystemExit(
            f"scenario {source!r}: {error_payload(error)['message']}"
        ) from None


def _print_digest(digest: dict, as_json: bool) -> None:
    if as_json:
        import json

        print(json.dumps(digest, indent=2))
        return
    width = max(len(key) for key in digest)
    for key, value in digest.items():
        print(f"  {key:<{width}} : {value}")


def _take_profile_budget(arguments: list[str], usage: str) -> list[str]:
    """Extract ``--profile-budget VALUE``; installs the policy if given.

    The budget is process policy, not scenario data — it never changes
    the computed bits, only how much memory schedule accounting may
    spend getting them — so it is a flag here rather than a field in
    the scenario JSON.
    """
    if "--profile-budget" not in arguments:
        return arguments
    index = arguments.index("--profile-budget")
    if index + 1 >= len(arguments):
        raise SystemExit(usage)
    from repro.api import ProfilePolicy, parse_memory_budget, set_profile_policy

    try:
        budget = parse_memory_budget(arguments[index + 1])
    except ReproError as error:
        raise SystemExit(
            f"--profile-budget: {error_payload(error)['message']}"
        ) from None
    set_profile_policy(ProfilePolicy(memory_budget=budget))
    return arguments[:index] + arguments[index + 2:]


def _take_engine(arguments: list[str], usage: str) -> tuple[list[str], str | None]:
    """Extract ``--engine NAME`` (and ``--require-jit``).

    ``--engine`` overrides the scenario's simulation engine from the
    command line — the knob that switches an archived scenario between
    backends without editing it.  ``--require-jit`` makes the array
    engine fail loudly when numba cannot JIT its kernels (process
    policy, like ``--profile-budget``): without it the engine silently
    runs its NumPy round.
    """
    if "--require-jit" in arguments:
        from repro.netsim.kernels import set_require_jit

        set_require_jit(True)
        arguments = [token for token in arguments if token != "--require-jit"]
    if "--engine" not in arguments:
        return arguments, None
    index = arguments.index("--engine")
    if index + 1 >= len(arguments):
        raise SystemExit(usage)
    from repro.protocols.all_protocol import ENGINES

    engine = arguments[index + 1]
    if engine not in ENGINES:
        raise SystemExit(
            f"--engine: unknown engine {engine!r}; use one of {ENGINES}"
        )
    return arguments[:index] + arguments[index + 2:], engine


def _run(arguments: list[str]) -> None:
    usage = (
        "usage: python -m repro run <scenario.json|-> [--json] "
        "[--engine fast|vectorized|faithful|compiled] [--require-jit] "
        "[--profile-budget BYTES|512M|2G]"
    )
    as_json = "--json" in arguments
    arguments = [token for token in arguments if token != "--json"]
    arguments = _take_profile_budget(arguments, usage)
    arguments, engine = _take_engine(arguments, usage)
    if len(arguments) != 1:
        raise SystemExit(usage)
    from repro.scenario import run

    scenario = _load_scenario(arguments[0])
    if engine is not None:
        scenario = scenario.updated(engine=engine)
    try:
        result = run(scenario)
    except ReproError as error:
        raise SystemExit(
            f"run failed: {error_payload(error)['message']}"
        ) from None
    _print_digest(result.summary(), as_json)


def _bound(arguments: list[str]) -> None:
    usage = (
        "usage: python -m repro bound <scenario.json|-> [--json] "
        "[--profile-budget BYTES|512M|2G]"
    )
    as_json = "--json" in arguments
    arguments = [token for token in arguments if token != "--json"]
    arguments = _take_profile_budget(arguments, usage)
    if len(arguments) != 1:
        raise SystemExit(usage)
    from repro.api import bound, bound_payload

    try:
        payload = bound_payload(bound(_load_scenario(arguments[0])))
    except ReproError as error:
        raise SystemExit(
            f"bound failed: {error_payload(error)['message']}"
        ) from None
    if as_json:
        import json

        print(json.dumps(payload, indent=2))
        return
    accounting = payload.pop("accounting", None)
    _print_digest(payload, as_json=False)
    if accounting is not None:
        print("  accounting:")
        width = max(len(key) for key in accounting)
        for key, value in accounting.items():
            print(f"    {key:<{width}} : {value}")


def _audit(arguments: list[str]) -> None:
    usage = "usage: python -m repro audit <scenario.json|-> [--trials N] [--json]"
    as_json = "--json" in arguments
    arguments = [token for token in arguments if token != "--json"]
    trials: int | None = None
    if "--trials" in arguments:
        index = arguments.index("--trials")
        if index + 1 >= len(arguments):
            raise SystemExit(usage)
        try:
            trials = int(arguments[index + 1])
        except ValueError:
            raise SystemExit(usage) from None
        del arguments[index:index + 2]
    if len(arguments) != 1:
        raise SystemExit(usage)
    from repro.scenario import audit

    try:
        result = audit(_load_scenario(arguments[0]), trials=trials)
    except ReproError as error:
        raise SystemExit(
            f"audit failed: {error_payload(error)['message']}"
        ) from None
    _print_digest(result.summary(), as_json)


def _parse_axis_value(token: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError:
        if token.lower() in ("true", "false"):
            return token.lower() == "true"
        return token
    # Collapse integral floats ("1e6", "4.0") so int-validated builder
    # params (num_nodes, rounds, ...) accept scientific notation.
    return int(value) if value.is_integer() else value


def _sweep(arguments: list[str]) -> None:
    from repro.experiments.reporting import format_table
    from repro.scenario import sweep

    usage = (
        "usage: python -m repro sweep <scenario.json|-> "
        "--axis path=v1,v2,... [--axis ...] "
        "[--mode run|bound|stationary_bound|audit] [--workers N] "
        "[--store DB] [--campaign NAME] "
        "[--on-error raise|collect] [--retries N] [--point-timeout S] "
        "[--engine fast|vectorized|faithful|compiled] [--require-jit] "
        "[--profile-budget BYTES|512M|2G]"
    )
    arguments = _take_profile_budget(arguments, usage)
    arguments, engine = _take_engine(arguments, usage)
    source: str | None = None
    axis: dict[str, list] = {}
    mode = "run"
    workers = 0
    store: str | None = None
    campaign: str | None = None
    on_error = "raise"
    retries = 0
    point_timeout: float | None = None
    index = 0
    while index < len(arguments):
        token = arguments[index]
        if token == "--axis":
            index += 1
            if index >= len(arguments) or "=" not in arguments[index]:
                raise SystemExit(usage)
            name, _, raw = arguments[index].partition("=")
            if name in axis:
                raise SystemExit(f"duplicate --axis {name!r}; give each path once")
            axis[name] = [_parse_axis_value(part) for part in raw.split(",") if part]
        elif token == "--mode":
            index += 1
            if index >= len(arguments):
                raise SystemExit(usage)
            mode = arguments[index]
        elif token == "--workers":
            index += 1
            if index >= len(arguments):
                raise SystemExit(usage)
            try:
                workers = int(arguments[index])
            except ValueError:
                raise SystemExit(usage) from None
        elif token == "--store":
            index += 1
            if index >= len(arguments):
                raise SystemExit(usage)
            store = arguments[index]
        elif token == "--campaign":
            index += 1
            if index >= len(arguments):
                raise SystemExit(usage)
            campaign = arguments[index]
        elif token == "--on-error":
            index += 1
            if index >= len(arguments):
                raise SystemExit(usage)
            on_error = arguments[index]
        elif token == "--retries":
            index += 1
            if index >= len(arguments):
                raise SystemExit(usage)
            try:
                retries = int(arguments[index])
            except ValueError:
                raise SystemExit(usage) from None
        elif token == "--point-timeout":
            index += 1
            if index >= len(arguments):
                raise SystemExit(usage)
            try:
                point_timeout = float(arguments[index])
            except ValueError:
                raise SystemExit(usage) from None
        elif source is None:
            source = token
        else:
            raise SystemExit(usage)
        index += 1
    if source is None or not axis:
        raise SystemExit(usage)

    base = _load_scenario(source)
    if engine is not None:
        base = base.updated(engine=engine)
    try:
        result = sweep(
            base,
            axis=axis,
            mode=mode,
            workers=workers,
            store=store,
            campaign=campaign,
            on_error=on_error,
            retries=retries,
            point_timeout=point_timeout,
        )
    except ReproError as error:
        raise SystemExit(
            f"sweep failed: {error_payload(error)['message']}"
        ) from None
    if store is not None:
        print(
            f"store {store}: campaign {result.campaign_id} — "
            f"{result.computed} computed, {result.reused} reused"
            + (f", {result.failed} failed" if result.failed else "")
        )
    def _report_failures() -> None:
        """Failed points (on_error=collect): print why, exit nonzero."""
        if not result.failed:
            return
        print(f"{result.failed} of {len(result)} points failed:")
        for point in result.failures:
            failure = point.failure
            label = ", ".join(
                f"{name}={value}"
                for name, value in point.coordinates.items()
            )
            suffix = " [quarantined]" if failure.quarantined else ""
            print(
                f"  {label}: {failure.error} ({failure.kind}, "
                f"{failure.attempts} attempt(s)){suffix} — "
                f"{failure.message}"
            )
        raise SystemExit(1)

    names = list(result.axis)
    audited = mode == "audit"
    simulated = mode == "run"
    if not simulated and not audited:
        # Accounting-only grids need no extra columns; the shared
        # SweepResult renderer covers them.
        from repro.experiments.reporting import sweep_table

        print(sweep_table(result))
        _report_failures()
        return
    headers = [*names, "eps_hat" if audited else "central eps"]
    if simulated:
        headers += ["empirical eps", "dummies"]
    else:
        headers += ["threshold", "trials"]
    rows = []
    for point in result:
        row = [point.coordinates[name] for name in names]
        eps = point.epsilon
        row.append("-" if eps is None else round(eps, 4))
        if point.outcome is None:
            # A failed point (on_error=collect) has no outcome to read.
            row.extend(["-", "-"])
        elif simulated:
            # Run-mode points come back as slim RunDigests.
            empirical = point.outcome.empirical_epsilon
            row.append("-" if empirical is None else round(empirical, 4))
            row.append(point.outcome.dummy_count)
        else:
            row.append(round(point.outcome.best_threshold, 4))
            row.append(point.outcome.trials)
        rows.append(tuple(row))
    print(format_table(headers, rows))
    _report_failures()


def _results(arguments: list[str]) -> None:
    usage = (
        "usage: python -m repro results <query|diff|gc|campaigns> "
        "--store DB ...\n"
        "  query     [--x AXIS] [--y METRIC] [--group-by AXIS] "
        "[--mode M] [--campaign C] [--json]\n"
        "  diff      <campaign_a> <campaign_b> [--json]\n"
        "  gc        [--dry-run]\n"
        "  campaigns"
    )
    if not arguments:
        raise SystemExit(usage)
    action, rest = arguments[0], arguments[1:]
    if action not in ("query", "diff", "gc", "campaigns"):
        raise SystemExit(usage)

    as_json = "--json" in rest
    rest = [token for token in rest if token != "--json"]
    dry_run = "--dry-run" in rest
    rest = [token for token in rest if token != "--dry-run"]
    options: dict[str, str] = {}
    positional: list[str] = []
    index = 0
    while index < len(rest):
        token = rest[index]
        if token.startswith("--"):
            index += 1
            if index >= len(rest):
                raise SystemExit(usage)
            options[token[2:].replace("-", "_")] = rest[index]
        else:
            positional.append(token)
        index += 1
    store_path = options.pop("store", None)
    if store_path is None:
        raise SystemExit(usage)

    import json

    from repro.store import ResultsStore, aggregate, diff, diff_is_empty

    try:
        with ResultsStore(store_path) as store:
            if action == "query":
                known = {"x", "y", "group_by", "mode", "campaign"}
                unknown = set(options) - known
                if unknown or positional:
                    raise SystemExit(usage)
                rows = aggregate(
                    store,
                    x=options.get("x", "rounds"),
                    y=options.get("y", "epsilon"),
                    group_by=options.get("group_by", "graph_kind"),
                    mode=options.get("mode"),
                    campaign=options.get("campaign"),
                )
                if as_json:
                    print(json.dumps(rows, indent=2))
                    return
                from repro.experiments.reporting import format_table

                group = options.get("group_by", "graph_kind")
                x = options.get("x", "rounds")
                y = options.get("y", "epsilon")
                headers = [group, x, f"mean {y}", "min", "max", "points"]
                print(format_table(headers, [
                    (
                        row["group"], row["x"], round(row["mean"], 6),
                        round(row["min"], 6), round(row["max"], 6),
                        row["points"],
                    )
                    for row in rows
                ]))
            elif action == "diff":
                if len(positional) != 2 or options:
                    raise SystemExit(usage)
                report = diff(store, positional[0], positional[1])
                if as_json:
                    print(json.dumps(report, indent=2))
                elif diff_is_empty(report):
                    print(
                        f"campaigns {report['campaign_a']} and "
                        f"{report['campaign_b']}: no differences "
                        f"({report['matched']} matched points)"
                    )
                else:
                    print(
                        f"campaigns {report['campaign_a']} vs "
                        f"{report['campaign_b']}: "
                        f"{len(report['only_a'])} only in a, "
                        f"{len(report['only_b'])} only in b, "
                        f"{len(report['changed'])} changed"
                    )
                    for entry in report["changed"]:
                        print(
                            f"  {entry['scenario_hash'][:12]} "
                            f"[{entry['mode']}]: "
                            + ", ".join(
                                f"{name} {change['a']} -> {change['b']}"
                                for name, change in entry["changes"].items()
                            )
                        )
                if not diff_is_empty(report):
                    raise SystemExit(1)
            elif action == "gc":
                if positional or options:
                    raise SystemExit(usage)
                counts = store.gc(dry_run=dry_run)
                verb = "would delete" if dry_run else "deleted"
                for table, count in counts.items():
                    print(f"  {verb} {count} {table}")
            else:  # campaigns
                if positional or options:
                    raise SystemExit(usage)
                if as_json:
                    print(json.dumps(store.campaigns(), indent=2))
                    return
                from repro.experiments.reporting import format_table

                print(format_table(
                    ["id", "name", "status", "preset", "code version",
                     "created", "points", "artifacts"],
                    [
                        (
                            entry["id"], entry["name"], entry["status"],
                            entry["preset"] or "-", entry["code_version"],
                            entry["created_at"], entry["points"],
                            entry["artifacts"],
                        )
                        for entry in store.campaigns()
                    ],
                ))
    except ReproError as error:
        raise SystemExit(
            f"results {action} failed: {error_payload(error)['message']}"
        ) from None


def main(argv: list[str] | None = None) -> None:
    """Dispatch the CLI."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if not arguments or arguments[0] in ("info", "-h", "--help"):
        _info()
        return
    command, rest = arguments[0], arguments[1:]
    if command in _ARTIFACTS:
        _artifact(command)
    elif command == "experiments":
        _experiments(rest)
    elif command == "runall":
        from repro.experiments.runall import main as runall_main

        runall_main(rest)
    elif command == "plan":
        _plan(rest)
    elif command == "run":
        _run(rest)
    elif command == "bound":
        _bound(rest)
    elif command == "audit":
        _audit(rest)
    elif command == "sweep":
        _sweep(rest)
    elif command == "results":
        _results(rest)
    elif command == "serve":
        from repro.serve import main as serve_main

        serve_main(rest)
    else:
        known = ", ".join(
            ("info", *_ARTIFACTS, "experiments", "runall", "plan", "run",
             "bound", "audit", "sweep", "results", "serve")
        )
        raise SystemExit(f"unknown command {command!r}; known: {known}")


if __name__ == "__main__":
    main()
