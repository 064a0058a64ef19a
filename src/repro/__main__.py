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
    Regenerate every artifact into a directory (plus manifest.json):
    ``experiments all --out dir`` under its historical name.
``plan <n> <target_eps>``
    Deployment planning: local budgets achieving a central target on a
    regular graph of ``n`` users (both protocols).
``run <scenario.json> [--json] [--require-jit] [--profile-budget BYTES]``
    Execute one declarative scenario (simulate + account) and print the
    result digest (``--json`` emits machine-readable JSON).  ``-`` reads
    the scenario from stdin.  ``--require-jit`` makes a process without
    working numba kernels a hard error instead of running the exchange
    on its NumPy round.  Time-varying topologies ride the same
    commands via the ``schedule`` graph spec (sub-specs plus a
    round-robin/epoch selector, or ``base`` + ``phases`` churn); such
    scenarios must set ``rounds`` explicitly and are accounted via the
    exact scheduled collision mass.  ``--profile-budget`` caps the
    memory schedule accounting may spend (``512M``, ``2G``, bytes);
    it sets the panel width — a profile that fits is one in-memory
    block, a larger one evolves in column blocks spilled to disk — and
    every width gives bit-identical results.
``bound <scenario.json> [--json] [--profile-budget BYTES]``
    Price a scenario without simulating: the closed-form guarantee plus
    — for schedule scenarios — the ``accounting`` block reporting the
    strategy (``dense`` for one in-memory block, ``blocked`` for
    spilled blocks), block size, and truncation bound behind the
    collision mass.
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
    failed points exits nonzero after printing them.  ``--require-jit``
    works as on ``run``.
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
    ``POST /audit`` jobs (run in ``--workers`` processes) with
    ``GET /jobs/<id>`` polling, and ``GET /healthz`` / ``GET /stats``
    introspection.  ``--store`` keeps finished jobs as campaigns (they
    answer after a restart; a stored point answers without running)
    and serves ``GET /results``; ``--max-queue`` turns on 429
    back-pressure; ``--job-timeout`` kills a job's worker once the job
    outlives its wall-clock budget and answers 504;
    ``--require-jit`` works as on ``run`` (``GET /stats`` reports which
    kernels the array engine runs).

Every command (and every ``results`` action) takes ``-h``/``--help``
for its usage; ``python -m repro`` alone, ``-h`` or ``--help`` prints
the ``info`` banner.  A malformed command line exits with the usage
line and the fault, never a traceback.

All surfaces share one error taxonomy (:mod:`repro.exceptions`): the
message a failed command prints here is byte-identical to the
``message`` member the serving tier returns for the same fault.
"""

from __future__ import annotations

import argparse
import sys

import repro
from repro.exceptions import ReproError, error_payload

_PROG = "python -m repro"

_ARTIFACTS = (
    "table1", "table3", "table4",
    "figure4", "figure5", "figure6", "figure7", "figure8", "figure9",
)


class _Parser(argparse.ArgumentParser):
    """``ArgumentParser`` whose usage errors raise instead of printing.

    ``error`` raises ``SystemExit("<usage line>\\n<prog>: <message>")``
    rather than printing and exiting 2, so in-process callers (tests,
    ``serve.main``, ``runall.main``) see the message on the exception.
    """

    def error(self, message: str):
        raise SystemExit(f"{self.format_usage().rstrip()}\n{self.prog}: {message}")


def _memory_budget(text: str) -> int:
    """``--profile-budget`` value: bytes, or a ``512M``/``2G`` suffix."""
    from repro.api import parse_memory_budget

    try:
        return parse_memory_budget(text)
    except ReproError as error:
        raise argparse.ArgumentTypeError(error_payload(error)["message"]) from None


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


def _axis(token: str) -> tuple:
    """``--axis path=v1,v2,...`` -> ``(path, [values])``."""
    name, equals, raw = token.partition("=")
    if not equals:
        raise argparse.ArgumentTypeError(f"expected path=v1,v2,..., got {token!r}")
    return name, [_parse_axis_value(part) for part in raw.split(",") if part]


def _info(args: argparse.Namespace | None = None) -> None:
    print(f"repro {repro.__version__} — Network Shuffling (SIGMOD 2022) reproduction")
    print(repro.__doc__)


def _artifact(args: argparse.Namespace) -> None:
    import importlib

    module = importlib.import_module(f"repro.experiments.{args.command}")
    module.main()


def _campaign(args: argparse.Namespace) -> dict:
    """Regenerate ``args.artifact`` (or every artifact) via the registry."""
    from repro.experiments import campaigns

    if args.fast and args.full:
        args.parser.error("--fast and --full are mutually exclusive")
    names = None if args.artifact == "all" else [args.artifact]
    if names is not None and args.artifact not in campaigns.ARTIFACTS:
        known = ", ".join(["all", *campaigns.artifact_names()])
        args.parser.error(f"unknown artifact {args.artifact!r}; known: {known}")
    preset = "fast" if args.fast else "full" if args.full else "default"
    return campaigns.run_campaign(
        names, preset=preset, output_dir=args.out, echo=print, store=args.store
    )


def _experiments(args: argparse.Namespace) -> None:
    manifest = _campaign(args)
    if args.out is not None:
        print(f"manifest: {manifest['manifest_path']}")
    if args.store is not None:
        print(f"recorded campaign {manifest['campaign_id']} in {args.store}")


def _runall(args: argparse.Namespace) -> dict:
    manifest = _campaign(args)
    print(
        f"\nall artifacts regenerated in {manifest['output_dir']}/ "
        f"(preset: {manifest['preset']}; manifest: {manifest['manifest_path']})"
    )
    return manifest


def _plan(args: argparse.Namespace) -> None:
    from repro.amplification.planning import required_epsilon0
    from repro.config import DEFAULT_CONFIG

    n, target = args.n, args.target_eps
    if n < 1:
        args.parser.error(f"n must be at least 1 user, got {n}")
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


def _scenario(args: argparse.Namespace) -> "repro.Scenario":
    """Install ``--profile-budget`` as process policy; load the scenario.

    The budget caps the memory schedule accounting may spend.  It never
    changes the computed bits, so it is a flag rather than a field in
    the scenario JSON.
    """
    if getattr(args, "profile_budget", None) is not None:
        from repro.api import ProfilePolicy, set_profile_policy

        set_profile_policy(ProfilePolicy(memory_budget=args.profile_budget))
    return _load_scenario(args.scenario)


def _print_digest(digest: dict, as_json: bool) -> None:
    if as_json:
        import json

        print(json.dumps(digest, indent=2))
        return
    width = max(len(key) for key in digest)
    for key, value in digest.items():
        print(f"  {key:<{width}} : {value}")


def _run(args: argparse.Namespace) -> None:
    from repro.scenario import run

    _print_digest(run(_scenario(args)).summary(), args.json)


def _bound(args: argparse.Namespace) -> None:
    from repro.api import bound, bound_payload

    payload = bound_payload(bound(_scenario(args)))
    if args.json:
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


def _audit(args: argparse.Namespace) -> None:
    from repro.scenario import audit

    _print_digest(audit(_scenario(args), trials=args.trials).summary(), args.json)


def _sweep(args: argparse.Namespace) -> None:
    from repro.experiments.reporting import format_table
    from repro.scenario import sweep

    axis: dict[str, list] = {}
    for name, values in args.axis:
        if name in axis:
            args.parser.error(f"duplicate --axis {name!r}; give each path once")
        axis[name] = values
    result = sweep(
        _scenario(args),
        axis=axis,
        mode=args.mode,
        workers=args.workers,
        store=args.store,
        campaign=args.campaign,
        on_error=args.on_error,
        retries=args.retries,
        point_timeout=args.point_timeout,
    )
    if args.store is not None:
        print(
            f"store {args.store}: campaign {result.campaign_id} — "
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
    audited = args.mode == "audit"
    simulated = args.mode == "run"
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


def _results(args: argparse.Namespace) -> None:
    import json

    from repro.store import ResultsStore, aggregate, diff, diff_is_empty

    with ResultsStore(args.store) as store:
        if args.action == "query":
            rows = aggregate(
                store,
                x=args.x,
                y=args.y,
                group_by=args.group_by,
                mode=args.mode,
                campaign=args.campaign,
            )
            if args.json:
                print(json.dumps(rows, indent=2))
                return
            from repro.experiments.reporting import format_table

            headers = [args.group_by, args.x, f"mean {args.y}", "min", "max", "points"]
            print(format_table(headers, [
                (
                    row["group"], row["x"], round(row["mean"], 6),
                    round(row["min"], 6), round(row["max"], 6),
                    row["points"],
                )
                for row in rows
            ]))
        elif args.action == "diff":
            report = diff(store, args.campaign_a, args.campaign_b)
            if args.json:
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
        elif args.action == "gc":
            counts = store.gc(dry_run=args.dry_run)
            verb = "would delete" if args.dry_run else "deleted"
            for table, count in counts.items():
                print(f"  {verb} {count} {table}")
        else:  # campaigns
            if args.json:
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


def _serve(args: argparse.Namespace) -> None:
    import asyncio

    from repro.serve import serve

    try:
        asyncio.run(
            serve(
                host=args.host,
                port=args.port,
                workers=args.workers,
                spill_dir=args.spill_dir,
                max_queue=args.max_queue,
                store=args.store,
                job_timeout=args.job_timeout,
                profile_budget=args.profile_budget,
            )
        )
    except KeyboardInterrupt:
        pass


def _parser() -> tuple[_Parser, dict]:
    """The whole command line as one argparse tree.

    Returns the root parser and its ``{command: subparser}`` map.  Every
    subparser records its ``handler`` and itself (``parser``, for usage
    errors raised after parsing) as defaults.
    """
    scenario = _Parser(add_help=False)
    scenario.add_argument("scenario", metavar="scenario.json|-")
    as_json = _Parser(add_help=False)
    as_json.add_argument("--json", action="store_true")
    budget = _Parser(add_help=False)
    budget.add_argument("--profile-budget", type=_memory_budget, metavar="BYTES|512M|2G")
    jit = _Parser(add_help=False)
    jit.add_argument("--require-jit", action="store_true")
    preset = _Parser(add_help=False)
    preset.add_argument("--fast", action="store_true")
    preset.add_argument("--full", action="store_true")
    store = _Parser(add_help=False)
    store.add_argument("--store", required=True, metavar="DB")

    root = _Parser(prog=_PROG, add_help=False)
    commands = root.add_subparsers(dest="command")

    def command(name, handler, *parents, under=commands) -> _Parser:
        parser = under.add_parser(name, parents=parents, allow_abbrev=False)
        parser.set_defaults(handler=handler, parser=parser)
        return parser

    command("info", _info)
    for name in _ARTIFACTS:
        command(name, _artifact)
    experiments = command("experiments", _experiments, preset)
    experiments.add_argument("artifact", metavar="artifact|all")
    experiments.add_argument("--out", metavar="DIR")
    experiments.add_argument("--store", metavar="DB")
    runall = command("runall", _runall, preset)
    runall.add_argument("out", nargs="?", default="experiments_output", metavar="dir")
    runall.set_defaults(artifact="all", store=None)
    plan = command("plan", _plan)
    plan.add_argument("n", type=int)
    plan.add_argument("target_eps", type=float)
    command("run", _run, scenario, as_json, jit, budget)
    command("bound", _bound, scenario, as_json, budget)
    audit = command("audit", _audit, scenario, as_json)
    audit.add_argument("--trials", type=int, metavar="N")
    sweep = command("sweep", _sweep, scenario, jit, budget)
    sweep.add_argument("--axis", type=_axis, action="append", required=True,
                       metavar="path=v1,v2,...")
    sweep.add_argument("--mode", default="run",
                       metavar="run|bound|stationary_bound|audit")
    sweep.add_argument("--workers", type=int, default=0, metavar="N")
    sweep.add_argument("--store", metavar="DB")
    sweep.add_argument("--campaign", metavar="NAME")
    sweep.add_argument("--on-error", default="raise", metavar="raise|collect")
    sweep.add_argument("--retries", type=int, default=0, metavar="N")
    sweep.add_argument("--point-timeout", type=float, metavar="S")
    actions = command("results", None).add_subparsers(dest="action", required=True)
    query = command("query", _results, store, as_json, under=actions)
    query.add_argument("--x", default="rounds", metavar="AXIS")
    query.add_argument("--y", default="epsilon", metavar="METRIC")
    query.add_argument("--group-by", default="graph_kind", metavar="AXIS")
    query.add_argument("--mode", metavar="M")
    query.add_argument("--campaign", metavar="C")
    diff = command("diff", _results, store, as_json, under=actions)
    diff.add_argument("campaign_a")
    diff.add_argument("campaign_b")
    gc = command("gc", _results, store, under=actions)
    gc.add_argument("--dry-run", action="store_true")
    command("campaigns", _results, store, as_json, under=actions)
    serve = command("serve", _serve, jit, budget)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8777)
    serve.add_argument("--workers", type=int, default=2, metavar="N")
    serve.add_argument("--spill-dir", metavar="DIR")
    serve.add_argument("--store", metavar="DB")
    serve.add_argument("--max-queue", type=int, metavar="N")
    serve.add_argument("--job-timeout", type=float, metavar="SECONDS")
    return root, commands.choices


def main(argv: list[str] | None = None):
    """Dispatch the CLI; returns the command handler's result."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if not arguments or arguments[0] in ("-h", "--help"):
        _info()
        return None
    parser, commands = _parser()
    if arguments[0] not in commands:
        known = ", ".join(commands)
        raise SystemExit(f"unknown command {arguments[0]!r}; known: {known}")
    args, extra = parser.parse_known_args(arguments)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if getattr(args, "require_jit", False):
        # Process policy like --profile-budget: the array engine fails
        # loudly when numba cannot JIT its kernels instead of silently
        # running its NumPy round.
        from repro.netsim.kernels import set_require_jit

        set_require_jit(True)
    try:
        return args.handler(args)
    except ReproError as error:
        # "run failed: ...", "results query failed: ...": the message is
        # the serving tier's ``message`` for the same fault.
        label = args.parser.prog[len(_PROG) + 1:]
        raise SystemExit(
            f"{label} failed: {error_payload(error)['message']}"
        ) from None


if __name__ == "__main__":
    main()
