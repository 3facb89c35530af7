#!/usr/bin/env python3
"""Repo-specific verifier CLI — both prongs of ``repro.analysis``.

Static lint::

    python tools/lint.py src                     # human output, exit 1 on findings
    python tools/lint.py src tests --format json # machine-readable report
    python tools/lint.py src --format sarif      # SARIF 2.1.0 (PR annotations)
    python tools/lint.py src --format github     # GitHub workflow commands
    python tools/lint.py --list-rules            # rule catalogue
    python tools/lint.py src --select det-unseeded-rng,dist-recv-timeout

Schedule exploration (the dynamic prong)::

    python tools/lint.py explore --list-scenarios
    python tools/lint.py explore                          # all scenarios, clean
    python tools/lint.py explore --scenario recv-livelock --seed-bug \
        --trace-out trace.json                            # rediscover the bug
    python tools/lint.py explore --replay trace.json      # bit-identical replay

Exit codes (both subcommands): 0 clean / replay verified, 1 findings /
schedule failure / replay divergence, 2 usage or internal error. CI runs
the lint over ``src/ tools/ benchmarks/ examples/`` (one call: project
rules see what one call is given) and a bounded explore smoke
(also enforced in-process by ``tests/test_analysis/``, so plain pytest
gates the same invariants).

Suppressions (see docs/static_analysis.md):
``# repro-lint: disable=<rule-id> -- justification`` on any line of the
offending statement, ``# repro-lint: file-disable=<rule-id> --
justification`` for a whole file.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def _bootstrap() -> None:
    """Make ``repro`` importable when run from a source checkout."""
    try:
        import repro.analysis  # noqa: F401
    except ImportError:
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        sys.path.insert(0, str(src))


# -- lint -------------------------------------------------------------------


def _to_sarif(report, rules) -> dict:
    """SARIF 2.1.0 (the subset GitHub code scanning ingests; schema
    documented in docs/static_analysis.md)."""

    def result(finding, suppressed: bool) -> dict:
        out = {
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        if suppressed:
            out["suppressions"] = [{"kind": "inSource"}]
        return out

    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "docs/static_analysis.md",
                        "rules": [
                            {
                                "id": rule.id,
                                "shortDescription": {"text": rule.description},
                                "properties": {"category": rule.category},
                            }
                            for rule in rules
                        ],
                    }
                },
                "results": [result(f, False) for f in report.findings]
                + [result(f, True) for f in report.suppressed],
            }
        ],
    }


def _emit_github(report) -> None:
    """GitHub Actions workflow commands: surfaced inline on the PR diff."""
    for f in report.findings:
        print(
            f"::error file={f.path},line={f.line},col={f.col + 1},"
            f"title={f.rule_id}::{f.message}"
        )


def lint_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/lint.py",
        description="repo-specific determinism/autograd/distributed linter",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif", "github"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="alias for --format json (kept for compatibility)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all registered)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    args = parser.parse_args(argv)

    _bootstrap()
    from repro.analysis import iter_rules, lint_paths

    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.id}  [{rule.category}]")
            print(f"    {rule.description}")
        return 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (and --list-rules not requested)", file=sys.stderr)
        return 2

    missing = [p for p in args.paths if not pathlib.Path(p).exists()]
    if missing:
        print(f"error: path(s) do not exist: {', '.join(missing)}", file=sys.stderr)
        return 2

    select = None
    if args.select:
        select = [s.strip() for s in args.select.split(",") if s.strip()]
    try:
        report = lint_paths(args.paths, select=select)
    except KeyError as exc:
        print(f"error: unknown rule id {exc.args[0]!r}", file=sys.stderr)
        return 2

    fmt = "json" if args.json else args.format
    if fmt == "json":
        print(report.to_json())
    elif fmt == "sarif":
        print(json.dumps(_to_sarif(report, iter_rules()), indent=2))
    elif fmt == "github":
        _emit_github(report)
    else:
        for finding in report.findings:
            print(finding.format())
        suppressed = f", {len(report.suppressed)} suppressed" if report.suppressed else ""
        status = "clean" if report.ok else f"{len(report.findings)} finding(s)"
        print(
            f"[lint] {status} across {report.files_scanned} file(s){suppressed}"
        )
    return 0 if report.ok else 1


# -- explore ----------------------------------------------------------------


def explore_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/lint.py explore",
        description="deterministic schedule explorer for the threads backend",
    )
    parser.add_argument(
        "--scenario",
        metavar="NAME",
        help="scenario to explore (default: every registered scenario)",
    )
    parser.add_argument(
        "--seed-bug",
        action="store_true",
        help="flip the scenario's fault hook, re-introducing its historical bug",
    )
    parser.add_argument(
        "--schedules",
        type=int,
        default=25,
        metavar="N",
        help="exploration budget per scenario (default: 25)",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=None,
        metavar="N",
        help="event budget per schedule (default: scenario-specific)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write the failing schedule's replayable trace here",
    )
    parser.add_argument(
        "--replay",
        metavar="TRACE",
        help="replay a recorded trace and verify its fingerprint bit-identically",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report on stdout"
    )
    parser.add_argument(
        "--list-scenarios", action="store_true", help="print the catalogue"
    )
    args = parser.parse_args(argv)

    _bootstrap()
    from repro.analysis.explore import (
        ReplayDivergence,
        explore,
        load_trace,
        replay_trace,
    )
    from repro.analysis.scenarios import SCENARIOS, get_scenario

    if args.list_scenarios:
        for name in sorted(SCENARIOS):
            sc = SCENARIOS[name]
            bug = f" [seedable bug: {sc.bug}]" if sc.bug else ""
            print(f"{name}  (world={sc.world_size}){bug}")
            print(f"    {sc.description}")
        return 0

    if args.replay:
        try:
            trace = load_trace(args.replay)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            result = replay_trace(trace, max_steps=args.max_steps)
        except ReplayDivergence as exc:
            print(f"[explore] replay DIVERGED: {exc}", file=sys.stderr)
            return 1
        print(
            f"[explore] replayed {trace['scenario']} bit-identically: "
            f"{result.steps} events, status={result.status}, "
            f"fingerprint={result.fingerprint[:16]}…"
        )
        return 0

    try:
        scenarios = (
            [get_scenario(args.scenario)]
            if args.scenario
            else [SCENARIOS[n] for n in sorted(SCENARIOS)]
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    reports = []
    failed = False
    for sc in scenarios:
        rep = explore(
            sc,
            seed_bug=args.seed_bug,
            max_schedules=args.schedules,
            max_steps=args.max_steps,
        )
        reports.append(rep)
        if rep.found_bug:
            failed = True
            if args.trace_out:
                trace = rep.failure.to_trace(sc.name, args.seed_bug)
                pathlib.Path(args.trace_out).write_text(
                    json.dumps(trace, indent=2)
                )
        if not args.json:
            verdict = (
                f"FAILED ({rep.failure.status}) at schedule "
                f"{rep.failure_schedule}"
                if rep.found_bug
                else "clean"
            )
            print(
                f"[explore] {sc.name}: {verdict} — {rep.schedules} "
                f"schedule(s), {rep.events_total} events, "
                f"{rep.wall_seconds:.2f}s"
            )
            if rep.found_bug and rep.failure.waits_for:
                for rank, what in sorted(rep.failure.waits_for.items()):
                    print(f"    rank {rank} waits for: {what}")
            if rep.found_bug and rep.failure.errors:
                for rank, err in sorted(rep.failure.errors.items()):
                    print(f"    rank {rank} raised: {err}")
            if rep.found_bug and args.trace_out:
                print(f"    trace written to {args.trace_out}")
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "explore":
        return explore_main(argv[1:])
    return lint_main(argv)


if __name__ == "__main__":
    sys.exit(main())
