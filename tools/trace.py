#!/usr/bin/env python3
"""Summarise ``repro.obs`` Chrome-trace files — the trace half of the CLI
tooling (``tools/lint.py`` is the static half).

Usage::

    python tools/trace.py summary runs/trace_dir          # per-phase/per-rank table
    python tools/trace.py summary runs/trace.rank*.json --json
    python tools/trace.py spans runs/trace.rank000.json --top 15
    python tools/trace.py validate runs/trace_dir         # schema + monotonicity
    python tools/trace.py merge runs/trace_dir -o merged.json

``summary`` aggregates span totals per phase (event name) and per rank
(trace ``pid``), prints an aligned table with a cross-rank skew column
(``max / median``), and flags stragglers — ranks whose phase total exceeds
the straggler threshold times the median, the imbalance the paper's exact
sampling is designed to remove.

``summary`` and ``merge`` also pick up any ``metrics.rankNNN.json``
snapshots next to the traces (written by ``ObsCallback(metrics=...)``)
and fold them with :func:`repro.obs.merge_snapshots` — summary renders
the folded counters/gauges as a second table; merge writes them to
``<output>.metrics.json``.

Exit codes: 0 ok, 1 validation failure / stragglers found (summary only
with ``--fail-on-straggler``), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def _bootstrap() -> None:
    """Make ``repro`` importable when run from a source checkout."""
    try:
        import repro.obs  # noqa: F401
    except ImportError:
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        sys.path.insert(0, str(src))


def _expand(paths: list[str]) -> list[pathlib.Path]:
    out: list[pathlib.Path] = []
    for raw in paths:
        p = pathlib.Path(raw)
        if p.is_dir():
            out.extend(sorted(p.glob("trace.rank*.json")))
        elif p.exists():
            out.append(p)
        else:
            raise FileNotFoundError(raw)
    if not out:
        raise FileNotFoundError(
            f"no trace files under {', '.join(paths)} (expected trace.rank*.json)"
        )
    return out


def _load_spans(paths: list[pathlib.Path]) -> list[dict]:
    from repro.obs import load_chrome_trace

    spans: list[dict] = []
    for path in paths:
        for event in load_chrome_trace(path):
            if event.get("ph") == "X":
                spans.append(event)
    return spans


def _totals(spans: list[dict]) -> tuple[dict[str, dict[int, float]], list[int]]:
    """``{name: {rank: total_ms}}`` plus the sorted rank list."""
    table: dict[str, dict[int, float]] = {}
    ranks: set[int] = set()
    for ev in spans:
        rank = int(ev.get("pid", 0))
        ranks.add(rank)
        per_rank = table.setdefault(ev["name"], {})
        per_rank[rank] = per_rank.get(rank, 0.0) + ev.get("dur", 0.0) / 1e3
    return table, sorted(ranks)


def _find_metrics(paths: list[str]) -> list[pathlib.Path]:
    """Per-rank ``metrics.rankNNN.json`` snapshots living next to the
    traces (written by ``ObsCallback(metrics=...)``)."""
    roots = []
    for raw in paths:
        p = pathlib.Path(raw)
        root = p if p.is_dir() else p.parent
        if root not in roots:
            roots.append(root)
    hits: list[pathlib.Path] = []
    for root in roots:
        hits.extend(sorted(root.glob("metrics.rank*.json")))
    return hits


def _fold_metrics(paths: list[pathlib.Path]) -> dict | None:
    """Fold per-rank snapshots into one cross-rank snapshot
    (:func:`repro.obs.merge_snapshots`: counters/histogram bins add,
    gauges keep the worst rank)."""
    from repro.obs import merge_snapshots

    merged: dict | None = None
    for path in paths:
        snap = json.loads(path.read_text(encoding="utf-8"))
        merged = snap if merged is None else merge_snapshots(merged, snap)
    return merged


def _find_ledger(paths: list[str], explicit: str | None) -> pathlib.Path | None:
    """The :class:`~repro.distributed.ledger.BatchLedger` JSON log to
    annotate the summary with: ``--ledger PATH`` wins, otherwise the first
    ``ledger*.json`` next to the traces."""
    if explicit:
        p = pathlib.Path(explicit)
        if not p.exists():
            raise FileNotFoundError(explicit)
        return p
    for raw in paths:
        p = pathlib.Path(raw)
        root = p if p.is_dir() else p.parent
        hits = sorted(root.glob("ledger*.json"))
        if hits:
            return hits[0]
    return None


def cmd_summary(args: argparse.Namespace) -> int:
    from repro.obs import skew_report
    from repro.utils.tables import format_table

    spans = _load_spans(_expand(args.paths))
    table, ranks = _totals(spans)
    ledger_path = _find_ledger(args.paths, args.ledger)
    ledger = (
        json.loads(ledger_path.read_text(encoding="utf-8"))
        if ledger_path is not None
        else None
    )
    per_rank_dicts = [
        {name: table[name].get(rank, 0.0) for name in table} for rank in ranks
    ]
    skew = skew_report(per_rank_dicts)

    headers = ["phase", *[f"rank{r} [ms]" for r in ranks], "calls", "skew", "straggler"]
    rows = []
    stragglers: list[str] = []
    counts: dict[str, int] = {}
    for ev in spans:
        name = ev["name"]
        counts[name] = counts.get(name, 0) + 1
    for name in sorted(table):
        info = skew[name]
        flag = ""
        if len(ranks) > 1 and info["skew"] > args.straggler_threshold:
            flag = f"rank{ranks[info['max_rank']]}"
            stragglers.append(f"{name}: {flag} at {info['skew']:.2f}x median")
        rows.append(
            [
                name,
                *[f"{table[name].get(r, 0.0):.3f}" for r in ranks],
                counts[name],
                f"{info['skew']:.2f}x",
                flag,
            ]
        )

    if ledger is not None:
        # Per-rank batch assignment as an extra summary row: slot i of the
        # ledger is rank i of the live group, aligned best-effort with the
        # trace ranks (a shrunk world leaves later columns blank).
        assignment = ledger.get("assignment", [])
        rows.append(
            [
                "batch [samples]",
                *[
                    str(assignment[i]) if i < len(assignment) else "-"
                    for i in range(len(ranks))
                ],
                ledger.get("rebalances", 0),
                "",
                "",
            ]
        )

    metric_files = _find_metrics(args.paths)
    folded = _fold_metrics(metric_files)

    if args.json:
        payload = {
            "ranks": ranks,
            "totals_ms": {n: table[n] for n in sorted(table)},
            "counts": counts,
            "skew": skew,
            "stragglers": stragglers,
        }
        if ledger is not None:
            payload["ledger"] = ledger
        if folded is not None:
            payload["metrics"] = folded
        print(json.dumps(payload, indent=2))
    else:
        print(format_table(headers, rows, title="per-phase / per-rank span totals"))
        if folded is not None and (folded.get("counters") or folded.get("gauges")):
            counter_rows = [
                [name, "counter", f"{value:g}"]
                for name, value in sorted(folded.get("counters", {}).items())
            ] + [
                [name, "gauge (worst rank)", f"{value:g}"]
                for name, value in sorted(folded.get("gauges", {}).items())
            ]
            print()
            print(
                format_table(
                    ["metric", "kind", "value"],
                    counter_rows,
                    title=f"folded metrics ({len(metric_files)} rank snapshot(s))",
                )
            )
        if ledger is not None:
            print(
                f"\n[batch ledger {ledger_path.name}: global_batch="
                f"{ledger.get('global_batch')} over {ledger.get('world_size')} "
                f"rank(s), {ledger.get('rebalances', 0)} rebalance(s)]"
            )
        if stragglers:
            print(f"\n[stragglers > {args.straggler_threshold:.2f}x median]")
            for line in stragglers:
                print(f"  {line}")
        else:
            print(f"\nno stragglers above {args.straggler_threshold:.2f}x median")
    return 1 if (stragglers and args.fail_on_straggler) else 0


def cmd_spans(args: argparse.Namespace) -> int:
    from repro.utils.tables import format_table

    spans = _load_spans(_expand(args.paths))
    spans.sort(key=lambda e: -e.get("dur", 0.0))
    rows = [
        [
            f"{ev.get('dur', 0.0) / 1e3:.3f}",
            int(ev.get("pid", 0)),
            ev["name"],
            f"{ev.get('ts', 0.0) / 1e3:.3f}",
            json.dumps(ev.get("args", {}), default=repr),
        ]
        for ev in spans[: args.top]
    ]
    print(
        format_table(
            ["dur [ms]", "rank", "name", "t0 [ms]", "args"],
            rows,
            title=f"top {min(args.top, len(spans))} spans by duration",
        )
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Round-trip + schema check: every file must parse as trace events
    with monotone timestamps and non-negative durations."""
    from repro.obs import load_chrome_trace

    failures = []
    paths = _expand(args.paths)
    for path in paths:
        try:
            events = load_chrome_trace(path)
            spans = [e for e in events if e.get("ph") == "X"]
            ts = [e["ts"] for e in spans]
            if ts != sorted(ts):
                raise ValueError("timestamps are not monotone")
            if any(e.get("dur", 0.0) < 0 for e in spans):
                raise ValueError("negative span duration")
            for e in spans:
                if "name" not in e or "pid" not in e:
                    raise ValueError("span missing name/pid")
        except Exception as exc:  # noqa: BLE001 — reported per file
            failures.append(f"{path}: {exc}")
    if failures:
        for line in failures:
            print(f"INVALID {line}", file=sys.stderr)
        return 1
    print(f"[trace] {len(paths)} file(s) valid")
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    from repro.obs import merge_chrome_traces

    out = merge_chrome_traces(_expand(args.paths), args.output)
    print(f"[trace] wrote {out}")
    metric_files = _find_metrics(args.paths)
    folded = _fold_metrics(metric_files)
    if folded is not None:
        out_path = pathlib.Path(args.output)
        metrics_out = out_path.with_name(out_path.stem + ".metrics.json")
        metrics_out.write_text(json.dumps(folded, indent=2) + "\n", encoding="utf-8")
        print(
            f"[trace] wrote {metrics_out} "
            f"(folded {len(metric_files)} rank snapshot(s))"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/trace.py",
        description="summarise per-rank Chrome traces produced by repro.obs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser("summary", help="per-phase/per-rank totals table")
    p_summary.add_argument("paths", nargs="+", help="trace files or directories")
    p_summary.add_argument(
        "--straggler-threshold",
        type=float,
        default=1.25,
        help="flag ranks whose phase total exceeds this multiple of the "
        "cross-rank median (default 1.25)",
    )
    p_summary.add_argument(
        "--ledger",
        default=None,
        help="BatchLedger JSON log to annotate the table with per-rank batch "
        "assignments (auto-detected as ledger*.json next to the traces)",
    )
    p_summary.add_argument("--json", action="store_true", help="JSON output")
    p_summary.add_argument(
        "--fail-on-straggler",
        action="store_true",
        help="exit 1 when any straggler is flagged (for CI gates)",
    )
    p_summary.set_defaults(fn=cmd_summary)

    p_spans = sub.add_parser("spans", help="longest individual spans")
    p_spans.add_argument("paths", nargs="+")
    p_spans.add_argument("--top", type=int, default=20)
    p_spans.set_defaults(fn=cmd_spans)

    p_validate = sub.add_parser("validate", help="schema/monotonicity check")
    p_validate.add_argument("paths", nargs="+")
    p_validate.set_defaults(fn=cmd_validate)

    p_merge = sub.add_parser("merge", help="merge per-rank files into one timeline")
    p_merge.add_argument("paths", nargs="+")
    p_merge.add_argument("-o", "--output", required=True)
    p_merge.set_defaults(fn=cmd_merge)

    args = parser.parse_args(argv)
    _bootstrap()
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
