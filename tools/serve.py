#!/usr/bin/env python3
"""CLI for the VQMC job server (:mod:`repro.serve`).

Usage::

    python tools/serve.py start --root runs/serve --port 8642
    python tools/serve.py submit --url http://127.0.0.1:8642 \\
        --problem tim --n 12 --arch made --iterations 200
    python tools/serve.py status  --url ... job000001
    python tools/serve.py result  --url ... job000001
    python tools/serve.py cancel  --url ... job000001
    python tools/serve.py energy  --url ... --problem tim --n 12 --arch made
    python tools/serve.py sample  --url ... --problem tim --n 12 --arch made
    python tools/serve.py smoke                       # self-contained e2e

``start`` runs a server in the foreground until interrupted. Every other
network subcommand is a thin :class:`repro.serve.ServeClient` call that
prints the server's JSON response.

``smoke`` is the CI entry point: it boots a server on an ephemeral port,
trains a tiny job over HTTP, fires concurrent energy queries, and asserts
the documented coalescing contract (one request departs alone, the
``B - 1`` queued behind it leave in ``ceil((B - 1)/window)`` forwards,
counted via ``serve.batcher.forwards`` — never timing), cancel-and-resume
behaviour, and that the client's connections were reused
(``serve.http.requests / serve.http.connections > 1``). Exit codes: 0 ok,
1 assertion failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
import tempfile
import threading
import time


def _bootstrap() -> None:
    """Make ``repro`` importable when run from a source checkout."""
    try:
        import repro.serve  # noqa: F401
    except ImportError:
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        sys.path.insert(0, str(src))


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem", default="tim", help="tim | maxcut | chain")
    parser.add_argument("--n", type=int, default=10, help="system size")
    parser.add_argument("--instance-seed", type=int, default=0)
    parser.add_argument("--arch", default="made",
                        help="made | rbm | mean_field | rnn")
    parser.add_argument("--hidden", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)


def _model_fields(args: argparse.Namespace) -> dict:
    doc = {
        "problem": args.problem,
        "n": args.n,
        "instance_seed": args.instance_seed,
        "arch": args.arch,
        "seed": args.seed,
    }
    if args.hidden is not None:
        doc["hidden"] = args.hidden
    return doc


def _client(args: argparse.Namespace):
    from repro.serve import ServeClient

    return ServeClient(args.url, timeout=args.timeout)


# -- subcommands -----------------------------------------------------------------


def cmd_start(args: argparse.Namespace) -> int:
    from repro.serve import VQMCServer

    server = VQMCServer(
        args.root,
        workers=args.workers,
        cache_capacity=args.cache_capacity,
        batch_window=args.batch_window,
        max_pending=args.max_pending,
        max_job_seconds=args.max_job_seconds,
        max_backlog_seconds=args.max_backlog_seconds,
    )
    port = server.start_http(host=args.host, port=args.port)
    print(f"[serve] listening on http://{args.host}:{port} (root={args.root})")
    try:
        threading.Event().wait()  # foreground until Ctrl-C
    except KeyboardInterrupt:
        print("\n[serve] shutting down")
    finally:
        server.shutdown()
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    spec = _model_fields(args)
    spec.update(
        iterations=args.iterations,
        batch_size=args.batch_size,
        optimizer=args.optimizer,
        checkpoint_every=args.checkpoint_every,
        priority=args.priority,
        resume=args.resume,
    )
    if args.sampler is not None:
        spec["sampler"] = args.sampler
    reply = _client(args).submit(spec)
    _print_json(reply)
    if args.wait:
        _print_json(_client(args).wait(reply["id"], timeout=args.timeout))
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    client = _client(args)
    _print_json(client.status(args.job_id) if args.job_id else client.jobs())
    return 0


def cmd_result(args: argparse.Namespace) -> int:
    _print_json(_client(args).result(args.job_id))
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    _print_json(_client(args).cancel(args.job_id))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    query = _model_fields(args)
    query["batch_size"] = args.batch_size
    if args.job_id:
        query = {"job_id": args.job_id, "batch_size": args.batch_size}
    client = _client(args)
    reply = client.energy(query) if args.kind == "energy" else client.sample(query)
    _print_json(reply)
    return 0


def cmd_smoke(args: argparse.Namespace) -> int:
    """Self-contained e2e used by CI: HTTP job lifecycle + coalescing."""
    from repro.serve import ServeClient, VQMCServer

    window = 4
    root = args.root or tempfile.mkdtemp(prefix="serve-smoke-")
    server = VQMCServer(root, workers=2, batch_window=window)
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"[smoke] {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    try:
        port = server.start_http()
        client = ServeClient(f"http://127.0.0.1:{port}", timeout=30.0)
        check(client.healthz()["status"] == "ok", "healthz")

        spec = {
            "problem": "tim", "n": 6, "arch": "made", "hidden": 16,
            "seed": 3, "iterations": 6, "batch_size": 32,
            "checkpoint_every": 2,
        }
        job = client.submit(spec)
        status = client.wait(job["id"], timeout=120.0)
        check(status["state"] == "completed",
              f"job completed (state={status['state']}, err={status['error']})")
        check(status["step"] == spec["iterations"], "job ran all steps")
        result = client.result(job["id"])
        check("mean" in result["result"], "result carries final energy stats")

        # Coalescing, staged by counter: with the model's lock held, one
        # query makes the executor busy and the other B - 1 queue behind it.
        entry = server.cache.get(server.job(job["id"]).spec.model_key())
        before = server.batcher.forwards
        queries = server.metrics.counter("serve.queries.energy")
        sent = queries.value
        b = 8
        replies: list[dict | None] = [None] * b
        errors: list[BaseException] = []

        def fire(i: int) -> None:
            try:
                replies[i] = client.energy(
                    {"job_id": job["id"], "batch_size": 16}
                )
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        def wait_until(predicate) -> None:
            deadline = time.monotonic() + 30.0
            while not predicate() and time.monotonic() < deadline:
                time.sleep(0.001)

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(b)]
        with entry.lock:
            threads[0].start()
            wait_until(lambda: queries.value == sent + 1
                       and server.batcher.pending_count() == 0)
            for t in threads[1:]:
                t.start()
            wait_until(lambda: server.batcher.pending_count() == b - 1)
        for t in threads:
            t.join()
        check(not errors, f"concurrent queries succeeded ({errors[:1]})")
        forwards = server.batcher.forwards - before
        check(forwards == 1 + math.ceil((b - 1) / window),
              f"coalesced: {b} queries in {forwards} forwards (window={window})")
        check(all(r and r["count"] == 16 for r in replies),
              "every client got stats over exactly its own batch")

        # Cancel leaves a restorable checkpoint; resume picks it up.
        slow = dict(spec, seed=4, iterations=500, checkpoint_every=1)
        job2 = client.submit(slow)
        deadline = time.monotonic() + 60.0
        while client.status(job2["id"])["step"] < 2:
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
        client.cancel(job2["id"])
        status2 = client.wait(job2["id"], timeout=60.0)
        check(status2["state"] == "cancelled", "cancel mid-run")
        check(status2["checkpoint"] is not None, "cancelled job left checkpoint")
        resumed = client.submit(dict(slow, iterations=status2["step"] + 2,
                                     resume=True))
        status3 = client.wait(resumed["id"], timeout=120.0)
        check(status3["state"] == "completed", "resume from cancel completed")

        counters = client.metrics()["counters"]
        reuse = counters["serve.http.requests"] / counters["serve.http.connections"]
        check(reuse > 1, f"connections were reused ({reuse:.1f} requests each)")
    finally:
        server.shutdown()
    print(f"[smoke] {'PASS' if not failures else 'FAIL'} "
          f"({len(failures)} failure(s)) root={root}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    _bootstrap()
    parser = argparse.ArgumentParser(
        prog="tools/serve.py",
        description="run and talk to the VQMC job server",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("start", help="run a server in the foreground")
    p.add_argument("--root", default="runs/serve")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--cache-capacity", type=int, default=8)
    p.add_argument("--batch-window", type=int, default=8)
    p.add_argument("--max-pending", type=int, default=64)
    p.add_argument("--max-job-seconds", type=float, default=None)
    p.add_argument("--max-backlog-seconds", type=float, default=None)
    p.set_defaults(fn=cmd_start)

    def network(name: str, help_: str) -> argparse.ArgumentParser:
        q = sub.add_parser(name, help=help_)
        q.add_argument("--url", default="http://127.0.0.1:8642")
        q.add_argument("--timeout", type=float, default=120.0)
        return q

    p = network("submit", "submit a training job")
    _add_model_args(p)
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--sampler", default=None,
                   help="auto | mcmc | tempering (default: by architecture)")
    p.add_argument("--optimizer", default="adam")
    p.add_argument("--checkpoint-every", type=int, default=10)
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--resume", action="store_true",
                   help="resume from the model key's newest checkpoint")
    p.add_argument("--wait", action="store_true",
                   help="block until the job reaches a terminal state")
    p.set_defaults(fn=cmd_submit)

    p = network("status", "job status (or all jobs)")
    p.add_argument("job_id", nargs="?", default=None)
    p.set_defaults(fn=cmd_status)

    p = network("result", "terminal job's result document")
    p.add_argument("job_id")
    p.set_defaults(fn=cmd_result)

    p = network("cancel", "cancel a queued or running job")
    p.add_argument("job_id")
    p.set_defaults(fn=cmd_cancel)

    for kind in ("energy", "sample"):
        p = network(kind, f"{kind} query against a warm model")
        _add_model_args(p)
        p.add_argument("--batch-size", type=int, default=64)
        p.add_argument("--job-id", default=None,
                       help="query a submitted job's model instead")
        p.set_defaults(fn=cmd_query, kind=kind)

    p = sub.add_parser("smoke", help="self-contained e2e (CI entry point)")
    p.add_argument("--root", default=None,
                   help="server root (default: fresh temp dir)")
    p.set_defaults(fn=cmd_smoke)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
