"""Ablation — collective algorithms: ring vs recursive doubling vs naive.

DESIGN.md's distributed layer implements three allreduce algorithms over
the same point-to-point channels. This bench measures them on the thread
backend across payload sizes and world sizes, and cross-checks the
analytic α–β model's predictions (latency-bound → recursive doubling wins;
bandwidth-bound → ring wins). A second table times the process backend's
socket transport on 2 ranks — a symmetric point-to-point exchange and a
ring allreduce at 24 B, 89 KB and 2.4 MB — and fits the α (per-message
latency) and β (seconds per byte) of that fabric from the exchanges.
"""

from __future__ import annotations

import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _harness import format_table, parse_args  # noqa: E402

from repro.cluster.comm_model import allreduce_time  # noqa: E402
from repro.distributed import run_processes, run_threaded  # noqa: E402

#: 2-rank process payloads (floats): 24 B, 89 KB (the paper's dense d = 11 158 at
#: n = 64; dp2_sr64 allreduces the 5 654 its masks connect)
#: and 2.4 MB (larger than the socket buffer, so sends spill)
PROCESS_PAYLOADS = (3, 11_158, 300_000)


def _measure(alg: str, world: int, payload: int, repeats: int = 5) -> float:
    def worker(comm, rank):
        comm.algorithm = alg
        arr = np.ones(payload)
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(repeats):
            comm.allreduce(arr)
        return (time.perf_counter() - t0) / repeats

    return max(run_threaded(worker, world))


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _process_worker(comm, rank, payload: int, repeats: int) -> tuple[float, float]:
    peer = 1 - rank
    arr = np.ones(payload)

    def exchange():
        comm.send(peer, arr)
        comm.recv(peer, timeout=30.0)

    for _ in range(3):  # warm-up
        comm.allreduce(arr)
    comm.barrier()
    exchange_s = _median_seconds(exchange, repeats)
    comm.barrier()
    return exchange_s, _median_seconds(lambda: comm.allreduce(arr), repeats)


def _measure_processes(payload: int, repeats: int) -> tuple[float, float]:
    """Median seconds per symmetric exchange and per ring allreduce on 2
    processes (the slower rank's)."""
    per_rank = run_processes(_process_worker, 2, args=(payload, repeats))
    return tuple(max(column) for column in zip(*per_rank))


def bench_allreduce_ring_threads(benchmark):
    benchmark(lambda: _measure("ring", 4, 10_000, repeats=1))


def bench_allreduce_rec_double_threads(benchmark):
    benchmark(lambda: _measure("rec_double", 4, 10_000, repeats=1))


def bench_allreduce_naive_threads(benchmark):
    benchmark(lambda: _measure("naive", 4, 10_000, repeats=1))


def bench_allreduce_ring_processes(benchmark):
    benchmark(lambda: _measure_processes(10_000, repeats=1))


def main() -> None:
    parse_args(__doc__.splitlines()[0])
    rows = []
    for world in (4, 8):
        for payload in (64, 10_000, 1_000_000):
            times = {
                alg: _measure(alg, world, payload) * 1e3
                for alg in ("ring", "rec_double", "naive")
            }
            best = min(times, key=times.get)
            rows.append([world, payload, times["ring"], times["rec_double"],
                         times["naive"], best])
    print(format_table(
        ["L", "payload (floats)", "ring (ms)", "rec_double (ms)",
         "naive (ms)", "winner"],
        rows,
        title="Collective-algorithm ablation (thread backend)",
    ))

    rows, exchanges = [], []
    for payload in PROCESS_PAYLOADS:
        exchange, allreduce = _measure_processes(payload, 300 if payload < 10**5 else 30)
        exchanges.append(exchange)
        rows.append([payload * 8, exchange * 1e6, allreduce * 1e6])
    print()
    print(format_table(
        ["payload (B)", "exchange (µs)", "ring allreduce (µs)"],
        rows,
        title="Process backend, 2 ranks (socket transport)",
    ))
    beta = (exchanges[-1] - exchanges[0]) / ((PROCESS_PAYLOADS[-1] - PROCESS_PAYLOADS[0]) * 8)
    print(f"pipe fabric fit: α = {exchanges[0] * 1e6:.1f} µs/message, "
          f"β = {beta * 1e9:.3f} ns/B ({1e-9 / beta:.2f} GB/s)")

    # Analytic model's prediction for a V100-cluster-like fabric.
    rows = []
    for payload in (64, 10_000, 1_000_000):
        ring = allreduce_time(payload, 8, 12.5e9, 2e-6) * 1e6
        # Recursive doubling: log2(L) rounds, full payload each round.
        rd = (np.log2(8) * (2e-6 + payload * 4 / 12.5e9)) * 1e6
        rows.append([payload, ring, rd, "rec_double" if rd < ring else "ring"])
    print()
    print(format_table(
        ["payload (floats)", "ring (µs)", "rec_double (µs)", "model winner"],
        rows,
        title="α–β model (L=8, IB 12.5 GB/s, 2 µs latency)",
    ))
    print("\nExpected: recursive doubling wins tiny payloads (latency-bound),\n"
          "ring wins large payloads (bandwidth-optimal 2(L-1)/L factor).")


if __name__ == "__main__":
    main()
