"""The six workloads of the step profile, and how each is measured.

Every runner takes ``(spec, seed, seconds, trace, reps, workdir, probe)``
and returns a :class:`Result`. With ``trace`` off it measures the end-to-end
metrics through the program's own driver (``VQMC.step``, the HTTP client).
With ``trace`` on it spends a third of the time on that same untraced path
as a reference and the rest on a benchmark-owned mirror that calls the
public entry points one by one inside :mod:`spans`, which gives the
per-layer ledger and proves the mirror faithful against the reference.

Sizes are chosen so that one run of ``run_seconds`` (BENCHMARK.json) times
about 100 operations or more on every workload of this host, and so that
the cost of an operation does not depend on the seed: see README.md for why
``sr64`` solves with a fixed CG budget and why the convergence workload is
a small chain.

Every duration is divided by the host's slowdown read around it
(:class:`host.SpeedProbe`), so all times are at nominal host speed.
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import threading
import time
import urllib.error
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.energy import energy_statistics, grad_from_per_sample, local_energies
from repro.core.vqmc import VQMC, VQMCConfig
from repro.distributed.mp import run_processes
from repro.exact import ground_state
from repro.experiments.protocol import make_hamiltonian
from repro.jit import StepCompiler
from repro.models.made import MADE, default_hidden_size
from repro.obs.metrics import Metrics
from repro.optim import SGD, Adam
from repro.optim.sr import StochasticReconfiguration
from repro.samplers.autoregressive import AutoregressiveSampler
from repro.serve import ServeAPIError, ServeClient, VQMCServer
from repro.serve.protocol import QuerySpec

import host
from spans import END, NAME, START, STEP, SpanLog, TimedComm, self_times

__all__ = ["WORKLOADS", "SMOKE", "Result", "run_workload"]

WARMUP_STEPS = 3
#: compiled and interpreted steps, and the traced mirror and the driver,
#: must agree on per-step energies to this relative tolerance
AGREE_RTOL = 1e-10
#: ... except compiled vs interpreted under SR: the truncated CG solve
#: amplifies the last-digit difference of the two O-matrices by ~1e3 a step
#: (measured: up to 3e-9 after three steps)
SR_COMPILE_RTOL = 1e-7
#: data-parallel ranks agree on "time is up" only every this many steps, so
#: the control collective stays off the timed path
DP_SYNC_EVERY = 5
#: values that should depend on the seed alone (``vqmc.energy_final``: mean
#: energy of the last ten; ``sr.cg_iters``) are taken over this many traced
#: steps from the start, not over however many the time budget allowed
HEAD_STEPS = 30
#: episodes whose step counts define ``converge.steps_to_target``
TARGET_EPISODES = 12
#: a traced run alternates this many (reference, traced) block pairs
TRACE_BLOCKS = 8
#: serve16 pauses its callers this often to read the host's speed
BURST_SECONDS = 0.5
#: serve16's closed-loop callers
CLIENTS = 2
#: a training run that has not reached its target by then has failed
STEP_CAP = 400
#: ``CommStats`` fields reported per step
COMM_COUNTS = ("collective_bytes", "messages_sent", "retries")


@dataclass(frozen=True)
class Spec:
    kind: str  # 'steps' | 'serve' | 'converge'
    problem: str  # 'tim' | 'maxcut' | 'chain'
    n: int
    batch: int  # per rank (steps, converge) or per query (serve)
    sr: bool = False
    lr: float = 0.01
    world: int = 1
    cg_budget: int = 32
    target_rel: float = 0.02


WORKLOADS: dict[str, Spec] = {
    "tim256": Spec("steps", "tim", 256, 64),
    "maxcut256": Spec("steps", "maxcut", 256, 256),
    "sr64": Spec("steps", "tim", 64, 128, sr=True, lr=0.03),
    "dp2_sr64": Spec("steps", "tim", 64, 64, sr=True, lr=0.03, world=2),
    "serve16": Spec("serve", "tim", 16, 16),
    "converge_chain10": Spec("converge", "chain", 10, 256, lr=0.05),
}

#: ``--smoke``: same code paths at sizes that finish in a blink
SMOKE: dict[str, Spec] = {
    "tim256": replace(WORKLOADS["tim256"], n=16, batch=16),
    "maxcut256": replace(WORKLOADS["maxcut256"], n=16, batch=32),
    "sr64": replace(WORKLOADS["sr64"], n=12, batch=32, cg_budget=8),
    "dp2_sr64": replace(WORKLOADS["dp2_sr64"], n=12, batch=16, cg_budget=8),
    "serve16": replace(WORKLOADS["serve16"], n=8, batch=4),
    "converge_chain10": replace(
        WORKLOADS["converge_chain10"], n=6, batch=64, target_rel=0.05
    ),
}


@dataclass
class Result:
    attempted: int
    failed: int
    correct: bool
    #: metric name -> (value, number of samples behind it)
    values: dict[str, tuple[float, int]]
    notes: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)


# -- building one trainer from a seed ----------------------------------------------


def build_trainer(spec: Spec, seed, comm=None, metrics=None) -> VQMC:
    """Instance, initial parameters and sample streams all derive from
    ``seed``; ranks share the first two and own one stream each."""
    inst, init, stream = np.random.SeedSequence(seed).spawn(3)
    ham = make_hamiltonian(spec.problem, spec.n, seed=np.random.default_rng(inst))
    model = MADE(spec.n, rng=np.random.default_rng(init))
    if spec.sr:
        optimizer = SGD(model.parameters(), lr=spec.lr)
        sr = StochasticReconfiguration(
            diag_shift=1e-3, solver="cg", cg_maxiter=spec.cg_budget
        )
    else:
        optimizer, sr = Adam(model.parameters(), lr=spec.lr), None
    rank, world = (comm.rank, comm.size) if comm is not None else (0, 1)
    return VQMC(
        model,
        ham,
        AutoregressiveSampler(),
        optimizer,
        sr=sr,
        comm=comm,
        seed=np.random.default_rng(stream.spawn(world)[rank]),
        config=VQMCConfig(batch_size=spec.batch),
        metrics=metrics,
    )


# -- the traced mirror of VQMC.step --------------------------------------------------


def _serial(comm) -> bool:
    return comm is None or comm.size == 1


def _sum_over_ranks(array: np.ndarray, comm) -> np.ndarray:
    """``VQMC._allreduce``: the identity in a serial run."""
    if _serial(comm):
        return array
    return comm.allreduce(array, op="sum")


def _global_mean(local: np.ndarray, comm) -> tuple[float, float]:
    """``VQMC._combine_stats``: mean local energy and sample count over
    all ranks, from allreduced moments in a parallel run."""
    if _serial(comm):
        stats = energy_statistics(local)
        return stats.mean, stats.count
    count, s1, _ = comm.allreduce(
        np.array([local.size, local.sum(), (local**2).sum()]), op="sum"
    )
    return float(s1 / count), count


def _energy_gradient(o: np.ndarray, local: np.ndarray, mean: float, count, comm):
    """``VQMC._combined_gradient``: globally centred ``2<(l - L) O>``."""
    if _serial(comm):
        return grad_from_per_sample(o, local)
    return comm.allreduce(2.0 * ((local - mean) @ o), op="sum") / count


def layer_step(tr: VQMC, log: SpanLog, compiler: StepCompiler) -> float:
    """One optimisation step through public entry points, in
    ``VQMC.step``'s order and arithmetic, one span per layer boundary.

    What is left outside the layer spans (weights, the per-sample gradient
    contraction, the finite check) is the driver's own work and shows as
    the self time of ``step``.
    """
    model, comm, sr = tr.model, tr.comm, tr.sr
    log.step_id += 1
    with log.span("step"):
        with log.span("samplers.sample"):
            x = tr.sampler.sample(model, tr.config.batch_size, tr.rng)
        model.zero_grad()
        if sr is None:
            with log.span("jit.forward"):
                plan = compiler.plan_for(x)
                log_psi = plan.forward(x)
        else:
            with log.span("jit.backward"):
                plan = compiler.per_sample_plan(x)
                log_psi, o = plan.per_sample(x)
        with log.span("energy.local"):
            local = local_energies(model, tr.hamiltonian, x, log_psi_x=log_psi)
            mean, count = _global_mean(local, comm)
        if sr is None:
            with log.span("jit.backward"):
                grad = plan.gradient(2.0 * (local - mean) / count).copy()
            grad = _sum_over_ranks(grad, comm)
        else:
            grad = _energy_gradient(o, local, mean, count, comm)
            with log.span("sr.solve"):
                grad = sr.natural_gradient(o, grad, comm=comm)
        with log.span("optim.update"):
            if np.all(np.isfinite(grad)):
                model.set_flat_grad(grad)
                tr.optimizer.step()
            else:
                tr.diverged_steps += 1
    return mean


LAYERS = {
    "samplers": ("samplers.sample",),
    "energy": ("energy.local",),
    "jit": ("jit.forward", "jit.backward"),
    "sr": ("sr.solve",),
    "optim": ("optim.update",),
    "comm": ("comm.allreduce",),
    "driver": ("step",),
}
#: layer time metrics, by span name
SECONDS_METRIC = {
    "samplers.sample": "samplers.sample_s",
    "energy.local": "energy.local_s",
    "jit.forward": "jit.forward_s",
    "jit.backward": "jit.backward_s",
    "sr.solve": "sr.solve_s",
    "optim.update": "optim.update_s",
    "comm.allreduce": "comm.allreduce_s",
}


def _ledger(logs: list[SpanLog], slows: list, first_step: int) -> dict[str, tuple[float, int]]:
    """Per-step medians and shares of each layer, averaged over ranks.

    ``slows[rank][i]`` is the host's slowdown around step ``first_step + i``;
    steps before ``first_step`` are warm-up and left out.
    """
    per_rank: list[dict[str, float]] = []
    n_steps = 0
    for log, slow in zip(logs, slows):
        raw, calls = self_times(log)
        steps = [s for s in sorted(raw) if s >= first_step]
        n_steps = len(steps)
        seconds = {
            s: {name: t / slow[s - first_step] for name, t in raw[s].items()} for s in steps
        }
        total = sum(sum(seconds[s].values()) for s in steps)
        row: dict[str, float] = {}
        for span_name, metric in SECONDS_METRIC.items():
            row[metric] = float(np.median([seconds[s].get(span_name, 0.0) for s in steps]))
        for layer, names in LAYERS.items():
            own = sum(seconds[s].get(nm, 0.0) for s in steps for nm in names)
            row[f"{layer}.share"] = own / total
        for layer in ("samplers", "energy", "comm"):
            (name,) = LAYERS[layer]
            row[f"{layer}.calls"] = float(np.median([calls[s].get(name, 0) for s in steps]))
        row["trace.coverage"] = 1.0 - row["driver.share"]
        per_rank.append(row)
    return {k: (float(np.mean([r[k] for r in per_rank])), n_steps) for k in per_rank[0]}


# -- timing loops ------------------------------------------------------------------


def _timed_loop(step, seconds: float, probe: host.SpeedProbe, comm=None):
    """Call ``step()`` until ``seconds`` have passed; returns the seconds
    each call took, what each returned, and the host's slowdown around each
    (the mean of the probe readings right before and after it).

    Ranks of a data-parallel run must stop after the same step, so they
    agree on the elapsed time through a max-allreduce — between steps,
    outside every per-step timing, as the probe is.
    """
    durations, results, probes = [], [], [probe()]
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = step()
        t1 = time.perf_counter()
        durations.append(t1 - t0)
        results.append(result)
        probes.append(probe())
        elapsed = t1 - begin
        if comm is not None and comm.size > 1:
            if len(durations) % DP_SYNC_EVERY:
                continue
            elapsed = comm.allreduce(np.array([elapsed]), op="max")[0]
        if elapsed >= seconds:
            slow = (np.asarray(probes[:-1]) + np.asarray(probes[1:])) / 2.0
            return durations, results, slow.tolist()


def _checksum(tr: VQMC) -> str:
    return hashlib.sha256(tr.model.flat_parameters().tobytes()).hexdigest()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rank_setup(comm, rank, spec: Spec, seed, compile_mode: str) -> list[float]:
    """Build a trainer and take the untimed warm-up steps (plan compiles,
    caches fill); the energies feed the compiled-vs-interpreted gate."""
    tr = build_trainer(spec, seed, comm)
    return [tr.step(compile=compile_mode).stats.mean for _ in range(WARMUP_STEPS)]


def _rank_run(comm, rank, spec: Spec, seed, seconds: float, trace: bool) -> dict:
    """The measured part of a step workload on one rank (``comm`` is None
    when serial). Returns plain data: it crosses a pipe in parallel runs.

    A traced run alternates blocks of the untraced driver (a third of the
    time) and of the traced mirror, so that both sides of
    ``trace.overhead_pct`` meet the same phases of the host.
    """
    probe = host.SpeedProbe()
    registry = Metrics()
    ref = build_trainer(spec, seed, comm, metrics=registry)
    for _ in range(WARMUP_STEPS):
        ref.step()

    def ref_step() -> float:
        return ref.step().stats.mean

    if not trace:
        durations, energies, slow = _timed_loop(ref_step, seconds, probe, comm)
    else:
        log = SpanLog(rank)
        tr = build_trainer(spec, seed, TimedComm(comm, log) if comm is not None else None)
        compiler = StepCompiler(tr.model)
        for _ in range(WARMUP_STEPS):
            layer_step(tr, log, compiler)
        stats = comm.stats if comm is not None else None
        comm_deltas: list[dict] = []
        solves: list = []

        def traced_step() -> float:
            before = stats.snapshot() if stats is not None else None
            energy = layer_step(tr, log, compiler)
            if stats is not None:
                after = stats.snapshot()
                comm_deltas.append({k: after[k] - before[k] for k in COMM_COUNTS})
            if tr.sr is not None:
                solves.append(tr.sr.last_solve)
            return energy

        ref_blocks, traced_blocks = [], []
        block = seconds / 3.0 / TRACE_BLOCKS
        for _ in range(TRACE_BLOCKS):
            ref_blocks.append(_timed_loop(ref_step, block, probe, comm))
            traced_blocks.append(_timed_loop(traced_step, 2.0 * block, probe, comm))
        durations, energies, slow = (sum(column, []) for column in zip(*ref_blocks))
        traced = dict(zip(
            ("durations", "energies", "slow"),
            (sum(column, []) for column in zip(*traced_blocks)),
        ))
    out = {
        "durations": durations,
        "energies": energies,
        "slow": slow,
        "diverged": ref.diverged_steps,
        "checksum": _checksum(ref),
        "rss_mb": _rss_mb(),
    }
    if trace:
        counters = registry.snapshot()
        out["traced"] = {
            **traced,
            "log": log,
            "diverged": tr.diverged_steps,
            "comm_deltas": comm_deltas,
            "solves": solves,
            "pass_equiv": tr.sampler.last_stats.pass_equivalents,
            "flips": tr.hamiltonian.single_flips().k,
            "arena_bytes": counters["gauges"].get("jit.arena_bytes", 0.0),
            "compiles": counters["counters"].get("jit.trace", 0.0),
            "fallbacks": counters["counters"].get("jit.fallback", 0.0),
        }
    return out


def _world(fn, spec: Spec, args: tuple) -> list:
    """Run ``fn(comm, rank, *args)`` serially in this process or on
    ``spec.world`` forked ranks."""
    if spec.world == 1:
        return [fn(None, 0, *args)]
    return run_processes(fn, spec.world, args=args, timeout=150.0)


def _median_setup(setup, reps: int, probe: host.SpeedProbe) -> tuple[float, list]:
    """Set up ``reps`` times; returns the median seconds (at nominal host
    speed) and what each set-up returned."""
    seconds, made, before = [], [], probe()
    for _ in range(reps):
        t0 = time.perf_counter()
        made.append(setup())
        elapsed = time.perf_counter() - t0
        after = probe()
        seconds.append(elapsed / ((before + after) / 2.0))
        before = after
    return float(np.median(seconds)), made


def _agree(a, b, rtol: float = AGREE_RTOL) -> bool:
    n = min(len(a), len(b))
    return n > 0 and bool(np.allclose(a[:n], b[:n], rtol=rtol, atol=rtol))


def _end_to_end(nominal_s: np.ndarray, ops_per_s: float, setup_s: float, reps: int,
                rss_mb: float) -> dict:
    """``nominal_s``: every operation's seconds at nominal host speed."""
    ms, n = nominal_s * 1e3, len(nominal_s)
    return {
        "setup_s": (setup_s, reps),
        "op_ms_p50": (float(np.median(ms)), n),
        "op_ms_p90": (float(np.percentile(ms, 90)), n),
        "ops_per_s": (ops_per_s, n),
        "peak_rss_mb": (rss_mb, 1),
    }


# -- step workloads: tim256, maxcut256, sr64, dp2_sr64 -------------------------------


def run_steps(spec: Spec, seed: int, seconds: float, trace: bool, reps: int,
              workdir: Path, probe: host.SpeedProbe) -> Result:
    setup_s, warm = _median_setup(
        lambda: _world(_rank_setup, spec, (spec, seed, "auto")), reps, probe
    )
    interpreted = _world(_rank_setup, spec, (spec, seed, "off"))
    notes = []
    gate = _agree(warm[0][0], interpreted[0], SR_COMPILE_RTOL if spec.sr else AGREE_RTOL)
    if not gate:
        notes.append("compile='auto' and compile='off' disagree on the first steps")

    ranks = _world(_rank_run, spec, (spec, seed, seconds, trace))
    lockstep = all(
        r["energies"] == ranks[0]["energies"] and r["checksum"] == ranks[0]["checksum"]
        for r in ranks
    )
    if not lockstep:
        notes.append("ranks disagree on the energy trajectory or parameter checksum")
    energies = ranks[0]["energies"]
    nominal = _lockstep_nominal(ranks)
    failed = int(np.sum(~np.isfinite(energies))) + max(r["diverged"] for r in ranks)
    rss_mb = max([_rss_mb()] + [r["rss_mb"] for r in ranks])

    if not trace:
        values = _end_to_end(nominal, len(nominal) / nominal.sum(), setup_s, reps, rss_mb)
        return Result(len(nominal), failed, gate and lockstep and failed == 0, values, notes)

    traced = [r["traced"] for r in ranks]
    t0 = traced[0]
    faithful = all(_agree(t["energies"], energies) for t in traced)
    if not faithful:
        notes.append("layer_step does not reproduce VQMC.step's energies")
    failed += int(np.sum(~np.isfinite(t0["energies"]))) + max(t["diverged"] for t in traced)
    values = _ledger([t["log"] for t in traced], [t["slow"] for t in traced], WARMUP_STEPS)
    n = len(t0["durations"])
    # of the mirror against the driver
    slowdown = float(np.median(_lockstep_nominal(traced)) / np.median(nominal))
    layer_sum = sum(values[m][0] for m in SECONDS_METRIC.values())
    window = t0["energies"][:HEAD_STEPS][-10:]
    if t0["comm_deltas"]:
        per_step = {k: [d[k] for d in t0["comm_deltas"]] for k in COMM_COUNTS}
        starts = [
            [s[START] for s in t["log"].spans if s[NAME] == "comm.allreduce"]
            for t in traced
        ]
        skew = np.abs(np.subtract(*[np.asarray(s[: min(map(len, starts))]) for s in starts[:2]]))
        values.update({
            "comm.bytes": (float(np.median(per_step["collective_bytes"])), n),
            "comm.msgs": (float(np.median(per_step["messages_sent"])), n),
            "comm.retries": (float(np.sum(per_step["retries"])), n),
            "comm.rank_skew_s": (float(np.median(skew)) * 1e-9, len(skew)),
        })
    values.update({
        "samplers.pass_equiv": (t0["pass_equiv"], 1),
        "energy.terms": (values["energy.calls"][0] * spec.batch * (1 + t0["flips"]), 1),
        "jit.arena_bytes": (t0["arena_bytes"], 1),
        "jit.compiles": (t0["compiles"], 1),
        "jit.fallbacks": (t0["fallbacks"], 1),
        **_solve_counts(t0["solves"]),
        "driver.overhead_s": (float(np.median(nominal)) - layer_sum, n),
        "vqmc.energy_final": (float(np.mean(window)), len(window)),
        "trace.overhead_pct": (100.0 * (slowdown - 1.0), n),
        "trace.faithful": (float(faithful), 1),
    })
    values.update(_predicted(spec))
    spans = [s for t in traced for s in t["log"].to_json()]
    ok = gate and lockstep and faithful and failed == 0
    return Result(len(nominal) + n, failed, ok, values, notes, spans)


def _lockstep_nominal(ranks: list[dict]) -> np.ndarray:
    """Seconds of each lock-step operation at nominal host speed: it is
    over when its slowest rank is."""
    return np.max([r["durations"] for r in ranks], axis=0) / np.mean(
        [r["slow"] for r in ranks], axis=0
    )


def _solve_counts(solves: list) -> dict:
    """``SRSolveInfo`` of every traced step; the iteration count is taken
    over the first steps only, so that it depends on the seed alone."""
    if not solves:
        return {}
    head = solves[:HEAD_STEPS]
    return {
        "sr.cg_iters": (float(np.median([s.iterations for s in head])), len(head)),
        "sr.incomplete": (float(np.mean([s.incomplete for s in solves])), len(solves)),
        "sr.comm_bytes": (float(np.median([s.comm_bytes for s in solves])), len(solves)),
    }


def _predicted(spec: Spec) -> dict:
    pred = host.predictions(
        host.calibrate_device(), spec.n, default_hidden_size(spec.n), spec.batch, spec.world
    )
    return {k: (v, 1) for k, v in pred.items()}


# -- serve16 -----------------------------------------------------------------------


def _reply_ok(kind: str, reply: dict, spec: Spec) -> bool:
    if kind == "energy":
        return math.isfinite(reply.get("mean", math.nan)) and reply.get("count") == spec.batch
    samples = np.asarray(reply.get("samples", []))
    return samples.shape == (spec.batch, spec.n) and bool(np.isin(samples, (0, 1)).all())


def _burst(url: str, query: dict, spec: Spec, seconds: float):
    """``CLIENTS`` callers, each sending its next query only after the
    previous reply arrived, alternating energy and sample queries. Returns
    every query's latency, the number of bad replies and the wall time."""
    latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
    bad = [0] * CLIENTS
    begin = time.perf_counter()

    def caller(i: int) -> None:
        client = ServeClient(url, timeout=30.0)
        k = i  # callers start on different kinds, so both kinds are in flight
        while time.perf_counter() - begin < seconds:
            kind = ("energy", "sample")[k % 2]
            t0 = time.perf_counter()
            try:
                ok = _reply_ok(kind, getattr(client, kind)(query), spec)
            except (ServeAPIError, urllib.error.URLError, OSError, ValueError):
                ok = False
            latencies[i].append(time.perf_counter() - t0)
            bad[i] += not ok
            k += 1

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - begin
    return [x for per in latencies for x in per], sum(bad), wall


def _closed_loop(url: str, query: dict, spec: Spec, seconds: float, probe: host.SpeedProbe):
    """Closed-loop load in bursts, the host's speed read between them.
    Returns latencies at nominal speed, queries per nominal second, bad
    replies."""
    nominal, walls, bad, before = [], 0.0, 0, probe()
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        latencies, burst_bad, wall = _burst(url, query, spec, min(BURST_SECONDS, seconds))
        after = probe()
        slow = (before + after) / 2.0
        nominal.append(np.asarray(latencies) / slow)
        walls += wall / slow
        bad += burst_bad
        before = after
    nominal = np.concatenate(nominal)
    return nominal, len(nominal) / walls, bad


def run_serve(spec: Spec, seed: int, seconds: float, trace: bool, reps: int,
              workdir: Path, probe: host.SpeedProbe) -> Result:
    inst, init = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    query = {"problem": spec.problem, "n": spec.n, "instance_seed": inst,
             "arch": "made", "seed": init, "batch_size": spec.batch}
    servers: list[VQMCServer] = []

    def setup() -> str:
        server = VQMCServer(workdir / f"server{len(servers)}", workers=1)
        servers.append(server)
        url = f"http://127.0.0.1:{server.start_http()}"
        client = ServeClient(url)
        client.energy(query)  # builds the model: later queries hit a warm cache
        client.sample(query)
        return url

    try:
        setup_s, urls = _median_setup(setup, reps, probe)
        server, url = servers[-1], urls[-1]
        for idle in servers[:-1]:
            idle.shutdown()
        del servers[:-1]
        cache0 = server.cache.stats()
        nominal, rate, bad = _closed_loop(
            url, query, spec, seconds / 2.0 if trace else seconds, probe
        )
        batcher, cache = server.batcher.stats(), server.cache.stats()
        notes = []
        coalesced = batcher["forwards"] <= batcher["requests"]
        if not coalesced:
            notes.append("batcher ran more forwards than it served requests")
        if not trace:
            values = _end_to_end(nominal, rate, setup_s, reps, _rss_mb())
            return Result(len(nominal), bad, coalesced and bad == 0, values, notes)

        log = SpanLog()
        nested_bad, slow = _nested_queries(server, url, query, spec, log, seconds / 2.0, probe)
        bad += nested_bad
    finally:
        for server in servers:
            server.shutdown()

    by_name: dict[str, list[float]] = {}
    for s in log.spans:
        by_name.setdefault(s[NAME], []).append((s[END] - s[START]) * 1e-9 / slow[s[STEP]])
    med = {k: float(np.median(v)) for k, v in by_name.items()}
    rounds = len(slow)
    kinds = ("energy", "sample")
    hits = cache["hits"] - cache0["hits"]
    lookups = hits + cache["misses"] - cache0["misses"]
    values = {
        "serve.http_ms": (1e3 * np.mean([med[f"serve.http.{k}"] - med[f"serve.query.{k}"] for k in kinds]), rounds),
        "serve.batcher_ms": (1e3 * np.mean([med[f"serve.query.{k}"] - med[f"serve.model.{k}"] for k in kinds]), rounds),
        "serve.forward_ms": (1e3 * np.mean([med[f"serve.model.{k}"] for k in kinds]), rounds),
        "serve.forwards": (batcher["forwards"], 1),
        "serve.coalesce_ratio": (batcher["requests"] / max(batcher["forwards"], 1), 1),
        "serve.cache_hit_ratio": (hits / max(lookups, 1), lookups),
        "serve.query_ms_p99": (float(np.percentile(nominal, 99)) * 1e3, len(nominal)),
        "samplers.sample_s": (med["samplers.sample"], 2 * rounds),
        "samplers.calls": (1.0, rounds),
        "energy.local_s": (med["energy.local"], rounds),
        "energy.calls": (1.0, rounds),
        "energy.terms": (spec.batch * (1 + spec.n), 1),
        # no step to mirror here: every nested reply was checked instead
        "trace.faithful": (float(nested_bad == 0), 6 * rounds),
    }
    values.update(_predicted(spec))
    attempted = len(nominal) + 6 * rounds
    return Result(attempted, bad, coalesced and bad == 0, values, notes, log.to_json())


def _nested_queries(server: VQMCServer, url: str, query: dict, spec: Spec,
                    log: SpanLog, seconds: float, probe: host.SpeedProbe):
    """Time the same query at three depths — over HTTP, straight into
    ``VQMCServer.query``, and as the bare model call on the cached trainer
    — one caller, in rounds (``step_id`` = round), so that the three meet
    the same host. The differences are the HTTP hop and the batcher.
    Returns the bad replies and the host's slowdown around each round."""
    client = ServeClient(url, timeout=30.0)
    entry = server.cache.get(QuerySpec.from_json(query).model_key())
    trainer, rng = entry.vqmc, np.random.default_rng(0)
    bad, probes = 0, [probe()]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        log.step_id += 1
        for kind in ("energy", "sample"):
            with log.span(f"serve.http.{kind}"):
                reply = getattr(client, kind)(query)
            bad += not _reply_ok(kind, reply, spec)
            with log.span(f"serve.query.{kind}"):
                reply = server.query(query, kind=kind)
            bad += not _reply_ok(kind, reply, spec)
            with log.span(f"serve.model.{kind}"), entry.lock:
                with log.span("samplers.sample"):
                    x = trainer.sampler.sample(trainer.model, spec.batch, rng)
                if kind == "energy":
                    with log.span("energy.local"):
                        local = local_energies(trainer.model, trainer.hamiltonian, x)
                        stats = energy_statistics(local)
                    bad += not math.isfinite(stats.mean)
        probes.append(probe())
    slow = (np.asarray(probes[:-1]) + np.asarray(probes[1:])) / 2.0
    return bad, slow


# -- converge_chain10 -----------------------------------------------------------------


@dataclass
class Episode:
    hit: bool
    seconds: float  # from before the build to the hit
    step_times: list[float]
    energies: list[float]
    ema: float
    slow: float = 1.0  # host slowdown around the episode


def _episode(spec: Spec, seed, target: float, log: SpanLog | None,
             registry: Metrics | None = None) -> Episode:
    """Train a fresh model until the smoothed energy reaches ``target``.

    The clock starts before the model is built: a user pays for the build
    and the plan compile on the way to the target too.
    """
    begin = time.perf_counter()
    tr = build_trainer(spec, seed, metrics=registry)
    if log is None:
        step = lambda: tr.step().stats.mean  # noqa: E731
    else:
        compiler = StepCompiler(tr.model)
        step = lambda: layer_step(tr, log, compiler)  # noqa: E731
    times, energies, ema = [], [], None
    for _ in range(STEP_CAP):
        t0 = time.perf_counter()
        energy = step()
        times.append(time.perf_counter() - t0)
        energies.append(energy)
        ema = energy if ema is None else 0.9 * ema + 0.1 * energy
        if not math.isfinite(ema) or ema <= target:
            break
    hit = math.isfinite(ema) and ema <= target and tr.diverged_steps == 0
    return Episode(hit, time.perf_counter() - begin, times, energies, ema)


def run_converge(spec: Spec, seed: int, seconds: float, trace: bool, reps: int,
                 workdir: Path, probe: host.SpeedProbe) -> Result:
    def setup():
        ham = make_hamiltonian(spec.problem, spec.n)
        t0 = time.perf_counter()
        exact = ground_state(ham).energy
        solve_s = time.perf_counter() - t0
        return exact, solve_s, _rank_setup(None, 0, spec, [seed, 0], "auto")

    setup_s, made = _median_setup(setup, reps, probe)
    exact, solve_s, warm = made[-1]
    target = exact + spec.target_rel * abs(exact)
    notes = [f"exact ground energy {exact:.6f}, target {target:.6f}"]
    gate = _agree(warm, _rank_setup(None, 0, spec, [seed, 0], "off"))
    if not gate:
        notes.append("compile='auto' and compile='off' disagree on the first steps")

    # a traced run alternates one untraced episode and two traced ones, so
    # that both sides of the overhead figure meet the same phases of the host
    log, registry = SpanLog(), Metrics()
    ref: list[Episode] = []
    traced: list[Episode] = []
    begin, before = time.perf_counter(), probe()
    while time.perf_counter() - begin < seconds:
        for episodes, count, span_log in ((ref, 1, None), (traced, 2 if trace else 0, log)):
            for _ in range(count):
                episode = _episode(
                    spec, [seed, len(episodes)], target, span_log,
                    registry if span_log is None else None,
                )
                after = probe()
                episode.slow = (before + after) / 2.0
                episodes.append(episode)
                before = after
    missed = sum(not ep.hit for ep in ref + traced)
    if not trace:
        nominal = np.array([ep.seconds / ep.slow for ep in ref])
        values = _end_to_end(nominal, len(nominal) / nominal.sum(), setup_s, reps, _rss_mb())
        return Result(len(ref), missed, gate and missed == 0, values, notes)

    # episode i of either kind starts from the same seeds
    faithful = all(
        len(a.energies) == len(b.energies) and _agree(a.energies, b.energies)
        for a, b in zip(ref, traced)
    )
    if not faithful:
        notes.append("layer_step does not reproduce VQMC.step's energies")
    step_slow = [ep.slow for ep in traced for _ in ep.step_times]
    values = _ledger([log], [step_slow], first_step=0)
    ref_p50, traced_p50 = (
        float(np.median(np.concatenate([np.asarray(ep.step_times) / ep.slow for ep in eps])))
        for eps in (ref, traced)
    )
    layer_sum = sum(values[m][0] for m in SECONDS_METRIC.values())
    head = traced[:TARGET_EPISODES]
    counters = registry.snapshot()
    values.update({
        "energy.terms": (values["energy.calls"][0] * spec.batch * (1 + spec.n), 1),
        "jit.arena_bytes": (counters["gauges"].get("jit.arena_bytes", 0.0), 1),
        # per training run: every fresh model compiles its plan once
        "jit.compiles": (counters["counters"].get("jit.trace", 0.0) / len(ref), len(ref)),
        "jit.fallbacks": (counters["counters"].get("jit.fallback", 0.0), len(ref)),
        "driver.overhead_s": (ref_p50 - layer_sum, len(step_slow)),
        "exact.solve_s": (solve_s, 1),
        "converge.steps_to_target": (float(np.median([len(ep.energies) for ep in head])), len(head)),
        "vqmc.energy_final": (float(np.mean([ep.ema for ep in head])), len(head)),
        "trace.overhead_pct": (100.0 * (traced_p50 / ref_p50 - 1.0), len(step_slow)),
        "trace.faithful": (float(faithful), 1),
    })
    values.update(_predicted(spec))
    ok = gate and faithful and missed == 0
    return Result(len(ref) + len(traced), missed, ok, values, notes, log.to_json())


RUNNERS = {"steps": run_steps, "serve": run_serve, "converge": run_converge}


def run_workload(name: str, seed: int, seconds: float, trace: bool, reps: int,
                 workdir: Path, probe: host.SpeedProbe, smoke: bool = False) -> Result:
    spec = (SMOKE if smoke else WORKLOADS)[name]
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return RUNNERS[spec.kind](spec, seed, seconds, trace, reps, workdir, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
