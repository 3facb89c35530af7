"""Wire protocol for the VQMC job server: specs, states, canonical keys.

Everything crossing the HTTP boundary is plain JSON; this module is the
single place where request dicts are validated and turned into typed specs,
and where the canonical **model key** — the ``(hamiltonian, ansatz,
checkpoint)`` identity the warm-model cache and the request batcher both
coalesce on — is derived. Two requests whose specs canonicalise to the same
key are, by construction, requests against the same physical model.

Job lifecycle (``JobState``)::

    QUEUED -> RUNNING -> COMPLETED
       |         |-----> FAILED        (exception; flight dump written)
       |         '-----> CANCELLED     (restorable checkpoint left behind)
       '---------------> CANCELLED     (cancelled while still queued)

Rejected submissions never become jobs: admission control answers 429/400
at the door (see :mod:`repro.serve.jobqueue`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = [
    "JobState",
    "JobSpec",
    "QuerySpec",
    "ModelKey",
    "ProtocolError",
    "PROBLEMS",
    "ARCHITECTURES",
    "SAMPLERS",
    "OPTIMIZERS",
]

PROBLEMS = ("tim", "maxcut", "chain")
ARCHITECTURES = ("made", "rbm", "mean_field", "rnn")
SAMPLERS = ("auto", "mcmc", "tempering")
OPTIMIZERS = ("sgd", "adam", "sgd+sr")

#: hard ceiling on a single query's sample count (keeps one request from
#: monopolising a coalesced forward pass)
MAX_QUERY_BATCH = 1 << 16


class ProtocolError(ValueError):
    """A request dict failed validation (maps to HTTP 400)."""


class JobState:
    """String enum of job lifecycle states."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, COMPLETED, FAILED, CANCELLED)


@dataclass(frozen=True)
class ModelKey:
    """Canonical identity of a servable model: what the warm cache is
    keyed by and what the batcher coalesces on.

    ``checkpoint`` distinguishes the *trained state*: two jobs over the
    same (hamiltonian, ansatz) but different checkpoints are different
    models. ``None`` means "fresh parameters from ``seed``".
    """

    hamiltonian: tuple
    ansatz: tuple
    checkpoint: str | None = None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ProtocolError(message)


def _int_field(raw: dict, name: str, default: int, minimum: int) -> int:
    value = raw.get(name, default)
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= minimum,
        f"{name!r} must be an integer >= {minimum}, got {value!r}",
    )
    return value


@dataclass
class JobSpec:
    """A training-job request (``POST /jobs``).

    The spec is the server-side analogue of the CLI's ``train`` command:
    the same builder vocabulary (:mod:`repro.experiments.protocol`), plus
    serving concerns — priority, checkpoint cadence, resume.
    """

    problem: str = "tim"
    n: int = 8
    instance_seed: int = 0
    arch: str = "made"
    hidden: int | None = None
    sampler: str = "auto"
    optimizer: str = "adam"
    seed: int = 0
    iterations: int = 50
    batch_size: int = 64
    checkpoint_every: int = 10
    priority: int = 0
    resume: bool = False
    #: testing hook: raise a synthetic RuntimeError at this training step,
    #: exercising the crash path (flight dump, FAILED state) end to end.
    inject_fault_at: int | None = None

    @classmethod
    def from_json(cls, raw: dict) -> "JobSpec":
        _require(isinstance(raw, dict), f"job spec must be an object, got {type(raw).__name__}")
        unknown = set(raw) - {f for f in cls.__dataclass_fields__}
        _require(not unknown, f"unknown job spec fields: {sorted(unknown)}")
        problem = raw.get("problem", "tim")
        _require(problem in PROBLEMS, f"unknown problem {problem!r} (one of {PROBLEMS})")
        arch = raw.get("arch", "made")
        _require(arch in ARCHITECTURES, f"unknown arch {arch!r} (one of {ARCHITECTURES})")
        sampler = raw.get("sampler", "auto")
        _require(sampler in SAMPLERS, f"unknown sampler {sampler!r} (one of {SAMPLERS})")
        optimizer = raw.get("optimizer", "adam")
        _require(
            optimizer in OPTIMIZERS, f"unknown optimizer {optimizer!r} (one of {OPTIMIZERS})"
        )
        hidden = raw.get("hidden")
        _require(
            hidden is None
            or (
                isinstance(hidden, int)
                and not isinstance(hidden, bool)
                and hidden >= 1
            ),
            f"'hidden' must be a positive integer or null, got {hidden!r}",
        )
        fault = raw.get("inject_fault_at")
        _require(
            fault is None
            or (
                isinstance(fault, int)
                and not isinstance(fault, bool)
                and fault >= 1
            ),
            f"'inject_fault_at' must be a positive integer or null, got {fault!r}",
        )
        return cls(
            problem=problem,
            n=_int_field(raw, "n", 8, 2),
            instance_seed=_int_field(raw, "instance_seed", 0, 0),
            arch=arch,
            hidden=hidden,
            sampler=sampler,
            optimizer=optimizer,
            seed=_int_field(raw, "seed", 0, 0),
            iterations=_int_field(raw, "iterations", 50, 1),
            batch_size=_int_field(raw, "batch_size", 64, 1),
            checkpoint_every=_int_field(raw, "checkpoint_every", 10, 1),
            priority=_int_field(raw, "priority", 0, -1_000_000),
            resume=bool(raw.get("resume", False)),
            inject_fault_at=fault,
        )

    def to_json(self) -> dict:
        return asdict(self)

    def model_key(self, checkpoint: str | None = None) -> ModelKey:
        """Canonical (hamiltonian, ansatz, checkpoint) identity."""
        return ModelKey(
            hamiltonian=(self.problem, self.n, self.instance_seed),
            ansatz=(self.arch, self.n, self.hidden, self.seed),
            checkpoint=checkpoint,
        )


@dataclass
class QuerySpec:
    """An inference query (``POST /sample`` or ``POST /energy``).

    Queries name a model either by spec fields (problem/arch/seeds — the
    same vocabulary as :class:`JobSpec`) or by ``job_id`` (serve from that
    job's warm, possibly still-training model). ``batch_size`` is the
    number of samples *this* request wants; the batcher may satisfy many
    requests from one coalesced forward pass.
    """

    kind: str = "energy"  # 'energy' | 'sample'
    problem: str = "tim"
    n: int = 8
    instance_seed: int = 0
    arch: str = "made"
    hidden: int | None = None
    seed: int = 0
    batch_size: int = 64
    job_id: str | None = None
    checkpoint: str | None = None

    KINDS = ("energy", "sample")

    @classmethod
    def from_json(cls, raw: dict, kind: str | None = None) -> "QuerySpec":
        _require(isinstance(raw, dict), f"query must be an object, got {type(raw).__name__}")
        fields = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - fields
        _require(not unknown, f"unknown query fields: {sorted(unknown)}")
        resolved = kind or raw.get("kind", "energy")
        _require(resolved in cls.KINDS, f"unknown query kind {resolved!r}")
        problem = raw.get("problem", "tim")
        _require(problem in PROBLEMS, f"unknown problem {problem!r} (one of {PROBLEMS})")
        arch = raw.get("arch", "made")
        _require(arch in ARCHITECTURES, f"unknown arch {arch!r} (one of {ARCHITECTURES})")
        hidden = raw.get("hidden")
        _require(
            hidden is None
            or (
                isinstance(hidden, int)
                and not isinstance(hidden, bool)
                and hidden >= 1
            ),
            f"'hidden' must be a positive integer or null, got {hidden!r}",
        )
        batch = _int_field(raw, "batch_size", 64, 1)
        _require(
            batch <= MAX_QUERY_BATCH,
            f"'batch_size' capped at {MAX_QUERY_BATCH}, got {batch}",
        )
        job_id = raw.get("job_id")
        _require(
            job_id is None or isinstance(job_id, str),
            f"'job_id' must be a string or null, got {job_id!r}",
        )
        checkpoint = raw.get("checkpoint")
        _require(
            checkpoint is None or isinstance(checkpoint, str),
            f"'checkpoint' must be a string or null, got {checkpoint!r}",
        )
        return cls(
            kind=resolved,
            problem=problem,
            n=_int_field(raw, "n", 8, 2),
            instance_seed=_int_field(raw, "instance_seed", 0, 0),
            arch=arch,
            hidden=hidden,
            seed=_int_field(raw, "seed", 0, 0),
            batch_size=batch,
            job_id=job_id,
            checkpoint=checkpoint,
        )

    def to_json(self) -> dict:
        return asdict(self)

    def model_key(self) -> ModelKey:
        return ModelKey(
            hamiltonian=(self.problem, self.n, self.instance_seed),
            ansatz=(self.arch, self.n, self.hidden, self.seed),
            checkpoint=self.checkpoint,
        )
