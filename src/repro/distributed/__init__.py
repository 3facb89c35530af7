"""Distributed runtime: the stand-in for ``torch.distributed``/NCCL.

The paper's parallelisation scheme (§4) needs exactly three primitives:
identical model replicas (broadcast), per-rank sampling (no communication),
and gradient averaging (allreduce). This subpackage provides a
:class:`Communicator` abstraction with those primitives plus the
point-to-point layer they are built from, and three interchangeable
backends:

- :class:`SerialCommunicator` — world size 1, no-op collectives.
- thread backend (:func:`repro.distributed.threads.run_threaded`) — ranks are
  threads in one process, channels are queues; ideal for tests.
- process backend (:func:`repro.distributed.mp.run_processes`) — ranks are OS
  processes connected by Unix socketpairs; real parallelism (numpy releases the GIL in
  BLAS, but separate processes are the honest analogue of separate GPUs).

Collective algorithms (ring allreduce, reduce-scatter + allgather, tree
broadcast, recursive doubling) are implemented once over the point-to-point
layer in :mod:`repro.distributed.collectives`, mirroring how NCCL builds its
collectives over device-to-device copies.

Above the backends there is one of each: :func:`build_comm` stacks a rank's
communicator layers, :class:`TrainingSupervisor` drives training (elastic
with a ``checkpoint_dir``, static without), :func:`run_data_parallel`
launches it on every rank.
"""

from repro.distributed.comm import (
    ChecksumError,
    CommLayer,
    Communicator,
    CommTimeoutError,
    OwnedFrame,
    RankFailure,
    ReduceOp,
    SubCommunicator,
    WorkerFailure,
    build_comm,
)
from repro.distributed.serial import SerialCommunicator
from repro.distributed.threads import ThreadCommunicator, run_threaded, make_thread_group
from repro.distributed.mp import run_processes
from repro.distributed import collectives
from repro.distributed.faults import (
    FaultEvent,
    FaultInjectionCallback,
    FaultPlan,
    FaultyCommunicator,
    InjectedRankCrash,
    MismatchedCollectiveInjector,
)
from repro.distributed.resilient import ResilientCommunicator, RetryPolicy
from repro.distributed.elastic import (
    ElasticConfig,
    announce_join,
    await_invite,
    detect_survivors,
    grow_world,
    shrink_world,
)
from repro.distributed.ledger import BatchLedger
from repro.distributed.supervisor import (
    PolicyObservation,
    ResilientRunReport,
    ScalingPolicy,
    TrainingSupervisor,
)
from repro.distributed.data_parallel import DataParallelResult, run_data_parallel

__all__ = [
    "Communicator",
    "CommLayer",
    "build_comm",
    "CommTimeoutError",
    "ChecksumError",
    "OwnedFrame",
    "RankFailure",
    "ReduceOp",
    "SubCommunicator",
    "WorkerFailure",
    "SerialCommunicator",
    "ThreadCommunicator",
    "run_threaded",
    "make_thread_group",
    "run_processes",
    "collectives",
    "FaultEvent",
    "FaultPlan",
    "FaultyCommunicator",
    "FaultInjectionCallback",
    "InjectedRankCrash",
    "MismatchedCollectiveInjector",
    "ResilientCommunicator",
    "RetryPolicy",
    "ElasticConfig",
    "detect_survivors",
    "shrink_world",
    "announce_join",
    "await_invite",
    "grow_world",
    "BatchLedger",
    "PolicyObservation",
    "ScalingPolicy",
    "TrainingSupervisor",
    "ResilientRunReport",
    "DataParallelResult",
    "run_data_parallel",
]
