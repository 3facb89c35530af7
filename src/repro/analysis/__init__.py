"""Correctness tooling: static analysis, runtime sanitizers, schedule exploration.

The paper's scalability claims rest on invariants the runtime must never
silently break: exact, reproducible sampling (seeded RNG streams,
bit-identical fast paths) and congruent collectives across ranks (every
rank issues the same allreduce/broadcast sequence, or the world deadlocks).
jVMC leans on JAX's tracer to catch such misuse at trace time and the MPI
world has MUST for collective matching; this package is our equivalent,
three-pronged:

- **Static** — :mod:`repro.analysis.lint`: an AST lint engine with a
  pluggable rule registry (:mod:`repro.analysis.rules`: determinism,
  autograd and distributed hygiene), an interprocedural pass
  (:mod:`repro.analysis.callgraph` + :mod:`repro.analysis.dataflow`:
  project call graph, rank-taint and collective-summary fixpoints),
  inline suppressions, and a CLI (``python tools/lint.py src``) that
  gates CI.
- **Dynamic** — :class:`CommSanitizer` cross-validates a fingerprint of
  every collective across ranks, turning would-be deadlocks into immediate
  :class:`CollectiveMismatchError` diagnostics naming both call sites; and
  :class:`GraphSanitizer` arms the tensor engine with buffer
  version-counter/fingerprint checks (in-place mutation of graph tensors)
  and NaN/Inf first-origin tracking.
- **Schedules** — :mod:`repro.analysis.explore`: a deterministic
  interleaving explorer for the threads backend that parks every rank at
  its communication commit points, searches conflicting schedules
  DPOR-style, reports deadlock/livelock with waits-for diagnostics, and
  replays any failing schedule bit-identically from a recorded trace
  (``python tools/lint.py explore``). Protocol programs live in
  :mod:`repro.analysis.scenarios`.

See ``docs/static_analysis.md`` for the rule catalogue and usage.
"""

from repro.analysis.comm_sanitizer import (
    CollectiveMismatchError,
    CollectiveRecord,
    CommSanitizer,
)
from repro.analysis.graph_sanitizer import (
    GraphSanitizer,
    InPlaceMutationError,
    NonFiniteError,
    NonFiniteOrigin,
)
from repro.analysis.lint import (
    Finding,
    LintReport,
    ProjectRule,
    Rule,
    get_rule,
    iter_rules,
    lint_file,
    lint_paths,
    register,
)

from repro.analysis import explore, scenarios

__all__ = [
    "CollectiveMismatchError",
    "CollectiveRecord",
    "CommSanitizer",
    "GraphSanitizer",
    "InPlaceMutationError",
    "NonFiniteError",
    "NonFiniteOrigin",
    "Finding",
    "LintReport",
    "ProjectRule",
    "Rule",
    "register",
    "get_rule",
    "iter_rules",
    "lint_file",
    "lint_paths",
    "explore",
    "scenarios",
]
