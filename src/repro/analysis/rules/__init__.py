"""Built-in rule catalogue; importing this package registers every rule.

Split by invariant family:

- :mod:`repro.analysis.rules.determinism` — seeded-RNG / wall-clock hygiene
  (bit-identical replays are a correctness contract, not a nicety).
- :mod:`repro.analysis.rules.autograd` — tape-safety of the tensor engine
  (no in-place mutation behind the graph's back, no float equality on
  computed results).
- :mod:`repro.analysis.rules.distributed` — collective congruence and
  deadlock guards (the failure modes the fault layer can observe but not
  diagnose).
- :mod:`repro.analysis.rules.interprocedural` — whole-program versions of
  the distributed guards: rank taint and collective sequences tracked
  through the project call graph (:mod:`repro.analysis.callgraph` +
  :mod:`repro.analysis.dataflow`).
- :mod:`repro.analysis.rules.observability` — span hygiene for
  :mod:`repro.obs` (a leaked ``begin`` silently corrupts trace totals).
- :mod:`repro.analysis.rules.surface` — public surface is what something
  reaches: exports no module, benchmark, tool or example refers to.
"""

from repro.analysis.rules import (  # noqa: F401
    autograd,
    determinism,
    distributed,
    interprocedural,
    observability,
    surface,
)
