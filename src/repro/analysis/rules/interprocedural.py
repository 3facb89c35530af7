"""Whole-program distributed rules built on the dataflow engine.

The lexical :mod:`~repro.analysis.rules.distributed` rules stop at
function boundaries: ``if rank == 0: comm.allreduce(x)`` is caught, but
``if rank == 0: checkpoint()`` where ``checkpoint`` allreduces two calls
deeper is not — and neither is ``leader = rank == 0`` feeding a branch
three statements later. These rules run over the
:class:`~repro.analysis.callgraph.Project` with
:class:`~repro.analysis.dataflow.DataflowAnalysis`:

- ``dist-rank-divergent-collective`` — a collective reachable on only one
  arm of a rank-tainted branch (through any call chain, or via
  dataflow-only taint lexically). The classic world-deadlock.
- ``dist-collective-order`` — both arms of a rank-tainted branch issue
  collectives, but in *different orders*; ranks taking different arms
  then match ``allreduce`` against ``broadcast`` and the payloads cross.

Congruent branches — both arms issuing the *same* collective sequence,
the supervisor's leader/follower broadcast idiom — stay clean by
construction, which is what keeps these rules quiet on ``src/``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.dataflow import DataflowAnalysis
from repro.analysis.callgraph import FunctionNode, Project
from repro.analysis.lint import Finding, ProjectRule, register
from repro.analysis.rules.distributed import _mentions_rank


def _tainted_branches(
    df: DataflowAnalysis, fn: FunctionNode
) -> Iterator[ast.If | ast.While]:
    for branch in df.project.index[fn.qualname].branches:
        if df.expr_tainted(fn, branch.test):
            yield branch


def _is_lexical_direct(chain: tuple[str, ...], branch: ast.If | ast.While) -> bool:
    """True when the witness is a *direct* collective call under a branch
    whose test lexically mentions ``rank`` — exactly what the per-file
    ``dist-rank-collective`` rule already reports; re-flagging it here
    would double-count every existing finding and suppression."""
    return len(chain) == 1 and _mentions_rank(branch.test)


@register
class RankDivergentCollective(ProjectRule):
    id = "dist-rank-divergent-collective"
    category = "distributed"
    description = (
        "collective reachable on only one arm of a rank-dependent branch, "
        "tracked through calls and rank-tainted values; ranks taking the "
        "other arm never enter the collective and the world deadlocks — "
        "hoist the call chain out of the branch or make both arms issue "
        "the same collective sequence"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        df = project.dataflow
        reported: set[int] = set()
        for fn in project.iter_functions():
            for branch in _tainted_branches(df, fn):
                body_seq = df.arm_summary(fn, branch.body)
                else_seq = df.arm_summary(fn, branch.orelse)
                if isinstance(branch, ast.While):
                    # A rank-dependent iteration count diverges even when
                    # the body is "congruent": ranks run it different
                    # numbers of times.
                    arm = branch.body
                elif bool(body_seq) == bool(else_seq):
                    continue  # both empty, or both non-empty (-> order rule)
                else:
                    arm = branch.body if body_seq else branch.orelse
                for call, chain in df.collective_sites(fn, arm):
                    if id(call) in reported:
                        continue
                    if _is_lexical_direct(chain, branch):
                        continue  # dist-rank-collective's finding
                    reported.add(id(call))
                    yield self.finding_at(
                        fn.path,
                        call,
                        f"collective reached via {' -> '.join(chain)} only under "
                        f"a rank-dependent branch (line {branch.lineno}); "
                        "ranks on the other arm never issue it — the "
                        "world deadlocks at the next collective",
                    )


@register
class CollectiveOrderDivergence(ProjectRule):
    id = "dist-collective-order"
    category = "distributed"
    description = (
        "the two arms of a rank-dependent branch issue collectives in "
        "different orders (tracked through calls); ranks taking different "
        "arms match mismatched collectives and exchange crossed payloads — "
        "reorder the arms into one congruent sequence"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        df = project.dataflow
        for fn in project.iter_functions():
            for branch in _tainted_branches(df, fn):
                if isinstance(branch, ast.While):
                    continue  # divergence rule owns rank-dependent loops
                body_seq = df.arm_summary(fn, branch.body)
                else_seq = df.arm_summary(fn, branch.orelse)
                if not body_seq or not else_seq or body_seq == else_seq:
                    continue
                yield self.finding_at(
                    fn.path,
                    branch,
                    "rank-dependent branch arms issue different collective "
                    f"sequences: [{', '.join(body_seq)}] vs "
                    f"[{', '.join(else_seq)}]; ranks taking different arms "
                    "pair mismatched collectives — make the sequences "
                    "congruent",
                )
