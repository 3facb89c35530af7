"""Determinism-hygiene rules.

Every stochastic routine in this repo takes an explicit
``numpy.random.Generator`` (see CONTRIBUTING: "RNG discipline"), because the
paper's claims are verified by bit-identical replays — fast path vs naive
path, checkpoint restore, cross-backend collectives. Any draw from global
or wall-clock-seeded state silently voids those guarantees, so the linter
bans the whole API family rather than trusting review to catch each use.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.lint import Finding, LintContext, Rule, register

#: members of ``numpy.random`` that are *not* hidden global state: the
#: Generator construction surface and bit generators.
_NP_RANDOM_OK = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "MT19937",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
}

#: wall-clock reads that can leak into numerics or seeds. Duration clocks
#: (``perf_counter``, ``monotonic``, ``process_time``) are allowed: they
#: measure elapsed intervals for reporting, not state.
_WALL_CLOCK_ATTRS = {"time", "time_ns"}
_DATETIME_ATTRS = {"now", "utcnow", "today"}


def _attr_chain(node: ast.AST) -> list[str]:
    """``np.random.default_rng`` -> ["np", "random", "default_rng"]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        return []
    return parts[::-1]


@register
class GlobalNumpyRandom(Rule):
    id = "det-global-rng"
    category = "determinism"
    description = (
        "legacy numpy.random.* global-state API (seed/rand/choice/...); "
        "draws from hidden process-wide state break bit-identical replays — "
        "thread a seeded np.random.default_rng(seed) Generator instead"
    )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ctx.nodes:
            if isinstance(node, ast.Attribute):
                chain = _attr_chain(node)
                if (
                    len(chain) >= 3
                    and chain[-3] in ("np", "numpy")
                    and chain[-2] == "random"
                    and chain[-1] not in _NP_RANDOM_OK
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"numpy.random.{chain[-1]} uses hidden global RNG "
                        "state; use an explicitly seeded "
                        "np.random.default_rng(seed)",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _NP_RANDOM_OK:
                            yield self.finding(
                                ctx,
                                node,
                                f"from numpy.random import {alias.name} pulls "
                                "in global-state API; import a Generator "
                                "constructor instead",
                            )


@register
class StdlibRandom(Rule):
    id = "det-stdlib-random"
    category = "determinism"
    description = (
        "the stdlib random module is process-global and unseedable per call "
        "site; use np.random.default_rng(seed)"
    )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ctx.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            ctx,
                            node,
                            "stdlib random draws from process-global state; "
                            "use np.random.default_rng(seed)",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.finding(
                    ctx,
                    node,
                    "stdlib random draws from process-global state; "
                    "use np.random.default_rng(seed)",
                )


@register
class UnseededDefaultRng(Rule):
    id = "det-unseeded-rng"
    category = "determinism"
    description = (
        "np.random.default_rng() without a seed argument draws OS entropy; "
        "every Generator construction must name its seed so runs replay"
    )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if not chain or chain[-1] != "default_rng":
                continue
            if len(chain) >= 2 and chain[-2] != "random":
                continue  # some_obj.default_rng — not numpy's
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx,
                    node,
                    "default_rng() without a seed is entropy-seeded and "
                    "unreproducible; pass an explicit seed (or a spawned "
                    "SeedSequence)",
                )


@register
class WallClock(Rule):
    id = "det-wall-clock"
    category = "determinism"
    description = (
        "wall-clock reads (time.time, datetime.now, ...) in numerics code "
        "make behaviour machine/run dependent; duration clocks "
        "(perf_counter/monotonic) are allowed for reporting"
    )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if len(chain) < 2:
                continue
            if chain[-2] == "time" and chain[-1] in _WALL_CLOCK_ATTRS:
                yield self.finding(
                    ctx,
                    node,
                    f"time.{chain[-1]}() reads the wall clock; derive "
                    "behaviour from seeds/counters, and use perf_counter "
                    "for durations",
                )
            elif chain[-1] in _DATETIME_ATTRS and chain[-2] in (
                "datetime",
                "date",
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{chain[-2]}.{chain[-1]}() reads the wall clock; "
                    "timestamps belong in logging sinks, not numerics",
                )
