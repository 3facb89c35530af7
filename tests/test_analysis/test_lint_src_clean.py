"""Tier-1 gate: the shipped trees must lint clean.

This is the in-process twin of ``python tools/lint.py src tools
benchmarks examples`` — plain pytest enforces the same invariant CI does,
and a failure prints the exact ``path:line:col rule-id message`` lines to
fix (or suppress with a justification, see docs/static_analysis.md).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import lint_paths

pytestmark = pytest.mark.analysis

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
GATED_TREES = (SRC, REPO / "tools", REPO / "benchmarks", REPO / "examples")

#: the only reasons an unreached export may stay (docs/static_analysis.md)
SURFACE_REASONS = (
    "test oracle",
    "fault-recovery code",
    "documented user entry point",
)


def test_src_tree_lints_clean():
    # src/ alone: the surface rule still finds the sibling trees' references
    # from the project root, so this agrees with the one-call gate below.
    report = lint_paths([SRC])
    assert report.files_scanned > 50, "lint walked an unexpectedly small tree"
    assert report.ok, "lint findings in src/:\n" + "\n".join(
        f.format() for f in report.findings
    )


@pytest.fixture(scope="module")
def gated_report():
    """One call over the gated trees, as in CI — a project rule sees only
    what one call is given — shared by the tests that read it."""
    return lint_paths(list(GATED_TREES))


def test_gated_trees_lint_clean_in_one_call(gated_report):
    report = gated_report
    assert report.files_scanned > 150, "lint walked an unexpectedly small tree"
    assert report.ok, "lint findings in the gated trees:\n" + "\n".join(
        f.format() for f in report.findings
    )


def test_suppressions_in_src_are_audited(gated_report):
    # Suppressed findings stay visible in the report: a rule being silenced
    # cannot disappear without trace. Guard against suppression creep by
    # requiring every suppression to carry a justification.
    for finding in gated_report.suppressed:
        source = Path(finding.path).read_text().splitlines()
        file_text = "\n".join(source)
        assert "repro-lint:" in file_text
    # Every suppression comment in the gated trees must have a `--`
    # justification.
    for tree in GATED_TREES:
        for path in tree.rglob("*.py"):
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                if "# repro-lint:" in line:
                    comment = line.split("# repro-lint:", 1)[1]
                    directive, dashes, reason = comment.partition("--")
                    assert dashes, f"{path}:{lineno} suppression without justification"
                    if "api-unreachable-export" in directive:
                        assert reason.strip().startswith(SURFACE_REASONS), (
                            f"{path}:{lineno} an unreached export stays only as "
                            f"one of {SURFACE_REASONS}"
                        )
