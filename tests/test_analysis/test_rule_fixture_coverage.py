"""Meta-test: the fixture registry tracks the rule catalogue exactly.

Every registered rule id must have one positive (flags) and one negative
(clean) fixture in ``rule_fixtures.FIXTURES`` — so no rule can ship
without demonstrating both that it fires and that its recommended fix
silences it. ``<rule-id>/<case>`` rows add further cases for a rule.
"""

from __future__ import annotations

import pytest

from repro.analysis import iter_rules
from repro.analysis.lint import get_rule, lint_file

from .rule_fixtures import FIXTURE_PATH, FIXTURES

pytestmark = pytest.mark.analysis


def _lint(tmp_path, key: str, fixture):
    # repro/models/ is outside every rule's module whitelist, so fixtures
    # exercise each rule's default behaviour.
    files = {FIXTURE_PATH: fixture} if isinstance(fixture, str) else fixture
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return lint_file(tmp_path / FIXTURE_PATH, rules=[get_rule(_rule_id(key))])


def _rule_id(key: str) -> str:
    return key.partition("/")[0]


def test_registry_matches_catalogue_exactly():
    registered = {rule.id for rule in iter_rules()}
    missing = registered - set(FIXTURES)
    stale = {_rule_id(key) for key in FIXTURES} - registered
    assert not missing, f"rules without fixtures: {sorted(missing)}"
    assert not stale, f"fixtures for unregistered rules: {sorted(stale)}"


@pytest.mark.parametrize("key", sorted(k for k in FIXTURES if FIXTURES[k][0]))
def test_positive_fixture_flags(key, tmp_path):
    rule_id = _rule_id(key)
    report = _lint(tmp_path, key, FIXTURES[key][0])
    hits = [f for f in report.findings if f.rule_id == rule_id]
    assert hits, f"{rule_id}: positive fixture produced no finding"
    assert all(f.rule_id == rule_id for f in report.findings), (
        f"{rule_id}: stray findings "
        f"{[f.format() for f in report.findings if f.rule_id != rule_id]}"
    )


@pytest.mark.parametrize("key", sorted(k for k in FIXTURES if FIXTURES[k][1]))
def test_negative_fixture_clean(key, tmp_path):
    report = _lint(tmp_path, key, FIXTURES[key][1])
    assert report.ok, (
        f"{key}: negative fixture not clean: "
        f"{[f.format() for f in report.findings]}"
    )
