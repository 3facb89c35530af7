"""Lint engine mechanics: registry, suppressions, parse errors, reports."""

from __future__ import annotations

import json

import pytest

from repro.analysis.lint import (
    Finding,
    LintContext,
    Rule,
    Suppressions,
    get_rule,
    iter_rules,
    lint_file,
    lint_paths,
)

pytestmark = pytest.mark.analysis

EXPECTED_RULES = {
    "det-global-rng",
    "det-stdlib-random",
    "det-unseeded-rng",
    "det-wall-clock",
    "ag-tensor-mutation",
    "ag-float-eq",
    "dist-rank-collective",
    "dist-recv-timeout",
    "dist-rank-divergent-collective",
    "dist-collective-order",
    "dist-epoch-tag",
    "api-unreachable-export",
}


class TestRegistry:
    def test_builtin_catalogue_registered(self):
        assert EXPECTED_RULES <= {rule.id for rule in iter_rules()}

    def test_rules_carry_metadata(self):
        for rule in iter_rules():
            assert rule.id and rule.category and rule.description

    def test_get_rule_roundtrip(self):
        rule = get_rule("det-wall-clock")
        assert rule.id == "det-wall-clock"
        assert rule.category == "determinism"

    def test_iter_rules_sorted_and_stable(self):
        ids = [r.id for r in iter_rules()]
        assert ids == sorted(ids)
        assert ids == [r.id for r in iter_rules()]


class TestSuppressions:
    def test_per_line_disable_covers_only_that_line(self):
        src = "import time\nt = time.time()  # repro-lint: disable=det-wall-clock -- log stamp\nu = time.time()\n"
        sup = Suppressions.parse(src)
        hit = Finding("det-wall-clock", "f.py", 2, 4, "m")
        miss_line = Finding("det-wall-clock", "f.py", 3, 4, "m")
        miss_rule = Finding("det-global-rng", "f.py", 2, 4, "m")
        assert sup.covers(hit)
        assert not sup.covers(miss_line)
        assert not sup.covers(miss_rule)

    def test_file_disable_covers_every_line(self):
        src = "# repro-lint: file-disable=dist-recv-timeout -- caller owns deadline\nx = 1\n"
        sup = Suppressions.parse(src)
        assert sup.covers(Finding("dist-recv-timeout", "f.py", 40, 0, "m"))
        assert not sup.covers(Finding("det-wall-clock", "f.py", 40, 0, "m"))

    def test_all_wildcard_and_multi_rule_lists(self):
        src = (
            "a = 1  # repro-lint: disable=all\n"
            "b = 2  # repro-lint: disable=det-wall-clock,ag-float-eq -- both known\n"
        )
        sup = Suppressions.parse(src)
        assert sup.covers(Finding("anything", "f.py", 1, 0, "m"))
        assert sup.covers(Finding("ag-float-eq", "f.py", 2, 0, "m"))
        assert sup.covers(Finding("det-wall-clock", "f.py", 2, 0, "m"))
        assert not sup.covers(Finding("det-global-rng", "f.py", 2, 0, "m"))

    def test_justification_is_stripped_not_parsed(self):
        src = "x = 1  # repro-lint: disable=det-wall-clock -- because det-global-rng\n"
        sup = Suppressions.parse(src)
        assert not sup.covers(Finding("det-global-rng", "f.py", 1, 0, "m"))

    def test_multiline_statement_covered_from_any_line(self):
        # Regression: a disable comment on *any* physical line of a
        # multi-line statement covers the whole statement — findings anchor
        # at the expression's first line, which is where the comment often
        # cannot go (black puts the closing paren on its own line).
        import ast

        src = (
            "import time\n"
            "stamp = time.time(\n"
            ")  # repro-lint: disable=det-wall-clock -- provenance stamp\n"
        )
        sup = Suppressions.parse(src, ast.parse(src))
        assert sup.covers(Finding("det-wall-clock", "f.py", 2, 8, "m"))
        assert sup.covers(Finding("det-wall-clock", "f.py", 3, 0, "m"))
        assert not sup.covers(Finding("det-wall-clock", "f.py", 1, 0, "m"))

    def test_multiline_suppression_end_to_end(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "import numpy as np\n"
            "def ping(comm, peer):\n"
            "    comm.send_ctrl(\n"
            "        peer,\n"
            "        np.array([1.0, 2.0]),\n"
            "    )  # repro-lint: disable=dist-epoch-tag -- pre-epoch bootstrap frame\n"
        )
        report = lint_file(path)
        assert report.ok, [f.format() for f in report.findings]
        assert [f.rule_id for f in report.suppressed] == ["dist-epoch-tag"]

    def test_suppressed_findings_still_reported(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "import time\n"
            "t = time.time()  # repro-lint: disable=det-wall-clock -- stamp\n"
        )
        report = lint_file(path)
        assert report.ok
        assert [f.rule_id for f in report.suppressed] == ["det-wall-clock"]


class TestParseErrors:
    def test_syntax_error_becomes_lint_parse_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        report = lint_file(path)
        assert not report.ok
        assert [f.rule_id for f in report.findings] == ["lint-parse"]
        assert "does not parse" in report.findings[0].message


class TestFindingFormat:
    def test_path_line_col_rule_message(self):
        f = Finding("det-wall-clock", "src/repro/x.py", 12, 4, "no wall clock")
        assert f.format() == "src/repro/x.py:12:4 det-wall-clock no wall clock"


class TestLintContext:
    def test_module_name_derived_from_repro_part(self, tmp_path):
        nested = tmp_path / "src" / "repro" / "optim" / "sgd.py"
        nested.parent.mkdir(parents=True)
        nested.write_text("x = 1\n")
        captured = {}

        class Probe(Rule):
            id = "probe"
            category = "test"
            description = "captures ctx"

            def check(self, ctx: LintContext):
                captured["module"] = ctx.module
                captured["in_optim"] = ctx.in_module(("repro.optim",))
                captured["in_tensor"] = ctx.in_module(("repro.tensor",))
                return ()

        lint_file(nested, rules=[Probe()])
        assert captured["module"] == "repro.optim.sgd"
        assert captured["in_optim"]
        assert not captured["in_tensor"]

    def test_file_outside_repro_has_no_module(self, tmp_path):
        path = tmp_path / "script.py"
        path.write_text("w.data += 1\n")
        # Outside any repro package the mutation whitelist cannot apply.
        report = lint_file(path, rules=[get_rule("ag-tensor-mutation")])
        assert [f.rule_id for f in report.findings] == ["ag-tensor-mutation"]


class TestLintPaths:
    def test_walks_directories_and_skips_caches(self, tmp_path):
        # Hidden and cache directories inside the tree are skipped; a
        # hidden directory *above* it (where the checkout lives) is not.
        root = tmp_path / ".work"
        (root / "pkg").mkdir(parents=True)
        (root / "pkg" / "a.py").write_text("import random\n")
        for skipped in ("__pycache__", ".venv"):
            (root / "pkg" / skipped).mkdir()
            (root / "pkg" / skipped / "b.py").write_text("import random\n")
        (root / "pkg" / "note.txt").write_text("import random\n")
        report = lint_paths([root])
        assert report.files_scanned == 1
        assert [f.rule_id for f in report.findings] == ["det-stdlib-random"]

    def test_select_restricts_rules(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("import random\nimport time\nt = time.time()\n")
        report = lint_paths([path], select=["det-wall-clock"])
        assert [f.rule_id for f in report.findings] == ["det-wall-clock"]

    def test_report_json_roundtrip(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("import random\n")
        report = lint_paths([path])
        payload = json.loads(report.to_json())
        assert payload["files_scanned"] == 1
        assert payload["finding_count"] == 1
        assert payload["findings"][0]["rule"] == "det-stdlib-random"
        assert payload["findings"][0]["line"] == 1
