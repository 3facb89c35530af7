"""AST-based lint engine with a pluggable rule registry.

The repo's correctness story rests on invariants no general-purpose linter
knows about: seeded RNG streams everywhere (bit-identical replays), an
autograd engine whose buffers must not be mutated behind the tape's back,
and collectives that every rank must issue congruently or the world
deadlocks. This module is the *static* half of :mod:`repro.analysis` — it
parses source files once, hands the tree to every registered
:class:`Rule`, and reports :class:`Finding`\\ s with precise
``path:line:col rule-id message`` locations.

Rules
-----
A rule is a subclass of :class:`Rule` with a unique ``id``, a ``category``
(``determinism`` / ``autograd`` / ``distributed`` / ...), and a ``check``
method yielding findings. Registration is declarative::

    @register
    class MyRule(Rule):
        id = "my-rule"
        category = "determinism"
        description = "what it catches and why it matters"

        def check(self, ctx):
            for node in ast.walk(ctx.tree):
                ...
                yield self.finding(ctx, node, "message")

Rules that need to see the *whole program* — call graphs, rank-taint
flow, cross-function collective sequences — subclass :class:`ProjectRule`
instead and implement ``check_project(project)``, receiving a
:class:`repro.analysis.callgraph.Project` built over every linted file in
one pass. ``lint_file`` runs project rules over a single-file project, so
per-rule fixtures exercise them exactly like per-file rules.

The built-in catalogue lives in :mod:`repro.analysis.rules` and is loaded
on first use; external code can register more rules before calling
:func:`lint_paths`.

Suppressions
------------
Two comment forms, both requiring an explicit rule list (or ``all``), with
an optional ``--`` justification that reviewers can audit:

- per-line (trailing comment on the offending line)::

    t = time.time()  # repro-lint: disable=det-wall-clock -- log timestamp

  A trailing disable on *any* physical line of a multi-line statement
  covers findings anchored anywhere in that statement's
  ``lineno..end_lineno`` range — rules anchor findings at the statement
  head or at an inner call, and the suppression comment necessarily sits
  on one physical line of the same statement.

- per-file (a comment on a line of its own, anywhere in the file)::

    # repro-lint: file-disable=dist-recv-timeout -- caller owns the deadline

Suppressed findings are not dropped silently: :class:`LintReport` carries
them in ``suppressed`` and the CLI prints the count.
"""

from __future__ import annotations

import ast
import io
import json
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "LintContext",
    "LintReport",
    "Rule",
    "ProjectRule",
    "register",
    "iter_rules",
    "get_rule",
    "lint_file",
    "lint_paths",
]

#: marker introducing a suppression comment
_MARKER = "repro-lint:"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.rule_id} {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class Suppressions:
    """Parsed ``repro-lint:`` comments of one file."""

    def __init__(self, file_rules: set[str], line_rules: dict[int, set[str]]):
        self.file_rules = file_rules
        self.line_rules = line_rules

    def covers(self, finding: Finding) -> bool:
        for rules in (self.file_rules, self.line_rules.get(finding.line, ())):
            if "all" in rules or finding.rule_id in rules:
                return True
        return False

    @classmethod
    def parse(cls, source: str, tree: ast.AST | None = None) -> "Suppressions":
        file_rules: set[str] = set()
        line_rules: dict[int, set[str]] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return cls(set(), {})
        for line, comment in comments:
            body = comment.lstrip("#").strip()
            if not body.startswith(_MARKER):
                continue
            directive = body[len(_MARKER):].strip()
            # Strip the justification; it is for humans, not the engine.
            directive = directive.split("--", 1)[0].strip()
            if directive.startswith("file-disable="):
                file_rules.update(_split_rules(directive[len("file-disable="):]))
            elif directive.startswith("disable="):
                line_rules.setdefault(line, set()).update(
                    _split_rules(directive[len("disable="):])
                )
        if tree is not None and line_rules:
            _expand_to_statements(line_rules, tree)
        return cls(file_rules, line_rules)


def _expand_to_statements(line_rules: dict[int, set[str]], tree: ast.AST) -> None:
    """Widen each line suppression to its whole enclosing statement.

    A rule may anchor a finding at a multi-line statement's head (or at an
    inner call on another physical line), while the suppression comment can
    only trail *one* physical line of that statement. The smallest
    statement whose ``lineno..end_lineno`` range contains the comment line
    is the statement the author pointed at; every line of that range gets
    the same rule set.
    """
    statements = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and getattr(node, "end_lineno", None)
    ]
    for line, rules in list(line_rules.items()):
        best: ast.stmt | None = None
        for stmt in statements:
            if stmt.lineno <= line <= stmt.end_lineno:
                if best is None or (stmt.end_lineno - stmt.lineno) < (
                    best.end_lineno - best.lineno
                ):
                    best = stmt
        if best is None or best.end_lineno == best.lineno:
            continue
        for covered in range(best.lineno, best.end_lineno + 1):
            line_rules.setdefault(covered, set()).update(rules)


def _split_rules(spec: str) -> set[str]:
    return {part.strip() for part in spec.split(",") if part.strip()}


@dataclass
class LintContext:
    """Everything a rule may look at for one file."""

    path: str
    source: str
    tree: ast.AST
    #: dotted module name when the file lives under a ``repro`` package
    #: directory (``src/repro/optim/sgd.py`` -> ``repro.optim.sgd``), else
    #: ``None``; rules use it for module-scoped whitelists.
    module: str | None

    def in_module(self, prefixes: Sequence[str]) -> bool:
        if self.module is None:
            return False
        return any(
            self.module == p or self.module.startswith(p + ".") for p in prefixes
        )


class Rule:
    """Base class for lint rules. Subclass, set metadata, implement check."""

    id: str = ""
    category: str = ""
    description: str = ""

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class ProjectRule(Rule):
    """A rule that analyses the whole linted tree at once.

    ``check_project`` receives a :class:`repro.analysis.callgraph.Project`
    built from every file of the run (``lint_file`` builds a single-file
    project, so fixtures work unchanged) and yields findings anchored in
    any of the project's files; suppressions are applied per file exactly
    as for per-file rules.
    """

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return ()  # project rules only run via check_project

    def check_project(self, project) -> Iterable[Finding]:
        raise NotImplementedError

    def finding_at(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=self.id,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and add to the global registry."""
    rule = rule_cls()
    if not rule.id or not rule.category or not rule.description:
        raise ValueError(f"{rule_cls.__name__} must set id, category, description")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def _load_builtin_rules() -> None:
    # Imported for the registration side effect; deferred so that
    # `import repro.analysis.lint` alone cannot recurse into rule modules.
    from repro.analysis import rules  # noqa: F401


def iter_rules() -> list[Rule]:
    _load_builtin_rules()
    return [_REGISTRY[i] for i in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    _load_builtin_rules()
    return _REGISTRY[rule_id]


@dataclass
class LintReport:
    """Outcome of one lint run: active findings plus audit trail."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def sort(self) -> None:
        key = lambda f: (f.path, f.line, f.col, f.rule_id)  # noqa: E731
        self.findings.sort(key=key)
        self.suppressed.sort(key=key)

    def to_dict(self) -> dict:
        return {
            "files_scanned": self.files_scanned,
            "finding_count": len(self.findings),
            "suppressed_count": len(self.suppressed),
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _module_name(path: Path) -> str | None:
    parts = list(path.with_suffix("").parts)
    try:
        i = parts.index("repro")
    except ValueError:
        return None
    mod = parts[i:]
    if mod[-1] == "__init__":
        mod = mod[:-1]
    return ".".join(mod)


def _parse_one(
    path: Path, source: str | None = None
) -> tuple[LintContext | None, Suppressions | None, Finding | None]:
    """Parse one file into a context (or a ``lint-parse`` finding)."""
    if source is None:
        source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, None, Finding(
            rule_id="lint-parse",
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"file does not parse: {exc.msg}",
        )
    ctx = LintContext(
        path=str(path), source=source, tree=tree, module=_module_name(path)
    )
    return ctx, Suppressions.parse(source, tree), None


def _run_rules(
    contexts: Sequence[tuple[LintContext, Suppressions]],
    rules: Sequence[Rule],
    report: LintReport,
) -> None:
    """Run per-file rules file by file, then project rules over the whole
    set; route every finding through its file's suppressions."""
    by_path = {ctx.path: sup for ctx, sup in contexts}

    def deliver(finding: Finding, sup: Suppressions | None) -> None:
        if sup is not None and sup.covers(finding):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)

    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    for ctx, sup in contexts:
        for rule in file_rules:
            for finding in rule.check(ctx):
                deliver(finding, sup)
    if project_rules:
        from repro.analysis.callgraph import Project

        project = Project([ctx for ctx, _ in contexts])
        for rule in project_rules:
            for finding in rule.check_project(project):
                deliver(finding, by_path.get(finding.path))


def lint_file(  # repro-lint: disable=api-unreachable-export -- documented user entry point: docs/static_analysis.md runs a rule under development on one file with it
    path: str | Path,
    rules: Sequence[Rule] | None = None,
    source: str | None = None,
) -> LintReport:
    """Lint one file; a syntax error becomes a ``lint-parse`` finding.

    Project rules see a single-file project, so intra-file instances of
    interprocedural patterns (helper chains within one module) are still
    caught — only cross-file edges need :func:`lint_paths`.
    """
    path = Path(path)
    report = LintReport(files_scanned=1)
    ctx, suppressions, parse_error = _parse_one(path, source)
    if parse_error is not None:
        report.findings.append(parse_error)
        return report
    assert ctx is not None and suppressions is not None
    _run_rules(
        [(ctx, suppressions)],
        iter_rules() if rules is None else rules,
        report,
    )
    report.sort()
    return report


def _iter_python_files(root: Path) -> Iterator[Path]:
    if root.is_file():
        if root.suffix == ".py":
            yield root
        return
    for path in sorted(root.rglob("*.py")):
        # Hidden and cache directories *inside* the tree; where the tree
        # itself lives (``../checkout/src``, ``/tmp/.work/src``) is not ours.
        inside = path.relative_to(root).parts
        if any(part.startswith(".") or part == "__pycache__" for part in inside):
            continue
        yield path


def lint_paths(
    paths: Sequence[str | Path],
    select: Sequence[str] | None = None,
) -> LintReport:
    """Lint every ``*.py`` under ``paths``; restrict rules with ``select``.

    All files are parsed before any project rule runs, so interprocedural
    rules see call edges that cross file boundaries.
    """
    if select is None:
        rules: Sequence[Rule] = iter_rules()
    else:
        rules = [get_rule(rule_id) for rule_id in select]
    report = LintReport()
    contexts: list[tuple[LintContext, Suppressions]] = []
    for root in paths:
        for path in _iter_python_files(Path(root)):
            report.files_scanned += 1
            ctx, sup, parse_error = _parse_one(path)
            if parse_error is not None:
                report.findings.append(parse_error)
                continue
            assert ctx is not None and sup is not None
            contexts.append((ctx, sup))
    _run_rules(contexts, rules, report)
    report.sort()
    return report
