"""The rule engine behind ``vihot lint``.

Deliberately small: a file walker, an import-aware module context, a
rule registry, and structured findings.  Rules (see
:mod:`repro.analysis.determinism` and :mod:`repro.analysis.contracts`)
are classes with an ``id`` and a ``check(module)`` generator; the
engine handles everything rule authors should not re-implement —
resolving ``np.random.default_rng`` through import aliases, inline
``# vihot: noqa[RULE]`` suppression, and the reviewed path allowlist.

Suppression has exactly two mechanisms, both auditable:

* inline — append ``# vihot: noqa[VH103]`` (or bare ``# vihot: noqa``)
  to the offending physical line;
* allowlist — register ``(path suffix, rule id, reason)`` in
  :data:`repro.analysis.config.DEFAULT_ALLOWLIST`, which is the
  reviewed place for whole-file exemptions such as CLI progress timing.
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.callgraph import ProjectContext

__all__ = [
    "Allowlist",
    "Analyzer",
    "Finding",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "Severity",
]


class Severity(enum.Enum):
    """How bad a finding is; ``ERROR`` findings fail the build."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, pinned to a source location.

    ``trace`` carries the dataflow provenance for project-scope rules
    (how the offending value reached its domain), empty for the
    per-module pattern rules.
    """

    path: str
    line: int
    col: int
    rule: str
    severity: Severity = field(compare=False)
    message: str = field(compare=False)
    trace: tuple[str, ...] = field(default=(), compare=False)

    def format(self) -> str:
        head = f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}"
        if not self.trace:
            return head
        return "\n".join([head, *(f"    trace: {step}" for step in self.trace)])

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "trace": list(self.trace),
        }


def finding_at(
    path: str,
    node: ast.AST,
    rule: str,
    message: str,
    trace: Sequence[str] = (),
    severity: Severity = Severity.ERROR,
) -> Finding:
    """A finding of ``rule`` at ``node``'s position in the module at ``path``."""
    return Finding(
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        rule=rule,
        severity=severity,
        message=message,
        trace=tuple(trace),
    )


#: ``# vihot: noqa`` or ``# vihot: noqa[VH101,VH103]`` on the physical line.
_NOQA_RE = re.compile(r"#\s*vihot:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?")


class ModuleContext:
    """One parsed module plus the name-resolution helpers rules share.

    The context canonicalises import aliases so rules can match on
    dotted names instead of guessing at spellings: with
    ``import numpy as np``, ``np.random.default_rng`` resolves to
    ``numpy.random.default_rng``; with ``from time import perf_counter``,
    the bare name ``perf_counter`` resolves to ``time.perf_counter``.
    """

    def __init__(self, path: Path, rel_path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.rel_path = rel_path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self._aliases = self._collect_aliases(tree)

    @property
    def aliases(self) -> dict[str, str]:
        """Local name -> canonical dotted target, from this module's imports."""
        return dict(self._aliases)

    @staticmethod
    def _collect_aliases(tree: ast.Module) -> dict[str, str]:
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    local = item.asname or item.name.split(".")[0]
                    target = item.name if item.asname else item.name.split(".")[0]
                    aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for item in node.names:
                    if item.name == "*":
                        continue
                    aliases[item.asname or item.name] = f"{node.module}.{item.name}"
        return aliases

    def qualified_name(self, node: ast.AST) -> str | None:
        """Canonical dotted name of a ``Name``/``Attribute`` chain, or None.

        Local shadowing is not tracked (a function that rebinds ``time``
        will confuse this), which is fine for a lint that errs on the
        side of reporting.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def call_name(self, node: ast.Call) -> str | None:
        """Canonical dotted name of a call's callee, or None."""
        return self.qualified_name(node.func)

    def imports_module(self, dotted: str) -> bool:
        """True if the module imports ``dotted`` (or anything inside it).

        Lets rules about stdlib modules (``time``, ``random``) skip files
        where the name could only be a local variable.
        """
        return any(
            target == dotted or target.startswith(dotted + ".")
            for target in self._aliases.values()
        )

    def noqa_rules(self, line: int) -> frozenset[str] | None:
        """Rules suppressed on physical ``line``; empty set means *all*."""
        if not 1 <= line <= len(self.lines):
            return None
        match = _NOQA_RE.search(self.lines[line - 1])
        if match is None:
            return None
        rules = match.group("rules")
        if rules is None:
            return frozenset()
        return frozenset(r.strip() for r in rules.split(",") if r.strip())


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` / ``name`` / ``description`` / ``rationale``
    and implement :meth:`check`.  ``rationale`` is surfaced by
    ``vihot lint --list-rules`` so the "why" travels with the rule
    instead of living only in a reviewer's head; ``example`` (optional)
    is a minimal trigger snippet shown by ``vihot lint --explain``.
    """

    id: str = "VH000"
    name: str = "abstract-rule"
    severity: Severity = Severity.ERROR
    description: str = ""
    rationale: str = ""
    example: str = ""

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleContext,
        node: ast.AST,
        message: str,
        trace: Sequence[str] = (),
    ) -> Finding:
        return finding_at(module.rel_path, node, self.id, message, trace, self.severity)


class ProjectRule(Rule):
    """A rule that needs the whole-project view (call graph, summaries).

    The rules of one family share one pass: ``family`` computes every
    finding of the family over a
    :class:`repro.analysis.callgraph.ProjectContext`, the project runs it
    once (:meth:`~repro.analysis.callgraph.ProjectContext.findings`), and
    each rule reports the findings carrying its id, under its severity.
    The per-module :meth:`check` hook is a no-op so a ``ProjectRule`` can
    sit in the same registry without firing twice.
    """

    @staticmethod
    def family(project: "ProjectContext") -> Iterable[Finding]:
        """Every finding of the rule's family over ``project``."""
        raise NotImplementedError

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        for finding in project.findings(self.family):
            if finding.rule == self.id:
                yield replace(finding, severity=self.severity)


@dataclass(frozen=True)
class AllowlistEntry:
    """One reviewed exemption: ``rule`` is allowed anywhere ``suffix`` matches."""

    suffix: str
    rule: str
    reason: str


class Allowlist:
    """Reviewed per-file exemptions, matched on path suffix.

    Suffix matching (``repro/cli.py`` matches both the repo checkout and
    an installed site-packages tree) keeps entries stable across layouts.
    """

    def __init__(self, entries: Sequence[AllowlistEntry] = ()) -> None:
        self.entries: tuple[AllowlistEntry, ...] = tuple(entries)

    def allows(self, rel_path: str, rule: str) -> bool:
        normalized = rel_path.replace("\\", "/")
        return any(
            entry.rule == rule and normalized.endswith(entry.suffix)
            for entry in self.entries
        )


class Analyzer:
    """Walk files, run every rule, apply suppression, return findings.

    Rules come in two scopes: plain :class:`Rule` subclasses see one
    :class:`ModuleContext` at a time; :class:`ProjectRule` subclasses
    see a :class:`~repro.analysis.callgraph.ProjectContext` built once
    per run from every parsed module (the call-graph / import-resolution
    layer).  ``cache_dir`` lets the project build memoise its
    inter-procedural summaries keyed on a source-tree hash.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        allowlist: Allowlist | None = None,
        cache_dir: Path | str | None = None,
    ) -> None:
        ids = [rule.id for rule in rules]
        duplicates = {i for i in ids if ids.count(i) > 1}
        if duplicates:
            raise ValueError(f"duplicate rule ids: {sorted(duplicates)}")
        self.rules: tuple[Rule, ...] = tuple(rules)
        self.allowlist = allowlist if allowlist is not None else Allowlist()
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None

    @property
    def project_rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if isinstance(r, ProjectRule))

    def run(self, paths: Iterable[Path]) -> list[Finding]:
        findings: list[Finding] = []
        modules: list[ModuleContext] = []
        for path in self._iter_files(paths):
            parsed = self._parse_file(path)
            if isinstance(parsed, Finding):
                findings.append(parsed)
                continue
            modules.append(parsed)
            findings.extend(self._check_module(parsed))
        findings.extend(self._check_project(modules))
        return sorted(findings)

    def check_file(self, path: Path) -> list[Finding]:
        source = path.read_text(encoding="utf-8")
        return self.check_source(source, path=path)

    def check_source(self, source: str, path: Path | None = None) -> list[Finding]:
        parsed = self._parse_source(source, path if path is not None else Path("<string>"))
        if isinstance(parsed, Finding):
            return [parsed]
        findings = self._check_module(parsed)
        findings.extend(self._check_project([parsed]))
        return findings

    def _parse_file(self, path: Path) -> "ModuleContext | Finding":
        return self._parse_source(path.read_text(encoding="utf-8"), path)

    def _parse_source(self, source: str, path: Path) -> "ModuleContext | Finding":
        rel_path = self._relativize(path)
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return Finding(
                path=rel_path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                rule="VH000",
                severity=Severity.ERROR,
                message=f"syntax error: {exc.msg}",
            )
        return ModuleContext(path, rel_path, source, tree)

    def _check_module(self, module: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                continue
            findings.extend(self._filtered(rule.check(module), module))
        return findings

    def _check_project(self, modules: Sequence[ModuleContext]) -> list[Finding]:
        project_rules = self.project_rules
        if not project_rules or not modules:
            return []
        from repro.analysis.callgraph import ProjectContext

        project = ProjectContext.build(modules, cache_dir=self.cache_dir)
        by_path = {module.rel_path: module for module in modules}
        findings: list[Finding] = []
        for rule in project_rules:
            for finding in rule.check_project(project):
                module = by_path.get(finding.path)
                if module is None:
                    findings.append(finding)
                    continue
                findings.extend(self._filtered([finding], module))
        return findings

    def _filtered(
        self, candidates: Iterable[Finding], module: ModuleContext
    ) -> list[Finding]:
        kept: list[Finding] = []
        for finding in candidates:
            if self.allowlist.allows(module.rel_path, finding.rule):
                continue
            suppressed = module.noqa_rules(finding.line)
            if suppressed is not None and (not suppressed or finding.rule in suppressed):
                continue
            kept.append(finding)
        return kept

    @staticmethod
    def _iter_files(paths: Iterable[Path]) -> Iterator[Path]:
        for path in paths:
            if path.is_dir():
                yield from sorted(
                    p for p in path.rglob("*.py") if "__pycache__" not in p.parts
                )
            elif path.suffix == ".py":
                yield path

    @staticmethod
    def _relativize(path: Path) -> str:
        """Repo-relative-looking path (from the ``repro`` package root down)."""
        parts = path.parts
        if "repro" in parts:
            index = len(parts) - 1 - parts[::-1].index("repro")
            return "/".join(parts[index:])
        return str(path)
