"""The one forward interpreter behind the value-flow rules (VH3xx-VH5xx).

The unit-domain pass (:mod:`repro.analysis.dataflow`), the numpy alias
pass (:mod:`repro.analysis.aliasing`) and the shape × dtype pass
(:mod:`repro.analysis.shapes`) are three lattices over one walk.
:class:`Flow` owns what they share: the statement walk over one function
body, the name environment with provenance (:meth:`Flow.declare`,
:meth:`Flow.bind`, :meth:`Flow.trace_of`), finding emission (switched
off for the callgraph's return-domain fixpoint) and call-name
resolution.  A lattice supplies only its transfer functions —
``eval_<Expr>`` for each expression node it models, ``step_<Stmt>`` for
each statement whose effect it models — and its checks, which call
:meth:`Flow.emit`.

Each lattice runs as its own walk: a dotted call is an array method to
the shape lattice only when its root name is in that lattice's
environment, and the return-domain fixpoint runs the domain lattice
alone.  The walk is flow-insensitive inside branches (both arms of an
``if`` and every loop body run once, in order, over one environment),
and a value the lattice cannot model is its ``unknown`` — silence is
cheap, a false alarm in CI is not.  Nested defs and classes are indexed
and analyzed as functions of their own, so the walk does not enter them.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generic, TypeVar

from repro.analysis.engine import Finding, finding_at

if TYPE_CHECKING:
    from repro.analysis.callgraph import FunctionInfo, ProjectContext

__all__ = ["Binding", "Flow", "describe"]

V = TypeVar("V")


@dataclass(frozen=True)
class Binding(Generic[V]):
    """A name's abstract value and the provenance step that produced it."""

    value: V
    origin: str


class Flow(Generic[V]):
    """One function body, one forward walk: lattice values in, findings out."""

    #: The lattice's "nothing known" value; binding it unbinds the name.
    unknown: Any = None

    def __init__(
        self, info: "FunctionInfo", project: "ProjectContext", report: bool = True
    ) -> None:
        self.info = info
        self.project = project
        self.module = project.module_of(info)
        self.report = report
        self.found: list[Finding] = []
        self.env: dict[str, Binding[V]] = {}

    @classmethod
    def findings(cls, project: "ProjectContext") -> Iterator[Finding]:
        """Every finding the lattice reports, function by function."""
        for info in project.functions.values():
            yield from cls(info, project).run()

    def run(self) -> list[Finding]:
        self.walk(self.info.node.body)
        return self.found

    # --------------------------------------------------- environment

    def where(self, node: ast.AST) -> str:
        return f"{self.module.rel_path}:{getattr(node, 'lineno', self.info.node.lineno)}"

    def label(self, value: V) -> str:
        """How a provenance step prints ``value``."""
        return f"[{value}]"

    def declare(self, name: str, value: V, origin: str) -> None:
        """Bind ``name`` to ``value`` with an explicit provenance step."""
        if value == self.unknown:
            self.env.pop(name, None)
        else:
            self.env[name] = Binding(value, origin)

    def declare_param(self, name: str, value: V) -> None:
        self.declare(
            name,
            value,
            f"{self.where(self.info.node)}: parameter `{name}` declared {self.label(value)}",
        )

    def bind(self, name: str, value: V, node: ast.AST, source: str) -> None:
        """Bind ``name`` at ``node`` to a value computed from ``source``."""
        self.declare(
            name, value, f"{self.where(node)}: `{name}` <- {source} {self.label(value)}"
        )

    def trace_of(self, node: ast.expr) -> tuple[str, ...]:
        """Provenance steps of the bound names appearing in ``node``."""
        steps: list[str] = []
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and child.id in self.env:
                origin = self.env[child.id].origin
                if origin not in steps:
                    steps.append(origin)
        return tuple(steps[:3])

    def emit(self, rule: str, node: ast.AST, message: str, trace: Sequence[str]) -> None:
        """Report ``rule`` at ``node``, keeping the first four trace steps."""
        if self.report:
            self.found.append(
                finding_at(self.module.rel_path, node, rule, message, trace[:4])
            )

    def resolve(self, node: ast.Call) -> tuple[str | None, str | None]:
        """The callee's dotted name as spelled and as canonicalised."""
        name = self.module.call_name(node)
        if name is None:
            return None, None
        return name, self.project.canonical_call(name, module=self.info.module)

    # ---------------------------------------------------- statements

    def walk(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            step = getattr(self, "step_" + type(stmt).__name__, None)
            if step is not None:
                step(stmt)

    def step_Assign(self, stmt: ast.Assign) -> None:
        value = self.eval(stmt.value)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                self.bind(target.id, value, target, describe(stmt.value))
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        self.env.pop(element.id, None)

    def step_Expr(self, stmt: ast.Expr) -> None:
        self.eval(stmt.value)

    def step_If(self, stmt: ast.If | ast.While) -> None:
        self.eval(stmt.test)
        self.walk(stmt.body)
        self.walk(stmt.orelse)

    step_While = step_If

    def step_For(self, stmt: ast.For) -> None:
        value = self.eval(stmt.iter)
        if isinstance(stmt.target, ast.Name):
            self.bind(stmt.target.id, self.element(value, stmt), stmt, describe(stmt.iter))
        self.walk(stmt.body)
        self.walk(stmt.orelse)

    def element(self, value: V, stmt: ast.For) -> V:
        """The value a ``for`` target takes from an iterable of ``value``."""
        return value

    def step_With(self, stmt: ast.With) -> None:
        for item in stmt.items:
            self.eval(item.context_expr)
        self.walk(stmt.body)

    def step_Try(self, stmt: ast.Try) -> None:
        self.walk(stmt.body)
        for handler in stmt.handlers:
            self.walk(handler.body)
        self.walk(stmt.orelse)
        self.walk(stmt.finalbody)

    def step_Assert(self, stmt: ast.Assert | ast.Raise) -> None:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.eval(child)

    step_Raise = step_Assert

    # --------------------------------------------------- expressions

    def eval(self, node: ast.expr) -> V:
        method = getattr(self, "eval_" + type(node).__name__, None)
        return method(node) if method is not None else self.unknown

    def eval_Name(self, node: ast.Name) -> V:
        binding = self.env.get(node.id)
        return binding.value if binding is not None else self.unknown

    def eval_IfExp(self, node: ast.IfExp) -> V:
        self.eval(node.test)
        body, orelse = self.eval(node.body), self.eval(node.orelse)
        return body if body == orelse else self.unknown

    def eval_Compare(self, node: ast.Compare | ast.BoolOp) -> V:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
        return self.unknown

    eval_BoolOp = eval_Compare

    def eval_Starred(self, node: ast.Starred) -> V:
        return self.eval(node.value)


def describe(node: ast.expr | None) -> str:
    """Short spelling of a binding's source for provenance steps."""
    if node is None:
        return "assignment"
    if isinstance(node, ast.Call):
        return f"{ast.unparse(node.func)}(...)"
    if isinstance(node, ast.Name):
        return f"`{node.id}`"
    return type(node).__name__.lower()
