"""Numpy aliasing rules (VH4xx): in-place mutation of borrowed arrays.

Numpy makes sharing cheap and mutation silent: ``b = a[::2]`` is a view,
``a += x`` writes through whatever ``a`` aliases, and ``np.add(x, y,
out=a)`` clobbers ``a`` without a single assignment statement.  Inside a
function, any array *parameter* — and any view derived from one — is a
buffer the **caller** owns; mutating it is a side effect the signature
does not advertise, and it is exactly the bug class that made the fused
tracker's forecast cache go stale once.

The pass is a lattice on the one forward interpreter of
:mod:`repro.analysis.flow`, tracking which names borrow a caller's buffer:

* every parameter starts *borrowed*;
* view-producing expressions keep borrowed-ness (``x[...]``, ``x.T``,
  ``x.reshape(...)``, ``np.asarray(x)``, plain ``y = x`` rebinding);
* copying expressions transfer ownership (``x.copy()``, ``np.array(x)``,
  arithmetic results, ``np.sort(x)``) — mutating those is fine.

Flagged sinks: subscript stores (``x[i] = ...``, ``x[i] += ...``),
augmented assignment to an array-annotated name (``x += ...``), the
``out=`` keyword, and the mutating ndarray methods (``sort``, ``fill``,
``put``, ``partition``, ``resize``).  Direct parameters report as VH401,
views of parameters as VH402.

To keep scalar counters (``count += 1``) out of the findings, the bare
``name += ...`` form only fires when the parameter's annotation is
array-like (``np.ndarray`` / ``NDArray`` / ``ArrayLike``, possibly under
``Annotated``); subscript stores and ``out=`` fire on any borrowed name
because those spellings already imply an array.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.engine import Finding, ProjectRule
from repro.analysis.flow import Flow

if TYPE_CHECKING:
    from repro.analysis.callgraph import FunctionInfo, ProjectContext

__all__ = ["ParamMutationRule", "ViewMutationRule"]

#: ndarray methods that mutate the receiver in place.
_MUTATING_METHODS = frozenset(
    {"sort", "fill", "put", "partition", "resize", "setflags", "byteswap"}
)

#: Annotation names that mark a parameter as an array (walked through
#: ``Annotated``/``Optional`` wrappers syntactically).
_ARRAY_ANNOTATION_NAMES = frozenset({"ndarray", "NDArray", "ArrayLike"})

#: Calls that return a *view* (or the argument itself): borrowed-ness
#: propagates through them.
_VIEW_CALLS = frozenset(
    {
        "numpy.asarray",
        "numpy.atleast_1d",
        "numpy.atleast_2d",
        "numpy.ravel",
        "numpy.reshape",
        "numpy.squeeze",
        "numpy.broadcast_to",
        "numpy.swapaxes",
        "numpy.moveaxis",
        "numpy.transpose",
    }
)

#: ndarray methods returning views of the receiver.  ``astype`` copies
#: by default and is handled separately: only ``astype(..., copy=False)``
#: may alias the receiver.
_VIEW_METHODS = frozenset(
    {"reshape", "ravel", "squeeze", "view", "transpose", "swapaxes"}
)

#: Attributes of an ndarray that alias its buffer.
_VIEW_ATTRS = frozenset({"T", "real", "imag", "flat"})


@dataclass(frozen=True)
class _Borrow:
    """Why a value aliases caller-owned memory."""

    param: str  # the parameter at the root of the alias chain
    direct: bool  # True: the parameter itself; False: a view of it
    origin: str  # trace step describing how the alias arose


def _annotation_is_array(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Attribute) and node.attr in _ARRAY_ANNOTATION_NAMES:
            return True
        if isinstance(node, ast.Name) and node.id in _ARRAY_ANNOTATION_NAMES:
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations: "np.ndarray" etc.
            if any(name in node.value for name in _ARRAY_ANNOTATION_NAMES):
                return True
    return False


class AliasFlow(Flow["_Borrow | None"]):
    """The borrow lattice: the caller-owned buffer a value aliases, if any.

    Evaluating an expression only tracks borrows; the mutation sinks are
    checked by the statements that write (stores, ``out=``, mutating
    methods, augmented assignment).
    """

    def __init__(
        self, info: "FunctionInfo", project: "ProjectContext", report: bool = True
    ) -> None:
        super().__init__(info, project, report)
        args = info.node.args
        self.array_params = frozenset(
            arg.arg
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if _annotation_is_array(arg.annotation)
        )
        for name in (*info.positional, *info.kwonly):
            origin = f"{self.where(info.node)}: `{name}` is a parameter of `{info.qualname}`"
            self.declare(name, _Borrow(name, True, origin), origin)

    def bind(self, name: str, value: _Borrow | None, node: ast.AST, source: str) -> None:
        # ``y = x`` / ``y = x[...]`` alias the caller buffer under a new
        # name, keeping the alias chain as provenance; anything else
        # (copy, arithmetic) owns its result.
        self.declare(name, value, value.origin if value is not None else "")

    def _emit_mutation(self, node: ast.AST, borrow: _Borrow, sink: str) -> None:
        subject = (
            f"parameter `{borrow.param}`"
            if borrow.direct
            else f"view of parameter `{borrow.param}`"
        )
        self.emit(
            "VH401" if borrow.direct else "VH402",
            node,
            f"in-place mutation of {subject} via {sink}: the caller "
            "owns this buffer and the signature does not advertise "
            "the write; copy first (`np.array(x)` / `x.copy()`) or "
            "document the contract",
            (borrow.origin, f"{self.where(node)}: mutated via {sink}"),
        )

    # --------------------------------------------------- borrow propagation

    def _view(self, root: _Borrow | None, node: ast.AST) -> _Borrow | None:
        if root is None:
            return None
        return _Borrow(
            param=root.param,
            direct=False,
            origin=f"{self.where(node)}: view of `{root.param}` ({ast.unparse(node)})",
        )

    def eval_Subscript(self, node: ast.Subscript) -> _Borrow | None:
        return self._view(self.eval(node.value), node)

    def eval_Attribute(self, node: ast.Attribute) -> _Borrow | None:
        if node.attr in _VIEW_ATTRS:
            return self._view(self.eval(node.value), node)
        return None

    def eval_Call(self, node: ast.Call) -> _Borrow | None:
        if self.resolve(node)[1] in _VIEW_CALLS and node.args:
            return self._view(self.eval(node.args[0]), node)
        func = node.func
        if isinstance(func, ast.Attribute) and (
            func.attr in _VIEW_METHODS
            or (func.attr == "astype" and _astype_may_alias(node))
        ):
            return self._view(self.eval(func.value), node)
        return None

    def eval_IfExp(self, node: ast.IfExp) -> _Borrow | None:
        return self.eval(node.body) or self.eval(node.orelse)

    def eval_Starred(self, node: ast.Starred) -> None:
        # ``*x`` spreads the elements of ``x``; it is not one buffer.
        return None

    def element(self, value: _Borrow | None, stmt: ast.For) -> _Borrow | None:
        # Iterating rows of a borrowed 2-D array yields views.
        return self._view(value, stmt)

    # ---------------------------------------------------------- statements

    def step_Assign(self, stmt: ast.Assign) -> None:
        # Unlike the base walk, unpacking into a tuple keeps its names' borrows.
        self._check_out_kw(stmt.value)
        for target in stmt.targets:
            self._check_store(target, sink="subscript assignment")
            if isinstance(target, ast.Name):
                self.bind(target.id, self.eval(stmt.value), target, "")

    def step_AnnAssign(self, stmt: ast.AnnAssign) -> None:
        if stmt.value is not None:
            self._check_out_kw(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.bind(stmt.target.id, self.eval(stmt.value), stmt, "")
        self._check_store(stmt.target, sink="subscript assignment")

    def step_AugAssign(self, stmt: ast.AugAssign) -> None:
        self._check_out_kw(stmt.value)
        target = stmt.target
        if isinstance(target, ast.Name):
            borrow = self.eval(target)
            if borrow is not None and (
                not borrow.direct or borrow.param in self.array_params
            ):
                self._emit_mutation(stmt, borrow, sink=f"`{target.id} {_op(stmt.op)}= ...`")
        else:
            self._check_store(target, sink=f"`{_op(stmt.op)}=` through a subscript")

    def step_Expr(self, stmt: ast.Expr) -> None:
        node = stmt.value
        self._check_out_kw(node)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
                borrow = self.eval(func.value)
                if borrow is not None:
                    self._emit_mutation(node, borrow, sink=f"`.{func.attr}()`")

    def step_Return(self, stmt: ast.Return) -> None:
        if stmt.value is not None:
            self._check_out_kw(stmt.value)

    # ------------------------------------------------------------- checks

    def _check_store(self, target: ast.expr, sink: str) -> None:
        if isinstance(target, ast.Subscript):
            borrow = self.eval(target.value)
            if borrow is not None:
                self._emit_mutation(target, borrow, sink=sink)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store(element, sink=sink)

    def _check_out_kw(self, node: ast.expr) -> None:
        for child in ast.walk(node):
            if not isinstance(child, ast.Call):
                continue
            for kw in child.keywords:
                if kw.arg != "out":
                    continue
                targets = (
                    kw.value.elts
                    if isinstance(kw.value, (ast.Tuple, ast.List))
                    else [kw.value]
                )
                for target in targets:
                    borrow = self.eval(target)
                    if borrow is not None:
                        self._emit_mutation(child, borrow, sink="`out=` keyword")


def _astype_may_alias(node: ast.Call) -> bool:
    for kw in node.keywords:
        if kw.arg == "copy" and isinstance(kw.value, ast.Constant):
            return kw.value.value is False
    return False


def _op(op: ast.operator) -> str:
    return {
        ast.Add: "+",
        ast.Sub: "-",
        ast.Mult: "*",
        ast.Div: "/",
        ast.FloorDiv: "//",
        ast.Mod: "%",
        ast.Pow: "**",
        ast.MatMult: "@",
        ast.BitAnd: "&",
        ast.BitOr: "|",
        ast.BitXor: "^",
        ast.LShift: "<<",
        ast.RShift: ">>",
    }.get(type(op), "?")


class _AliasRuleBase(ProjectRule):
    @staticmethod
    def family(project: "ProjectContext") -> Iterator[Finding]:
        return AliasFlow.findings(project)


class ParamMutationRule(_AliasRuleBase):
    id = "VH401"
    name = "param-inplace-mutation"
    description = "in-place mutation of an array the caller passed in"
    rationale = (
        "A function that writes through its parameter (`x[i] = ...`, "
        "`x += ...`, `np.add(a, b, out=x)`, `x.sort()`) mutates a buffer "
        "the caller owns — a hidden side effect that corrupts shared CSI "
        "windows and cached forecasts. Copy on entry or make the write "
        "part of the documented contract (then suppress with a reason)."
    )


class ViewMutationRule(_AliasRuleBase):
    id = "VH402"
    name = "view-inplace-mutation"
    description = "in-place mutation of a view over a caller-owned array"
    rationale = (
        "`b = a[::2]`, `a.T`, `a.reshape(...)` and `np.asarray(a)` are "
        "views: writing to them writes to the caller's buffer through an "
        "alias the reviewer can no longer see at the mutation site. The "
        "alias chain is reported in the finding's trace."
    )
