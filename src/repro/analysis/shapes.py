"""Array shape & dtype dataflow rules (VH5xx): axes tracked across the project.

The analyzer abstract-interprets every function with a symbolic shape
lattice: arrays acquire a shape — a tuple of axis tokens, each a
declared symbol (``"S"``, ``"m"``), a literal int, or ``None`` for
*unknown* — from declared sources (``Annotated[np.ndarray,
Shape("S", "m")]`` params, ``:shape return: (S, B)`` docstring markers,
shape-transparent numpy callables) and the shape is propagated through
assignments, arithmetic, indexing, ``np.stack`` / ``transpose`` /
``squeeze`` and call boundaries using the same
:mod:`repro.analysis.callgraph` project view the VH3xx rules ride.
Dtypes travel alongside (:mod:`repro.analysis.dtypes`).  Findings:

* VH501 — a call-site argument whose tracked shape cannot match any
  declared alternative of the callee parameter (rank or axis symbols
  disagree);
* VH502 — batch-axis mixup: the argument *would* match, except its
  known axes are a permutation of the declared ones — the
  ``queries.T`` / swapped ``(m, S)`` class of bug that broadcasting
  happily accepts and silently mis-ranks every candidate;
* VH503 — silent dtype downcast: a ``complex*`` value flowing into a
  real slot or a ``float64`` into ``float32`` without an explicit
  ``astype`` / constructor cast in source;
* VH504 — implicit broadcasting across declared axes: elementwise
  arithmetic trailing-aligns two *different* declared symbols (e.g.
  ``(S, m) * (B,)``), which numpy only accepts when one of them happens
  to be 1 — a shape coincidence, not a contract.

Like the domain pass, this pass is flow-insensitive inside branches and
gives up (shape ``None``) rather than guess: silence is cheap, a false
alarm in CI is not.  The one asymmetry worth naming: axis *symbols* are
a shared vocabulary (:data:`repro.units.AXIS_SYMBOLS`), so ``(S, m)``
meeting a declared ``(B, L)`` is a mismatch even though every size
might coincide at runtime — that coincidence is exactly what the rules
exist to forbid.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from repro.analysis.dtypes import (
    CAST_CALLS,
    REAL_OF_COMPLEX,
    _annotated_markers,
    dtype_from_expr,
    dtype_kind,
    is_silent_downcast,
    promote,
)
from repro.analysis.engine import Finding, ModuleContext, ProjectRule, Severity
from repro.units import AXIS_SYMBOLS

if TYPE_CHECKING:
    from repro.analysis.callgraph import FunctionInfo, ProjectContext

__all__ = [
    "BatchAxisMixupRule",
    "DtypeDowncastRule",
    "ImplicitBroadcastRule",
    "ShapeCallMismatchRule",
    "declared_shapes_of",
    "shape_from_annotation",
]

_MEMO_KEY = "shapes.array_events"

# Axis tokens are ``str`` symbols, literal ``int`` extents, or ``None``
# (unknown); a shape is a tuple of tokens, or ``None`` when the whole
# shape is unknown; a declaration is a tuple of accepted shapes.

#: Sentinel dtype for Python numeric literals: they promote *weakly*
#: (``float32_array * 2.0`` stays float32), unlike a tracked array dtype.
_WEAK = "weak"

#: ``:shape <param>: (S, m) | (S, B, L)`` docstring lines.
_DOCSTRING_SHAPE_RE = re.compile(
    r"^\s*:shape\s+(?P<param>\w+)\s*:\s*(?P<spec>\([^)\n]*\)(?:\s*\|\s*\([^)\n]*\))*)\s*$",
    re.MULTILINE,
)
_SHAPE_TOKEN_RE = re.compile(r"^(?:[A-Za-z_]\w*|\d+)$")


def _parse_one_shape(text: str) -> "tuple[str | int, ...] | None":
    """``"(S, m)"`` -> ``("S", "m")``; None when any token is malformed."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        return None
    tokens: list[str | int] = []
    inner = body[1:-1].strip()
    if not inner:
        return ()
    for piece in inner.rstrip(",").split(","):
        token = piece.strip()
        if not _SHAPE_TOKEN_RE.match(token):
            return None
        tokens.append(int(token) if token.isdigit() else token)
    return tuple(tokens)


def _parse_shape_spec(spec: str) -> "tuple[tuple[str | int, ...], ...]":
    """Parse ``"(B, L) | (S, B, L)"`` into alternatives (empty on error)."""
    alternatives: list[tuple[str | int, ...]] = []
    for part in spec.split("|"):
        shape = _parse_one_shape(part)
        if shape is None:
            return ()
        alternatives.append(shape)
    return tuple(alternatives)


def shape_from_annotation(
    annotation: ast.expr | None,
) -> "tuple[str | int, ...] | None":
    """Extract ``Shape("S", "m")`` from an ``Annotated[...]`` expression."""
    for args in _annotated_markers(annotation, "Shape"):
        tokens = [
            arg.value
            for arg in args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, (str, int))
        ]
        if len(tokens) == len(args):
            return tuple(tokens)
    return None


def declared_shapes_of(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> "tuple[dict[str, tuple[tuple[str | int, ...], ...]], tuple[tuple[str | int, ...], ...] | None]":
    """Declared ``(param -> shape alternatives, return alternatives)``.

    ``Annotated[..., Shape(...)]`` markers win (one alternative);
    ``:shape p: (S, m) | (S, B, L)`` docstring lines fill in anything the
    signature leaves out — the convention for ``ArrayLike`` params and
    rank-polymorphic kernels.
    """
    params: dict[str, tuple[tuple[str | int, ...], ...]] = {}
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        shape = shape_from_annotation(arg.annotation)
        if shape is not None:
            params[arg.arg] = (shape,)
    returns: tuple[tuple[str | int, ...], ...] | None = None
    return_shape = shape_from_annotation(fn.returns)
    if return_shape is not None:
        returns = (return_shape,)

    docstring = ast.get_docstring(fn, clean=False) or ""
    for match in _DOCSTRING_SHAPE_RE.finditer(docstring):
        param = match.group("param")
        alternatives = _parse_shape_spec(match.group("spec"))
        if not alternatives:
            continue
        if param == "return":
            if returns is None:
                returns = alternatives
        elif param not in params:
            params[param] = alternatives
    return params, returns


# ---------------------------------------------------------------------------
# Shape compatibility
# ---------------------------------------------------------------------------


def _tokens_compatible(found: "str | int | None", declared: "str | int") -> bool:
    """May a tracked axis ``found`` satisfy a declared axis?

    Unknown matches anything; ints must agree; an int meeting a symbol
    is accepted (the symbol binds that size); two symbols must be the
    *same* symbol — the shared-vocabulary rule that makes ``(S, m)`` vs
    ``(m, S)`` detectable at all.
    """
    if found is None:
        return True
    if isinstance(found, int) and isinstance(declared, int):
        return found == declared
    if isinstance(found, int) or isinstance(declared, int):
        return True
    return found == declared


def _shape_matches(
    found: "tuple[str | int | None, ...]", declared: "tuple[str | int, ...]"
) -> bool:
    return len(found) == len(declared) and all(
        _tokens_compatible(f, d) for f, d in zip(found, declared)
    )


def _is_permutation(
    found: "tuple[str | int | None, ...]", declared: "tuple[str | int, ...]"
) -> bool:
    """Same known symbols, different order — the VH502 signature."""
    if len(found) != len(declared) or len(found) < 2:
        return False
    if not all(isinstance(t, str) for t in found):
        return False
    if not all(isinstance(t, str) for t in declared):
        return False
    return sorted(found) == sorted(declared) and tuple(found) != tuple(declared)  # type: ignore[type-var]


def _fmt(shape: "Sequence[str | int | None]") -> str:
    return "(" + ", ".join("?" if t is None else str(t) for t in shape) + ")"


def _fmt_alternatives(alternatives: "Sequence[tuple[str | int, ...]]") -> str:
    return " | ".join(_fmt(a) for a in alternatives)


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ArrayVal:
    """Abstract array value: symbolic shape (or None) + dtype (or None)."""

    shape: "tuple[str | int | None, ...] | None" = None
    dtype: str | None = None

    @property
    def empty(self) -> bool:
        return self.shape is None and self.dtype is None


_UNKNOWN = _ArrayVal()


@dataclass(frozen=True)
class _Binding:
    val: _ArrayVal
    origin: str


@dataclass(frozen=True)
class _Event:
    rule: str
    path: str
    line: int
    col: int
    message: str
    trace: tuple[str, ...]


#: Shape- and dtype-transparent calls: result mirrors the first argument.
_PASSTHROUGH_CALLS = frozenset(
    {
        "numpy.ascontiguousarray",
        "numpy.copy",
        "numpy.unwrap",
        "numpy.sort",
        "numpy.flip",
        "numpy.clip",
        "numpy.cumsum",
        "numpy.gradient",
        "numpy.fft.fftshift",
    }
)

#: Elementwise float-producing ufuncs: shape passes through, int
#: inputs promote to float64, float/complex widths are preserved.
_FLOAT_UFUNCS = frozenset(
    {
        "numpy.sin",
        "numpy.cos",
        "numpy.tan",
        "numpy.exp",
        "numpy.sqrt",
        "numpy.log",
        "numpy.log10",
        "numpy.arcsin",
        "numpy.arccos",
        "numpy.arctan",
        "numpy.deg2rad",
        "numpy.rad2deg",
        "numpy.radians",
        "numpy.degrees",
    }
)

#: Axis-dropping reductions (``axis=`` int literal drops that axis, no
#: axis collapses to a scalar, ``keepdims`` makes us give up).
_REDUCTIONS = frozenset(
    {
        "numpy.sum",
        "numpy.mean",
        "numpy.median",
        "numpy.std",
        "numpy.var",
        "numpy.max",
        "numpy.min",
        "numpy.amax",
        "numpy.amin",
        "numpy.argmax",
        "numpy.argmin",
        "numpy.prod",
        "numpy.nanmean",
        "numpy.nansum",
    }
)

_REDUCTION_METHODS = frozenset(
    {"sum", "mean", "std", "var", "max", "min", "argmax", "argmin", "prod"}
)


class _ShapePass:
    """One function body, one forward pass, shapes/dtypes in, events out."""

    def __init__(self, info: "FunctionInfo", project: "ProjectContext") -> None:
        self.info = info
        self.project = project
        self.module = project.module_of(info)
        self.events: list[_Event] = []
        self.env: dict[str, _Binding] = {}
        for name in [*info.positional, *info.kwonly]:
            alternatives = info.declared_shapes.get(name)
            shape = (
                alternatives[0]
                if alternatives is not None and len(alternatives) == 1
                else None
            )
            dtype = info.declared_dtypes.get(name)
            if shape is None and dtype is None:
                continue
            self.env[name] = _Binding(
                _ArrayVal(shape, dtype),
                f"{self.module.rel_path}:{info.node.lineno}: parameter "
                f"`{name}` declared "
                + (f"{_fmt(shape)}" if shape is not None else f"[{dtype}]"),
            )

    # ------------------------------------------------------------ plumbing

    def _where(self, node: ast.AST) -> str:
        return f"{self.module.rel_path}:{getattr(node, 'lineno', self.info.node.lineno)}"

    def _emit(
        self, rule: str, node: ast.AST, message: str, trace: tuple[str, ...]
    ) -> None:
        self.events.append(
            _Event(
                rule=rule,
                path=self.module.rel_path,
                line=getattr(node, "lineno", self.info.node.lineno),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                trace=trace[:4],
            )
        )

    def _bind(self, name: str, val: _ArrayVal, node: ast.AST, source: str) -> None:
        if val.empty:
            self.env.pop(name, None)
            return
        label = _fmt(val.shape) if val.shape is not None else f"[{val.dtype}]"
        self.env[name] = _Binding(
            val, f"{self._where(node)}: `{name}` <- {source} {label}"
        )

    def _trace_of(self, node: ast.expr) -> tuple[str, ...]:
        steps: list[str] = []
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and child.id in self.env:
                origin = self.env[child.id].origin
                if origin not in steps:
                    steps.append(origin)
        return tuple(steps[:3])

    # ---------------------------------------------------------- statements

    def run(self) -> None:
        self._run_body(self.info.node.body)

    def _run_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._run_stmt(stmt)

    def _run_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            val = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, val, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            from repro.analysis.dtypes import dtype_from_annotation

            declared_shape = shape_from_annotation(stmt.annotation)
            declared_dtype = dtype_from_annotation(stmt.annotation)
            val = self._eval(stmt.value) if stmt.value is not None else _UNKNOWN
            if declared_shape is not None and val.shape is not None:
                self._check_shape(
                    stmt.value if stmt.value is not None else stmt,
                    val.shape,
                    (declared_shape,),
                    context="annotated assignment",
                )
            self._check_dtype(
                stmt.value if stmt.value is not None else stmt,
                val.dtype,
                declared_dtype,
                context="annotated assignment",
            )
            if isinstance(stmt.target, ast.Name):
                chosen = _ArrayVal(
                    declared_shape if declared_shape is not None else val.shape,
                    declared_dtype if declared_dtype is not None else val.dtype,
                )
                self._bind(stmt.target.id, chosen, stmt, "annotated assignment")
        elif isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                current = self.env.get(stmt.target.id)
                combined = self._broadcast(
                    stmt,
                    current.val if current else _UNKNOWN,
                    value,
                    stmt.target,
                    stmt.value,
                )
                self._bind(stmt.target.id, combined, stmt, "augmented assignment")
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                val = self._eval(stmt.value)
                declared = self.info.declared_shape_return
                if declared is not None and val.shape is not None:
                    self._check_shape(
                        stmt.value,
                        val.shape,
                        declared,
                        context=f"return from `{self.info.qualname}`",
                    )
                self._check_dtype(
                    stmt.value,
                    val.dtype,
                    self.info.declared_dtype_return,
                    context=f"return from `{self.info.qualname}`",
                    symmetric=True,
                )
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test)
            self._run_body(stmt.body)
            self._run_body(stmt.orelse)
        elif isinstance(stmt, ast.For):
            iter_val = self._eval(stmt.iter)
            if isinstance(stmt.target, ast.Name):
                element = (
                    _ArrayVal(iter_val.shape[1:], iter_val.dtype)
                    if iter_val.shape is not None and len(iter_val.shape) >= 1
                    else _ArrayVal(None, iter_val.dtype)
                )
                self._bind(stmt.target.id, element, stmt, _describe(stmt.iter))
            self._run_body(stmt.body)
            self._run_body(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr)
            self._run_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._run_body(stmt.body)
            for handler in stmt.handlers:
                self._run_body(handler.body)
            self._run_body(stmt.orelse)
            self._run_body(stmt.finalbody)
        elif isinstance(stmt, (ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)
        # Nested defs/classes are indexed as their own functions.

    def _assign_target(
        self, target: ast.expr, val: _ArrayVal, value: ast.expr
    ) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, val, target, _describe(value))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self.env.pop(element.id, None)

    # --------------------------------------------------------- expressions

    def _eval(self, node: ast.expr) -> _ArrayVal:
        if isinstance(node, ast.Name):
            binding = self.env.get(node.id)
            return binding.val if binding else _UNKNOWN
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float, complex)
            ):
                return _UNKNOWN
            return _ArrayVal((), _WEAK)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left)
            right = self._eval(node.right)
            if isinstance(node.op, (ast.MatMult, ast.BitAnd, ast.BitOr, ast.BitXor)):
                return _UNKNOWN
            return self._broadcast(node, left, right, node.left, node.right)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            body = self._eval(node.body)
            orelse = self._eval(node.orelse)
            return body if body == orelse else _UNKNOWN
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            for comparator in node.comparators:
                self._eval(comparator)
            return _UNKNOWN
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._eval(value)
            return _UNKNOWN
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self._eval(element)
            return _UNKNOWN
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        return _UNKNOWN

    def _eval_attribute(self, node: ast.Attribute) -> _ArrayVal:
        receiver = self._eval(node.value)
        if node.attr == "T":
            shape = (
                tuple(reversed(receiver.shape))
                if receiver.shape is not None
                else None
            )
            return _ArrayVal(shape, receiver.dtype)
        if node.attr in ("real", "imag"):
            dtype = (
                REAL_OF_COMPLEX.get(receiver.dtype, receiver.dtype)
                if receiver.dtype is not None
                else None
            )
            return _ArrayVal(receiver.shape, dtype)
        return _UNKNOWN

    def _eval_subscript(self, node: ast.Subscript) -> _ArrayVal:
        receiver = self._eval(node.value)
        if isinstance(node.slice, ast.expr):
            self._eval(node.slice)
        if receiver.shape is None:
            return _ArrayVal(None, receiver.dtype)
        items = (
            list(node.slice.elts)
            if isinstance(node.slice, ast.Tuple)
            else [node.slice]
        )
        shape: list[str | int | None] = []
        remaining = list(receiver.shape)
        for item in items:
            index = _literal_int(item)
            if isinstance(item, ast.Slice):
                if not remaining:
                    return _ArrayVal(None, receiver.dtype)
                axis = remaining.pop(0)
                full = item.lower is None and item.upper is None and item.step is None
                shape.append(axis if full else None)
            elif index is not None:
                if not remaining:
                    return _ArrayVal(None, receiver.dtype)
                remaining.pop(0)
            elif isinstance(item, ast.Constant) and item.value is None:
                shape.append(1)  # np.newaxis
            else:
                return _ArrayVal(None, receiver.dtype)  # fancy/unknown indexing
        shape.extend(remaining)
        return _ArrayVal(tuple(shape), receiver.dtype)

    # -------------------------------------------------------------- calls

    def _eval_call(self, node: ast.Call) -> _ArrayVal:
        if isinstance(node.func, ast.Attribute):
            # A dotted call whose root is a tracked local is an array
            # method call (`phases.astype(...)`), not a module function:
            # `call_name` spells both as dotted names, so disambiguate
            # by the environment before canonical resolution.
            root: ast.expr = node.func.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in self.env:
                return self._eval_method_call(node)
        name = self.module.call_name(node)
        if name is None and isinstance(node.func, ast.Attribute):
            return self._eval_method_call(node)
        canonical = (
            self.project.canonical_call(name, module=self.info.module)
            if name is not None
            else None
        )
        arg_vals = [self._eval(arg) for arg in node.args]
        kw_vals = {
            kw.arg: self._eval(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        if canonical is None:
            return _UNKNOWN

        external = self._eval_external(node, canonical, arg_vals, kw_vals)
        if external is not None:
            return external

        info = self.project.functions.get(canonical)
        if info is None:
            return _UNKNOWN
        self._check_call(node, name or canonical, info, arg_vals, kw_vals)
        returns = info.declared_shape_return
        shape = returns[0] if returns is not None and len(returns) == 1 else None
        return _ArrayVal(shape, info.declared_dtype_return)

    def _eval_external(
        self,
        node: ast.Call,
        canonical: str,
        arg_vals: list[_ArrayVal],
        kw_vals: dict[str, _ArrayVal],
    ) -> _ArrayVal | None:
        """Shape/dtype effect of a known numpy/builtin call, else None."""
        first = arg_vals[0] if arg_vals else _UNKNOWN

        if canonical in CAST_CALLS:
            return _ArrayVal(first.shape, CAST_CALLS[canonical])
        if canonical in ("numpy.asarray", "numpy.array"):
            dtype = dtype_from_expr(_kw_node(node, "dtype"))
            if dtype is None and len(node.args) >= 2:
                dtype = dtype_from_expr(node.args[1])
            return _ArrayVal(first.shape, dtype if dtype is not None else first.dtype)
        if canonical in _PASSTHROUGH_CALLS:
            return first
        if canonical in _FLOAT_UFUNCS:
            dtype = first.dtype
            if dtype is not None and dtype_kind(dtype) in ("int", "bool"):
                dtype = "float64"
            return _ArrayVal(first.shape, dtype)
        if canonical in ("numpy.abs", "numpy.absolute", "abs"):
            dtype = (
                REAL_OF_COMPLEX.get(first.dtype, first.dtype)
                if first.dtype is not None
                else None
            )
            return _ArrayVal(first.shape, dtype)
        if canonical == "numpy.angle":
            return _ArrayVal(first.shape, "float64")
        if canonical == "numpy.stack":
            return self._eval_stack(node)
        if canonical == "numpy.concatenate":
            return self._eval_concatenate(node)
        if canonical == "numpy.transpose":
            return self._eval_transpose(node, first)
        if canonical == "numpy.swapaxes" and len(node.args) == 3:
            return _ArrayVal(
                _swap(first.shape, _literal_int(node.args[1]), _literal_int(node.args[2])),
                first.dtype,
            )
        if canonical == "numpy.expand_dims" and len(node.args) == 2:
            axis = _literal_int(node.args[1])
            if first.shape is not None and axis is not None:
                pos = axis if axis >= 0 else len(first.shape) + 1 + axis
                if 0 <= pos <= len(first.shape):
                    shape = first.shape[:pos] + (1,) + first.shape[pos:]
                    return _ArrayVal(shape, first.dtype)
            return _ArrayVal(None, first.dtype)
        if canonical == "numpy.squeeze":
            return self._squeeze(first, _axis_of(node))
        if canonical in _REDUCTIONS:
            return self._reduce(first, node, canonical)
        if canonical == "numpy.diff":
            if first.shape is not None and len(first.shape) >= 1:
                return _ArrayVal(first.shape[:-1] + (None,), first.dtype)
            return _ArrayVal(None, first.dtype)
        if canonical in ("numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full"):
            dtype = dtype_from_expr(_kw_node(node, "dtype"))
            shape = _literal_shape(node.args[0]) if node.args else None
            return _ArrayVal(shape, dtype if dtype is not None else "float64")
        if canonical in (
            "numpy.zeros_like",
            "numpy.ones_like",
            "numpy.empty_like",
            "numpy.full_like",
        ):
            dtype = dtype_from_expr(_kw_node(node, "dtype"))
            return _ArrayVal(first.shape, dtype if dtype is not None else first.dtype)
        if canonical == "numpy.where" and len(node.args) == 3:
            a, b = arg_vals[1], arg_vals[2]
            shape = a.shape if a.shape == b.shape else None
            return _ArrayVal(shape, promote(a.dtype, b.dtype))
        if canonical == "numpy.interp" and len(node.args) >= 3:
            return _ArrayVal(arg_vals[0].shape, "float64")
        if canonical in ("numpy.atleast_1d", "numpy.atleast_2d", "numpy.ravel"):
            return _ArrayVal(None, first.dtype)
        if canonical == "numpy.reshape":
            return _ArrayVal(None, first.dtype)
        return None

    def _eval_stack(self, node: ast.Call) -> _ArrayVal:
        if not node.args or not isinstance(node.args[0], (ast.List, ast.Tuple)):
            return _UNKNOWN
        elements = [self._eval(el) for el in node.args[0].elts]
        if not elements:
            return _UNKNOWN
        shapes = {el.shape for el in elements}
        dtype = elements[0].dtype
        for el in elements[1:]:
            dtype = promote(dtype, el.dtype) if dtype != el.dtype else dtype
        if len(shapes) != 1 or None in shapes:
            return _ArrayVal(None, dtype)
        base = elements[0].shape
        assert base is not None
        axis = _axis_of(node) or 0
        pos = axis if axis >= 0 else len(base) + 1 + axis
        if not 0 <= pos <= len(base):
            return _ArrayVal(None, dtype)
        return _ArrayVal(base[:pos] + (len(elements),) + base[pos:], dtype)

    def _eval_concatenate(self, node: ast.Call) -> _ArrayVal:
        if not node.args or not isinstance(node.args[0], (ast.List, ast.Tuple)):
            return _UNKNOWN
        elements = [self._eval(el) for el in node.args[0].elts]
        shapes = {el.shape for el in elements}
        if len(shapes) != 1 or None in shapes or not elements:
            return _UNKNOWN
        base = elements[0].shape
        assert base is not None
        axis = _axis_of(node) or 0
        pos = axis if axis >= 0 else len(base) + axis
        if not 0 <= pos < len(base):
            return _UNKNOWN
        shape = base[:pos] + (None,) + base[pos + 1:]
        return _ArrayVal(shape, elements[0].dtype)

    def _eval_transpose(self, node: ast.Call, first: _ArrayVal) -> _ArrayVal:
        if first.shape is None:
            return _ArrayVal(None, first.dtype)
        if len(node.args) <= 1:
            return _ArrayVal(tuple(reversed(first.shape)), first.dtype)
        axes_node = node.args[1]
        axes = (
            [_literal_int(el) for el in axes_node.elts]
            if isinstance(axes_node, (ast.Tuple, ast.List))
            else None
        )
        if (
            axes is None
            or None in axes
            or sorted(axes) != list(range(len(first.shape)))  # type: ignore[type-var]
        ):
            return _ArrayVal(None, first.dtype)
        return _ArrayVal(tuple(first.shape[i] for i in axes), first.dtype)  # type: ignore[index]

    def _eval_method_call(self, node: ast.Call) -> _ArrayVal:
        func = node.func
        assert isinstance(func, ast.Attribute)
        receiver = self._eval(func.value)
        for arg in node.args:
            self._eval(arg)
        for kw in node.keywords:
            self._eval(kw.value)
        method = func.attr
        if method == "astype":
            dtype = dtype_from_expr(node.args[0]) if node.args else None
            if dtype is None:
                dtype = dtype_from_expr(_kw_node(node, "dtype"))
            return _ArrayVal(receiver.shape, dtype)
        if method == "copy":
            return receiver
        if method == "transpose":
            return self._eval_transpose(node, receiver) if not node.args else _ArrayVal(
                None, receiver.dtype
            )
        if method == "swapaxes" and len(node.args) == 2:
            return _ArrayVal(
                _swap(receiver.shape, _literal_int(node.args[0]), _literal_int(node.args[1])),
                receiver.dtype,
            )
        if method == "squeeze":
            return self._squeeze(receiver, _axis_of(node, position=0))
        if method in ("reshape", "ravel", "flatten"):
            return _ArrayVal(None, receiver.dtype)
        if method in _REDUCTION_METHODS:
            return self._reduce(receiver, node, method, axis_position=0)
        if method == "item":
            return _ArrayVal((), receiver.dtype)
        return _UNKNOWN

    def _squeeze(self, receiver: _ArrayVal, axis: int | None) -> _ArrayVal:
        if receiver.shape is None:
            return _ArrayVal(None, receiver.dtype)
        if axis is not None:
            pos = axis if axis >= 0 else len(receiver.shape) + axis
            if 0 <= pos < len(receiver.shape):
                shape = receiver.shape[:pos] + receiver.shape[pos + 1:]
                return _ArrayVal(shape, receiver.dtype)
            return _ArrayVal(None, receiver.dtype)
        if all(isinstance(t, int) for t in receiver.shape):
            shape = tuple(t for t in receiver.shape if t != 1)
            return _ArrayVal(shape, receiver.dtype)
        return _ArrayVal(None, receiver.dtype)  # symbolic axes: can't prove != 1

    def _reduce(
        self,
        receiver: _ArrayVal,
        node: ast.Call,
        name: str,
        axis_position: int = 1,
    ) -> _ArrayVal:
        dtype = receiver.dtype
        if dtype is not None and name in ("numpy.mean", "numpy.nanmean", "mean"):
            if dtype_kind(dtype) in ("int", "bool"):
                dtype = "float64"
        if name in ("numpy.argmax", "numpy.argmin", "argmax", "argmin"):
            dtype = "int64"
        if any(kw.arg == "keepdims" for kw in node.keywords):
            return _ArrayVal(None, dtype)
        axis = _axis_of(node, position=axis_position)
        if receiver.shape is None:
            return _ArrayVal(None, dtype)
        if axis is None:
            has_axis_kw = any(kw.arg == "axis" for kw in node.keywords) or (
                len(node.args) > axis_position
            )
            return _ArrayVal(None if has_axis_kw else (), dtype)
        pos = axis if axis >= 0 else len(receiver.shape) + axis
        if 0 <= pos < len(receiver.shape):
            return _ArrayVal(
                receiver.shape[:pos] + receiver.shape[pos + 1:], dtype
            )
        return _ArrayVal(None, dtype)

    # ------------------------------------------------------------- checks

    def _check_call(
        self,
        node: ast.Call,
        spelled: str,
        info: "FunctionInfo",
        arg_vals: list[_ArrayVal],
        kw_vals: dict[str, _ArrayVal],
    ) -> None:
        names = [*info.positional, *info.kwonly]
        pairs: list[tuple[str, _ArrayVal, ast.expr]] = []
        for index, val in enumerate(arg_vals):
            if index < len(info.positional):
                pairs.append((info.positional[index], val, node.args[index]))
        for keyword, val in kw_vals.items():
            if keyword in names:
                kw_node = next(
                    (kw.value for kw in node.keywords if kw.arg == keyword), node
                )
                pairs.append((keyword, val, kw_node))
        for param, val, arg_node in pairs:
            alternatives = info.declared_shapes.get(param)
            if alternatives is not None and val.shape is not None:
                if not any(_shape_matches(val.shape, alt) for alt in alternatives):
                    permuted = any(
                        _is_permutation(val.shape, alt) for alt in alternatives
                    )
                    rule = "VH502" if permuted else "VH501"
                    kind = (
                        "batch-axis mixup: argument"
                        if permuted
                        else "shape mismatch: argument"
                    )
                    self._emit(
                        rule,
                        arg_node,
                        f"{kind} {_fmt(val.shape)} passed to "
                        f"`{info.qualname}` parameter `{param}` declared "
                        f"{_fmt_alternatives(alternatives)}"
                        + (
                            "; the axes are a permutation of the declared "
                            "order — transpose back before the call, "
                            "broadcasting will not save you here"
                            if permuted
                            else ""
                        ),
                        self._trace_of(arg_node)
                        + (
                            f"{self._where(node)}: passed to `{spelled}` "
                            f"(`{param}`: {_fmt_alternatives(alternatives)})",
                        ),
                    )
            declared_dtype = info.declared_dtypes.get(param)
            if (
                declared_dtype is not None
                and val.dtype is not None
                and val.dtype != _WEAK
                and is_silent_downcast(val.dtype, declared_dtype)
            ):
                self._emit(
                    "VH503",
                    arg_node,
                    f"silent dtype downcast: [{val.dtype}] value passed to "
                    f"`{info.qualname}` parameter `{param}` declared "
                    f"[{declared_dtype}]; cast explicitly "
                    f"(`.astype(np.{declared_dtype})`) if the narrowing is "
                    "intended",
                    self._trace_of(arg_node)
                    + (
                        f"{self._where(node)}: passed to `{spelled}` "
                        f"(`{param}`: [{declared_dtype}])",
                    ),
                )

    def _check_shape(
        self,
        node: ast.AST,
        found: "tuple[str | int | None, ...]",
        alternatives: "tuple[tuple[str | int, ...], ...]",
        context: str,
    ) -> None:
        if any(_shape_matches(found, alt) for alt in alternatives):
            return
        permuted = any(_is_permutation(found, alt) for alt in alternatives)
        if permuted:
            rule = "VH502"
            message = (
                f"{context}: batch-axis mixup — axes {_fmt(found)} are a "
                f"permutation of the declared {_fmt_alternatives(alternatives)}"
            )
        else:
            rule = "VH501"
            message = (
                f"{context}: value of shape {_fmt(found)} flows where "
                f"{_fmt_alternatives(alternatives)} is declared"
            )
        trace = self._trace_of(node) if isinstance(node, ast.expr) else ()
        self._emit(rule, node, message, trace)

    def _check_dtype(
        self,
        node: ast.AST,
        found: str | None,
        declared: str | None,
        context: str,
        symmetric: bool = False,
    ) -> None:
        """Flag a silent downcast between ``found`` and ``declared``.

        At a call site only ``found -> declared`` narrowing is a hazard
        (the callee treats the wider value as the declared dtype).  At a
        return boundary (``symmetric=True``) the reverse direction also
        diverges: returning float32 where float64 is promised silently
        degrades every caller's precision.
        """
        if found is None or declared is None or found == _WEAK:
            return
        narrowing = is_silent_downcast(found, declared) or (
            symmetric and is_silent_downcast(declared, found)
        )
        if not narrowing:
            return
        trace = self._trace_of(node) if isinstance(node, ast.expr) else ()
        self._emit(
            "VH503",
            node,
            f"{context}: silent dtype downcast — [{found}] value where "
            f"[{declared}] is declared; cast explicitly "
            f"(`.astype(np.{declared})`) if the narrowing is intended",
            trace,
        )

    def _broadcast(
        self,
        node: ast.AST,
        left: _ArrayVal,
        right: _ArrayVal,
        left_node: ast.expr,
        right_node: ast.expr,
    ) -> _ArrayVal:
        dtype = (
            right.dtype
            if left.dtype == _WEAK
            else left.dtype
            if right.dtype == _WEAK
            else promote(left.dtype, right.dtype)
        )
        if left.shape is None or right.shape is None:
            return _ArrayVal(None, dtype)
        longer, shorter = (
            (left.shape, right.shape)
            if len(left.shape) >= len(right.shape)
            else (right.shape, left.shape)
        )
        offset = len(longer) - len(shorter)
        merged: list[str | int | None] = list(longer[:offset])
        ok = True
        for a, b in zip(longer[offset:], shorter):
            if a == b:
                merged.append(a)
            elif a is None or b is None:
                merged.append(None)
            elif a == 1:
                merged.append(b)
            elif b == 1:
                merged.append(a)
            else:
                # Two different known, non-1 axes aligned: numpy only
                # accepts this when one *happens* to be 1 at runtime.
                self._emit(
                    "VH504",
                    node,
                    f"implicit broadcast across declared axes: "
                    f"{_fmt(left.shape)} with {_fmt(right.shape)} aligns "
                    f"`{a}` against `{b}`; reshape or index explicitly so "
                    "the pairing is visible",
                    self._trace_of(left_node) + self._trace_of(right_node),
                )
                ok = False
                break
        if not ok:
            return _ArrayVal(None, dtype)
        return _ArrayVal(tuple(merged), dtype)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _kw_node(node: ast.Call, keyword: str) -> ast.expr | None:
    for kw in node.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def _literal_int(node: ast.expr) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int) and not isinstance(node.value, bool):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, int)
    ):
        return -node.operand.value
    return None


def _literal_shape(node: ast.expr) -> "tuple[str | int | None, ...] | None":
    if isinstance(node, (ast.Tuple, ast.List)):
        tokens = [_literal_int(el) for el in node.elts]
        return tuple(tokens)
    single = _literal_int(node)
    return (single,) if single is not None else None


def _axis_of(node: ast.Call, position: int = 1) -> int | None:
    for kw in node.keywords:
        if kw.arg == "axis":
            return _literal_int(kw.value)
    if len(node.args) > position:
        return _literal_int(node.args[position])
    return None


def _swap(
    shape: "tuple[str | int | None, ...] | None", i: int | None, j: int | None
) -> "tuple[str | int | None, ...] | None":
    if shape is None or i is None or j is None:
        return None
    rank = len(shape)
    i = i if i >= 0 else rank + i
    j = j if j >= 0 else rank + j
    if not (0 <= i < rank and 0 <= j < rank):
        return None
    out = list(shape)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def _describe(node: ast.expr | None) -> str:
    if node is None:
        return "assignment"
    if isinstance(node, ast.Call):
        return f"{ast.unparse(node.func)}(...)"
    if isinstance(node, ast.Name):
        return f"`{node.id}`"
    return type(node).__name__.lower()


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


def _array_events(project: "ProjectContext") -> list[_Event]:
    cached = project.memo.get(_MEMO_KEY)
    if cached is not None:
        return cached  # type: ignore[return-value]
    events: list[_Event] = []
    seen: set[tuple[str, int, int, str, str]] = set()
    for info in project.functions.values():
        pass_ = _ShapePass(info, project)
        pass_.run()
        for event in pass_.events:
            key = (event.path, event.line, event.col, event.rule, event.message)
            if key not in seen:
                seen.add(key)
                events.append(event)
    events.sort(key=lambda e: (e.path, e.line, e.col, e.rule))
    project.memo[_MEMO_KEY] = events
    return events


class _ArrayFlowRule(ProjectRule):
    """Shared scaffolding: each concrete rule reports its slice of the
    one shape/dtype pass (memoised on the project context)."""

    severity = Severity.ERROR

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        for event in _array_events(project):
            if event.rule == self.id:
                yield Finding(
                    path=event.path,
                    line=event.line,
                    col=event.col,
                    rule=self.id,
                    severity=self.severity,
                    message=event.message,
                    trace=event.trace,
                )


class ShapeCallMismatchRule(_ArrayFlowRule):
    id = "VH501"
    name = "shape-call-mismatch"
    description = "call-site argument shape contradicts the callee's declared axes"
    rationale = (
        "The batched path stacks (S, m) queries against (B, L) candidate "
        "banks; one wrong rank or axis symbol at a kernel boundary and "
        "broadcasting manufactures a plausible-looking wrong answer instead "
        "of an error. Declared axes make the contract checkable at every "
        "project-internal call site."
    )
    example = (
        "def stacked(queries):\n"
        '    """:shape queries: (S, m)"""\n'
        "\n"
        "def caller(windows):\n"
        '    """:shape windows: (W, m)"""\n'
        "    return stacked(windows)  # VH501: (W, m) where (S, m) declared"
    )


class BatchAxisMixupRule(_ArrayFlowRule):
    id = "VH502"
    name = "batch-axis-mixup"
    description = "argument axes are a permutation of the declared ones (transposed batch)"
    rationale = (
        "A transposed stack — (m, S) where (S, m) is declared — is the most "
        "dangerous shape bug in a fleet-batched pipeline: when S == m (or "
        "after broadcasting pads it out) every session silently receives "
        "another session's estimate. Permutations are separated from plain "
        "mismatches (VH501) because the fix is different: transpose back at "
        "the producer, don't reshape at the consumer."
    )
    example = (
        "def stacked(queries):\n"
        '    """:shape queries: (S, m)"""\n'
        "\n"
        "def caller(queries):\n"
        '    """:shape queries: (S, m)"""\n'
        "    return stacked(queries.T)  # VH502: (m, S) is (S, m) transposed"
    )


class DtypeDowncastRule(_ArrayFlowRule):
    id = "VH503"
    name = "silent-dtype-downcast"
    description = "complex->real or float64->float32 narrowing with no visible cast"
    rationale = (
        "CSI phase lives in the complex argument; a complex value landing in "
        "a real slot silently discards it, and float64->float32 halves the "
        "mantissa mid-pipeline — both produce answers, not errors. An "
        "explicit `.astype(...)` (or `np.float32(...)`) re-pins the tracked "
        "dtype and is never flagged: the rule's demand is only that "
        "narrowing be visible in source."
    )
    example = (
        "def power(csi):\n"
        '    """:dtype csi: complex128"""\n'
        "    x: Annotated[np.ndarray, DType(\"float64\")] = csi  # VH503\n"
        "    y = np.abs(csi)  # fine: |.| is the explicit magnitude"
    )


class ImplicitBroadcastRule(_ArrayFlowRule):
    id = "VH504"
    name = "implicit-axis-broadcast"
    description = "elementwise arithmetic trailing-aligns two different declared axes"
    rationale = (
        "numpy broadcasting pairs axes by position from the right, not by "
        "meaning: (S, m) * (B,) runs whenever B happens to equal m and "
        "produces per-session garbage. If two differently-named axes must "
        "interact, the pairing has to be spelled out (reshape, newaxis, or "
        "an explicit loop) so the intent survives review."
    )
    example = (
        "def weight(queries, bank_scale):\n"
        '    """\n'
        "    :shape queries: (S, m)\n"
        "    :shape bank_scale: (B,)\n"
        '    """\n'
        "    return queries * bank_scale  # VH504: aligns `m` against `B`"
    )
