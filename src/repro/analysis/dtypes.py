"""The numeric-dtype lattice and declaration parsing for the VH5xx rules.

Static mirror of :class:`repro.units.DType`: this module knows which
dtype transitions lose information (``complex128 -> float64`` drops the
phase, ``float64 -> float32`` halves the mantissa), how an
``Annotated[..., DType("...")]`` marker names a dtype (the ``:dtype
name: ...`` docstring lines are read with the other declared contracts,
by :func:`repro.analysis.callgraph.declared_contracts`), how arithmetic
promotes dtypes, and what the
relevant numpy callables do to dtypes (``np.angle`` of a complex array
is ``float64``; ``np.abs`` of ``complex128`` is its ``float64``
magnitude; ``astype``/``asarray(dtype=...)`` are *explicit* casts that
re-pin the tracked dtype and therefore silence VH503).

Everything here is plain data + pure functions so that
:mod:`repro.analysis.shapes` stays focused on propagation.
"""

from __future__ import annotations

import ast
from collections.abc import Collection, Iterator

from repro.units import DTYPE_NAMES

__all__ = [
    "CAST_CALLS",
    "REAL_OF_COMPLEX",
    "dtype_from_annotation",
    "dtype_from_expr",
    "dtype_kind",
    "dtype_width",
    "is_silent_downcast",
    "promote",
]

#: kind ordering for promotion: bool < int < float < complex.
_KIND_ORDER = ("bool", "int", "float", "complex")

#: Magnitude/real-part dtype of each complex width.
REAL_OF_COMPLEX = {"complex128": "float64", "complex64": "float32"}

#: Calls that *are* an explicit cast: canonical dotted name -> produced
#: dtype.  An explicit cast re-pins the tracked dtype, so a value routed
#: through one never trips VH503 — that is the remediation the rule asks
#: for ("make the narrowing visible in source").
CAST_CALLS: dict[str, str] = {
    "numpy.float32": "float32",
    "numpy.float64": "float64",
    "numpy.complex64": "complex64",
    "numpy.complex128": "complex128",
    "numpy.int32": "int32",
    "numpy.int64": "int64",
    "float": "float64",
    "int": "int64",
    "bool": "bool",
}


def dtype_kind(name: str) -> str:
    """``bool`` / ``int`` / ``float`` / ``complex`` family of a dtype."""
    for kind in ("complex", "float", "int"):
        if name.startswith(kind):
            return kind
    return "bool"


def dtype_width(name: str) -> int:
    """Bit width of a dtype name (``bool`` counts as 8)."""
    digits = "".join(ch for ch in name if ch.isdigit())
    return int(digits) if digits else 8


def is_silent_downcast(src: str, dst: str) -> bool:
    """True when assigning a ``src`` value to a ``dst`` slot loses information.

    The VH503 transitions: any complex value landing in a non-complex
    slot (the phase — the quantity this whole pipeline tracks — is
    discarded), and any float/complex narrowing (``float64 -> float32``,
    ``complex128 -> complex64``).  Integer narrowing is out of scope:
    the estimation path carries no int arrays whose width matters.
    """
    if src == dst:
        return False
    src_kind, dst_kind = dtype_kind(src), dtype_kind(dst)
    if src_kind == "complex" and dst_kind != "complex":
        return True
    if src_kind in ("float", "complex") and src_kind == dst_kind:
        return dtype_width(dst) < dtype_width(src)
    return False


def promote(a: str | None, b: str | None) -> str | None:
    """Result dtype of elementwise arithmetic between ``a`` and ``b``.

    Mirrors numpy's same-kind promotion (wider width wins, complex
    beats float beats int); returns ``None`` when either side is
    unknown or the pair needs value-dependent casting rules.
    """
    if a is None or b is None:
        return None
    if a == b:
        return a
    ka, kb = dtype_kind(a), dtype_kind(b)
    if ka == kb:
        return a if dtype_width(a) >= dtype_width(b) else b
    # Cross-kind: the higher kind wins at its own width when the lower
    # kind fits (float64 + int64 -> float64, complex128 + float64 ->
    # complex128).  Mixed widths across kinds (complex64 + float64)
    # follow numpy rules we don't reproduce — give up.
    hi, lo = (a, b) if _KIND_ORDER.index(ka) > _KIND_ORDER.index(kb) else (b, a)
    if dtype_width(hi) >= dtype_width(lo) or dtype_kind(lo) in ("bool", "int"):
        return hi
    return None


def _final_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _annotated_markers(
    annotation: ast.expr | None, marker: str
) -> Iterator[list[ast.expr]]:
    """Argument lists of the ``marker(...)`` calls in ``Annotated[...]``.

    Matches syntactically: ``Annotated`` and the marker under any import
    spelling whose final attribute matches (``typing.Annotated``,
    ``t.Annotated``, a bare ``Annotated``).  The one reader behind the
    ``DType``, ``Domain`` and ``Shape`` annotation parsers.
    """
    if not isinstance(annotation, ast.Subscript):
        return
    if _final_name(annotation.value) != "Annotated":
        return
    inner = annotation.slice
    for meta in inner.elts[1:] if isinstance(inner, ast.Tuple) else ():
        if isinstance(meta, ast.Call) and _final_name(meta.func) == marker:
            yield meta.args


def _annotated_name(
    annotation: ast.expr | None, marker: str, names: Collection[str]
) -> str | None:
    """The first ``marker("name")`` in ``Annotated[...]`` naming one of
    ``names``, or None."""
    for args in _annotated_markers(annotation, marker):
        first = args[0] if args else None
        if (
            isinstance(first, ast.Constant)
            and isinstance(first.value, str)
            and first.value in names
        ):
            return first.value
    return None


def dtype_from_annotation(annotation: ast.expr | None) -> str | None:
    """Extract ``DType("...")`` from an ``Annotated[...]`` expression."""
    return _annotated_name(annotation, "DType", DTYPE_NAMES)


def dtype_from_expr(node: ast.expr | None) -> str | None:
    """Dtype named by a ``dtype=`` argument expression, or None.

    Understands ``np.float32`` (any alias spelling — only the final
    attribute is matched, like the annotation parsers), the string
    ``"float32"``, and ``float`` / ``complex`` builtins.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value in DTYPE_NAMES else None
    name = _final_name(node)
    if name is None:
        return None
    if name in DTYPE_NAMES:
        return name
    return {"float": "float64", "complex": "complex128", "bool": "bool"}.get(name)
