"""Runtime cross-check of the declared shape/dtype contracts (VH5xx).

The static shape pass (:mod:`repro.analysis.shapes`) reasons about the
``:shape``/``:dtype`` docstring markers without ever running the code.
This module closes the loop from the other side: it wraps the annotated
kernel boundaries at run time, records the shapes and dtypes that
actually flow through them, and raises :class:`ContractViolation` when
an observed call diverges from its declaration.  The tier-1 suite runs
with the wrappers installed (``pytest --runtime-contracts``), so a
declaration the static pass trusts is also one the tests have witnessed.

Semantics mirror the static pass:

* Axis symbols (``S``, ``B``, ``m``, ...) bind to concrete sizes *per
  call*: within one call every occurrence of a symbol must agree —
  ``stacked_dtw_distance(queries=(3, 40), candidates=(3, 7, 50))`` binds
  ``S=3`` once and checks both parameters and the ``(S, B)`` return
  against it.  Integer literals must match exactly.
* A declaration with alternatives (``(T,) | (S, T)``) accepts a value
  matching any one alternative; rank disambiguates first, then symbol
  consistency.
* Declared dtypes are exact: ``:dtype return: float64`` means the value
  must come back as ``float64``, not merely something castable.

The wrappers never pre-empt a function's own validation: the wrapped
function runs first, and its exceptions propagate untouched.  Contracts
only judge calls the kernel itself accepted — they exist to catch
*silent* divergence, not to re-raise loud errors.

Install with :func:`activate` (idempotent), remove with
:func:`deactivate`.  Because ``from x import f`` re-binds names,
activation patches every alias of a boundary function found across the
already-imported ``repro`` modules, and restores each one on
deactivation.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable

import numpy as np

from repro.analysis.callgraph import docstring_contracts

__all__ = [
    "CONTRACT_BOUNDARIES",
    "ContractViolation",
    "ObservedCall",
    "activate",
    "active",
    "clear_records",
    "deactivate",
    "isolated_records",
    "records",
    "summary",
]

#: Dotted names of the annotated kernel boundaries the runtime check
#: wraps.  Every entry must resolve to a function whose docstring
#: carries at least one ``:shape``/``:dtype`` marker — :func:`activate`
#: refuses to install a wrapper with nothing to check, so a renamed or
#: de-annotated kernel fails loudly here instead of silently passing.
CONTRACT_BOUNDARIES: tuple[str, ...] = (
    "repro.dsp.dtw.batched_dtw_distance",
    "repro.dsp.dtw.stacked_dtw_distance",
    "repro.dsp.windows.sliding_windows",
    "repro.dsp.phase.unwrap_phase",
    "repro.core.sanitize.antenna_phase_difference",
    "repro.core.sanitize.sanitize_stream",
    "repro.core.sanitize.sanitize_streams",
    "repro.dsp.spectral.doppler_spread",
)

#: Cap on retained observations, so a long soak cannot grow memory
#: without bound.  Violations always raise regardless of the cap, and
#: :func:`summary` counts every crossing, not only the retained ones.
_MAX_RECORDS = 10_000


class ContractViolation(AssertionError):
    """An observed call diverged from its declared shape/dtype contract."""


@dataclass(frozen=True)
class ObservedCall:
    """One recorded crossing of an annotated boundary.

    Attributes:
        boundary: dotted name of the wrapped function.
        shapes: observed array shape per checked parameter (and
            ``"return"``), in call order.
        dtypes: observed dtype name per checked parameter.
        bindings: the axis-symbol sizes this call pinned (``{"S": 3}``).
    """

    boundary: str
    shapes: tuple[tuple[str, tuple[int, ...]], ...]
    dtypes: tuple[tuple[str, str], ...]
    bindings: tuple[tuple[str, int], ...]


@dataclass
class _Contract:
    """The parsed declaration of one boundary function."""

    boundary: str
    func: Callable[..., Any]
    signature: inspect.Signature
    # param -> tuple of shape alternatives (each a tuple of str|int)
    shapes: dict[str, tuple[tuple[str | int, ...], ...]]
    shape_return: tuple[tuple[str | int, ...], ...] | None
    dtypes: dict[str, str]
    dtype_return: str | None
    # (module, attribute) slots holding this function, for patch/restore
    slots: list[tuple[ModuleType, str]] = field(default_factory=list)


_RECORDS: list[ObservedCall] = []
#: Uncapped crossings per boundary since the last :func:`clear_records`.
_CALLS: dict[str, int] = {}
_ACTIVE: list[_Contract] = []


def _parse_contract(boundary: str) -> _Contract:
    module_name, _, func_name = boundary.rpartition(".")
    __import__(module_name)
    module = sys.modules[module_name]
    func = getattr(module, func_name)
    declared = docstring_contracts(inspect.getdoc(func) or "")
    shapes, dtypes = declared["shape"], declared["dtype"]
    shape_return = shapes.pop("return", None)
    dtype_return = dtypes.pop("return", None)
    if not shapes and not dtypes and shape_return is None and dtype_return is None:
        raise ValueError(
            f"{boundary} declares no :shape/:dtype markers; remove it from "
            "CONTRACT_BOUNDARIES or annotate the function"
        )
    return _Contract(
        boundary=boundary,
        func=func,
        signature=inspect.signature(func),
        shapes=shapes,
        shape_return=shape_return,
        dtypes=dtypes,
        dtype_return=dtype_return,
    )


def _try_bind(
    declared: tuple[str | int, ...],
    observed: tuple[int, ...],
    bindings: dict[str, int],
) -> dict[str, int] | None:
    """Bindings extended by matching ``observed`` against ``declared``.

    ``None`` when the shapes cannot be reconciled (rank mismatch,
    literal mismatch, or a symbol already bound to a different size).
    """
    if len(declared) != len(observed):
        return None
    trial = dict(bindings)
    for token, size in zip(declared, observed):
        if isinstance(token, int):
            if token != size:
                return None
        else:
            bound = trial.get(token)
            if bound is None:
                trial[token] = size
            elif bound != size:
                return None
    return trial


def _fmt_alts(alternatives: tuple[tuple[str | int, ...], ...]) -> str:
    def one(shape: tuple[str | int, ...]) -> str:
        inner = ", ".join(str(t) for t in shape)
        return f"({inner},)" if len(shape) == 1 else f"({inner})"

    return " | ".join(one(s) for s in alternatives)


def _check_shape(
    contract: _Contract,
    param: str,
    observed: tuple[int, ...],
    alternatives: tuple[tuple[str | int, ...], ...],
    bindings: dict[str, int],
) -> dict[str, int]:
    for declared in alternatives:
        trial = _try_bind(declared, observed, bindings)
        if trial is not None:
            return trial
    raise ContractViolation(
        f"{contract.boundary}: {param} has shape {observed}, which does not "
        f"match the declared {_fmt_alts(alternatives)}"
        + (f" under bindings {bindings}" if bindings else "")
    )


def _check_dtype(
    contract: _Contract, param: str, observed: str, declared: str
) -> None:
    if observed != declared:
        raise ContractViolation(
            f"{contract.boundary}: {param} has dtype {observed}, "
            f"declared {declared}"
        )


def _observe(
    contract: _Contract, args: tuple[Any, ...], kwargs: dict[str, Any], result: Any
) -> None:
    try:
        bound = contract.signature.bind(*args, **kwargs)
    except TypeError:
        return  # the call itself was malformed; not a contract matter
    bindings: dict[str, int] = {}
    shapes: list[tuple[str, tuple[int, ...]]] = []
    dtypes: list[tuple[str, str]] = []
    for param in contract.signature.parameters:
        if param not in bound.arguments:
            continue
        wants_shape = param in contract.shapes
        wants_dtype = param in contract.dtypes
        if not wants_shape and not wants_dtype:
            continue
        value = np.asarray(bound.arguments[param])
        if wants_shape:
            bindings = _check_shape(
                contract, param, value.shape, contract.shapes[param], bindings
            )
            shapes.append((param, value.shape))
        if wants_dtype:
            observed = value.dtype.name
            _check_dtype(contract, param, observed, contract.dtypes[param])
            dtypes.append((param, observed))
    if contract.shape_return is not None or contract.dtype_return is not None:
        value = np.asarray(result)
        if contract.shape_return is not None:
            bindings = _check_shape(
                contract, "return", value.shape, contract.shape_return, bindings
            )
            shapes.append(("return", value.shape))
        if contract.dtype_return is not None:
            observed = value.dtype.name
            _check_dtype(contract, "return", observed, contract.dtype_return)
            dtypes.append(("return", observed))
    _CALLS[contract.boundary] = _CALLS.get(contract.boundary, 0) + 1
    if len(_RECORDS) < _MAX_RECORDS:
        _RECORDS.append(
            ObservedCall(
                boundary=contract.boundary,
                shapes=tuple(shapes),
                dtypes=tuple(dtypes),
                bindings=tuple(sorted(bindings.items())),
            )
        )


def _wrap(contract: _Contract) -> Callable[..., Any]:
    func = contract.func

    @functools.wraps(func)
    def checked(*args: Any, **kwargs: Any) -> Any:
        result = func(*args, **kwargs)
        _observe(contract, args, kwargs, result)
        return result

    # Mark the wrapper so activate() can recognise an already-patched
    # slot and stay idempotent.
    checked.__vihot_contract__ = contract  # type: ignore[attr-defined]
    return checked


def _alias_slots(func: Callable[..., Any]) -> list[tuple[ModuleType, str]]:
    """Every imported-module attribute currently bound to ``func``.

    ``from x import f`` copies the binding, so patching only the home
    module would leave importers calling the unchecked original.  The
    scan covers all of ``sys.modules`` (not just ``repro.*``): test
    modules and downstream glue alias these kernels too, and every
    patched slot is recorded and restored on :func:`deactivate`.
    """
    slots: list[tuple[ModuleType, str]] = []
    for module in list(sys.modules.values()):
        if not isinstance(module, ModuleType):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                slots.append((module, attr))
    return slots


def active() -> bool:
    """Whether the contract wrappers are currently installed."""
    return bool(_ACTIVE)


def activate() -> int:
    """Install the runtime checks on every boundary; returns the count.

    Idempotent: calling twice installs nothing new.  Modules imported
    *after* activation that ``from x import f`` a boundary get the
    wrapped function automatically (they import the patched binding).
    """
    if _ACTIVE:
        return len(_ACTIVE)
    for boundary in CONTRACT_BOUNDARIES:
        contract = _parse_contract(boundary)
        wrapper = _wrap(contract)
        contract.slots = _alias_slots(contract.func)
        for module, attr in contract.slots:
            setattr(module, attr, wrapper)
        _ACTIVE.append(contract)
    return len(_ACTIVE)


def deactivate() -> None:
    """Restore every patched binding to the original function."""
    while _ACTIVE:
        contract = _ACTIVE.pop()
        for module, attr in contract.slots:
            current = getattr(module, attr, None)
            if getattr(current, "__vihot_contract__", None) is contract:
                setattr(module, attr, contract.func)


def records() -> tuple[ObservedCall, ...]:
    """The observations recorded since the last :func:`clear_records`."""
    return tuple(_RECORDS)


def clear_records() -> None:
    del _RECORDS[:]
    _CALLS.clear()


@contextmanager
def isolated_records() -> Iterator[None]:
    """Run a block from no records and counts, then put the earlier ones
    back, so a test inspecting its own crossings leaves the session-wide
    :func:`summary` of ``pytest --runtime-contracts`` intact."""
    saved_records, saved_calls = list(_RECORDS), dict(_CALLS)
    clear_records()
    try:
        yield
    finally:
        clear_records()
        _RECORDS.extend(saved_records)
        _CALLS.update(saved_calls)


def summary() -> dict[str, int]:
    """Observed call count per boundary (only boundaries seen at all),
    including the crossings past the record cap."""
    return dict(_CALLS)
