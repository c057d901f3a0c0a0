"""The unit-domain lattice and the signature table the dataflow lint uses.

Static mirror of :mod:`repro.units`: this module knows which domains are
compatible, which VH3xx rule a given incompatible pair maps to, how an
``Annotated[..., Domain("...")]`` marker names a domain (the
``:domain name: ...`` docstring lines are read with the other declared
contracts, by :func:`repro.analysis.callgraph.declared_contracts`), and
what the relevant numpy callables do to domains (``np.deg2rad`` consumes ``deg`` and produces
``rad``; ``np.unwrap`` consumes ``wrapped_rad`` and produces
``unwrapped_rad``; ``np.asarray`` passes its argument's domain through).

Everything here is plain data + pure functions so that
:mod:`repro.analysis.dataflow` stays focused on propagation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.dtypes import _annotated_name
from repro.units import (
    DEG,
    DOMAIN_NAMES,
    HZ,
    RAD,
    RAD_PER_S,
    UNWRAPPED_RAD,
    WRAPPED_RAD,
)

__all__ = [
    "Signature",
    "EXTERNAL_SIGNATURES",
    "PASSTHROUGH_CALLS",
    "PASSTHROUGH_METHODS",
    "WRAP_HOSTILE_CALLS",
    "WRAP_HOSTILE_METHODS",
    "WRAP_SAFE_CALLS",
    "classify_mismatch",
    "domains_compatible",
    "domain_from_annotation",
]

#: The two unit families.  ``rad`` is the join of the two wrapping
#: states: a ``wrapped_rad`` or ``unwrapped_rad`` value is acceptable
#: where generic radians are expected, but not vice versa between the
#: two specific states.
_ANGLE_FAMILY = frozenset({RAD, WRAPPED_RAD, UNWRAPPED_RAD, DEG})
_FREQ_FAMILY = frozenset({HZ, RAD_PER_S})


def domains_compatible(a: str, b: str) -> bool:
    """True when a value of domain ``a`` may flow where ``b`` is expected."""
    if a == b:
        return True
    # Generic radians absorb (and supply) either wrapping state.
    rad_family = {RAD, WRAPPED_RAD, UNWRAPPED_RAD}
    if a in rad_family and b in rad_family:
        return a == RAD or b == RAD
    return False


def classify_mismatch(a: str, b: str) -> str:
    """Rule id for the incompatible pair ``(a, b)``.

    VH301 deg<->rad confusion, VH302 wrapped<->unwrapped confusion,
    VH303 Hz<->rad/s confusion.  Cross-family nonsense (an angle fed
    where a frequency is expected) reports under the frequency rule
    when a frequency domain is involved, else under VH301.
    """
    pair = {a, b}
    if pair & _FREQ_FAMILY:
        return "VH303"
    if DEG in pair:
        return "VH301"
    if pair == {WRAPPED_RAD, UNWRAPPED_RAD}:
        return "VH302"
    return "VH301"


@dataclass(frozen=True)
class Signature:
    """Domain behaviour of one callable.

    ``params`` maps parameter *position* to the expected domain (None =
    unconstrained); ``param_names`` gives the keyword spellings for the
    same slots.  ``returns`` is the produced domain (None = unknown).
    """

    params: tuple[str | None, ...] = ()
    returns: str | None = None
    param_names: tuple[str, ...] = ()

    def domain_for_keyword(self, keyword: str) -> str | None:
        if keyword in self.param_names:
            return self.params[self.param_names.index(keyword)]
        return None


#: Unit-relevant numpy (and stdlib math) callables, by canonical dotted
#: name as resolved through import aliases.
EXTERNAL_SIGNATURES: dict[str, Signature] = {
    "numpy.deg2rad": Signature((DEG,), RAD, ("x",)),
    "numpy.radians": Signature((DEG,), RAD, ("x",)),
    "numpy.rad2deg": Signature((RAD,), DEG, ("x",)),
    "numpy.degrees": Signature((RAD,), DEG, ("x",)),
    "numpy.unwrap": Signature((WRAPPED_RAD,), UNWRAPPED_RAD, ("p",)),
    "numpy.angle": Signature((), WRAPPED_RAD),
    "numpy.arctan2": Signature((), WRAPPED_RAD),
    "numpy.arcsin": Signature((), RAD),
    "numpy.arccos": Signature((), RAD),
    "numpy.arctan": Signature((), RAD),
    "numpy.sin": Signature((RAD,), None, ("x",)),
    "numpy.cos": Signature((RAD,), None, ("x",)),
    "numpy.tan": Signature((RAD,), None, ("x",)),
    "math.sin": Signature((RAD,), None, ("x",)),
    "math.cos": Signature((RAD,), None, ("x",)),
    "math.tan": Signature((RAD,), None, ("x",)),
    "math.radians": Signature((DEG,), RAD, ("x",)),
    "math.degrees": Signature((RAD,), DEG, ("x",)),
    "numpy.fft.fftfreq": Signature((), HZ),
    "numpy.fft.rfftfreq": Signature((), HZ),
}

#: Calls that return (a possibly reshaped copy of) their first argument
#: with the unit domain intact.
PASSTHROUGH_CALLS = frozenset(
    {
        "numpy.asarray",
        "numpy.array",
        "numpy.ascontiguousarray",
        "numpy.copy",
        "numpy.atleast_1d",
        "numpy.atleast_2d",
        "numpy.squeeze",
        "numpy.ravel",
        "numpy.reshape",
        "numpy.concatenate",
        "numpy.fft.fftshift",
        "numpy.abs",
        "numpy.absolute",
        "numpy.flip",
        "numpy.sort",
        "numpy.clip",
        "numpy.where",  # handled specially: joins args 2 and 3
        "float",
        "abs",
        "numpy.float64",
        "numpy.interp",  # interp(x, xp, fp) returns fp's domain — see dataflow
    }
)

#: Zero-argument ndarray methods (and ``astype``) that keep the domain.
PASSTHROUGH_METHODS = frozenset(
    {"copy", "astype", "ravel", "flatten", "reshape", "squeeze", "item", "mean", "sum"}
)

#: Reductions/differences that are *linear* in their input and therefore
#: meaningless on wrapped phases: ``np.diff`` across the +-pi seam jumps
#: by 2*pi, ``np.mean`` of wrapped angles averages the wrong way around
#: the circle.  Feeding a ``wrapped_rad`` value to any of these is the
#: canonical ViHOT bug (use ``unwrap_phase`` / ``circular_mean``).
WRAP_HOSTILE_CALLS = frozenset(
    {
        "numpy.diff",
        "numpy.gradient",
        "numpy.mean",
        "numpy.average",
        "numpy.median",
        "numpy.std",
        "numpy.var",
        "numpy.cumsum",
        "numpy.sum",
        "numpy.trapz",
    }
)

#: Same hazard, spelled as ndarray methods (``phases.mean()``).
WRAP_HOSTILE_METHODS = frozenset({"mean", "sum", "std", "var", "cumsum"})

#: Calls whose *arguments* may legitimately subtract wrapped phases: the
#: result is immediately re-wrapped, which is the one correct way to
#: difference on the circle.
WRAP_SAFE_CALLS = frozenset(
    {
        "repro.dsp.phase.wrap_phase",
        "repro.geometry.rotations.wrap_angle",
    }
)


def domain_from_annotation(annotation: ast.expr | None) -> str | None:
    """Extract ``Domain("...")`` from an ``Annotated[...]`` expression.

    Matches syntactically: ``Annotated[T, Domain("wrapped_rad"), ...]``
    with ``Annotated`` and ``Domain`` under any import spelling whose
    final attribute matches (``typing.Annotated``, ``t.Annotated``, a
    bare ``Annotated``).  Returns the domain name or None.
    """
    return _annotated_name(annotation, "Domain", DOMAIN_NAMES)
