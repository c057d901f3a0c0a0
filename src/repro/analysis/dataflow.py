"""Phase-domain dataflow rules (VH3xx): units tracked across the project.

The analyzer abstract-interprets every function with a tiny domain
lattice (:mod:`repro.analysis.domains`), run on the one forward
interpreter of :mod:`repro.analysis.flow`: values acquire a unit domain
from declared sources (``Annotated[float, Domain("wrapped_rad")]``
params, ``:domain return: ...`` docstring markers, known numpy
callables like ``np.angle`` / ``np.deg2rad`` / ``np.unwrap``) and the
domain is propagated through assignments, arithmetic, ``for`` targets
and call boundaries — including *inter-procedural* flow via the return
summaries the :mod:`repro.analysis.callgraph` build infers to a fixed
point.  Any flow that crosses domains is a finding:

* VH301 — degrees mixed into a radian context (or vice versa), the
  ``np.sin(headings_deg)`` class of bug;
* VH302 — wrapped phase consumed by linear arithmetic: ``a - b`` on
  wrapped values outside a ``wrap_phase(...)`` call, ``np.diff`` /
  ``np.mean`` over wrapped phases, an unwrapped track re-unwrapped;
* VH303 — plain frequency [Hz] confused with angular rate [rad/s]
  (the missing ``2*pi``);
* VH304 — a cross-module call whose argument domain contradicts the
  callee's declared parameter domain (the leak only an inter-procedural
  view can see).

The pass is deliberately flow-insensitive inside branches and gives up
(domain ``None``) rather than guess: silence is cheap, a false alarm in
CI is not.  Every finding carries a ``trace`` recording where each
operand acquired its domain.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.analysis.domains import (
    PASSTHROUGH_CALLS,
    PASSTHROUGH_METHODS,
    WRAP_HOSTILE_CALLS,
    WRAP_HOSTILE_METHODS,
    WRAP_SAFE_CALLS,
    classify_mismatch,
    domain_from_annotation,
    domains_compatible,
)
from repro.analysis.engine import Finding, ModuleContext, ProjectRule
from repro.analysis.flow import Flow, describe
from repro.units import DEG, HZ, RAD, RAD_PER_S, UNWRAPPED_RAD, WRAPPED_RAD

if TYPE_CHECKING:
    from repro.analysis.callgraph import FunctionInfo, ProjectContext

__all__ = [
    "DegRadFlowRule",
    "WrappedUnwrappedFlowRule",
    "FreqAngularRateFlowRule",
    "CrossCallDomainLeakRule",
    "infer_return_domain",
]

#: Result domain of ``a - b`` / ``a + b`` when both sides share a domain.
#: Wrapped differences leave the wrapped interval, so they degrade to
#: generic radians (the flag for the unsafe case is separate).
_SUB_RESULT = {
    WRAPPED_RAD: RAD,
    UNWRAPPED_RAD: UNWRAPPED_RAD,
    RAD: RAD,
    DEG: DEG,
    HZ: HZ,
    RAD_PER_S: RAD_PER_S,
}


def _contains_pi(node: ast.AST, module: ModuleContext) -> bool:
    for child in ast.walk(node):
        if isinstance(child, (ast.Attribute, ast.Name)):
            if module.qualified_name(child) in ("numpy.pi", "math.pi", "math.tau"):
                return True
    return False


class DomainFlow(Flow["str | None"]):
    """The unit-domain lattice: a value's domain name, or None (unknown)."""

    def __init__(
        self, info: "FunctionInfo", project: "ProjectContext", report: bool = True
    ) -> None:
        super().__init__(info, project, report)
        self.return_domains: list[str | None] = []
        for name, domain in info.declared_params.items():
            self.declare_param(name, domain)

    # ---------------------------------------------------------- statements

    def step_AnnAssign(self, stmt: ast.AnnAssign) -> None:
        declared = domain_from_annotation(stmt.annotation)
        domain = self.eval(stmt.value) if stmt.value is not None else None
        if (
            declared is not None
            and domain is not None
            and not domains_compatible(domain, declared)
        ):
            self._mismatch(stmt.value, domain, declared, context="annotated assignment")
        if isinstance(stmt.target, ast.Name):
            self.bind(
                stmt.target.id,
                declared if declared is not None else domain,
                stmt,
                "declared annotation" if declared is not None else describe(stmt.value),
            )

    def step_AugAssign(self, stmt: ast.AugAssign) -> None:
        value_domain = self.eval(stmt.value)
        if isinstance(stmt.target, ast.Name):
            current = self.eval(stmt.target)
            combined = self._binop_domain(
                stmt, stmt.op, current, value_domain, stmt.target, stmt.value
            )
            self.bind(stmt.target.id, combined, stmt, "augmented assignment")

    def step_Return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            return
        domain = self.eval(stmt.value)
        self.return_domains.append(domain)
        declared = self.info.declared_return
        if (
            declared is not None
            and domain is not None
            and not domains_compatible(domain, declared)
        ):
            self._mismatch(
                stmt.value, domain, declared, context=f"return from `{self.info.qualname}`"
            )

    # --------------------------------------------------------- expressions

    def eval(self, node: ast.expr, wrap_safe: bool = False) -> str | None:
        # Only arithmetic passes ``wrap_safe`` down: a wrapped difference
        # is safe exactly when it is an argument of a re-wrapping call.
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left, wrap_safe)
            right = self.eval(node.right, wrap_safe)
            return self._binop_domain(
                node, node.op, left, right, node.left, node.right, wrap_safe
            )
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand, wrap_safe)
        return super().eval(node)

    def eval_Subscript(self, node: ast.Subscript) -> str | None:
        self.eval(node.slice)
        return self.eval(node.value)

    def eval_Tuple(self, node: ast.Tuple | ast.List | ast.Set) -> str | None:
        domains = {self.eval(element) for element in node.elts}
        return domains.pop() if len(domains) == 1 else None

    eval_List = eval_Set = eval_Tuple

    def eval_Attribute(self, node: ast.Attribute) -> str | None:
        # ``x.real`` / ``x.T`` of a domained name keeps the domain.
        if isinstance(node.value, ast.Name) and node.attr in ("real", "T", "flat"):
            return self.eval(node.value)
        return None

    def eval_Call(self, node: ast.Call) -> str | None:
        name, canonical = self.resolve(node)
        wrap_safe = canonical in WRAP_SAFE_CALLS

        arg_domains = [self.eval(arg, wrap_safe=wrap_safe) for arg in node.args]
        kw_domains = {
            kw.arg: self.eval(kw.value, wrap_safe=wrap_safe)
            for kw in node.keywords
            if kw.arg is not None
        }

        # Method calls on a tracked name: ``phases.mean()`` etc.
        if name is None and isinstance(node.func, ast.Attribute):
            return self._eval_method_call(node)

        if canonical is None:
            return None

        if canonical in WRAP_HOSTILE_CALLS:
            target = arg_domains[0] if arg_domains else None
            if target == WRAPPED_RAD and node.args:
                self.emit(
                    "VH302",
                    node,
                    f"`{name}` applied to wrapped phase: linear arithmetic "
                    "jumps by 2*pi at the seam; unwrap first "
                    "(`unwrap_phase`) or use `circular_mean`",
                    self.trace_of(node.args[0])
                    + (f"{self.where(node)}: consumed by `{name}(...)`",),
                )
                return None
            return target

        if canonical == "numpy.interp" and len(node.args) >= 3:
            return arg_domains[2]
        if canonical == "numpy.where" and len(node.args) >= 3:
            return (
                arg_domains[1]
                if arg_domains[1] == arg_domains[2]
                else None
            )
        if canonical in PASSTHROUGH_CALLS:
            return arg_domains[0] if arg_domains else None

        signature = self.project.signature_for(canonical)
        if signature is None:
            return None

        info = self.project.functions.get(canonical)
        for index, domain in enumerate(arg_domains):
            expected = (
                signature.params[index] if index < len(signature.params) else None
            )
            if expected is None or domain is None:
                continue
            if not domains_compatible(domain, expected):
                self._call_mismatch(
                    node, node.args[index], name, canonical, info, domain, expected,
                    signature.param_names[index]
                    if index < len(signature.param_names)
                    else f"arg {index}",
                )
        for keyword, domain in kw_domains.items():
            expected = signature.domain_for_keyword(keyword)
            if expected is None or domain is None:
                continue
            if not domains_compatible(domain, expected):
                kw_node = next(
                    (kw.value for kw in node.keywords if kw.arg == keyword), node
                )
                self._call_mismatch(
                    node, kw_node, name, canonical, info, domain, expected, keyword
                )
        return signature.returns

    def _eval_method_call(self, node: ast.Call) -> str | None:
        func = node.func
        assert isinstance(func, ast.Attribute)
        receiver = self.eval(func.value)
        for arg in node.args:
            self.eval(arg)
        for kw in node.keywords:
            self.eval(kw.value)
        if func.attr in WRAP_HOSTILE_METHODS and receiver == WRAPPED_RAD:
            self.emit(
                "VH302",
                node,
                f"`.{func.attr}()` on wrapped phase: linear arithmetic jumps "
                "by 2*pi at the seam; unwrap first or use `circular_mean`",
                self.trace_of(func.value)
                + (f"{self.where(node)}: consumed by `.{func.attr}()`",),
            )
            return None
        if func.attr in PASSTHROUGH_METHODS:
            return receiver
        return None

    def _binop_domain(
        self,
        node: ast.AST,
        op: ast.operator,
        left: str | None,
        right: str | None,
        left_node: ast.expr,
        right_node: ast.expr,
        wrap_safe: bool = False,
    ) -> str | None:
        if isinstance(op, (ast.Add, ast.Sub)):
            if left is not None and right is not None:
                if not domains_compatible(left, right):
                    self._mismatch_binop(node, left, right, left_node, right_node)
                    return None
                if (
                    isinstance(op, ast.Sub)
                    and left == WRAPPED_RAD
                    and right == WRAPPED_RAD
                    and not wrap_safe
                ):
                    self.emit(
                        "VH302",
                        node,
                        "subtraction of wrapped phases without re-wrapping: "
                        "the difference jumps by 2*pi at the +-pi seam; use "
                        "`phase_difference` or wrap the result (`wrap_phase`)",
                        self.trace_of(left_node) + self.trace_of(right_node),
                    )
                    return None
                merged = left if left == right else RAD
                return _SUB_RESULT.get(merged, merged) if isinstance(op, ast.Sub) else merged
            return left if left is not None else right
        if isinstance(op, (ast.Mult, ast.Div)):
            pi_left = _contains_pi(left_node, self.module)
            pi_right = _contains_pi(right_node, self.module)
            if isinstance(op, ast.Mult):
                if left == HZ and pi_right or right == HZ and pi_left:
                    return RAD_PER_S
                known, other_node = (
                    (left, right_node) if left is not None else (right, left_node)
                )
                if known is not None and _is_dimensionless(other_node):
                    return known
            else:
                if left == RAD_PER_S and pi_right:
                    return HZ
                # Division only preserves the unit when the *numerator*
                # carries it (``f / 2``); ``1 / f`` inverts the unit.
                if left is not None and _is_dimensionless(right_node):
                    return left
            return None
        return None

    # ------------------------------------------------------------- checks

    def _mismatch(
        self, node: ast.expr, found: str, expected: str, context: str
    ) -> None:
        rule = classify_mismatch(found, expected)
        self.emit(
            rule,
            node,
            f"{context}: value of domain [{found}] flows where [{expected}] "
            f"is expected{_hint(found, expected)}",
            self.trace_of(node),
        )

    def _mismatch_binop(
        self,
        node: ast.AST,
        left: str,
        right: str,
        left_node: ast.expr,
        right_node: ast.expr,
    ) -> None:
        rule = classify_mismatch(left, right)
        self.emit(
            rule,
            node,
            f"arithmetic mixes [{left}] with [{right}]"
            f"{_hint(left, right)}",
            self.trace_of(left_node) + self.trace_of(right_node),
        )

    def _call_mismatch(
        self,
        call: ast.Call,
        arg_node: ast.expr,
        spelled: str | None,
        canonical: str,
        info: "FunctionInfo | None",
        found: str,
        expected: str,
        param: str,
    ) -> None:
        cross_module = info is not None and info.module != self.info.module
        rule = (
            "VH304" if cross_module else classify_mismatch(found, expected)
        )
        label = spelled or canonical
        message = (
            f"call leaks [{found}] into `{label}({param}: [{expected}])`"
            f"{_hint(found, expected)}"
        )
        if cross_module:
            assert info is not None
            message = (
                f"cross-module domain leak: [{found}] passed to "
                f"`{info.qualname}` parameter `{param}` declared [{expected}]"
                f"{_hint(found, expected)}"
            )
        self.emit(
            rule,
            arg_node,
            message,
            self.trace_of(arg_node)
            + (f"{self.where(call)}: passed to `{label}` (`{param}`: [{expected}])",),
        )


def _is_dimensionless(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float, complex))
    if isinstance(node, ast.UnaryOp):
        return _is_dimensionless(node.operand)
    return False


def _hint(a: str, b: str) -> str:
    pair = {a, b}
    if pair == {DEG, RAD} or pair == {DEG, WRAPPED_RAD} or pair == {DEG, UNWRAPPED_RAD}:
        return "; convert with `np.deg2rad`/`np.rad2deg`"
    if pair == {HZ, RAD_PER_S}:
        return "; convert with `omega = 2 * np.pi * f`"
    if pair == {WRAPPED_RAD, UNWRAPPED_RAD}:
        return "; `unwrap_phase` produces a continuous track, `wrap_phase` folds back"
    return ""


def infer_return_domain(info: "FunctionInfo", project: "ProjectContext") -> str | None:
    """Return domain of ``info`` inferred from its return expressions.

    Used by the callgraph summary pass, with reporting off.  Returns a
    domain only when every ``return`` with a known domain agrees; the
    returns of unknown domain cannot be checked anyway, and a partial
    summary catches more than no summary.
    """
    flow = DomainFlow(info, project, report=False)
    flow.run()
    known = {domain for domain in flow.return_domains if domain is not None}
    return known.pop() if len(known) == 1 else None


class _DomainFlowRule(ProjectRule):
    @staticmethod
    def family(project: "ProjectContext") -> Iterator[Finding]:
        return DomainFlow.findings(project)


class DegRadFlowRule(_DomainFlowRule):
    id = "VH301"
    name = "deg-rad-flow"
    description = "degrees mixed into a radian context (or vice versa)"
    rationale = (
        "Every numeric path in this codebase runs in radians; degrees exist "
        "only at the presentation edge. A [deg] value reaching `np.sin`, "
        "`wrap_phase` or any radian-declared parameter is wrong by a factor "
        "of ~57 and no test that only checks shapes will notice."
    )


class WrappedUnwrappedFlowRule(_DomainFlowRule):
    id = "VH302"
    name = "wrapped-unwrapped-flow"
    description = "wrapped phase consumed by linear arithmetic, or wrapping-state mix-up"
    rationale = (
        "Wrapped phase lives on the circle: subtraction, `np.diff` and "
        "arithmetic means jump by 2*pi at the +-pi seam (Eq. 1 / Fig. 3 are "
        "meaningful only because the sanitizer re-wraps). Difference on the "
        "circle via `phase_difference`, average via `circular_mean`, and "
        "unwrap exactly once before DTW."
    )


class FreqAngularRateFlowRule(_DomainFlowRule):
    id = "VH303"
    name = "hz-radps-flow"
    description = "frequency [Hz] confused with angular rate [rad/s]"
    rationale = (
        "A frequency in Hz and an angular rate in rad/s differ by 2*pi — "
        "small enough to look plausible in a plot, large enough to wreck "
        "Doppler matching and gyro thresholds. The conversion must be "
        "explicit: `omega = 2 * np.pi * f`."
    )


class CrossCallDomainLeakRule(_DomainFlowRule):
    id = "VH304"
    name = "cross-call-domain-leak"
    description = "cross-module call whose argument contradicts the declared parameter domain"
    rationale = (
        "Per-module lint survives a refactor only until a value crosses a "
        "module boundary; this rule checks every project-internal call site "
        "against the callee's declared domains, so moving code between "
        "modules cannot silently change a value's meaning."
    )
