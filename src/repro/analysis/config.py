"""Default rule set and the reviewed suppression allowlist.

The allowlist is the *only* place whole files are exempted from a rule,
and every entry carries the reason a reviewer accepted it.  Inline
``# vihot: noqa[RULE]`` stays for single-line false positives; anything
broader belongs here where the next PR can see (and challenge) it.
"""

from __future__ import annotations

from repro.analysis.aliasing import ParamMutationRule, ViewMutationRule
from repro.analysis.concurrency import (
    CrossProcessRngRule,
    ForkInheritedStateRule,
    ForkOnlyApiRule,
    PickleBoundaryRule,
    SharedMemoryLifecycleRule,
)
from repro.analysis.contracts import (
    BareExceptRule,
    BatchPinRule,
    EmptyWithoutDtypeRule,
    MissingAnnotationRule,
    MutableDefaultRule,
)
from repro.analysis.dataflow import (
    CrossCallDomainLeakRule,
    DegRadFlowRule,
    FreqAngularRateFlowRule,
    WrappedUnwrappedFlowRule,
)
from repro.analysis.determinism import (
    ClockReadRule,
    GlobalNumpyRandomRule,
    SeedlessSeedParamRule,
    StdlibRandomRule,
    UnseededGeneratorRule,
)
from repro.analysis.engine import Allowlist, AllowlistEntry, Rule
from repro.analysis.shapes import (
    BatchAxisMixupRule,
    DtypeDowncastRule,
    ImplicitBroadcastRule,
    ShapeCallMismatchRule,
)

__all__ = [
    "DEFAULT_ALLOWLIST",
    "concurrency_rules",
    "dataflow_rules",
    "default_rules",
    "shape_rules",
]


def default_rules() -> list[Rule]:
    """Fresh instances of every rule ``vihot lint`` runs by default."""
    return [
        GlobalNumpyRandomRule(),
        StdlibRandomRule(),
        ClockReadRule(),
        UnseededGeneratorRule(),
        SeedlessSeedParamRule(),
        MutableDefaultRule(),
        MissingAnnotationRule(),
        BareExceptRule(),
        EmptyWithoutDtypeRule(),
        BatchPinRule(),
    ]


def dataflow_rules() -> list[Rule]:
    """The inter-procedural rule set behind ``vihot lint --dataflow``.

    Separate from :func:`default_rules` because these need the
    project-wide build (call graph + return-domain summaries) and cost
    a whole-tree parse even when a single file is linted.
    """
    return [
        DegRadFlowRule(),
        WrappedUnwrappedFlowRule(),
        FreqAngularRateFlowRule(),
        CrossCallDomainLeakRule(),
        ParamMutationRule(),
        ViewMutationRule(),
    ]


def shape_rules() -> list[Rule]:
    """The array shape/dtype rule set behind ``vihot lint --shapes``.

    Rides the same project-wide build as :func:`dataflow_rules` (and
    shares its summary cache when both are enabled); kept opt-in for the
    same reason — a whole-tree parse is overkill for single-file lints.
    """
    return [
        ShapeCallMismatchRule(),
        BatchAxisMixupRule(),
        DtypeDowncastRule(),
        ImplicitBroadcastRule(),
    ]


def concurrency_rules() -> list[Rule]:
    """The process-safety rule set behind ``vihot lint --concurrency``.

    Rides the same project-wide build as :func:`dataflow_rules` /
    :func:`shape_rules` (call graph + worker-entrypoint reachability)
    and shares their summary cache; opt-in for the same reason.
    """
    return [
        ForkInheritedStateRule(),
        SharedMemoryLifecycleRule(),
        PickleBoundaryRule(),
        CrossProcessRngRule(),
        ForkOnlyApiRule(),
    ]


#: Reviewed exemptions.  Keep this list short: every entry is a place
#: where replay determinism is deliberately *not* the contract.
DEFAULT_ALLOWLIST = Allowlist(
    [
        AllowlistEntry(
            suffix="repro/cli.py",
            rule="VH103",
            reason=(
                "CLI progress timing: `time.perf_counter()` spans around "
                "subcommand bodies feed human-readable '[fig02 in 3s]' "
                "prints only; no estimate depends on them."
            ),
        ),
        AllowlistEntry(
            suffix="repro/scenarios/runner.py",
            rule="VH103",
            reason=(
                "The fleet driver's measurands are wall time: throughput "
                "(session-packets/s), the paced arrival schedule "
                "(packets land at `start + t/speedup` whether or not the "
                "fleet keeps up) and arrival -> serve latency. Estimates "
                "are keyed by stream time and pinned by standalone "
                "replay; every fault decision derives from the seeded "
                "plan, never the clock."
            ),
        ),
        AllowlistEntry(
            suffix="repro/serve/scheduler.py",
            rule="VH103",
            reason=(
                "Budget enforcement reads `perf_counter` through the "
                "injectable `wall_clock` hook; tests replace it with a "
                "virtual clock, production measures real elapsed budget. "
                "Which estimates are produced (not their values) may "
                "depend on it by design — that is what deadline "
                "accounting is."
            ),
        ),
        AllowlistEntry(
            suffix="repro/serve/manager.py",
            rule="VH103",
            reason=(
                "Idle-eviction uses the injectable `clock` hook "
                "(`time.monotonic` default) for wall-idle timeouts; "
                "estimate values never read it."
            ),
        ),
    ]
)
