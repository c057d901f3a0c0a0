"""``repro.scenarios``: declared, tiered, replayable fleet scenarios.

A scenario is a :class:`~repro.scenarios.spec.ScenarioSpec` — cabin
count, traffic shape, workload mix, fault plan, churn and seed — that
fully determines a fleet run: same spec, same bits out.  Specs live in
a validating registry addressable by name or tier (T0 calm commute
through T3 rush-hour chaos), and the canonical packs in
:mod:`~repro.scenarios.packs` register themselves on import, so
``import repro.scenarios`` is enough to see the full catalogue.

:func:`run_scenario` is the one fleet driver: it serves a spec's fleet
closed-loop or paced, single-process or sharded, and checks the serving
contract (containment, recovery, standalone replay, latency SLO) in one
:class:`FleetResult`.  The CLI front end is
``vihot scenarios list|validate|run`` plus ``vihot serve-bench``.
"""

from repro.scenarios.registry import (
    get_scenario,
    list_scenarios,
    register_scenario,
    resolve_scenario,
)
from repro.scenarios.runner import FleetResult, run_scenario
from repro.scenarios.spec import TIERS, ScenarioSpec
from repro.scenarios.validate import validate_scenario

# Importing the packs registers the canonical catalogue; keep this after
# the registry import so registration has something to register into.
from repro.scenarios import packs as _packs  # noqa: E402

__all__ = [
    "TIERS",
    "FleetResult",
    "ScenarioSpec",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "resolve_scenario",
    "run_scenario",
    "validate_scenario",
]

del _packs
