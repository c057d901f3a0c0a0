"""The acceptance run: a 50-session mixed fleet under T2 faults.

Head tracking, occupant localization and breathing sensing share one
``SessionManager`` tick loop while every injector class fires; nothing
may escape the serving layer's containment and the fleet must heal once
the fault window closes.
"""

from dataclasses import replace

from repro.scenarios import get_scenario, run_scenario
from repro.serve.loadgen import ALL_WORKLOAD_KINDS


def test_fifty_session_mixed_fleet_under_t2_faults():
    spec = get_scenario("t2-downtown-interference")
    result = run_scenario(
        replace(
            spec,
            num_sessions=50,
            workload_mix=("plain", "localize", "breathing"),
        )
    )
    assert result.sessions == 50
    assert result.unhandled == 0
    assert result.all_healthy
    assert result.quarantines > 0  # the storm actually bit
    assert result.estimates > 0


def test_scenario_chaos_driver_runs_the_t3_flagship():
    """The fleet driver serves the full-stack pack — every cabin kind,
    batched, churning — with the same containment guarantees, on one
    manager and through a sharded fabric."""
    spec = get_scenario("t3-rush-hour-chaos")
    assert set(spec.workload_mix) == set(ALL_WORKLOAD_KINDS)
    result = run_scenario(spec)
    assert result.unhandled == 0
    assert result.all_healthy
    # Every spec field applies under containment: the churn too.
    assert result.churned_sessions == spec.churn_sessions == 2
    sharded = run_scenario(spec, workers=2, processes=False)
    assert sharded.unhandled == 0
    assert sharded.all_healthy


def test_clean_scenario_chaos_sees_no_faults():
    """T0 must not inherit a fault storm: the spec's empty plan travels
    verbatim."""
    result = run_scenario(get_scenario("t0-calm-commute"))
    assert result.unhandled == 0
    assert result.rejected == 0
    assert result.quarantines == 0
    assert result.injector_touches == {}
    assert result.all_healthy
