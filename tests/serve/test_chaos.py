"""The chaos scenario at acceptance scale, plus the off-by-default
bit-identity property of the fault wrapper."""

from dataclasses import replace

import numpy as np

from repro.faults import FaultPlan, FaultWindow, PacketLossBurst, chaos_plan
from repro.scenarios import ScenarioSpec, run_scenario
from repro.serve.session import HEALTHY

INJECTOR_NAMES = {
    "packet_loss",
    "csi_dropout",
    "subcarrier_corruption",
    "clock_skew",
    "amplitude_fade",
    "queue_surge",
}


def _fleet(num_sessions, duration_s, rate_hz, seed, storm=True):
    """An unregistered fleet spec; ``storm`` adds the default fault storm
    (every injector over ``[duration_s/3, 0.6 * duration_s)``)."""
    return ScenarioSpec(
        "chaos-fleet", "T2" if storm else "T0", "test fleet",
        seed=seed, num_sessions=num_sessions, duration_s=duration_s,
        rate_hz=rate_hz,
        fault_plan=chaos_plan(seed, duration_s / 3.0, 0.6 * duration_s)
        if storm else FaultPlan(),
    )


def test_chaos_fleet_contained_and_recovers():
    """50 sessions through every injector: zero unhandled exceptions,
    real degradation, full recovery once the faults clear."""
    result = run_scenario(_fleet(50, 3.0, 100.0, seed=0))

    # 1. Containment.
    assert result.unhandled == 0
    assert result.sessions == 50

    # 2. The faults actually bit, and the metrics say so.
    assert set(result.injector_touches) == INJECTOR_NAMES
    assert all(count > 0 for count in result.injector_touches.values())
    assert result.rejected > 0
    assert result.quarantines > 0
    assert result.releases > 0
    assert result.estimates > 0
    for needle in (
        "packets_rejected=",
        "quarantines_total=",
        "quarantine_releases=",
        "recoveries_total=",
        "health_quarantined=",
        "health_degraded=",
    ):
        assert needle in result.metrics_line

    # 3. Recovery: every session healthy after the window closed.
    assert result.all_healthy
    assert result.final_health[HEALTHY] == 50
    assert result.recoveries > 0
    assert result.metrics_line.count("health_quarantined=0") == 1


def test_chaos_is_deterministic():
    a = run_scenario(_fleet(5, 2.5, 100.0, seed=11))
    b = run_scenario(_fleet(5, 2.5, 100.0, seed=11))
    keys = (
        "packets_offered", "ingested", "rejected", "drops", "estimates",
        "poll_failures", "quarantines", "releases", "recoveries",
        "unhandled", "injector_touches", "final_health",
    )
    da, db = a.as_dict(), b.as_dict()
    for key in keys:
        assert da[key] == db[key], key


def test_chaos_different_seeds_differ():
    a = run_scenario(_fleet(4, 2.5, 100.0, seed=1))
    b = run_scenario(_fleet(4, 2.5, 100.0, seed=2))
    assert a.injector_touches != b.injector_touches


def test_empty_plan_is_bit_identical_to_no_plan():
    """With injectors disabled, a spec's fault plan is the same code
    path — and the standalone bit-identity check holds."""
    spec = _fleet(2, 2.0, 100.0, seed=3, storm=False)
    base = run_scenario(spec, verify_sessions=1)
    empty = run_scenario(replace(spec, fault_plan=FaultPlan()), verify_sessions=1)
    assert base.bit_identical
    assert empty.bit_identical
    stream_keys = ("sessions", "packets", "estimates", "drops",
                   "deferrals", "deadline_misses")
    da, db = base.as_dict(), empty.as_dict()
    for key in stream_keys:
        assert da[key] == db[key], key


def test_faulted_run_skips_verification():
    plan = FaultPlan(
        injectors=(
            PacketLossBurst(drop_rate=0.3, burst_mean=4.0,
                            window=FaultWindow(0.5, 1.5)),
        ),
        seed=0,
    )
    spec = replace(_fleet(2, 2.0, 100.0, seed=3), fault_plan=plan)
    result = run_scenario(spec, verify_sessions=1)
    assert result.verified_sessions == 0
    assert result.bit_identical  # vacuously: nothing compared
    # Fewer packets arrived than the pristine run offers.
    assert result.packets < 2 * int(np.ceil(2.0 * 100.0))


def test_chaos_plan_catalogue_is_complete():
    plan = chaos_plan(seed=0)
    assert {spec.name for spec in plan.injectors} == INJECTOR_NAMES
    assert plan.enabled
