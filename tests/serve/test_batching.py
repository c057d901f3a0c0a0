"""Fleet-batched scheduling: a perf toggle, never a behaviour change.

The acceptance property of the batched execution path
(:class:`repro.serve.batch.BatchedScheduler` +
:meth:`repro.core.engine.EstimationEngine.estimate_batch`): a mixed
50-session fleet — plain CSI, forecasting, camera-backed steering
fallback, and IMU-fused cabins — served with batching on produces
*bit-identical* estimate streams and identical deferral/deadline
accounting to the same fleet served sequentially, both fault-free and
under a :func:`~repro.faults.chaos_plan` fault storm.

The budget is deliberately generous (``budget_s=30``) so wall-clock
noise can never defer a session in one run but not the other — the
comparison then pins *values*, with deferral counts asserted equal
(both zero) rather than merely plausible.
"""

from dataclasses import replace

import pytest

from repro.core.config import ViHOTConfig
from repro.faults import FaultPlan, chaos_plan
from repro.scenarios import ScenarioSpec, run_scenario
from repro.serve import SessionManager
from repro.serve.batch import BatchPlanner
from repro.serve.loadgen import (
    SYNTHETIC_FINGERPRINT,
    WORKLOAD_KINDS,
    SyntheticCabin,
    SyntheticCamera,
    estimates_identical,
    synthetic_profile,
)
from repro.serve.session import DEGRADED, HEALTHY

FLEET = 50
DURATION_S = 2.5
RATE_HZ = 100.0
SEED = 5


def _run(batching: bool, plan=None) -> object:
    spec = ScenarioSpec(
        "batching-mix",
        "T2" if plan is not None else "T1",
        "the mixed head-tracking fleet",
        num_sessions=FLEET,
        duration_s=DURATION_S,
        rate_hz=RATE_HZ,
        budget_s=30.0,  # everything fits: scheduling must not perturb output
        workload_mix=WORKLOAD_KINDS,
        batching=batching,
        seed=SEED,
        fault_plan=plan if plan is not None else FaultPlan(),
    )
    return run_scenario(
        spec,
        verify_sessions=0 if plan is not None else len(WORKLOAD_KINDS),
        capture_sessions=FLEET,
    )


@pytest.fixture(scope="module")
def mixed_runs():
    """The mixed 50-cabin fleet, served sequentially and batched."""
    return _run(batching=False), _run(batching=True)


@pytest.fixture(scope="module")
def chaos_runs():
    """The same fleet under a mid-run fault storm, both schedulers."""
    plan = chaos_plan(seed=SEED, start_s=0.8, stop_s=1.5)
    return _run(batching=False, plan=plan), _run(batching=True, plan=plan)


def _assert_identical_streams(seq, bat):
    assert set(seq.captured) == set(bat.captured)
    assert len(seq.captured) == FLEET
    for session_id, seq_log in seq.captured.items():
        bat_log = bat.captured[session_id]
        assert len(seq_log) == len(bat_log), (
            f"{session_id}: {len(seq_log)} sequential polls vs "
            f"{len(bat_log)} batched"
        )
        for (seq_t, seq_e), (bat_t, bat_e) in zip(seq_log, bat_log):
            assert seq_t == bat_t, f"{session_id}: poll instants diverged"
            assert estimates_identical(seq_e, bat_e), (
                f"{session_id} @ t={seq_t}: batched {bat_e} != sequential {seq_e}"
            )


def test_batched_run_actually_batches(mixed_runs):
    seq, bat = mixed_runs
    assert seq.batched_sessions == 0
    assert bat.batched_sessions > 0, "batching on but no stacked calls ran"
    # Camera cabins (a quarter of the mixed fleet) must stay on the
    # sequential fallback path.
    assert bat.fallback_sessions > 0


def test_mixed_fleet_streams_bit_identical(mixed_runs):
    seq, bat = mixed_runs
    _assert_identical_streams(seq, bat)


def test_mixed_fleet_matches_standalone_replay(mixed_runs):
    """Both schedulers also equal a fresh ``OnlineTracker`` replay for
    one probe cabin of every workload kind."""
    seq, bat = mixed_runs
    assert seq.verified_sessions == len(WORKLOAD_KINDS)
    assert bat.verified_sessions == len(WORKLOAD_KINDS)
    assert seq.bit_identical
    assert bat.bit_identical


def test_mixed_fleet_accounting_identical(mixed_runs):
    seq, bat = mixed_runs
    assert bat.estimates == seq.estimates
    assert bat.drops == seq.drops
    assert bat.deferrals == seq.deferrals == 0
    assert bat.deadline_misses == seq.deadline_misses


def test_fleet_produced_estimates(mixed_runs):
    seq, _bat = mixed_runs
    assert seq.estimates > FLEET  # every cabin produced at least a few


def test_chaos_streams_bit_identical(chaos_runs):
    """Fault injection is deterministic in (seed, stream id), so the
    batched and sequential runs see identical corrupted streams — and
    must still serve identical values, with degraded sessions silently
    dropping to the fallback path."""
    seq, bat = chaos_runs
    _assert_identical_streams(seq, bat)


def test_chaos_accounting_identical(chaos_runs):
    seq, bat = chaos_runs
    assert bat.estimates == seq.estimates
    assert bat.drops == seq.drops
    assert bat.deferrals == seq.deferrals == 0
    assert bat.deadline_misses == seq.deadline_misses


def test_chaos_containment_holds_under_batching():
    """The chaos runner's containment/recovery guarantees are scheduler
    independent: nothing escapes, and the fleet heals."""
    spec = ScenarioSpec(
        "batching-storm", "T2", "the default storm, batched",
        num_sessions=20, duration_s=2.0, batching=True, seed=SEED,
        fault_plan=chaos_plan(SEED, 2.0 / 3.0, 0.6 * 2.0),
    )
    result = run_scenario(spec)
    assert result.unhandled == 0
    assert result.all_healthy
    assert result.quarantines > 0  # the storm actually bit


# ----------------------------------------------------------------------
# BatchPlanner unit behaviour
# ----------------------------------------------------------------------
@pytest.fixture()
def planner_fleet():
    """A small manager whose sessions exercise every planner rule."""
    config = ViHOTConfig(profile_stride=8, num_length_candidates=3)
    profile = synthetic_profile()
    manager = SessionManager(config, batching=True)
    for name in ("plain-a", "plain-b", "plain-c"):
        manager.open_session(
            name, fingerprint=SYNTHETIC_FINGERPRINT, build_profile=lambda: profile
        )
    manager.open_session(
        "cam",
        fingerprint=SYNTHETIC_FINGERPRINT,
        build_profile=lambda: profile,
        camera=SyntheticCamera(seed=1),
    )
    manager.open_session(
        "forecast",
        fingerprint=SYNTHETIC_FINGERPRINT,
        build_profile=lambda: profile,
        config=replace(config, horizon_s=0.1),
    )
    return manager


def test_planner_groups_interchangeable_sessions(planner_fleet):
    planner = BatchPlanner()
    sessions = [planner_fleet.session(n) for n in ("plain-a", "plain-b", "plain-c")]
    keys = {planner.group_key(s) for s in sessions}
    assert len(keys) == 1 and None not in keys
    groups = planner.plan(sessions)
    assert len(groups) == 1
    assert groups[0].batched
    assert [s.session_id for s in groups[0].sessions] == [
        "plain-a",
        "plain-b",
        "plain-c",
    ]


def test_planner_excludes_camera_sessions(planner_fleet):
    planner = BatchPlanner()
    cam = planner_fleet.session("cam")
    assert planner.group_key(cam) is None
    groups = planner.plan([planner_fleet.session("plain-a"), cam])
    assert [(g.batched, len(g.sessions)) for g in groups] == [
        (False, 1),
        (False, 1),
    ]


def test_planner_excludes_degraded_sessions(planner_fleet):
    planner = BatchPlanner()
    sick = planner_fleet.session("plain-a")
    assert planner.group_key(sick) is not None
    sick.health.record_faults(sick.health.policy.degrade_after)
    assert sick.health.state == DEGRADED
    assert planner.group_key(sick) is None
    groups = planner.plan(
        [sick, planner_fleet.session("plain-b"), planner_fleet.session("plain-c")]
    )
    assert groups[0].batched is False  # the degraded leader rides alone
    assert groups[0].sessions[0].session_id == "plain-a"
    assert groups[1].batched  # the healthy pair still stacks
    assert len(groups[1].sessions) == 2


def test_planner_groups_forecast_with_plain_siblings(planner_fleet):
    """A horizon-only config override shares the plain siblings' group:
    the key normalizes ``horizon_s`` away, and the planned batch carries
    both sessions (each batch item brings its own engine, so the
    forecast session keeps its horizon inside the stacked call)."""
    planner = BatchPlanner()
    plain = planner_fleet.session("plain-a")
    forecast = planner_fleet.session("forecast")
    assert forecast.health.state == HEALTHY
    key_plain = planner.group_key(plain)
    key_forecast = planner.group_key(forecast)
    assert key_plain is not None and key_forecast is not None
    assert key_plain == key_forecast
    groups = planner.plan([plain, forecast])
    assert len(groups) == 1
    assert groups[0].batched
    assert [s.session_id for s in groups[0].sessions] == ["plain-a", "forecast"]


def test_planner_still_splits_non_horizon_overrides(planner_fleet):
    """Config differences beyond the forecast horizon still split: a
    different match window is a genuinely different candidate bank."""
    planner = BatchPlanner()
    plain = planner_fleet.session("plain-a")
    key_plain = planner.group_key(plain)
    assert key_plain is not None
    base = plain.tracker.engine.config
    other = SessionManager(
        replace(base, window_s=2 * base.window_s), stride_s=0.1
    ).open_session("wide", profile=plain.tracker.engine.profile)
    key_other = planner.group_key(other)
    assert key_other is not None
    assert key_plain != key_other


def test_planner_preserves_rotation_order(planner_fleet):
    """Group order follows the first member's rotation position, so the
    budget cutoff stays round-robin fair."""
    planner = BatchPlanner()
    rotated = [
        planner_fleet.session("cam"),
        planner_fleet.session("plain-b"),
        planner_fleet.session("plain-c"),
        planner_fleet.session("plain-a"),
    ]
    groups = planner.plan(rotated)
    assert [g.batched for g in groups] == [False, True]
    assert [s.session_id for s in groups[1].sessions] == [
        "plain-b",
        "plain-c",
        "plain-a",
    ]


def test_batch_metrics_and_tick_report():
    """A live batched manager reports stacked calls in both the tick
    report and the metrics registry."""
    config = ViHOTConfig(profile_stride=8, num_length_candidates=3)
    profile = synthetic_profile()
    manager = SessionManager(config, batching=True, budget_s=30.0, stride_s=0.1)
    assert manager.batching
    cabins = [
        SyntheticCabin(f"m-{k}", seed=40 + k, duration_s=1.5) for k in range(4)
    ]
    for cabin in cabins:
        manager.open_session(
            cabin.cabin_id,
            fingerprint=SYNTHETIC_FINGERPRINT,
            build_profile=lambda: profile,
        )
    saw_batch = False
    next_tick = 0.1
    for k in range(len(cabins[0])):
        t = float(cabins[0].times[k])
        for cabin in cabins:
            manager.ingest(cabin.cabin_id, t, cabin.csi_at(k))
        if t >= next_tick:
            report = manager.tick().scheduler
            next_tick += 0.1
            if report.batched_groups:
                saw_batch = True
                assert report.batched_sessions == sum(report.batch_sizes)
                assert all(size >= 2 for size in report.batch_sizes)
    assert saw_batch
    counters = manager.metrics_snapshot()["counters"]
    assert counters["batch_groups"] > 0
    assert counters["sessions_batched"] >= 2 * counters["batch_groups"]
    assert manager.metrics.histogram("batch_size").count > 0


def test_sequential_manager_reports_no_batches():
    config = ViHOTConfig(profile_stride=8, num_length_candidates=3)
    manager = SessionManager(config)
    assert not manager.batching
    report = manager.tick().scheduler
    assert report.batched_groups == 0
    assert report.batch_sizes == ()
