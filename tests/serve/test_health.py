"""Graceful degradation: the health machine, ingest rejection, poll
containment, quarantine backoff and recovery."""

import numpy as np
import pytest

from repro.core.config import ViHOTConfig
from repro.core.online import OnlineTracker
from repro.serve import SessionManager
from repro.serve.loadgen import SyntheticCabin, synthetic_profile
from repro.serve.session import (
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    HealthPolicy,
    SessionHealth,
)

FAST = ViHOTConfig(profile_stride=8, num_length_candidates=3)

NAN_CSI = np.full((2, 30), complex(float("nan"), float("nan")), dtype=np.complex128)


@pytest.fixture(scope="module")
def profile():
    return synthetic_profile()


def make_manager(**kwargs):
    kwargs.setdefault("budget_s", 10.0)
    kwargs.setdefault("stride_s", 0.25)
    kwargs.setdefault("buffer_s", 6.0)
    return SessionManager(FAST, **kwargs)


# ----------------------------------------------------------------------
# SessionHealth unit behaviour
# ----------------------------------------------------------------------
def test_health_machine_transitions():
    health = SessionHealth()  # degrade_after=1, quarantine_after=3
    assert health.state == HEALTHY
    health.record_faults()
    assert health.state == DEGRADED
    health.record_faults(2)  # consecutive total hits quarantine_after
    assert health.state == QUARANTINED
    assert health.quarantines == 1
    assert health.cooldown_ticks == 2  # first backoff = backoff_ticks

    # Faults while quarantined are counted but change nothing.
    health.record_faults(10)
    assert health.state == QUARANTINED
    assert health.fault_events == 13

    # The cooldown burns down tick by tick, then releases to probation.
    assert not health.tick()
    assert health.tick()
    assert health.state == DEGRADED
    assert health.releases == 1

    # One clean poll (probation_successes=1) restores healthy.
    health.record_success()
    assert health.state == HEALTHY
    assert health.recoveries == 1


def test_success_resets_consecutive_faults():
    health = SessionHealth(HealthPolicy(degrade_after=2, quarantine_after=5))
    health.record_faults()
    health.record_success()
    assert health.state == HEALTHY
    assert health.consecutive_faults == 0
    # The streak must now restart from zero.
    health.record_faults()
    assert health.state == HEALTHY


def test_backoff_grows_exponentially_and_caps():
    health = SessionHealth()  # backoff 2, factor 2.0, cap 8
    cooldowns = []
    for _ in range(4):
        health.record_faults(3)
        cooldowns.append(health.cooldown_ticks)
        while health.state == QUARANTINED:
            health.tick()
    assert cooldowns == [2, 4, 8, 8]


def test_probation_faults_restart_the_count():
    health = SessionHealth(HealthPolicy(probation_successes=2))
    health.record_faults(3)
    while health.state == QUARANTINED:
        health.tick()
    health.record_success()
    health.record_faults()  # fault mid-probation
    health.record_success()
    assert health.state == DEGRADED, "probation must restart after a fault"
    health.record_success()
    assert health.state == HEALTHY


def test_policy_validation():
    with pytest.raises(ValueError):
        HealthPolicy(degrade_after=0)
    with pytest.raises(ValueError):
        HealthPolicy(backoff_ticks=0)
    with pytest.raises(ValueError):
        HealthPolicy(probation_successes=0)


def test_tick_outside_quarantine_is_noop():
    health = SessionHealth()
    assert not health.tick()
    assert health.state == HEALTHY


# ----------------------------------------------------------------------
# Manager integration: rejection, containment, recovery
# ----------------------------------------------------------------------
def test_nonfinite_packets_rejected_and_quarantine(profile):
    manager = make_manager()
    manager.open_session("car-0", profile)
    manager.ingest("car-0", 0.00, np.ones((2, 30), dtype=np.complex128))
    manager.tick()
    session = manager.session("car-0")
    assert session.health.state == HEALTHY

    # One tick of NaN CSI plus a non-finite stamp: all rejected, none
    # reach the tracker, and the batch quarantines the session.
    manager.ingest("car-0", 0.01, NAN_CSI)
    manager.ingest("car-0", 0.02, NAN_CSI)
    manager.ingest("car-0", float("inf"), np.ones((2, 30), dtype=np.complex128))
    packets_before = session.packets
    report = manager.tick()
    assert report.rejected == 3
    assert report.quarantined == ("car-0",)
    assert session.packets == packets_before  # nothing reached the tracker
    assert session.rejected_packets == 3
    assert session.health.state == QUARANTINED
    assert not session.pending(), "quarantine must suspend polling"

    counters = manager.metrics_snapshot()["counters"]
    assert counters["packets_rejected"] == 3
    assert counters["quarantines_total"] == 1
    assert manager.metrics.gauge("health_quarantined").value == 1
    assert manager.health_states() == {"car-0": QUARANTINED}


def test_mixed_reject_paths_in_one_tick(profile):
    """One session's tick mixes every way a record can be accepted or
    refused; the counts, the health machine and the tracker's ring all
    come out as if each record were handled on its own."""
    manager = make_manager()
    manager.open_session("car-0", profile)
    session = manager.session("car-0")
    cabin = SyntheticCabin("car-0", seed=5, duration_s=1.0, rate_hz=100.0)
    wide = np.exp(1j * np.linspace(0.0, 0.4, 3 * 16)).reshape(3, 16)
    records = [
        (float(cabin.times[0]), cabin.csi_at(0)),  # finite
        (float(cabin.times[1]), cabin.csi_at(1)),  # finite
        (float(cabin.times[2]), NAN_CSI),  # NaN CSI: rejected
        (float("nan"), cabin.csi_at(2)),  # non-finite stamp: rejected
        (float(cabin.times[2]), cabin.csi_at(2)),  # finite
        (float(cabin.times[2]), cabin.csi_at(3)),  # duplicate stamp: dropped
        (float(cabin.times[1]), cabin.csi_at(4)),  # out of order: dropped
        (float(cabin.times[3]), wide),  # another (n_rx, F): accepted
        (float("inf"), cabin.csi_at(5)),  # non-finite stamp: rejected
        (float(cabin.times[4]), np.ones(30, dtype=np.complex128)),  # 1-D: rejected
        (float(cabin.times[5]), np.ones(30, dtype=np.complex128)),  # 1-D: rejected
        (float(cabin.times[4]), NAN_CSI),  # NaN CSI: rejected
        (float(cabin.times[4]), cabin.csi_at(4)),  # finite
        (float(cabin.times[5]), cabin.csi_at(5)),  # finite
    ]
    for t, csi in records:
        manager.ingest("car-0", t, csi)

    report = manager.tick()

    # Stale stamps count as ingested (the tracker drops them silently);
    # non-finite and malformed records are rejected.
    assert report.ingested == 8
    assert report.rejected == 6
    assert report.orphaned == 0
    assert session.packets == 8
    assert session.rejected_packets == 6
    counters = manager.metrics_snapshot()["counters"]
    assert counters["packets_ingested"] == 8
    assert counters["packets_rejected"] == 6
    # Six faults in one tick: healthy -> degraded -> quarantined.
    assert session.health.state == QUARANTINED
    assert session.health.fault_events == 6
    assert report.quarantined == ("car-0",)

    # The ring holds exactly the fresh, finite, well-formed packets.
    kept = [0, 1, 2, 3, 4, 5]
    assert session.tracker.phase_series().times.tolist() == [
        float(cabin.times[k]) for k in kept
    ]
    reference = OnlineTracker(profile, FAST, buffer_s=6.0)
    for t, csi in records:
        if np.isfinite(t) and np.all(np.isfinite(csi)) and np.ndim(csi) == 2:
            reference.push_csi(t, csi)
    assert np.array_equal(
        session.tracker.phase_series().values, reference.phase_series().values
    )


def test_poll_exception_contained_and_quarantines(profile):
    manager = make_manager(stride_s=0.05)
    cabin = SyntheticCabin("car-0", seed=3, duration_s=4.0, rate_hz=100.0)
    manager.open_session("car-0", profile)
    session = manager.session("car-0")

    def boom():
        raise RuntimeError("tracker wedged")

    session.poll_estimate = boom  # type: ignore[method-assign]

    failures = 0
    k = 0
    # Stream in half-second chunks so the session is pending every tick.
    while session.health.state != QUARANTINED and k < len(cabin):
        for _ in range(50):
            if k >= len(cabin):
                break
            manager.ingest("car-0", float(cabin.times[k]), cabin.csi_at(k))
            k += 1
        report = manager.tick()  # must not raise
        failures += len(report.poll_failures)

    assert session.health.state == QUARANTINED
    assert failures == 3  # degrade on the 1st, quarantine on the 3rd
    assert session.poll_failures == 3
    counters = manager.metrics_snapshot()["counters"]
    assert counters["poll_failures"] == 3
    assert counters["quarantines_total"] == 1

    # Fix the tracker, keep streaming: the backoff expires, the session
    # is released to probation, and the next clean poll recovers it.
    del session.poll_estimate
    released = recovered = False
    for _ in range(8):
        for _ in range(50):
            if k >= len(cabin):
                break
            manager.ingest("car-0", float(cabin.times[k]), cabin.csi_at(k))
            k += 1
        report = manager.tick()
        released = released or "car-0" in report.released
        recovered = recovered or "car-0" in report.recovered
        if recovered:
            break
    assert released and recovered
    assert session.health.state == HEALTHY
    counters = manager.metrics_snapshot()["counters"]
    assert counters["quarantine_releases"] == 1
    assert counters["recoveries_total"] == 1
    assert manager.metrics.gauge("health_quarantined").value == 0
    assert manager.metrics.gauge("health_degraded").value == 0


def test_one_bad_session_does_not_kill_the_tick(profile):
    manager = make_manager(stride_s=0.05)
    cabins = [
        SyntheticCabin(f"car-{k}", seed=10 + k, duration_s=2.0, rate_hz=100.0)
        for k in range(3)
    ]
    for cabin in cabins:
        manager.open_session(cabin.cabin_id, profile)

    def boom():
        raise RuntimeError("wedged")

    manager.session("car-1").poll_estimate = boom  # type: ignore[method-assign]

    for k in range(len(cabins[0])):
        for cabin in cabins:
            manager.ingest(cabin.cabin_id, float(cabin.times[k]), cabin.csi_at(k))
        if (k + 1) % 25 == 0:
            manager.tick()
    manager.tick()

    # The healthy sessions kept producing estimates throughout.
    assert manager.session("car-0").estimates_produced > 0
    assert manager.session("car-2").estimates_produced > 0
    # The wedged one was contained (degraded or quarantined, possibly
    # mid-retry when the stream ended) and produced nothing.
    bad = manager.session("car-1")
    assert bad.health.state in (DEGRADED, QUARANTINED)
    assert bad.poll_failures >= 3
    assert bad.estimates_produced == 0
    assert manager.session("car-0").health.state == HEALTHY


def test_custom_policy_reaches_sessions(profile):
    policy = HealthPolicy(degrade_after=2, quarantine_after=10)
    manager = make_manager(health_policy=policy)
    manager.open_session("car-0", profile)
    assert manager.session("car-0").health.policy is policy
    manager.ingest("car-0", 0.0, NAN_CSI)
    manager.tick()
    # One fault < degrade_after=2: still healthy under the lax policy.
    assert manager.session("car-0").health.state == HEALTHY
