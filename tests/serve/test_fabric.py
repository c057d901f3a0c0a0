"""The sharded serving fabric: bit-identity, stealing, failover, merge.

The load-bearing pin lives in
``test_inline_fabric_bit_identical_to_single_manager``: a 4-worker
fabric fed the same packets as one in-process
:class:`~repro.serve.manager.SessionManager` must serve a bit-identical
estimate stream — sharding adds routing and transport, never tracking
behaviour.  (The full 50-session chaos-pack identity gate runs at the
scenario tier; this suite pins the mechanism at unit scale.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ViHOTConfig
from repro.serve.fabric import ServingFabric, merge_snapshots
from repro.serve.loadgen import (
    SYNTHETIC_FINGERPRINT,
    SyntheticCabin,
    estimates_identical,
    synthetic_profile,
)
from repro.serve.manager import SessionManager

CONFIG = ViHOTConfig(profile_stride=8, num_length_candidates=3)
PROFILE = synthetic_profile()
MANAGER_KWARGS = dict(
    budget_s=1.0, stride_s=0.25, idle_timeout_s=100.0, buffer_s=6.0
)


def _cabins(n: int, duration_s: float = 2.0) -> list[SyntheticCabin]:
    return [
        SyntheticCabin(
            f"cabin-{k:04d}", seed=k, duration_s=duration_s, rate_hz=100.0
        )
        for k in range(n)
    ]


def _drive(manager, cabins, tick_interval_s: float = 0.05):
    """Lockstep replay; returns every served (sid, polled_t, estimate)."""
    for cabin in cabins:
        manager.open_session(
            cabin.cabin_id,
            fingerprint=SYNTHETIC_FINGERPRINT,
            build_profile=lambda: PROFILE,
        )
    served = []
    next_tick = tick_interval_s
    for k in range(len(cabins[0].times)):
        t = float(cabins[0].times[k])
        for cabin in cabins:
            manager.ingest(cabin.cabin_id, t, cabin.csi_at(k))
        if t >= next_tick:
            report = manager.tick()
            served.extend(
                (s.session_id, s.polled_t, s.estimate)
                for s in report.scheduler.served
            )
            next_tick += tick_interval_s
    report = manager.tick()
    served.extend(
        (s.session_id, s.polled_t, s.estimate)
        for s in report.scheduler.served
    )
    return served


def _assert_streams_identical(base, other) -> None:
    assert len(base) == len(other)
    key = lambda row: (row[0], row[1])  # noqa: E731
    for (sid_a, t_a, e_a), (sid_b, t_b, e_b) in zip(
        sorted(base, key=key), sorted(other, key=key)
    ):
        assert sid_a == sid_b and t_a == t_b
        assert estimates_identical(e_a, e_b), (sid_a, t_a, e_a, e_b)


def test_inline_fabric_bit_identical_to_single_manager() -> None:
    cabins = _cabins(12)
    single = SessionManager(CONFIG, **MANAGER_KWARGS)
    base = _drive(single, cabins)
    assert base, "replay produced no estimates — test is vacuous"
    with ServingFabric(
        CONFIG, workers=4, processes=False, **MANAGER_KWARGS
    ) as fabric:
        got = _drive(fabric, cabins)
        assert len(fabric) == len(cabins)
        counters = fabric.metrics_snapshot()["counters"]
    _assert_streams_identical(base, got)
    assert counters["packets_ingested"] == len(cabins) * len(cabins[0].times)
    assert counters["estimates_served"] == sum(
        1 for _, _, e in got if e is not None
    )


def test_process_fabric_bit_identical_to_single_manager() -> None:
    cabins = _cabins(8)
    single = SessionManager(CONFIG, **MANAGER_KWARGS)
    base = _drive(single, cabins)
    assert base
    with ServingFabric(
        CONFIG, workers=4, processes=True, **MANAGER_KWARGS
    ) as fabric:
        got = _drive(fabric, cabins)
    _assert_streams_identical(base, got)


def test_sessions_pin_to_their_hashed_shard() -> None:
    with ServingFabric(
        CONFIG, workers=4, processes=False, **MANAGER_KWARGS
    ) as fabric:
        for cabin in _cabins(6):
            shard = fabric.open_session(
                cabin.cabin_id,
                fingerprint=SYNTHETIC_FINGERPRINT,
                build_profile=lambda: PROFILE,
            )
            assert shard == fabric.shard_of(cabin.cabin_id)
            assert shard == fabric.router.route(cabin.cabin_id)
        with pytest.raises(ValueError):
            fabric.open_session("cabin-0000")  # double open


def test_ingest_lands_in_the_routed_shard_ring() -> None:
    """Open sessions, sessions re-homed by ``kill_worker`` and an unknown
    id each push into the ring of the shard ``route`` names."""
    cabins = _cabins(12, duration_s=0.1)
    with ServingFabric(
        CONFIG, workers=4, processes=False, **MANAGER_KWARGS
    ) as fabric:
        for cabin in cabins:
            fabric.open_session(
                cabin.cabin_id,
                fingerprint=SYNTHETIC_FINGERPRINT,
                build_profile=lambda: PROFILE,
            )
        orphans = fabric.kill_worker(fabric.shard_of(cabins[0].cabin_id))
        assert orphans
        csi = cabins[0].csi_at(0)
        for sid in [cabin.cabin_id for cabin in cabins] + ["cabin-unknown"]:
            depths = {i: len(fabric._shards[i].ring) for i in fabric.workers}
            depths[fabric.router.route(sid)] += 1
            assert fabric.ingest(sid, 1.0, csi)
            assert depths == {i: len(fabric._shards[i].ring) for i in fabric.workers}


def test_profile_cache_is_fleet_wide() -> None:
    # One fingerprint, many sessions across many shards: the profile is
    # built exactly once, parent-side.
    builds = 0

    def build():
        nonlocal builds
        builds += 1
        return PROFILE

    with ServingFabric(
        CONFIG, workers=4, processes=False, **MANAGER_KWARGS
    ) as fabric:
        for cabin in _cabins(10):
            fabric.open_session(
                cabin.cabin_id,
                fingerprint=SYNTHETIC_FINGERPRINT,
                build_profile=build,
            )
        counters = fabric.metrics_snapshot()["counters"]
    assert builds == 1
    assert counters["profile_cache_misses"] == 1
    assert counters["profile_cache_hits"] == 9


def test_close_session_and_estimates_routes() -> None:
    cabins = _cabins(6)
    with ServingFabric(
        CONFIG, workers=3, processes=False, **MANAGER_KWARGS
    ) as fabric:
        _drive(fabric, cabins)
        merged = fabric.estimates()
        assert set(merged) == {c.cabin_id for c in cabins}
        history = fabric.estimates(cabins[0].cabin_id)
        assert isinstance(history, tuple) and history
        states = fabric.health_states()
        assert set(states) == {c.cabin_id for c in cabins}
        latest = fabric.close_session(cabins[0].cabin_id)
        assert estimates_identical(latest, merged[cabins[0].cabin_id])
        assert len(fabric) == len(cabins) - 1
        with pytest.raises(KeyError):
            fabric.close_session(cabins[0].cabin_id)
        with pytest.raises(KeyError):
            fabric.ingest_imu("nobody", 0.0, 0.0)


def test_work_stealing_grants_unused_quota_to_hot_shard() -> None:
    with ServingFabric(
        CONFIG,
        workers=3,
        processes=False,
        ring_slots=8,
        drain_records_per_tick=4,
        **MANAGER_KWARGS,
    ) as fabric:
        # Find a session id on each shard, then flood exactly one shard.
        by_shard: dict[int, str] = {}
        k = 0
        while len(by_shard) < 3:
            sid = f"cabin-{k:04d}"
            by_shard.setdefault(fabric.router.route(sid), sid)
            k += 1
        hot_shard, hot_sid = next(iter(sorted(by_shard.items())))
        fabric.open_session(
            hot_sid,
            fingerprint=SYNTHETIC_FINGERPRINT,
            build_profile=lambda: PROFILE,
        )
        packet = np.zeros((2, 30), dtype=np.complex128)
        for j in range(8):  # fill the hot ring to 100%
            fabric.ingest(hot_sid, 0.001 * j, packet)
        report = fabric.tick()
        counters = fabric.metrics_snapshot()["counters"]
        # Base quota is 4; the two idle shards donated 4 each, and the
        # hot shard needed 4 more — so the whole backlog drained in one
        # tick instead of two.
        assert report.ingested == 8
        assert counters["work_steals_total"] == 1
        assert counters["records_stolen_total"] == 4
        # Without stealing the second half would still be queued:
        assert len(fabric._shards[hot_shard].ring) == 0


def test_tick_quota_override_without_stealing() -> None:
    # ring_slots=16 keeps fill below the high-water mark, so the
    # override is a plain per-shard quota with no donated grants.
    with ServingFabric(
        CONFIG, workers=2, processes=False, ring_slots=16, **MANAGER_KWARGS
    ) as fabric:
        fabric.open_session(
            "cabin-0000",
            fingerprint=SYNTHETIC_FINGERPRINT,
            build_profile=lambda: PROFILE,
        )
        packet = np.zeros((2, 30), dtype=np.complex128)
        for j in range(6):
            fabric.ingest("cabin-0000", 0.001 * j, packet)
        assert fabric.tick(max_records=2).ingested == 2
        assert fabric.tick().ingested == 4  # default: drain everything
        counters = fabric.metrics_snapshot()["counters"]
        assert counters["work_steals_total"] == 0


def test_kill_worker_rehashes_sessions_and_keeps_serving() -> None:
    cabins = _cabins(10)
    with ServingFabric(
        CONFIG, workers=4, processes=False, **MANAGER_KWARGS
    ) as fabric:
        _drive(fabric, cabins)
        placement_before = {
            c.cabin_id: fabric.shard_of(c.cabin_id) for c in cabins
        }
        victim = placement_before[cabins[0].cabin_id]
        expected_orphans = {
            sid for sid, shard in placement_before.items() if shard == victim
        }
        orphans = fabric.kill_worker(victim)
        assert set(orphans) == expected_orphans
        assert victim not in fabric.router
        # Survivors keep their placement (minimal rehash)...
        for sid, shard in placement_before.items():
            if sid not in expected_orphans:
                assert fabric.shard_of(sid) == shard
        # ...and the whole fleet, orphans included, keeps serving.
        tail = [
            SyntheticCabin(c.cabin_id, seed=9000 + i, duration_s=2.0, rate_hz=100.0)
            for i, c in enumerate(cabins)
        ]
        for k in range(len(tail[0].times)):
            t = 2.0 + float(tail[0].times[k])
            for cabin in tail:
                fabric.ingest(cabin.cabin_id, t, cabin.csi_at(k))
        report = fabric.tick()
        served_sids = {s.session_id for s in report.scheduler.served}
        assert expected_orphans & served_sids, "orphans never served again"
        counters = fabric.metrics_snapshot()["counters"]
        assert counters["shard_failovers_total"] == 1
        assert counters["sessions_rehashed_total"] == len(expected_orphans)
        with pytest.raises(ValueError):
            fabric.kill_worker(victim)  # already dead


def test_kill_worker_process_mode() -> None:
    cabins = _cabins(6)
    with ServingFabric(
        CONFIG, workers=2, processes=True, **MANAGER_KWARGS
    ) as fabric:
        for cabin in cabins:
            fabric.open_session(
                cabin.cabin_id,
                fingerprint=SYNTHETIC_FINGERPRINT,
                build_profile=lambda: PROFILE,
            )
        victim = fabric.router.shards[0]
        orphans = fabric.kill_worker(victim)
        survivor = fabric.router.shards[0]
        assert all(fabric.shard_of(sid) == survivor for sid in orphans)
        assert set(fabric.health_states()) == {c.cabin_id for c in cabins}
        with pytest.raises(ValueError):
            fabric.kill_worker(survivor)  # never kill the last shard


def test_kill_worker_mid_stream_releases_all_segments() -> None:
    """Failover must not leak shared memory: kill a forked worker in the
    middle of its stream, keep serving, shut down — and every segment
    the fabric ever acquired must be gone from the kernel (attaching by
    name raises FileNotFoundError)."""
    from multiprocessing import shared_memory

    from repro.analysis import process_contracts

    was_active = process_contracts.active()
    if not was_active:
        process_contracts.activate()
    before = len(process_contracts.records())
    try:
        cabins = _cabins(8)
        fabric = ServingFabric(CONFIG, workers=4, processes=True, **MANAGER_KWARGS)
        try:
            for cabin in cabins:
                fabric.open_session(
                    cabin.cabin_id,
                    fingerprint=SYNTHETIC_FINGERPRINT,
                    build_profile=lambda: PROFILE,
                )
            half = len(cabins[0].times) // 2
            for k in range(half):
                t = float(cabins[0].times[k])
                for cabin in cabins:
                    fabric.ingest(cabin.cabin_id, t, cabin.csi_at(k))
            fabric.tick()
            victim = fabric.router.shards[0]
            orphans = fabric.kill_worker(victim)
            assert orphans, "kill hit an empty shard — pick a livelier victim"
            for k in range(half, len(cabins[0].times)):
                t = float(cabins[0].times[k])
                for cabin in cabins:
                    fabric.ingest(cabin.cabin_id, t, cabin.csi_at(k))
            fabric.tick()
        finally:
            fabric.close()
        acquired = {
            e.name
            for e in process_contracts.records()[before:]
            if e.kind == "acquire"
        }
        assert len(acquired) == 4, "expected one ring per worker"
        process_contracts.assert_balanced()
        for name in acquired:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
    finally:
        if not was_active:
            process_contracts.deactivate()
            process_contracts.clear_records()


def test_merge_snapshots_sums_and_merges() -> None:
    worker_a = {
        "counters": {"packets_ingested": 3, "estimates_served": 1},
        "gauges": {"sessions_live": 2.0},
        "histograms": {"estimate_latency_ms": {"count": 1, "p50": 5.0}},
        "stages": [
            {"stage": "match", "evaluated": 4, "fired": 2, "terminal": 1,
             "p50_ms": 1.0, "p90_ms": 2.0},
        ],
    }
    worker_b = {
        "counters": {"packets_ingested": 5},
        "gauges": {"sessions_live": 3.0},
        "stages": [
            {"stage": "match", "evaluated": 6, "fired": 1, "terminal": 0,
             "p50_ms": 3.0, "p90_ms": 1.5},
            {"stage": "sanitize", "evaluated": 2, "fired": 2, "terminal": 0,
             "p50_ms": 0.1, "p90_ms": 0.2},
        ],
    }
    parent = {
        "counters": {"packets_dropped": 7},
        "gauges": {"fabric_shards": 2.0},
        "histograms": {"estimate_latency_ms": {"count": 9, "p50": 4.0}},
    }
    merged = merge_snapshots([worker_a, worker_b], parent)
    assert merged["counters"] == {
        "estimates_served": 1,
        "packets_dropped": 7,
        "packets_ingested": 8,
    }
    assert merged["gauges"] == {"fabric_shards": 2.0, "sessions_live": 5.0}
    # Histograms come from the parent only — per-shard percentiles
    # cannot be merged, so the fleet observes them parent-side.
    assert merged["histograms"] == {"estimate_latency_ms": {"count": 9, "p50": 4.0}}
    stages = {s["stage"]: s for s in merged["stages"]}
    assert stages["match"]["evaluated"] == 10
    assert stages["match"]["fired"] == 3
    assert stages["match"]["p50_ms"] == 3.0  # worst shard wins
    assert stages["match"]["p90_ms"] == 2.0
    assert list(stages) == ["match", "sanitize"]


def test_fabric_validation() -> None:
    with pytest.raises(ValueError):
        ServingFabric(CONFIG, workers=0, processes=False)
    with pytest.raises(ValueError):
        ServingFabric(
            CONFIG,
            workers=2,
            processes=False,
            steal_low_water=0.9,
            steal_high_water=0.5,
        )


def test_close_is_idempotent() -> None:
    fabric = ServingFabric(CONFIG, workers=2, processes=False, **MANAGER_KWARGS)
    fabric.close()
    fabric.close()
