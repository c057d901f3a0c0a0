"""The multi-session front door: ``SessionManager``.

One manager owns a fleet of :class:`~repro.serve.session.TrackedSession`
behind four verbs — ``open_session`` / ``ingest`` / ``estimates`` /
``close_session`` — plus a periodic ``tick()`` that does all the real
work: drain the ingest queue into the sessions, let the scheduler serve
due estimates within its budget, and apply the idle/eviction policy.

Two policies live here rather than in the sessions:

* **Profile caching.**  Profiling a driver costs ~100 s of scanning
  (Sec. 3.3); a fleet of identical cabins (same car model, same antenna
  layout, same driver class) should pay it once.  ``open_session``
  accepts a *scenario fingerprint*; fingerprint hits reuse the cached
  :class:`~repro.core.profile.CsiProfile`, misses call the caller's
  ``build_profile`` thunk and cache the result.
* **Idle eviction.**  Sessions with no ingest activity for
  ``idle_timeout_s`` (manager wall clock) are parked ``idle``; idle
  sessions untouched for another ``evict_after_s`` are evicted — their
  tracker ring buffers freed, their last-estimate snapshot retained.
  Fresh packets wake an idle session back to ``live``; packets for an
  evicted session are counted as orphaned and shed.

The manager adds routing and scheduling only — it never changes what a
tracker computes.  The same packets pushed into a standalone
``OnlineTracker`` with estimates pulled at the same instants produce
bit-identical results (``tests/serve/test_equivalence.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Callable, Iterator
from itertools import groupby

import numpy as np

from repro.core.config import ViHOTConfig
from repro.core.diagnostics import StageStats, aggregate_stage_traces
from repro.core.profile import CsiProfile
from repro.core.stages import CameraLike, Estimate
from repro.core.workloads import HEAD_WORKLOAD
from repro.serve.batch import BatchedScheduler
from repro.serve.ingest import IngestQueue
from repro.serve.metrics import MetricsRegistry
from repro.serve.scheduler import RoundRobinScheduler, TickReport
from repro.serve.session import (
    DEGRADED,
    EVICTED,
    HEALTHY,
    IDLE,
    LIVE,
    QUARANTINED,
    HealthPolicy,
    SessionStateError,
    TrackedSession,
)


def scenario_fingerprint(config: object) -> str:
    """A cache key over the profiling-relevant knobs of a scenario.

    Two :class:`~repro.experiments.scenarios.ScenarioConfig` with equal
    fingerprints produce byte-identical profiling passes (the runtime
    half — motion, steering, interference — deliberately does not
    participate), so their sessions can share one cached profile.
    """
    fields = (
        "seed",
        "driver",
        "rx_layout",
        "band",
        "num_positions",
        "lean_span_m",
        "profile_seconds",
        "profile_front_hold_s",
        "profile_scan_speed",
        "profile_scan_amplitude",
    )
    parts = [f"{name}={getattr(config, name)!r}" for name in fields]
    return "scenario{" + ",".join(parts) + "}"


class ProfileCache:
    """Fingerprint-keyed cache of built :class:`CsiProfile`."""

    def __init__(self) -> None:
        self._profiles: dict[str, CsiProfile] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._profiles

    def get_or_build(
        self, fingerprint: str, build: Callable[[], CsiProfile]
    ) -> CsiProfile:
        if fingerprint in self._profiles:
            self.hits += 1
            return self._profiles[fingerprint]
        self.misses += 1
        profile = build()
        self._profiles[fingerprint] = profile
        return profile

    def put(self, fingerprint: str, profile: CsiProfile) -> None:
        self._profiles[fingerprint] = profile

    def invalidate(self, fingerprint: str) -> None:
        self._profiles.pop(fingerprint, None)


@dataclass(frozen=True)
class ManagerTickReport:
    """Everything one ``SessionManager.tick()`` did."""

    ingested: int  # packets routed into sessions
    orphaned: int  # packets for unknown/evicted sessions, shed
    scheduler: TickReport
    idled: tuple[str, ...] = ()
    evicted: tuple[str, ...] = ()
    rejected: int = 0  # non-finite packets refused at ingest
    poll_failures: tuple[str, ...] = ()  # sessions whose poll raised (contained)
    quarantined: tuple[str, ...] = ()  # sessions entering quarantine this tick
    released: tuple[str, ...] = ()  # quarantine backoffs expiring (retry)
    recovered: tuple[str, ...] = ()  # sessions restored to healthy


class SessionManager:
    """Own, feed and schedule a fleet of tracked sessions.

    ``ingest`` only queues a packet; ``tick`` drains the queue and hands
    each session its packets as blocks, one per run of equal CSI shape
    and dtype, with one finite mask over the run's stamps and CSI.  A
    block push leaves the tracker exactly as pushing its packets one at
    a time would, so batching ingest changes cost, never estimates;
    non-finite and malformed packets are counted as rejected and fed to
    the session's health machine, duplicates and reordered stamps count
    as ingested and are dropped by the tracker.

    Args:
        config: tracker parameters shared by every session.
        queue_depth: ingest ring capacity (drop-oldest past it).
        budget_s: scheduler wall-time budget per tick.
        stride_s: per-session estimate period (deadline accounting).
        idle_timeout_s: wall seconds without ingest before a session is
            parked idle.
        evict_after_s: further wall seconds before an idle session is
            evicted (``None`` disables eviction).
        buffer_s: per-tracker retention horizon.
        max_history: retained estimates per session.
        clock: injectable wall clock for activity stamps (tests fake it).
        health_policy: fault-containment thresholds applied to every
            session (degrade/quarantine/backoff/probation).
        batching: serve due estimates through the fleet-batched
            scheduler (:class:`~repro.serve.batch.BatchedScheduler`) —
            groups of interchangeable sessions run as one stacked
            engine call.  Estimate values are bit-identical either way
            (``tests/serve/test_batching.py``); only throughput and the
            ``batch_*`` metrics change.
    """

    def __init__(
        self,
        config: ViHOTConfig = ViHOTConfig(),
        *,
        queue_depth: int = 4096,
        budget_s: float = 0.050,
        stride_s: float = 0.05,
        idle_timeout_s: float = 30.0,
        evict_after_s: float | None = 60.0,
        buffer_s: float = 10.0,
        max_history: int = 256,
        clock: Callable[[], float] = time.monotonic,
        health_policy: HealthPolicy | None = None,
        batching: bool = False,
    ) -> None:
        self._config = config
        self._stride_s = stride_s
        self._buffer_s = buffer_s
        self._max_history = max_history
        self._idle_timeout_s = idle_timeout_s
        self._evict_after_s = evict_after_s
        self._clock = clock
        self._health_policy = health_policy if health_policy is not None else HealthPolicy()

        self._sessions: dict[str, TrackedSession] = {}
        self._queue = IngestQueue(queue_depth)
        self._batching = batching
        self._scheduler: RoundRobinScheduler = (
            BatchedScheduler(budget_s=budget_s)
            if batching
            else RoundRobinScheduler(budget_s=budget_s)
        )
        self._metrics = MetricsRegistry()
        self._profiles = ProfileCache()
        self._idle_since: dict[str, float] = {}

        m = self._metrics
        self._g_live = m.gauge("sessions_live", "sessions not evicted")
        self._g_queue = m.gauge("queue_depth", "packets waiting in the ingest ring")
        self._c_opened = m.counter("sessions_opened")
        self._c_evicted = m.counter("sessions_evicted")
        self._c_ingested = m.counter("packets_ingested", "packets routed into sessions")
        self._c_dropped = m.counter("packets_dropped", "packets shed by backpressure")
        self._c_orphaned = m.counter(
            "packets_orphaned", "packets for unknown/evicted sessions"
        )
        self._c_estimates = m.counter("estimates_served")
        self._c_deferrals = m.counter("scheduler_deferrals")
        self._c_misses = m.counter("deadline_misses")
        self._c_cache_hits = m.counter("profile_cache_hits")
        self._c_cache_misses = m.counter("profile_cache_misses")
        self._h_latency = m.histogram("estimate_latency_ms", "per-estimate wall time")
        self._h_lateness = m.histogram(
            "estimate_lateness_ms", "stream-time distance past the due time"
        )
        self._c_rejected = m.counter(
            "packets_rejected", "non-finite packets refused at ingest"
        )
        self._c_poll_failures = m.counter(
            "poll_failures", "tracker exceptions contained during polls"
        )
        self._c_quarantines = m.counter(
            "quarantines_total", "health transitions into quarantine"
        )
        self._c_releases = m.counter(
            "quarantine_releases", "backoff expiries returning a session to probation"
        )
        self._c_recoveries = m.counter(
            "recoveries_total", "sessions restored to healthy after degradation"
        )
        self._g_degraded = m.gauge(
            "health_degraded", "sessions currently degraded (fault-mode occupancy)"
        )
        self._g_quarantined = m.gauge(
            "health_quarantined", "sessions currently quarantined"
        )
        self._c_batch_groups = m.counter(
            "batch_groups", "stacked engine calls executed"
        )
        self._c_batched = m.counter(
            "sessions_batched", "sessions served via a stacked engine call"
        )
        self._c_fallback = m.counter(
            "sessions_fallback", "sessions served on the sequential path"
        )
        self._h_batch_size = m.histogram(
            "batch_size", "sessions per stacked engine call"
        )

    # ------------------------------------------------------------------
    # Fleet API
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @property
    def batching(self) -> bool:
        """Whether estimates are served through the batched scheduler."""
        return self._batching

    @property
    def profile_cache(self) -> ProfileCache:
        return self._profiles

    @property
    def queue(self) -> IngestQueue:
        return self._queue

    def __len__(self) -> int:
        """Sessions not yet evicted."""
        return sum(1 for s in self._sessions.values() if s.state != EVICTED)

    def session(self, session_id: str) -> TrackedSession:
        if session_id not in self._sessions:
            raise KeyError(f"unknown session {session_id!r}")
        return self._sessions[session_id]

    def session_ids(self, state: str | None = None) -> tuple[str, ...]:
        """Ids of sessions, optionally filtered by lifecycle state."""
        return tuple(
            sid
            for sid, s in self._sessions.items()
            if state is None or s.state == state
        )

    def open_session(
        self,
        session_id: str,
        profile: CsiProfile | None = None,
        *,
        fingerprint: str | None = None,
        build_profile: Callable[[], CsiProfile] | None = None,
        camera: CameraLike | None = None,
        config: ViHOTConfig | None = None,
        workload: str = HEAD_WORKLOAD,
    ) -> TrackedSession:
        """Admit one session, resolving its profile.

        Profile resolution, in priority order: an explicit ``profile``
        (cached under ``fingerprint`` when given); a ``fingerprint``
        cache hit; a cache miss served by calling ``build_profile``.
        With none of the three the session is admitted ``created`` and
        must get :meth:`TrackedSession.attach_profile` before packets.

        ``config`` overrides the manager-wide tracker config for this
        session (e.g. a forecasting cabin in a tracking fleet); the
        batch planner stacks sessions whose configs agree up to the
        forecast horizon, so an override beyond that simply lands the
        session in its own batch group.

        ``workload`` picks the estimation chain
        (:func:`repro.core.workloads.workload_kinds`): one fleet can mix
        head-tracking, occupant-localization and breathing sessions in
        the same tick loop — different chains never share a batch group
        (the planner keys on stage names).
        """
        if session_id in self._sessions and (
            self._sessions[session_id].state != EVICTED
        ):
            raise ValueError(f"session {session_id!r} already open")
        session = TrackedSession(
            session_id,
            config if config is not None else self._config,
            camera=camera,
            buffer_s=self._buffer_s,
            stride_s=self._stride_s,
            max_history=self._max_history,
            health_policy=self._health_policy,
            workload=workload,
        )
        if profile is None and fingerprint is not None:
            if fingerprint in self._profiles or build_profile is not None:
                before = self._profiles.hits
                profile = self._profiles.get_or_build(
                    fingerprint,
                    build_profile if build_profile is not None else _no_builder,
                )
                if self._profiles.hits > before:
                    self._c_cache_hits.inc()
                else:
                    self._c_cache_misses.inc()
        elif profile is not None and fingerprint is not None:
            self._profiles.put(fingerprint, profile)
        if profile is not None:
            session.attach_profile(profile, fingerprint)
        session.last_activity = self._clock()
        self._sessions[session_id] = session
        self._c_opened.inc()
        self._metrics.counter(
            f"vihot_sessions_opened_{workload}_total",
            f"sessions opened with the {workload!r} workload",
        ).inc()
        self._g_live.set(len(self))
        return session

    def close_session(self, session_id: str) -> Estimate | None:
        """Evict a session; returns its final estimate snapshot."""
        session = self.session(session_id)
        if session.state != EVICTED:
            session.evict()
            self._c_evicted.inc()
        self._idle_since.pop(session_id, None)
        self._queue.forget_session(session_id)
        self._g_live.set(len(self))
        return session.latest

    # ------------------------------------------------------------------
    # Ingest (hot path: one ring push, no session lookup)
    # ------------------------------------------------------------------
    def ingest(self, session_id: str, time: float, csi: np.ndarray) -> bool:
        """Enqueue one CSI packet; returns ``False`` iff one was shed."""
        accepted = self._queue.push(session_id, time, csi)
        if not accepted:
            self._c_dropped.inc()
        return accepted

    def ingest_imu(self, session_id: str, time: float, yaw_rate: float) -> None:
        """Route one IMU reading directly (IMU rates are ~100x lower than
        CSI, so the batching queue would buy nothing)."""
        self.session(session_id).push_imu(time, yaw_rate)

    # ------------------------------------------------------------------
    # The tick: drain -> schedule -> idle policy
    # ------------------------------------------------------------------
    def tick(self, max_records: int | None = None) -> ManagerTickReport:
        now = self._clock()

        # 1. Drain the queue into the sessions as blocks.  Poisoned
        # packets (non-finite CSI or stamps) are masked out and
        # malformed blocks refused here — counted, fed to the session's
        # health machine — so one corrupted cabin stream can never kill
        # the tick or poison a tracker's unwrap chain.  A block push
        # equals pushing its packets one by one.
        batch = self._queue.drain(max_records)
        ingested = 0
        orphaned = 0
        rejected = 0
        quarantined: list[str] = []
        for session_id, records in batch.by_session().items():
            session = self._sessions.get(session_id)
            if session is None or session.state == EVICTED or session.tracker is None:
                orphaned += len(records)
                continue
            accepted = 0
            bad = 0
            # A run of equal CSI shape and dtype stacks into one
            # (T, n_rx, F) block without changing a single value.
            for _layout, group in groupby(records, key=lambda r: (r.csi.shape, r.csi.dtype)):
                run = list(group)
                times = np.array([record.time for record in run], dtype=np.float64)
                csi = np.stack([record.csi for record in run])
                finite = np.isfinite(times) & np.isfinite(csi.reshape(len(run), -1)).all(axis=1)
                kept = int(np.count_nonzero(finite))
                bad += len(run) - kept
                if kept == 0:
                    continue
                try:
                    session.push_csi(times[finite], csi[finite])
                except (ValueError, SessionStateError):
                    bad += kept
                    continue
                accepted += kept
            ingested += accepted
            rejected += bad
            if bad:
                session.rejected_packets += bad
                if self._record_faults(session, bad):
                    quarantined.append(session_id)
            # Any arrival — even a rejected one — proves the cabin is
            # alive, so the idle clock resets either way.
            session.last_activity = now
            self._idle_since.pop(session_id, None)
        self._c_ingested.inc(ingested)
        self._c_orphaned.inc(orphaned)
        self._c_rejected.inc(rejected)

        # 2. Serve due estimates within the budget.  Contained poll
        # exceptions surface as serving records with an ``error``; they
        # count as health faults, clean polls as successes.
        live = [s for s in self._sessions.values() if s.state == LIVE]
        report = self._scheduler.tick(live)
        poll_failures: list[str] = []
        recovered: list[str] = []
        for served in report.served:
            session = self._sessions.get(served.session_id)
            if served.error is not None:
                poll_failures.append(served.session_id)
                self._c_poll_failures.inc()
                if session is not None:
                    session.poll_failures += 1
                    if self._record_faults(session, 1):
                        quarantined.append(served.session_id)
                continue
            if session is not None:
                before = session.health.state
                session.health.record_success()
                if before != HEALTHY and session.health.state == HEALTHY:
                    recovered.append(served.session_id)
                    self._c_recoveries.inc()
            if served.estimate is not None:
                self._c_estimates.inc()
                self._h_latency.observe(served.elapsed_s * 1e3)
                self._h_lateness.observe(served.lateness_s * 1e3)
        self._c_deferrals.inc(len(report.deferred))
        self._c_misses.inc(report.deadline_misses)
        self._c_batch_groups.inc(report.batched_groups)
        self._c_batched.inc(report.batched_sessions)
        self._c_fallback.inc(report.fallback_sessions)
        for size in report.batch_sizes:
            self._h_batch_size.observe(float(size))

        # 3. Quarantine backoff: this tick counts toward every cooldown;
        # expiries release the session to degraded probation (a bounded
        # retry — the next faults re-quarantine it for longer).
        released: list[str] = []
        for session_id, session in self._sessions.items():
            if session.state == EVICTED:
                continue
            if session.health.tick():
                released.append(session_id)
                self._c_releases.inc()

        # 4. Idle / eviction policy.
        idled: list[str] = []
        evicted: list[str] = []
        for session_id, session in self._sessions.items():
            if session.state == LIVE and (
                now - session.last_activity > self._idle_timeout_s
            ):
                session.mark_idle()
                self._idle_since[session_id] = now
                idled.append(session_id)
            elif session.state == IDLE and self._evict_after_s is not None and (
                now - self._idle_since.get(session_id, now) > self._evict_after_s
            ):
                session.evict()
                self._idle_since.pop(session_id, None)
                self._queue.forget_session(session_id)
                self._c_evicted.inc()
                evicted.append(session_id)

        # 5. Health occupancy gauges (fault-mode occupancy of the fleet).
        degraded_now = 0
        quarantined_now = 0
        for session in self._sessions.values():
            if session.state == EVICTED:
                continue
            if session.health.state == DEGRADED:
                degraded_now += 1
            elif session.health.state == QUARANTINED:
                quarantined_now += 1
        self._g_degraded.set(degraded_now)
        self._g_quarantined.set(quarantined_now)

        self._g_live.set(len(self))
        self._g_queue.set(len(self._queue))
        return ManagerTickReport(
            ingested=ingested,
            orphaned=orphaned,
            scheduler=report,
            idled=tuple(idled),
            evicted=tuple(evicted),
            rejected=rejected,
            poll_failures=tuple(poll_failures),
            quarantined=tuple(quarantined),
            released=tuple(released),
            recovered=tuple(recovered),
        )

    def _record_faults(self, session: TrackedSession, n: int) -> bool:
        """Feed faults to a session's health machine; True on a fresh
        quarantine transition (also counted in the registry)."""
        before = session.health.state
        session.health.record_faults(n)
        if session.health.state == QUARANTINED and before != QUARANTINED:
            self._c_quarantines.inc()
            return True
        return False

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def estimates(
        self, session_id: str | None = None
    ) -> dict[str, Estimate | None] | tuple[Estimate, ...]:
        """Latest snapshot per session, or one session's history.

        With no argument: ``{session_id: latest estimate or None}`` over
        non-evicted sessions.  With an id: that session's retained
        estimate history, oldest first.
        """
        if session_id is not None:
            return tuple(self.session(session_id).history)
        return {
            sid: s.latest
            for sid, s in self._sessions.items()
            if s.state != EVICTED
        }

    def health_states(self) -> dict[str, str]:
        """``{session_id: health state}`` over non-evicted sessions."""
        return {
            sid: s.health.state
            for sid, s in self._sessions.items()
            if s.state != EVICTED
        }

    def stage_stats(self) -> tuple[StageStats, ...]:
        """Fleet-wide engine-stage aggregates over retained histories."""
        def all_estimates() -> Iterator[Estimate]:
            for session in self._sessions.values():
                yield from session.history

        return aggregate_stage_traces(all_estimates())

    def metrics_snapshot(self) -> dict[str, object]:
        """One scrape: serving metrics + fleet tracking stage stats."""
        self._metrics.fold_stage_stats(self.stage_stats())
        return self._metrics.as_dict()

    def render_metrics(self) -> str:
        """The registry's one-line report (stage stats folded in)."""
        self._metrics.fold_stage_stats(self.stage_stats())
        return self._metrics.render()


def _no_builder() -> CsiProfile:
    raise SessionStateError(
        "profile cache miss and no build_profile callback was provided"
    )
