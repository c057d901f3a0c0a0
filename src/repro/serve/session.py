"""One served tracking session: an ``OnlineTracker`` plus lifecycle.

The serving layer never talks to an :class:`~repro.core.online.OnlineTracker`
directly — it talks to a :class:`TrackedSession`, which adds the three
things a fleet needs that a single tracker doesn't have:

* a **lifecycle** (``created → profiled → live → idle → evicted``) so
  the manager can admit sessions before their profile exists, park
  inactive ones, and reclaim their ring buffers;
* an **activity clock** (stamped by the manager's wall clock on every
  ingest) driving idle detection and eviction;
* a **snapshot** of the latest :class:`~repro.core.stages.Estimate` and
  a bounded history of recent ones, so reads (`estimates`, metrics,
  stage stats) never touch the tracker's hot path.

The session adds routing and bookkeeping only: every estimate it serves
is produced by the wrapped tracker from exactly the packets routed to
it, so a session's output is bit-identical to a standalone tracker fed
the same packets (pinned by ``tests/serve/test_equivalence.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.config import ViHOTConfig
from repro.core.diagnostics import StageStats, aggregate_stage_traces
from repro.core.online import OnlineTracker
from repro.core.profile import CsiProfile
from repro.core.stages import CameraLike, Estimate
from repro.core.workloads import HEAD_WORKLOAD, engine_for_workload, workload_kinds

#: Lifecycle states, in nominal order.
CREATED = "created"
PROFILED = "profiled"
LIVE = "live"
IDLE = "idle"
EVICTED = "evicted"
LIFECYCLE = (CREATED, PROFILED, LIVE, IDLE, EVICTED)

#: Health states — orthogonal to the lifecycle.  The lifecycle says
#: whether a session *exists and has data*; health says whether the
#: serving layer currently trusts its data and polls.
HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"
HEALTH_STATES = (HEALTHY, DEGRADED, QUARANTINED)


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds for the per-session fault containment machine.

    Args:
        degrade_after: consecutive fault events before a healthy
            session is marked degraded.
        quarantine_after: consecutive fault events before a degraded
            session is quarantined (polls suspended).
        backoff_ticks: quarantine duration (manager ticks) for the
            first quarantine; doubles per repeat up to the cap, the
            bounded retry/backoff on persistent faults.
        backoff_factor: growth factor per repeated quarantine.
        backoff_max_ticks: backoff cap.
        probation_successes: clean polls a degraded session needs to
            be declared healthy (recovered) again.
    """

    degrade_after: int = 1
    quarantine_after: int = 3
    backoff_ticks: int = 2
    backoff_factor: float = 2.0
    backoff_max_ticks: int = 8
    probation_successes: int = 1

    def __post_init__(self) -> None:
        if self.degrade_after < 1 or self.quarantine_after < 1:
            raise ValueError("health thresholds must be >= 1")
        if self.backoff_ticks < 1 or self.backoff_max_ticks < 1:
            raise ValueError("backoff tick counts must be >= 1")
        if self.probation_successes < 1:
            raise ValueError("probation_successes must be >= 1")


class SessionHealth:
    """``healthy -> degraded -> quarantined -> (backoff) -> degraded ->
    healthy`` — the graceful-degradation machine one session carries.

    Fault events are rejected packets (non-finite CSI/stamps) and
    contained poll exceptions; successes are clean polls.  Quarantine
    suspends polling (the session stays open and keeps ingesting), and
    each release from quarantine is a *bounded retry*: the cooldown
    grows exponentially while faults persist, so a permanently broken
    session costs the scheduler almost nothing.
    """

    def __init__(self, policy: HealthPolicy | None = None) -> None:
        self.policy = policy if policy is not None else HealthPolicy()
        self._state = HEALTHY
        self._cooldown = 0
        self._probation = 0
        self.consecutive_faults = 0
        self.fault_events = 0
        self.quarantines = 0
        self.releases = 0
        self.recoveries = 0

    @property
    def state(self) -> str:
        return self._state

    @property
    def quarantined(self) -> bool:
        return self._state == QUARANTINED

    @property
    def cooldown_ticks(self) -> int:
        """Manager ticks left before a quarantined session is retried."""
        return self._cooldown

    def record_faults(self, n: int = 1) -> None:
        """Count ``n`` fault events, transitioning as thresholds pass."""
        if n <= 0:
            return
        self.fault_events += n
        self._probation = 0
        if self._state == QUARANTINED:
            return  # already contained; the cooldown decides the retry
        self.consecutive_faults += n
        policy = self.policy
        if self._state == HEALTHY and self.consecutive_faults >= policy.degrade_after:
            self._state = DEGRADED
        if self._state == DEGRADED and self.consecutive_faults >= policy.quarantine_after:
            self._state = QUARANTINED
            self.quarantines += 1
            scale = policy.backoff_factor ** (self.quarantines - 1)
            self._cooldown = max(
                1, min(int(policy.backoff_ticks * scale), policy.backoff_max_ticks)
            )
            self.consecutive_faults = 0

    def record_success(self) -> None:
        """Count one clean poll; enough of them restore ``healthy``."""
        self.consecutive_faults = 0
        if self._state != DEGRADED:
            return
        self._probation += 1
        if self._probation >= self.policy.probation_successes:
            self._state = HEALTHY
            self._probation = 0
            self.recoveries += 1

    def tick(self) -> bool:
        """Advance quarantine backoff one tick; True when released to
        probation (degraded, pollable again)."""
        if self._state != QUARANTINED:
            return False
        self._cooldown -= 1
        if self._cooldown > 0:
            return False
        self._cooldown = 0
        self._state = DEGRADED
        self._probation = 0
        self.releases += 1
        return True

    def __repr__(self) -> str:
        return (
            f"SessionHealth({self._state}, faults={self.fault_events}, "
            f"quarantines={self.quarantines}, recoveries={self.recoveries})"
        )

#: Legal transitions.  ``idle -> live`` is the wake-up on fresh packets;
#: anything may be evicted; nothing leaves ``evicted``.
_TRANSITIONS = {
    CREATED: (PROFILED, EVICTED),
    PROFILED: (LIVE, IDLE, EVICTED),
    LIVE: (IDLE, EVICTED),
    IDLE: (LIVE, EVICTED),
    EVICTED: (),
}


class SessionStateError(RuntimeError):
    """An operation illegal for the session's current lifecycle state."""


class TrackedSession:
    """One car's tracking session under the serving layer.

    Args:
        session_id: the fleet-unique id packets are addressed with.
        config: tracker parameters (shared with the standalone paths).
        camera: optional steering-fallback camera for this cabin.
        buffer_s: tracker retention horizon.
        stride_s: target spacing between served estimates; with the
            scheduler, this is the session's estimate deadline period.
        max_history: how many recent estimates to retain for stage
            stats and reads.
        health_policy: thresholds for the fault containment machine
            (defaults are the fleet-wide :class:`HealthPolicy`).
        workload: which estimation chain this session runs — any name in
            :func:`repro.core.workloads.workload_kinds` (``"head"``,
            ``"localize"``, ``"breathing"``, ...).  The default is the
            paper's head tracker, constructed exactly as before the
            workload registry existed.
    """

    def __init__(
        self,
        session_id: str,
        config: ViHOTConfig | None = None,
        camera: CameraLike | None = None,
        buffer_s: float = 10.0,
        stride_s: float = 0.05,
        max_history: int = 256,
        health_policy: HealthPolicy | None = None,
        workload: str = HEAD_WORKLOAD,
    ) -> None:
        config = config if config is not None else ViHOTConfig()
        if stride_s <= 0:
            raise ValueError(f"stride_s must be positive, got {stride_s}")
        if workload not in workload_kinds():
            raise ValueError(
                f"unknown workload {workload!r}; registered: "
                f"{sorted(workload_kinds())}"
            )
        self.session_id = session_id
        self.workload = workload
        self._config = config
        self._camera = camera
        self._buffer_s = buffer_s
        self.stride_s = stride_s

        self._state = CREATED
        self._tracker: OnlineTracker | None = None
        self._fingerprint: str | None = None

        self.last_activity: float = float("-inf")  # manager wall clock
        self.latest: Estimate | None = None
        self.history: deque[Estimate] = deque(maxlen=max_history)
        self._last_estimate_t: float | None = None

        self.packets = 0
        self.imu_packets = 0
        self.estimates_produced = 0

        self.health = SessionHealth(health_policy)
        self.rejected_packets = 0  # non-finite packets refused at ingest
        self.poll_failures = 0  # tracker exceptions contained by the scheduler

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    @property
    def fingerprint(self) -> str | None:
        """The scenario fingerprint whose cached profile this session uses."""
        return self._fingerprint

    @property
    def tracker(self) -> OnlineTracker | None:
        return self._tracker

    def _transition(self, target: str) -> None:
        if target not in _TRANSITIONS[self._state]:
            raise SessionStateError(
                f"session {self.session_id!r}: illegal transition "
                f"{self._state!r} -> {target!r}"
            )
        self._state = target

    def attach_profile(
        self, profile: CsiProfile, fingerprint: str | None = None
    ) -> None:
        """Provide the driver's profile; builds the tracker (`-> profiled`)."""
        if self._state != CREATED:
            raise SessionStateError(
                f"session {self.session_id!r}: profile already attached "
                f"(state {self._state!r})"
            )
        if self.workload == HEAD_WORKLOAD:
            # The pre-registry construction, byte for byte: head
            # tracking is the reference workload the bit-identity
            # gates compare against.
            self._tracker = OnlineTracker(
                profile, self._config, camera=self._camera, buffer_s=self._buffer_s
            )
        else:
            engine = engine_for_workload(
                self.workload, profile, self._config, camera=self._camera
            )
            self._tracker = OnlineTracker(
                profile,
                camera=self._camera,
                buffer_s=self._buffer_s,
                engine=engine,
            )
        self._fingerprint = fingerprint
        self._transition(PROFILED)

    def mark_idle(self) -> None:
        """Park the session (`live/profiled -> idle`); buffers retained."""
        if self._state in (LIVE, PROFILED):
            self._transition(IDLE)

    def evict(self) -> None:
        """Terminal state: drop the tracker (ring buffers freed); the
        latest-estimate snapshot and counters stay readable."""
        if self._state == EVICTED:
            return
        self._state = EVICTED
        self._tracker = None

    # ------------------------------------------------------------------
    # Ingest (called by the manager, on drained batches)
    # ------------------------------------------------------------------
    def push_csi(self, time: float, csi: np.ndarray) -> None:
        if self._state == EVICTED:
            raise SessionStateError(f"session {self.session_id!r} is evicted")
        if self._tracker is None:
            raise SessionStateError(
                f"session {self.session_id!r} has no profile yet (state "
                f"{self._state!r}); attach_profile first"
            )
        if self._state in (PROFILED, IDLE):
            self._transition(LIVE)
        self._tracker.push_csi(time, csi)
        self.packets += 1

    def push_imu(self, time: float, yaw_rate: float) -> None:
        if self._state == EVICTED:
            raise SessionStateError(f"session {self.session_id!r} is evicted")
        if self._tracker is None:
            raise SessionStateError(
                f"session {self.session_id!r} has no profile yet (state "
                f"{self._state!r}); attach_profile first"
            )
        self._tracker.push_imu(time, yaw_rate)
        self.imu_packets += 1

    # ------------------------------------------------------------------
    # Estimation (called by the scheduler)
    # ------------------------------------------------------------------
    @property
    def newest_time(self) -> float | None:
        """Stream time of the newest buffered packet (``None`` if none)."""
        if self._tracker is None or self._tracker.buffered_samples == 0:
            return None
        return self._tracker.phase_series().end

    @property
    def due_time(self) -> float | None:
        """Stream time the next estimate is due (``None`` before the first)."""
        if self._last_estimate_t is None:
            return None
        return self._last_estimate_t + self.stride_s

    def pending(self) -> bool:
        """Whether the scheduler should serve this session an estimate."""
        if self._state != LIVE or self._tracker is None:
            return False
        if self.health.quarantined:
            return False  # polls suspended until the backoff releases
        if not self._tracker.ready():
            return False
        newest = self.newest_time
        if newest is None:
            return False
        if self._last_estimate_t is None:
            return True
        return newest >= self._last_estimate_t + self.stride_s

    def finish_poll(self, polled_t: float, estimate: Estimate | None) -> Estimate | None:
        """Record one poll outcome: advance the poll clock, snapshot.

        The bookkeeping half of :meth:`poll_estimate`, split out so a
        stacked group (whose estimates come from one engine batch call)
        is booked identically.  Not called when the poll raised — an
        errored poll leaves ``_last_estimate_t`` unchanged, as
        :meth:`poll_estimate` does.
        """
        self._last_estimate_t = polled_t
        if estimate is not None:
            self.latest = estimate
            self.history.append(estimate)
            self.estimates_produced += 1
        return estimate

    def poll_estimate(self) -> Estimate | None:
        """Produce an estimate at the newest buffered time, snapshot it.

        Returns ``None`` when the tracker declines (not warmed up, or no
        estimate possible at that instant); the poll clock still
        advances so a declining session is not re-polled every tick.
        """
        if self._tracker is None:
            return None
        newest = self.newest_time
        if newest is None:
            return None
        estimate = self._tracker.estimate(newest)
        return self.finish_poll(newest, estimate)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stage_stats(self) -> tuple[StageStats, ...]:
        """Engine-stage aggregates over this session's retained history."""
        return aggregate_stage_traces(self.history)

    def __repr__(self) -> str:
        return (
            f"TrackedSession({self.session_id!r}, state={self._state}, "
            f"packets={self.packets}, estimates={self.estimates_produced})"
        )
