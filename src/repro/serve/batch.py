"""Fleet-batched estimate scheduling: plan groups, stack the kernel work.

Served one at a time, a 50-session fleet pays 50 Python dispatches and
50 separate numpy DP calls for near-identical array shapes.  This module
plans the due rotation into stackable groups instead:

* :class:`BatchPlanner` partitions the due sessions into groups whose
  engines are interchangeable — same profile *object* (the manager's
  profile cache shares it fleet-wide), equal config up to the forecast
  horizon (every :class:`~repro.core.engine.BatchItem` carries its own
  engine, so per-context stages run with their session's horizon while
  the batch-aware match stacks across the group), the same stage chain
  and window shape, and no per-session camera.  Sessions that
  don't qualify (camera-backed steering fallback, degraded health) are
  planned as singleton fallback groups.  Quarantined sessions never
  reach the planner — ``pending()`` already excludes them.
* :class:`BatchedScheduler` hands those groups to the one serve loop of
  :class:`~repro.serve.scheduler.RoundRobinScheduler` as its units: a
  stacked group is one
  :meth:`~repro.core.engine.EstimationEngine.estimate_batch` call (the
  stage-wave execution that stacks the DTW match across the group),
  and a singleton is a unit of one, polled exactly as the sequential
  scheduler polls it.  Rotation, budget, deferral and deadline
  accounting are the loop's, so they are the sequential scheduler's by
  construction, and per-session estimate values are bit-identical to
  it (``tests/serve/test_batching.py``).

Fallback rules, explicitly: a session is served on its own whenever it
(a) carries a camera (the steering stage would need *its* camera, not
the group leader's), (b) is health-degraded (fault containment should
not let one flapping session poison a stacked call), or (c) ends up
alone in its group (no stacking win).  Errors from a stacked call are
contained per session exactly like sequential poll exceptions — same
``"Type: message"`` error strings, same unadvanced poll clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Sequence

from repro.serve.scheduler import RoundRobinScheduler, TickReport
from repro.serve.session import HEALTHY, TrackedSession

#: The planner's grouping key: (profile identity, horizon-normalized
#: config, stage chain, window shape).  Engines agreeing on all four are
#: stackable for camera-less sessions: the horizon is the one config
#: field the batch-aware stages never read, so forecast sessions share
#: their plain siblings' candidate banks while per-context stages still
#: run through each item's own engine.
GroupKey = tuple[int, object, tuple[str, ...], int]


@dataclass(frozen=True)
class BatchGroup:
    """One planned execution unit: sessions served by a single call.

    Attributes:
        key: the grouping key, ``None`` for fallback groups.
        sessions: the member sessions, in scheduler rotation order.
        batched: whether the group runs as one stacked engine call
            (size >= 2 and a shared key) or as a unit of one.
    """

    key: GroupKey | None
    sessions: tuple[TrackedSession, ...]
    batched: bool


@dataclass
class BatchPlanner:
    """Partition due sessions into stackable groups.

    Grouping is purely a performance decision — never a behavioural
    one: any partition must serve every session the same values, which
    is why the key demands engine interchangeability rather than mere
    similarity.

    ``max_batch`` caps the stack width: the stacked DTW's cost table and
    DP diagonals grow linearly with it, and the per-session saving
    levels off as each diagonal's work grows — at the matcher's serve
    shape, with a bank per row as the matcher builds them,
    ``bench_kernels.py`` serves a session in ~0.69 ms alone and in
    ~0.55, ~0.50 and ~0.50 ms per session in stacks of 2, 4 and 8 (p50
    on a 2-vCPU Xeon VM; ~0.53 ms for 8 over 4 positions).  Oversized
    groups are split into consecutive chunks (rotation order preserved),
    so correctness never depends on the cap.

    In the shape vocabulary of ``repro.units.AXIS_SYMBOLS``: a batched
    group of ``S`` sessions feeds the match stage one query block per
    query length, a row per session and neighbour position, each row
    against its own ``(B, L)`` candidate bank, so the ``S`` axis of a
    stacked kernel call is at most ``max_batch * (2 *
    neighbor_positions + 1)`` rows.
    """

    max_batch: int = 8

    def __post_init__(self) -> None:
        if self.max_batch < 2:
            raise ValueError(f"max_batch must be >= 2, got {self.max_batch}")

    def group_key(self, session: TrackedSession) -> GroupKey | None:
        """The session's batch group key, or ``None`` for fallback.

        ``None`` when the session has no tracker, carries a camera, or
        is not currently healthy (degraded sessions are served on their
        own until they recover).

        The config is normalized to a zero horizon before keying:
        sessions differing *only* in ``horizon_s`` (forecast vs plain)
        are stackable because the batch items carry their own engines —
        the forecast/jump-filter/emit stages read each session's real
        horizon, and the stacked match never reads it at all.
        """
        tracker = session.tracker
        if tracker is None:
            return None
        if session.health.state != HEALTHY:
            return None
        engine = tracker.engine
        if engine.camera is not None:
            return None
        config = engine.config
        return (
            id(engine.profile),
            replace(config, horizon_s=0.0),
            engine.stage_names,
            config.window_samples,
        )

    def plan(self, sessions: Sequence[TrackedSession]) -> list[BatchGroup]:
        """Group ``sessions`` (already in rotation order) into units.

        Groups are ordered by their first member's rotation position and
        keep rotation order within the group, so budget-driven deferral
        stays as close to round-robin fairness as stacking allows.
        """
        keyed: dict[GroupKey, list[TrackedSession]] = {}
        order: list[tuple[GroupKey | None, TrackedSession]] = []
        for session in sessions:
            key = self.group_key(session)
            order.append((key, session))
            if key is not None:
                keyed.setdefault(key, []).append(session)
        groups: list[BatchGroup] = []
        planned: set[str] = set()
        for key, session in order:
            if session.session_id in planned:
                continue
            if key is None:
                planned.add(session.session_id)
                groups.append(BatchGroup(None, (session,), batched=False))
                continue
            members = keyed[key]
            for member in members:
                planned.add(member.session_id)
            for lo in range(0, len(members), self.max_batch):
                chunk = tuple(members[lo:lo + self.max_batch])
                groups.append(BatchGroup(key, chunk, batched=len(chunk) >= 2))
        return groups


@dataclass
class BatchedScheduler(RoundRobinScheduler):
    """The round-robin scheduler with the planner's groups as its units.

    The serve loop is the base class's — rotation, budget, deferral,
    cursor parking, lateness and serving records — so its contract is
    the sequential scheduler's: the budget check runs between units (at
    least one is always served), and everything unserved when the
    budget runs out is deferred with the cursor parked on the first
    deferred session of the rotation.  A stacked group runs as one
    :meth:`~repro.core.engine.EstimationEngine.estimate_batch` call;
    every other group is a unit of one, polled exactly as the sequential
    scheduler polls it.
    """

    planner: BatchPlanner = field(default_factory=BatchPlanner)

    def tick(self, sessions: Sequence[TrackedSession]) -> TickReport:
        """Serve due sessions group-by-group within the budget."""
        return self._serve(sessions, self.planner)
