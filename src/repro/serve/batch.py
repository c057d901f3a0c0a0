"""Fleet-batched estimate scheduling: plan groups, stack the kernel work.

The round-robin scheduler serves one session per poll, so a 50-session
fleet pays 50 Python dispatches and 50 separate numpy DP calls for
near-identical array shapes.  This module adds the batched alternative:

* :class:`BatchPlanner` partitions the due sessions into groups whose
  engines are interchangeable — same profile *object* (the manager's
  profile cache shares it fleet-wide), equal config up to the forecast
  horizon (every :class:`~repro.core.engine.BatchItem` carries its own
  engine, so per-context stages run with their session's horizon while
  the batch-aware match stacks across the group), the same stage chain
  and window shape, and no per-session camera.  Sessions that
  don't qualify (camera-backed steering fallback, degraded health) are
  planned as singleton fallback groups and served on the sequential
  path.  Quarantined sessions never reach the planner — ``pending()``
  already excludes them.
* :class:`BatchedScheduler` executes each group as one
  :meth:`~repro.core.engine.EstimationEngine.estimate_batch` call — the
  stage-wave execution that stacks the DTW match across the group —
  while preserving :class:`~repro.serve.scheduler.RoundRobinScheduler`'s
  contract: the same pending snapshot and cursor rotation, the same
  wall-time budget check (deferral, never silent skips; the cursor parks
  on the first deferred session), and the same per-session
  lateness/deadline accounting.  Per-session estimate values are
  bit-identical to the sequential scheduler's
  (``tests/serve/test_batching.py``).

Fallback rules, explicitly: a session is served sequentially whenever it
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

from repro.core.engine import BatchItem, EstimationEngine
from repro.serve.scheduler import (
    RoundRobinScheduler,
    ServedEstimate,
    TickReport,
)
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
            (size >= 2 and a shared key) or on the sequential path.
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
    DP diagonals grow linearly with it, and stacking gains less as each
    diagonal's work grows — ``bench_kernels.py`` measures ~1.8-1.9x over
    the per-session loop for a small stack (16 x 40 candidates of 25)
    and ~0.9-1.0x at the wide serving shape (8 x 150 of 40).  Oversized groups
    are split into consecutive chunks (rotation order preserved), so
    correctness never depends on the cap.

    In the shape vocabulary of ``repro.units.AXIS_SYMBOLS``: a batched
    group of ``S`` sessions feeds the match stage an ``(S, m)`` query
    block against the shared ``(B, L)`` candidate bank, so ``max_batch``
    bounds the ``S`` axis of every stacked kernel call.
    """

    max_batch: int = 8

    def __post_init__(self) -> None:
        if self.max_batch < 2:
            raise ValueError(f"max_batch must be >= 2, got {self.max_batch}")

    def group_key(self, session: TrackedSession) -> GroupKey | None:
        """The session's batch group key, or ``None`` for fallback.

        ``None`` when the session has no tracker, carries a camera, or
        is not currently healthy (degraded sessions are isolated on the
        sequential path until they recover).

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
    """The round-robin scheduler with group-stacked execution.

    Same budget, rotation, deferral and deadline semantics as the base
    class; the only change is the execution unit — a planned group
    instead of a single session.  The budget check runs between groups
    (at least one group is always served), and everything unserved when
    the budget runs out is deferred with the cursor parked on the first
    deferred session, exactly as the sequential scheduler defers the
    rest of its rotation.
    """

    planner: BatchPlanner = field(default_factory=BatchPlanner)

    def tick(self, sessions: Sequence[TrackedSession]) -> TickReport:
        """Serve due sessions group-by-group within the budget."""
        pending = [s for s in sessions if s.pending()]
        if not pending:
            return TickReport(budget_s=self.budget_s)
        pending = self._rotate(pending)
        groups = self.planner.plan(pending)

        start = self.wall_clock()
        served: list[ServedEstimate] = []
        deferred: list[str] = []
        misses = 0
        batched_groups = 0
        batched_sessions = 0
        fallback_sessions = 0
        batch_sizes: list[int] = []
        visited: set[str] = set()
        for group in groups:
            spent = self.wall_clock() - start
            if spent >= self.budget_s and served:
                deferred = [
                    s.session_id
                    for s in pending
                    if s.session_id not in visited
                ]
                self._cursor = deferred[0]
                break
            records, group_misses = self._serve_group(group)
            served.extend(records)
            misses += group_misses
            for session in group.sessions:
                visited.add(session.session_id)
            if group.batched:
                batched_groups += 1
                batched_sessions += len(group.sessions)
                batch_sizes.append(len(group.sessions))
            else:
                fallback_sessions += len(group.sessions)
        else:
            self._cursor = None
        return TickReport(
            served=tuple(served),
            deferred=tuple(deferred),
            budget_s=self.budget_s,
            elapsed_s=self.wall_clock() - start,
            deadline_misses=misses,
            batched_groups=batched_groups,
            batched_sessions=batched_sessions,
            fallback_sessions=fallback_sessions,
            batch_sizes=tuple(batch_sizes),
        )

    # ------------------------------------------------------------------
    # Group execution
    # ------------------------------------------------------------------
    def _serve_group(
        self, group: BatchGroup
    ) -> tuple[list[ServedEstimate], int]:
        """Serve one group; returns its serving records and miss count."""
        records: list[ServedEstimate] = []
        misses = 0
        # Pre-poll accounting per member — identical to the sequential
        # scheduler's: a session whose buffer emptied since the pending
        # snapshot is skipped, lateness is measured against the due
        # time, and lateness beyond one stride is a deadline miss.
        polls: list[tuple[TrackedSession, float, float, BatchItem | None]] = []
        for session in group.sessions:
            inputs = session.poll_inputs()
            if inputs is None:
                continue
            newest, item = inputs
            due = session.due_time
            lateness = 0.0
            if due is not None and newest > due:
                lateness = newest - due
            if lateness > session.stride_s:
                misses += 1
            polls.append((session, newest, lateness, item))
        if not polls:
            return records, misses
        if not group.batched:
            for session, newest, lateness, _item in polls:
                poll_start = self.wall_clock()
                error: str | None = None
                estimate = None
                try:
                    estimate = session.poll_estimate()
                except Exception as exc:  # contained, as in the base class
                    error = f"{type(exc).__name__}: {exc}"
                records.append(
                    ServedEstimate(
                        session_id=session.session_id,
                        estimate=estimate,
                        polled_t=float(newest),
                        elapsed_s=self.wall_clock() - poll_start,
                        lateness_s=lateness,
                        error=error,
                    )
                )
            return records, misses

        engine = self._leader_engine(polls[0][0])
        items = [item for _, _, _, item in polls if item is not None]
        poll_start = self.wall_clock()
        try:
            results = engine.estimate_batch(items) if items else []
        except Exception as exc:
            # estimate_batch contains per-item errors itself; a raise
            # here is a systemic failure of the stacked call, attributed
            # to every polled member (their poll clocks stay unadvanced,
            # like any failed sequential poll).
            error = f"{type(exc).__name__}: {exc}"
            elapsed_s = (self.wall_clock() - poll_start) / len(polls)
            for session, newest, lateness, _item in polls:
                records.append(
                    ServedEstimate(
                        session_id=session.session_id,
                        estimate=None,
                        polled_t=float(newest),
                        elapsed_s=elapsed_s,
                        lateness_s=lateness,
                        error=error,
                    )
                )
            return records, misses
        elapsed_s = (self.wall_clock() - poll_start) / len(polls)
        result_iter = iter(results)
        for session, newest, lateness, item in polls:
            if item is None:
                # The tracker declined (not warmed up): the poll clock
                # still advances, exactly like a sequential poll that
                # returned None.
                session.finish_poll(newest, None)
                records.append(
                    ServedEstimate(
                        session_id=session.session_id,
                        estimate=None,
                        polled_t=float(newest),
                        elapsed_s=elapsed_s,
                        lateness_s=lateness,
                        error=None,
                    )
                )
                continue
            result = next(result_iter)
            if result.error is not None:
                records.append(
                    ServedEstimate(
                        session_id=session.session_id,
                        estimate=None,
                        polled_t=float(newest),
                        elapsed_s=elapsed_s,
                        lateness_s=lateness,
                        error=f"{type(result.error).__name__}: {result.error}",
                    )
                )
                continue
            session.finish_poll(newest, result.estimate)
            records.append(
                ServedEstimate(
                    session_id=session.session_id,
                    estimate=result.estimate,
                    polled_t=float(newest),
                    elapsed_s=elapsed_s,
                    lateness_s=lateness,
                    error=None,
                )
            )
        return records, misses

    @staticmethod
    def _leader_engine(session: TrackedSession) -> EstimationEngine:
        tracker = session.tracker
        assert tracker is not None  # guaranteed by poll_inputs
        return tracker.engine
