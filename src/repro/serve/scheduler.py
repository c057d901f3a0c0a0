"""Round-robin estimate scheduling under a per-tick wall-time budget.

Estimates are the expensive half of serving (a DTW match costs
milliseconds; a packet push costs microseconds), so they are rationed:
each manager tick gives the scheduler a wall-time budget, and sessions
whose estimate is due are served in round-robin order until the budget
runs out.  Two properties matter and are both explicit here:

* **Deferral, never silent skips.**  A session that doesn't fit this
  tick's budget is *deferred*: counted, reported in the tick's
  :class:`TickReport`, and placed first in line next tick (the
  round-robin cursor parks on it).  Nothing is dropped — a deferred
  session's estimate happens later, at a later stream time, exactly as
  it would for a standalone tracker polled late.
* **Deadline accounting.**  Every session carries a ``stride_s`` —
  its estimate period.  When a session is finally served, its lateness
  (how far past its due time the served estimate landed) is recorded;
  lateness beyond one full period counts as a deadline miss.  Operators
  watching ``deadline_misses`` vs ``deferrals`` can tell "the budget is
  a little tight" from "the fleet is overloaded".

Wall time and stream time deliberately coexist: the *budget* is wall
time (what the CPU actually spends), while *deadlines* are stream time
(what the cabins actually experience) — in a real deployment the two
clocks advance together; in simulation stream time may run much faster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro.core.engine import BatchResult
from repro.core.stages import Estimate
from repro.serve.session import TrackedSession

if TYPE_CHECKING:
    from repro.serve.batch import BatchPlanner


@dataclass(frozen=True)
class ServedEstimate:
    """One scheduling outcome: a session that got its turn this tick."""

    session_id: str
    estimate: Estimate | None  # None when the tracker declined or failed
    polled_t: float  # stream time the estimate was polled at
    elapsed_s: float  # wall time the poll took
    lateness_s: float  # stream-time distance past the session's due time
    error: str | None = None  # contained poll exception, if any


@dataclass(frozen=True)
class TickReport:
    """What one scheduler tick did with its budget.

    Both schedulers run one serve loop over *units*: a session on its
    own, or a group the batched scheduler's planner stacks into one
    engine call.  The ``batched_*`` and ``fallback_sessions`` fields
    count the planned units of
    :class:`repro.serve.batch.BatchedScheduler`; the sequential
    scheduler plans nothing, so under it they stay at their zero
    defaults.
    """

    served: tuple[ServedEstimate, ...] = ()
    deferred: tuple[str, ...] = ()  # session ids pushed to next tick
    budget_s: float = 0.0
    elapsed_s: float = 0.0
    deadline_misses: int = 0
    batched_groups: int = 0  # stacked engine calls this tick
    batched_sessions: int = 0  # sessions served via a stacked call
    fallback_sessions: int = 0  # planned sessions served one at a time
    batch_sizes: tuple[int, ...] = ()  # per stacked call, in serve order

    @property
    def estimates(self) -> tuple[Estimate, ...]:
        return tuple(s.estimate for s in self.served if s.estimate is not None)

    @property
    def failures(self) -> tuple[ServedEstimate, ...]:
        """Serving records whose poll raised (exception contained)."""
        return tuple(s for s in self.served if s.error is not None)


#: One due session's turn: the session, the stream time it is polled at
#: and how far past its due time that lies.
_Poll = tuple[TrackedSession, float, float]


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass
class RoundRobinScheduler:
    """Serve pending sessions fairly within a per-tick budget.

    Args:
        budget_s: wall-time budget per tick.  At least one session is
            always served per tick (otherwise a tiny budget could
            starve the fleet forever).
        wall_clock: injectable wall clock (tests use a fake).
    """

    budget_s: float = 0.050
    wall_clock: Callable[[], float] = perf_counter
    _cursor: str | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.budget_s <= 0:
            raise ValueError(f"budget_s must be positive, got {self.budget_s}")

    def tick(self, sessions: Sequence[TrackedSession]) -> TickReport:
        """Serve due sessions round-robin until the budget is exhausted."""
        return self._serve(sessions, None)

    def _serve(
        self, sessions: Sequence[TrackedSession], planner: BatchPlanner | None
    ) -> TickReport:
        """The serve loop of both schedulers.

        Without a planner every pending session is a unit of one;
        with one, the units are its groups.  The budget is checked
        before each unit; a unit of one is the session's own poll
        (:meth:`_serve_one`), a stacked group one engine call
        (:meth:`_serve_stack`).
        """
        pending = [s for s in sessions if s.pending()]
        if not pending:
            return TickReport(budget_s=self.budget_s)
        pending = self._rotate(pending)
        units: list[tuple[Sequence[TrackedSession], bool]]
        if planner is None:
            units = [((session,), False) for session in pending]
        else:
            units = [(group.sessions, group.batched) for group in planner.plan(pending)]

        start = self.wall_clock()
        served: list[ServedEstimate] = []
        deferred: tuple[str, ...] = ()
        visited: set[str] = set()
        misses = 0
        fallback = 0
        batch_sizes: list[int] = []
        for members, stacked in units:
            spent = self.wall_clock() - start
            if spent >= self.budget_s and served:
                deferred = tuple(
                    s.session_id for s in pending if s.session_id not in visited
                )
                # Park the cursor on the first deferred session so it is
                # first in line next tick.
                self._cursor = deferred[0]
                break
            visited.update(s.session_id for s in members)
            polls: list[_Poll] = []
            for session in members:
                newest = session.newest_time
                if newest is None:
                    # The session stopped being pollable between the
                    # pending() snapshot and its turn (no buffered
                    # packets): skip it rather than emit a NaN-stamped
                    # serving record that would leak into downstream
                    # metrics and replays.
                    continue
                due = session.due_time
                lateness = newest - due if due is not None and newest > due else 0.0
                if lateness > session.stride_s:
                    misses += 1
                polls.append((session, float(newest), lateness))
            if stacked:
                batch_sizes.append(len(members))
                served.extend(self._serve_stack(polls))
            else:
                if planner is not None:
                    fallback += len(members)
                served.extend(self._serve_one(*poll) for poll in polls)
        else:
            # Everyone fit: resume after the last served session.
            self._cursor = None
        return TickReport(
            served=tuple(served),
            deferred=deferred,
            budget_s=self.budget_s,
            elapsed_s=self.wall_clock() - start,
            deadline_misses=misses,
            batched_groups=len(batch_sizes),
            batched_sessions=sum(batch_sizes),
            fallback_sessions=fallback,
            batch_sizes=tuple(batch_sizes),
        )

    def _serve_one(
        self, session: TrackedSession, newest: float, lateness: float
    ) -> ServedEstimate:
        """A unit of one: the session's own poll, its exception contained."""
        poll_start = self.wall_clock()
        estimate: Estimate | None = None
        error: str | None = None
        try:
            estimate = session.poll_estimate()
        except Exception as exc:  # contained: one bad tracker must not
            # poison the tick; the manager turns this into a health-machine
            # fault and (eventually) a quarantine.
            error = _describe(exc)
        return ServedEstimate(
            session.session_id,
            estimate,
            newest,
            self.wall_clock() - poll_start,
            lateness,
            error,
        )

    def _serve_stack(self, polls: list[_Poll]) -> list[ServedEstimate]:
        """A stacked group: one ``estimate_batch`` call, then
        :meth:`TrackedSession.finish_poll` per member.

        Each member is booked as :meth:`TrackedSession.poll_estimate`
        would book it: a tracker that declines (not warmed up) gets no
        batch item and an empty result, so its poll clock still
        advances, and a contained error leaves the poll clock
        unadvanced.  The call's wall time is split evenly across the
        members.
        """
        if not polls:
            return []
        trackers = []
        items = []
        for session, newest, _ in polls:
            tracker = session.tracker
            assert tracker is not None  # it has buffered packets
            trackers.append(tracker)
            items.append(tracker.estimation_inputs(newest))
        batch = [item for item in items if item is not None]
        poll_start = self.wall_clock()
        try:
            results = iter(trackers[0].engine.estimate_batch(batch) if batch else [])
            outcomes = [BatchResult() if item is None else next(results) for item in items]
        except Exception as exc:
            # estimate_batch contains per-item errors itself; a raise
            # here is a systemic failure of the stacked call, attributed
            # to every member.
            outcomes = [BatchResult(error=exc)] * len(polls)
        elapsed_s = (self.wall_clock() - poll_start) / len(polls)
        records: list[ServedEstimate] = []
        for (session, newest, lateness), outcome in zip(polls, outcomes):
            error = None if outcome.error is None else _describe(outcome.error)
            estimate = (
                session.finish_poll(newest, outcome.estimate) if error is None else None
            )
            records.append(
                ServedEstimate(
                    session.session_id, estimate, newest, elapsed_s, lateness, error
                )
            )
        return records

    def _rotate(self, pending: list[TrackedSession]) -> list[TrackedSession]:
        """Start from the parked cursor session, if it is still pending."""
        if self._cursor is None:
            return pending
        for index, session in enumerate(pending):
            if session.session_id == self._cursor:
                return pending[index:] + pending[:index]
        # The parked session is gone (evicted, quarantined, or simply no
        # longer pending): drop the cursor so rotation restarts cleanly
        # instead of silently pinning a stale id forever.
        self._cursor = None
        return pending
