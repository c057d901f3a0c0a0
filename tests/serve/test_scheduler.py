"""The serve loop: budget, deferral carry-over, deadlines.

Real trackers are too slow for tight scheduling assertions, so these
tests use a stub session object (duck-typed to the scheduler's needs)
and a fake wall clock that advances a fixed amount per reading.

Both schedulers run one serve loop, so every contract test takes the
scheduler class as a defaulted argument: pytest runs it as written
against :class:`RoundRobinScheduler`, and
:func:`test_batched_scheduler_keeps_the_contract` runs it again against
:class:`BatchedScheduler`, whose planner serves the tracker-less stubs
as units of one.
"""

import pytest

from repro.core.engine import BatchResult
from repro.core.stages import Estimate
from repro.serve.batch import BatchedScheduler, BatchGroup
from repro.serve.scheduler import RoundRobinScheduler


class FakeClock:
    def __init__(self, step_s: float) -> None:
        self.step_s = step_s
        self.now = 0.0

    def __call__(self) -> float:
        self.now += self.step_s
        return self.now


class StubSession:
    """Pending session whose poll costs nothing but a clock reading."""

    tracker = None  # the batch planner serves it as a unit of one

    def __init__(self, session_id, newest=1.0, due=None, stride_s=0.1):
        self.session_id = session_id
        self.stride_s = stride_s
        self._newest = newest
        self._due = due
        self.polls = 0

    def pending(self):
        return True

    @property
    def newest_time(self):
        return self._newest

    @property
    def due_time(self):
        return self._due

    def poll_estimate(self):
        self.polls += 1
        return None


def test_all_served_when_budget_allows(scheduler_cls=RoundRobinScheduler):
    scheduler = scheduler_cls(budget_s=100.0, wall_clock=FakeClock(0.001))
    sessions = [StubSession(f"s{k}") for k in range(5)]
    report = scheduler.tick(sessions)
    assert [s.session_id for s in report.served] == [f"s{k}" for k in range(5)]
    assert report.deferred == ()


def test_budget_defers_tail_and_resumes_there(scheduler_cls=RoundRobinScheduler):
    # Each clock reading advances 10 ms; the budget admits ~2 sessions.
    scheduler = scheduler_cls(budget_s=0.05, wall_clock=FakeClock(0.010))
    sessions = [StubSession(f"s{k}") for k in range(6)]
    first = scheduler.tick(sessions)
    assert len(first.served) >= 1
    assert first.deferred, "tail sessions must be deferred, not skipped"
    served_first = {s.session_id for s in first.served}
    assert set(first.deferred).isdisjoint(served_first)

    # Next tick starts at the first deferred session.
    second = scheduler.tick(sessions)
    assert second.served[0].session_id == first.deferred[0]


def test_every_session_served_across_ticks(scheduler_cls=RoundRobinScheduler):
    scheduler = scheduler_cls(budget_s=0.05, wall_clock=FakeClock(0.010))
    sessions = [StubSession(f"s{k}") for k in range(6)]
    for _ in range(10):
        scheduler.tick(sessions)
    polls = [s.polls for s in sessions]
    # Fairness: nobody starves, nobody hogs.
    assert min(polls) >= 1
    assert max(polls) - min(polls) <= 1


def test_at_least_one_served_under_tiny_budget(scheduler_cls=RoundRobinScheduler):
    scheduler = scheduler_cls(budget_s=1e-9, wall_clock=FakeClock(1.0))
    sessions = [StubSession("a"), StubSession("b")]
    report = scheduler.tick(sessions)
    assert len(report.served) == 1
    assert report.deferred == ("b",)


def test_deadline_accounting(scheduler_cls=RoundRobinScheduler):
    scheduler = scheduler_cls(budget_s=100.0, wall_clock=FakeClock(0.001))
    on_time = StubSession("on-time", newest=1.0, due=1.0, stride_s=0.1)
    late = StubSession("late", newest=1.05, due=1.0, stride_s=0.1)
    very_late = StubSession("very-late", newest=1.5, due=1.0, stride_s=0.1)
    report = scheduler.tick([on_time, late, very_late])
    by_id = {s.session_id: s for s in report.served}
    assert by_id["on-time"].lateness_s == 0.0
    assert by_id["late"].lateness_s == pytest.approx(0.05)
    assert by_id["very-late"].lateness_s == pytest.approx(0.5)
    # Only lateness beyond one stride counts as a miss.
    assert report.deadline_misses == 1


def test_empty_and_non_pending_sessions(scheduler_cls=RoundRobinScheduler):
    scheduler = scheduler_cls(budget_s=1.0, wall_clock=FakeClock(0.001))
    assert scheduler.tick([]).served == ()

    class NotPending(StubSession):
        def pending(self):
            return False

    report = scheduler.tick([NotPending("x")])
    assert report.served == () and report.deferred == ()


def test_budget_validation(scheduler_cls=RoundRobinScheduler):
    with pytest.raises(ValueError):
        scheduler_cls(budget_s=0.0)


def test_stale_cursor_cleared_when_session_disappears(scheduler_cls=RoundRobinScheduler):
    # Park the cursor on a deferred session...
    scheduler = scheduler_cls(budget_s=1e-9, wall_clock=FakeClock(1.0))
    a, b = StubSession("a"), StubSession("b")
    first = scheduler.tick([a, b])
    assert first.deferred == ("b",)
    assert scheduler._cursor == "b"

    # ...then tick without it (evicted/quarantined/no longer pending),
    # with budget to serve everyone: rotation must restart cleanly AND
    # drop the stale cursor.
    scheduler.budget_s = 100.0
    scheduler.wall_clock = FakeClock(0.001)
    others = [StubSession("c"), StubSession("d")]
    second = scheduler.tick(others)
    assert [s.session_id for s in second.served] == ["c", "d"]
    assert scheduler._cursor is None, "stale cursor must not pin forever"

    # A later reappearance of 'b' gets no spurious priority (with the
    # stale cursor retained it would be rotated to the front).
    third = scheduler.tick([StubSession("c"), StubSession("d"), StubSession("b")])
    assert third.served[0].session_id == "c"


def test_unpollable_session_skipped_without_nan_record(scheduler_cls=RoundRobinScheduler):
    scheduler = scheduler_cls(budget_s=100.0, wall_clock=FakeClock(0.001))

    class Vanished(StubSession):
        @property
        def newest_time(self):
            return None

    gone = Vanished("gone")
    alive = StubSession("alive")
    report = scheduler.tick([gone, alive])
    # No serving record for the unpollable session — in particular no
    # NaN-stamped one leaking into metrics folds.
    assert [s.session_id for s in report.served] == ["alive"]
    assert all(s.polled_t == s.polled_t for s in report.served)  # no NaN
    assert gone.polls == 0


def test_poll_exception_contained_in_serving_record(scheduler_cls=RoundRobinScheduler):
    scheduler = scheduler_cls(budget_s=100.0, wall_clock=FakeClock(0.001))

    class Exploding(StubSession):
        def poll_estimate(self):
            raise RuntimeError("tracker wedged")

    bad = Exploding("bad")
    good = StubSession("good")
    report = scheduler.tick([bad, good])  # must not raise
    by_id = {s.session_id: s for s in report.served}
    assert by_id["bad"].error == "RuntimeError: tracker wedged"
    assert by_id["bad"].estimate is None
    assert by_id["good"].error is None
    assert report.failures == (by_id["bad"],)
    assert good.polls == 1, "the bad session must not poison the tick"


class DeadlineStub(StubSession):
    """A stub whose due time advances on poll, like a real session."""

    def poll_estimate(self):
        self.polls += 1
        self._due = self._newest + self.stride_s
        return None


def test_deferred_session_misses_counted_exactly_once(scheduler_cls=RoundRobinScheduler):
    # The clock burns the whole budget on the first poll: each tick
    # serves exactly one session and defers the rest.
    scheduler = scheduler_cls(budget_s=1e-9, wall_clock=FakeClock(1.0))
    a = DeadlineStub("a", newest=1.5, due=1.0, stride_s=0.1)
    b = DeadlineStub("b", newest=1.5, due=1.0, stride_s=0.1)

    first = scheduler.tick([a, b])
    assert [s.session_id for s in first.served] == ["a"]
    assert first.deferred == ("b",)
    assert first.deadline_misses == 1  # only the served session's miss

    # The deferred session is served FIRST next tick, and its miss is
    # counted now — once, not re-counted for 'a' whose deadline moved.
    second = scheduler.tick([a, b])
    assert second.served[0].session_id == "b"
    assert second.deadline_misses == 1
    assert first.deadline_misses + second.deadline_misses == 2
    assert a.polls == b.polls == 1 or (a.polls, b.polls) == (2, 1)


CONTRACT = (
    test_all_served_when_budget_allows,
    test_budget_defers_tail_and_resumes_there,
    test_every_session_served_across_ticks,
    test_at_least_one_served_under_tiny_budget,
    test_deadline_accounting,
    test_empty_and_non_pending_sessions,
    test_budget_validation,
    test_stale_cursor_cleared_when_session_disappears,
    test_unpollable_session_skipped_without_nan_record,
    test_poll_exception_contained_in_serving_record,
    test_deferred_session_misses_counted_exactly_once,
)


@pytest.mark.parametrize("case", CONTRACT, ids=lambda case: case.__name__)
def test_batched_scheduler_keeps_the_contract(case):
    case(BatchedScheduler)


# ----------------------------------------------------------------------
# Stacked groups in the serve loop
# ----------------------------------------------------------------------
class StubEngine:
    """Answers a batch call with one estimate per item (the poll time)."""

    def __init__(self):
        self.calls = []

    def estimate_batch(self, items):
        self.calls.append(list(items))
        return [BatchResult(Estimate(t, t, 0.0, "csi")) for t in items]


class StubTracker:
    def __init__(self, engine):
        self.engine = engine

    def estimation_inputs(self, t):
        return t


class StackedStub(StubSession):
    """A session whose estimate comes from a stacked engine call."""

    def __init__(self, session_id, engine):
        super().__init__(session_id)
        self.tracker = StubTracker(engine)
        self.finished = []

    def finish_poll(self, polled_t, estimate):
        self.finished.append((polled_t, estimate))
        return estimate


class StubPlanner:
    """Stacks the sessions named in ``stacked`` into one group, placed
    at its first member's rotation slot; the rest are units of one."""

    def __init__(self, stacked):
        self.stacked = stacked

    def plan(self, sessions):
        group = tuple(s for s in sessions if s.session_id in self.stacked)
        groups = []
        for session in sessions:
            if session.session_id not in self.stacked:
                groups.append(BatchGroup(None, (session,), batched=False))
            elif session is group[0]:
                groups.append(BatchGroup("stack", group, batched=True))
        return groups


def test_budget_stops_right_after_a_stacked_group():
    """A tiny budget serves the stacked group (one engine call for both
    members), defers the rest of the rotation, and parks the cursor on
    its first unvisited session — not on a member of the group."""
    engine = StubEngine()
    a, c = StackedStub("a", engine), StackedStub("c", engine)
    b, d = StubSession("b"), StubSession("d")
    scheduler = BatchedScheduler(
        budget_s=1e-9, wall_clock=FakeClock(1.0), planner=StubPlanner({"a", "c"})
    )
    first = scheduler.tick([a, b, c, d])
    assert engine.calls == [[1.0, 1.0]]
    assert [s.session_id for s in first.served] == ["a", "c"]
    assert a.finished == [(1.0, first.served[0].estimate)]
    assert c.finished == [(1.0, first.served[1].estimate)]
    assert all(s.estimate is not None and s.error is None for s in first.served)
    assert (first.batched_groups, first.batched_sessions, first.batch_sizes) == (1, 2, (2,))
    assert first.fallback_sessions == 0
    assert first.deferred == ("b", "d")
    assert scheduler._cursor == "b"
    assert b.polls == d.polls == 0

    # Next tick the rotation starts at 'b', which is served first; the
    # stacked group is visited next, so it is deferred as a whole.
    second = scheduler.tick([a, b, c, d])
    assert [s.session_id for s in second.served] == ["b"]
    assert second.fallback_sessions == 1
    assert second.deferred == ("c", "d", "a")
    assert scheduler._cursor == "c"
