"""Model-based stateful test of an inline ``SessionManager``.

Hypothesis drives one manager through random interleavings of session
open / close / reopen, CSI ingest salted with NaN CSI, non-finite,
duplicate and out-of-order stamps and malformed records, IMU pushes and
ticks.  The reference model is one standalone ``OnlineTracker`` per
open session, fed one packet at a time in queue order when the manager
ticks (IMU readings go in at once, as the manager routes them), plus a
queue that sheds its oldest record when full and a ``SessionHealth``
fed the same faults and clean polls.  After every step:

* every served estimate equals the model tracker's estimate at the
  same instant (``estimates_identical``), and the trackers' phase rings
  are equal;
* packets are conserved: offered = ingested + dropped + rejected +
  orphaned (+ still queued), and each term matches the model's;
* every session's health moved along a legal transition and matches
  the model's health machine.
"""

from collections import deque

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import ViHOTConfig
from repro.core.online import OnlineTracker
from repro.serve import SessionManager
from repro.serve.loadgen import SyntheticCabin, estimates_identical, synthetic_profile
from repro.serve.session import (
    DEGRADED,
    EVICTED,
    HEALTHY,
    QUARANTINED,
    SessionHealth,
)

FAST = ViHOTConfig(profile_stride=8, num_length_candidates=3)
BUFFER_S = 3.0
DEPTH = 160
WARM_PACKETS = 40
SIDS = ("car-0", "car-1", "car-2")
PROFILE = synthetic_profile()
CABINS = {
    sid: SyntheticCabin(sid, seed=40 + k, duration_s=80.0, rate_hz=25.0)
    for k, sid in enumerate(SIDS)
}
#: Turns antenna 0 by ~pi, so the head sweep keeps crossing the +-pi
#: wrap and the trackers' unwrap offsets move.
TURN = np.array([[np.exp(1j * 2.8)], [1.0]])
NAN_CSI = np.full((2, 30), complex(float("nan"), 0.0), dtype=np.complex128)
FAULTS = ("nan_csi", "nan_time", "inf_time", "duplicate", "out_of_order", "flat")

#: Health moves one step can show.  A single tick may record several
#: faults (healthy -> quarantined) or release a quarantine, but a
#: quarantined session is never polled, so it cannot recover in one step.
LEGAL = {
    (HEALTHY, HEALTHY),
    (HEALTHY, DEGRADED),
    (HEALTHY, QUARANTINED),
    (DEGRADED, DEGRADED),
    (DEGRADED, HEALTHY),
    (DEGRADED, QUARANTINED),
    (QUARANTINED, QUARANTINED),
    (QUARANTINED, DEGRADED),
}


def _finite(t: float, csi: np.ndarray) -> bool:
    return bool(np.isfinite(t)) and bool(np.all(np.isfinite(csi)))


class ServingMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.manager = SessionManager(
            FAST,
            queue_depth=DEPTH,
            budget_s=60.0,
            stride_s=0.1,
            buffer_s=BUFFER_S,
            idle_timeout_s=1e9,
            evict_after_s=None,
        )
        self.cursor = {sid: 0 for sid in SIDS}
        self.trackers: dict[str, OnlineTracker] = {}
        self.health: dict[str, SessionHealth] = {}
        self.packets: dict[str, int] = {}
        self.rejected_by: dict[str, int] = {}
        self.seen_health: dict[str, str] = {}
        self.queue: deque[tuple[str, float, np.ndarray]] = deque()
        self.offered = 0
        self.expected = {"ingested": 0, "dropped": 0, "rejected": 0, "orphaned": 0}

    # ------------------------------------------------------------ rules
    @initialize()
    def open_warm_fleet(self) -> None:
        # Every session starts past the tracker's warm-up, so polls (and
        # the estimate comparison) happen from the first tick on.
        for sid in SIDS:
            self.open_session(sid)
            self.ingest(sid, WARM_PACKETS, [])
        self.tick()

    @rule(sid=st.sampled_from(SIDS))
    def open_session(self, sid: str) -> None:
        if sid in self.trackers:
            return
        self.manager.open_session(sid, PROFILE)
        self.trackers[sid] = OnlineTracker(PROFILE, FAST, buffer_s=BUFFER_S)
        self.health[sid] = SessionHealth()
        self.packets[sid] = 0
        self.rejected_by[sid] = 0
        self.seen_health[sid] = HEALTHY

    @rule(sid=st.sampled_from(SIDS))
    def close_session(self, sid: str) -> None:
        if sid not in self.trackers:
            return
        self.manager.close_session(sid)
        for table in (self.trackers, self.health, self.packets, self.rejected_by):
            del table[sid]
        del self.seen_health[sid]

    @rule(
        sid=st.sampled_from(SIDS),
        n=st.integers(1, 60),
        faults=st.lists(
            st.tuples(st.integers(0, 60), st.sampled_from(FAULTS)), max_size=4
        ),
    )
    def ingest(self, sid: str, n: int, faults: list[tuple[int, str]]) -> None:
        cabin = CABINS[sid]
        at = {}
        for where, kind in faults:
            at.setdefault(where, []).append(kind)
        for j in range(n + 1):
            k = self.cursor[sid]
            for kind in at.get(j, ()):
                self._offer(sid, *self._fault(cabin, k, kind))
            if j < n and k < len(cabin):
                self._offer(sid, float(cabin.times[k]), TURN * cabin.csi_at(k))
                self.cursor[sid] = k + 1

    @precondition(lambda self: bool(self.trackers))
    @rule(data=st.data(), rate=st.floats(-0.5, 0.5))
    def push_imu(self, data: st.DataObject, rate: float) -> None:
        sid = data.draw(st.sampled_from(sorted(self.trackers)))
        k = self.cursor[sid]
        t = float(CABINS[sid].times[max(k - 1, 0)])
        self.manager.ingest_imu(sid, t, rate)
        self.trackers[sid].push_imu(t, rate)

    @rule()
    def tick(self) -> None:
        bad: dict[str, int] = {}
        while self.queue:
            sid, t, csi = self.queue.popleft()
            tracker = self.trackers.get(sid)
            if tracker is None:
                self.expected["orphaned"] += 1
                continue
            if not _finite(t, csi):
                bad[sid] = bad.get(sid, 0) + 1
                continue
            try:
                tracker.push_csi(t, csi)
            except ValueError:
                bad[sid] = bad.get(sid, 0) + 1
                continue
            self.packets[sid] += 1
            self.expected["ingested"] += 1
        for sid, count in bad.items():
            self.rejected_by[sid] += count
            self.expected["rejected"] += count
            self.health[sid].record_faults(count)

        report = self.manager.tick()

        for served in report.scheduler.served:
            assert served.error is None, served.error
            reference = self.trackers[served.session_id].estimate(served.polled_t)
            assert estimates_identical(served.estimate, reference), (
                served.session_id,
                served.polled_t,
            )
            self.health[served.session_id].record_success()
        for health in self.health.values():
            health.tick()

    # ------------------------------------------------------------ model
    def _offer(self, sid: str, t: float, csi: np.ndarray) -> None:
        self.offered += 1
        if len(self.queue) == DEPTH:
            self.queue.popleft()
            self.expected["dropped"] += 1
        self.queue.append((sid, t, csi))
        self.manager.ingest(sid, t, csi)

    @staticmethod
    def _fault(cabin: SyntheticCabin, k: int, kind: str) -> tuple[float, np.ndarray]:
        """One faulty record around stream position ``k``."""
        k = min(k, len(cabin) - 1)
        t = float(cabin.times[k])
        if kind == "nan_csi":
            return t, NAN_CSI
        csi = TURN * cabin.csi_at(k)
        if kind == "nan_time":
            return float("nan"), csi
        if kind == "inf_time":
            return float("inf"), csi
        if kind == "duplicate":
            return float(cabin.times[max(k - 1, 0)]), csi
        if kind == "out_of_order":
            return float(cabin.times[max(k - 5, 0)]), csi
        return t, csi[0]  # "flat": a 1-D record

    # ------------------------------------------------------- invariants
    @invariant()
    def packets_are_conserved(self) -> None:
        counters = self.manager.metrics.as_dict()["counters"]
        counted = {
            name: int(counters[f"packets_{name}"]) for name in self.expected
        }
        assert counted == self.expected
        queued = len(self.manager.queue)
        assert queued == len(self.queue)
        assert self.offered == sum(counted.values()) + queued

    @invariant()
    def sessions_match_their_models(self) -> None:
        for sid in SIDS:
            if sid not in self.trackers:
                assert sid not in self.manager.session_ids() or (
                    self.manager.session(sid).state == EVICTED
                )
                continue
            session = self.manager.session(sid)
            assert session.packets == self.packets[sid]
            assert session.rejected_packets == self.rejected_by[sid]
            served, model = session.tracker, self.trackers[sid]
            assert np.array_equal(
                served.phase_series().times, model.phase_series().times
            )
            assert np.array_equal(
                served.phase_series().values, model.phase_series().values
            )

    @invariant()
    def health_moves_legally(self) -> None:
        for sid, before in self.seen_health.items():
            state = self.manager.session(sid).health.state
            assert (before, state) in LEGAL, (sid, before, state)
            assert state == self.health[sid].state
            self.seen_health[sid] = state


ServingMachine.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServingMachine = ServingMachine.TestCase
