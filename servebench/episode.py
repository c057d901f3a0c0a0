"""The three workloads and one episode of each: set up, drive, record.

An episode builds a fresh server (``SessionManager`` or a forked
``ServingFabric``), opens every cabin's session — the first open misses
the profile cache and builds the shared profile from the raw profiling
captures — then streams the precomputed packet schedule through it and
ticks every :data:`TICK_S` of stream time.  A closed loop hands packets
over as fast as the server takes them; an open loop hands each one over
no earlier than its due time on a real-time schedule.  Either way tick
``k`` sees exactly the packets stamped up to ``k * TICK_S``, so the
work of an episode is a pure function of the seed; only its timing is
measured.

Latency runs from a packet's arrival — when the newest packet an
estimate consumed was handed to ``ingest()`` (closed loop) or was due
(open loop) — to the return of the ``tick()`` that served the estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from multiprocessing import active_children
from time import perf_counter
from typing import Any

import numpy as np

from fleet import (
    DURATION_S,
    FINGERPRINT,
    PROFILE_HOLD_S,
    Cabin,
    FleetInputs,
    FleetSpec,
    ProfilingCaptures,
)
from repro.core.config import ViHOTConfig
from repro.core.online import OnlineTracker
from repro.core.profile import CsiProfile
from repro.core.profiling import ProfileBuilder
from repro.core.stages import Estimate
from repro.core.workloads import engine_for_workload
from repro.serve.fabric import ServingFabric
from repro.serve.loadgen import estimates_identical
from repro.serve.manager import ManagerTickReport, SessionManager

#: The serve search configuration.
CONFIG = ViHOTConfig(profile_stride=8, num_length_candidates=3)
FORECAST_CONFIG = replace(CONFIG, horizon_s=0.1)
#: One estimate per session every 0.1 s of stream time.  Grid timestamps
#: make "newest >= last + 0.1" an exact tie, so the stride sits one
#: microsecond short and float rounding cannot push a poll a tick late.
STRIDE_S = 0.1 - 1e-6
TICK_S = 0.05
BUFFER_S = 10.0
#: Wall-clock policies (budget deferral, idle eviction) never fire, so an
#: episode's work does not depend on how fast this machine is.
NEVER_S = 1e9


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the server it runs against.

    Attributes:
        paced: open loop on a real-time arrival schedule.
        workers: forked fabric workers (0: one in-process manager).
        batching: serve through the fleet-batched scheduler.
        scrape_every: ticks between ``metrics_snapshot()`` scrapes
            (0: never).

    Why each workload is in the benchmark is recorded beside its name in
    ``BENCHMARK.json``.
    """

    name: str
    fleet: FleetSpec
    paced: bool
    workers: int
    batching: bool
    scrape_every: int

    @property
    def verify_ids(self) -> tuple[str, ...]:
        """Replay-verified sessions: the first cabin of every kind, and
        the last cabin (the latest-staggered clock)."""
        first = range(min(len(self.fleet.kinds), self.fleet.cabins))
        return tuple(f"cabin-{k:03d}" for k in [*first, self.fleet.cabins - 1])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "turning-fleet",
            FleetSpec(16, 200.0, ("plain",), "turning"),
            paced=False,
            workers=0,
            batching=True,
            scrape_every=0,
        ),
        Workload(
            "glance-fleet",
            FleetSpec(8, 500.0, ("plain",), "glance"),
            paced=True,
            workers=0,
            batching=False,
            scrape_every=0,
        ),
        Workload(
            "mixed-fabric",
            FleetSpec(
                24, 200.0,
                ("plain", "imu", "camera", "forecast", "localize", "breathing"),
                "turning",
            ),
            paced=False,
            workers=2,
            batching=True,
            scrape_every=int(round(1.0 / TICK_S)),
        ),
    )
}


def build_profile(captures: ProfilingCaptures) -> CsiProfile:
    """The shared head profile, built from the raw profiling captures."""
    builder = ProfileBuilder(driver="servebench")
    for stream, truth, label in zip(captures.streams, captures.truths, captures.labels):
        builder.add_position(stream, truth, label, front_hold_s=PROFILE_HOLD_S)
    return builder.build()


@dataclass(frozen=True)
class Schedule:
    """Every hand-off of an episode in stream order, plus tick bounds.

    ``csi[j]`` is a packet's CSI view, or ``None`` for an IMU reading
    (whose yaw rate is ``rate[j]``).  Tick ``k`` runs after events
    ``[bounds[k-1], bounds[k])``; ``packet_event[c][i]`` is the event
    index of cabin ``c``'s packet ``i``.
    """

    sids: list[str]
    times: list[float]
    csi: list[np.ndarray | None]
    rate: list[float]
    tick_times: list[float]
    bounds: list[int]
    packet_event: list[np.ndarray]

    @property
    def packets(self) -> int:
        return sum(len(p) for p in self.packet_event)

    def prefix(self, seconds: float) -> Schedule:
        """The same schedule cut after its first ``seconds`` of ticks."""
        n = int(round(seconds / TICK_S))
        return replace(self, tick_times=self.tick_times[:n], bounds=self.bounds[:n])


def make_schedule(inputs: FleetInputs) -> Schedule:
    times, kind, cabin, index = [], [], [], []
    for c, cab in enumerate(inputs.cabins):
        # IMU readings sort ahead of a packet with the same stamp.
        times += [cab.imu_times, cab.times]
        kind += [np.zeros(len(cab.imu_times)), np.ones(len(cab.times))]
        cabin += [np.full(len(cab.imu_times), c), np.full(len(cab.times), c)]
        index += [np.arange(len(cab.imu_times)), np.arange(len(cab.times))]
    all_t = np.concatenate(times)
    all_kind = np.concatenate(kind).astype(int)
    all_cabin = np.concatenate(cabin).astype(int)
    all_index = np.concatenate(index).astype(int)
    order = np.lexsort((all_kind, all_t))
    sids, csi, rate = [], [], []
    packet_event = [np.zeros(len(cab.times), dtype=int) for cab in inputs.cabins]
    for j, e in enumerate(order.tolist()):
        cab = inputs.cabins[all_cabin[e]]
        sids.append(cab.session_id)
        if all_kind[e]:
            csi.append(cab.csi[all_index[e]])
            rate.append(0.0)
            packet_event[all_cabin[e]][all_index[e]] = j
        else:
            csi.append(None)
            rate.append(float(cab.imu_rates[all_index[e]]))
    sorted_t = all_t[order]
    ticks = TICK_S * np.arange(1, int(np.ceil(DURATION_S / TICK_S)) + 1)
    bounds = np.searchsorted(sorted_t, ticks + 1e-9, side="right")
    return Schedule(
        sids, sorted_t.tolist(), csi, rate, ticks.tolist(), bounds.tolist(), packet_event
    )


def make_server(workload: Workload) -> SessionManager | ServingFabric:
    kwargs: dict[str, Any] = dict(
        budget_s=NEVER_S,
        stride_s=STRIDE_S,
        idle_timeout_s=NEVER_S,
        evict_after_s=None,
        buffer_s=BUFFER_S,
        batching=workload.batching,
    )
    if workload.workers:
        return ServingFabric(CONFIG, workers=workload.workers, processes=True, **kwargs)
    return SessionManager(CONFIG, **kwargs)


def open_args(cabin: Cabin) -> dict[str, Any]:
    return dict(
        fingerprint=FINGERPRINT,
        camera=cabin.camera,
        config=FORECAST_CONFIG if cabin.kind == "forecast" else None,
        workload=cabin.workload,
    )


def setup(
    workload: Workload, inputs: FleetInputs, opens: list[dict[str, Any]]
) -> tuple[SessionManager | ServingFabric, float]:
    """Construct the server and open every session; returns its wall time."""

    def build() -> CsiProfile:
        return build_profile(inputs.captures)

    start = perf_counter()
    server = make_server(workload)
    try:
        for cabin, kwargs in zip(inputs.cabins, opens):
            server.open_session(cabin.session_id, build_profile=build, **kwargs)
    except BaseException:
        if isinstance(server, ServingFabric):
            server.close()
        raise
    return server, perf_counter() - start


@dataclass
class Drive:
    """What one timed drive recorded (raw; summarized by :func:`summarize`).

    ``idle_s`` is the open loop's time spent waiting for due times.
    """

    wall_s: float
    idle_s: float
    start: float
    accepted: int
    shed: int
    handoff: list[float]
    tick_starts: list[float]
    tick_ends: list[float]
    reports: list[ManagerTickReport]


def wait_until(deadline: float) -> float:
    """Spin until ``perf_counter()`` reaches ``deadline``; returns the
    time waited.

    The open loop waits about every 250 us.  A sleep would idle the CPU,
    and on a shared host an idle virtual CPU can take milliseconds to run
    again, so every latency sample would carry the host's wake-up delay.
    """
    now = perf_counter()
    waited = max(deadline - now, 0.0)
    while now < deadline:
        now = perf_counter()
    return waited


def drive(
    server: SessionManager | ServingFabric, sched: Schedule, workload: Workload
) -> Drive:
    """Stream the schedule through ``server``; the timed part of an episode."""
    sids, times, csi, rate = sched.sids, sched.times, sched.csi, sched.rate
    handoff = [0.0] * len(times)
    tick_starts: list[float] = []
    tick_ends: list[float] = []
    reports: list[ManagerTickReport] = []
    ingest, ingest_imu, tick = server.ingest, server.ingest_imu, server.tick
    paced = workload.paced
    scrape_every = workload.scrape_every
    accepted = 0
    shed = 0
    idle = 0.0
    j = 0
    start = perf_counter()
    for k, tick_t in enumerate(sched.tick_times):
        hi = sched.bounds[k]
        while j < hi:
            if paced:
                idle += wait_until(start + times[j])
            handoff[j] = perf_counter()
            packet = csi[j]
            if packet is None:
                ingest_imu(sids[j], times[j], rate[j])
            elif ingest(sids[j], times[j], packet):
                accepted += 1
            else:
                shed += 1
            j += 1
        if paced:
            idle += wait_until(start + tick_t)
        if scrape_every and (k + 1) % scrape_every == 0:
            # The scrape holds up the serve loop while this tick's
            # packets wait, as it would in a real server.
            server.metrics_snapshot()
        tick_starts.append(perf_counter())
        reports.append(tick())
        tick_ends.append(perf_counter())
    wall_s = perf_counter() - start
    return Drive(wall_s, idle, start, accepted, shed, handoff, tick_starts, tick_ends, reports)


@dataclass(frozen=True)
class Episode:
    """One episode's summary: timings, counts and the verified poll logs.

    ``signature`` holds every count that must repeat exactly for a seed.
    """

    setup_s: float
    wall_s: float
    busy_s: float
    accepted: int
    shed: int
    latency_ms: np.ndarray
    late_ms: np.ndarray
    wait_ms: np.ndarray
    polls: int
    failed_polls: int
    errors: tuple[str, ...]
    deferrals: int
    signature: dict[str, float]
    logs: dict[str, list[tuple[float, Estimate | None]]]
    memory_bytes: int


def _stage_counts(estimates: list[Estimate]) -> dict[str, int]:
    counts = {"match": 0, "stationary": 0, "hold": 0}
    for estimate in estimates:
        trace = estimate.trace
        if trace is None:
            continue
        if trace.stage("match") is not None:
            counts["match"] += 1
        if trace.terminal in ("stationary", "hold"):
            counts[trace.terminal] += 1
    return counts


def summarize(
    run: Drive,
    sched: Schedule,
    inputs: FleetInputs,
    workload: Workload,
    setup_s: float,
    memory_bytes: int,
) -> Episode:
    cabin_of = {cab.session_id: c for c, cab in enumerate(inputs.cabins)}
    verify = set(workload.verify_ids)
    logs: dict[str, list[tuple[float, Estimate | None]]] = {sid: [] for sid in verify}
    handoff = np.asarray(run.handoff)
    latency: list[float] = []
    estimates: list[Estimate] = []
    errors: list[str] = []
    polls = failed = deferrals = 0
    batch_sizes: list[int] = []
    batched = fallback = 0
    for k, report in enumerate(run.reports):
        sched_report = report.scheduler
        deferrals += len(sched_report.deferred)
        batch_sizes += sched_report.batch_sizes
        batched += sched_report.batched_sessions
        fallback += sched_report.fallback_sessions
        for served in sched_report.served:
            polls += 1
            if served.session_id in verify:
                logs[served.session_id].append((served.polled_t, served.estimate))
            if served.error is not None:
                failed += 1
                errors.append(f"{served.session_id}: {served.error}")
                continue
            if served.estimate is None:
                continue
            estimates.append(served.estimate)
            if workload.paced:
                arrival = run.start + served.polled_t
            else:
                c = cabin_of[served.session_id]
                packet = int(np.searchsorted(inputs.cabins[c].times, served.polled_t))
                arrival = handoff[sched.packet_event[c][packet]]
            latency.append(run.tick_ends[k] - arrival)
    # Queue wait: from hand-off to the start of the tick that drained it.
    handed = sched.bounds[len(run.reports) - 1]
    packet_events = np.concatenate(sched.packet_event)
    packet_events = packet_events[packet_events < handed]
    tick_of = np.searchsorted(np.asarray(sched.bounds), packet_events, side="right")
    wait = np.asarray(run.tick_starts)[tick_of] - handoff[packet_events]
    if workload.paced:
        late = handoff[:handed] - (run.start + np.asarray(sched.times[:handed]))
    else:
        late = np.zeros(0)
    stages = _stage_counts(estimates)
    signature = {
        "estimates": float(len(estimates)),
        "polls": float(polls),
        "latency_samples": float(len(latency)),
        "match": float(stages["match"]),
        "stationary": float(stages["stationary"]),
        "hold": float(stages["hold"]),
        "batch_groups": float(len(batch_sizes)),
        "batched_sessions": float(batched),
        "fallback_sessions": float(fallback),
    }
    return Episode(
        setup_s=setup_s,
        wall_s=run.wall_s,
        busy_s=run.wall_s - run.idle_s,
        accepted=run.accepted,
        shed=run.shed,
        latency_ms=np.asarray(latency) * 1e3,
        late_ms=late * 1e3,
        wait_ms=wait * 1e3,
        polls=polls,
        failed_polls=failed,
        errors=tuple(errors),
        deferrals=deferrals,
        signature=signature,
        logs=logs,
        memory_bytes=memory_bytes,
    )


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def _serving_pids() -> list[str]:
    return ["self", *(str(child.pid) for child in active_children())]


def reset_peak_memory() -> None:
    """Restart the resident high-water mark of every serving process."""
    for pid in _serving_pids():
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")


def _kib_fields(path: str, *fields: str) -> int:
    """The sum of ``fields`` (kB lines) of a ``/proc`` file, in bytes."""
    total = 0
    with open(path) as handle:
        for line in handle:
            if line.startswith(fields):
                total += int(line.split()[1]) * 1024
    return total


def serving_memory(inputs: FleetInputs) -> int:
    """Peak resident bytes of the serving processes since
    :func:`reset_peak_memory`, inputs excluded.

    Each process counts its high-water mark.  The benchmark process
    counts it minus its input arrays; each forked worker counts it minus
    the pages it still shares (with its parent, over fork, or through
    the shared-memory rings the parent maps too), so such a page counts
    once.  The sum of per-process peaks bounds their joint peak.
    """
    total = -inputs.nbytes
    for pid in _serving_pids():
        total += _kib_fields(f"/proc/{pid}/status", "VmHWM:")
        if pid != "self":
            total -= _kib_fields(f"/proc/{pid}/smaps_rollup", "Shared_Clean:", "Shared_Dirty:")
    return total


# ----------------------------------------------------------------------
# Standalone replay
# ----------------------------------------------------------------------
def replay(
    cabin: Cabin, profile: CsiProfile, polled: list[float]
) -> list[Estimate | None]:
    """A standalone tracker fed the cabin's stream, polled at ``polled``.

    IMU readings go in ahead of every packet stamped at or after them,
    as in the served schedule.
    """
    config = FORECAST_CONFIG if cabin.kind == "forecast" else CONFIG
    camera = cabin.camera
    if cabin.workload == "head":
        tracker = OnlineTracker(profile, config, camera=camera, buffer_s=BUFFER_S)
    else:
        engine = engine_for_workload(cabin.workload, profile, config, camera=camera)
        tracker = OnlineTracker(profile, camera=camera, buffer_s=BUFFER_S, engine=engine)
    produced: list[Estimate | None] = []
    imu_t = cabin.imu_times.tolist()
    poll = 0
    m = 0
    for k, t in enumerate(cabin.times.tolist()):
        while m < len(imu_t) and imu_t[m] <= t:
            tracker.push_imu(imu_t[m], float(cabin.imu_rates[m]))
            m += 1
        tracker.push_csi(t, cabin.csi[k])
        while poll < len(polled) and polled[poll] <= t:
            produced.append(tracker.estimate(polled[poll]))
            poll += 1
    return produced


def mismatches(
    logs: dict[str, list[tuple[float, Estimate | None]]],
    reference: dict[str, list[tuple[float, Estimate | None]]],
) -> int:
    """Polls of ``logs`` that differ from ``reference`` in time or payload
    (NaN-aware, traces excluded)."""
    bad = 0
    for sid, log in logs.items():
        ref = reference[sid]
        bad += abs(len(log) - len(ref))
        for (t, estimate), (ref_t, ref_estimate) in zip(log, ref):
            if t != ref_t or not estimates_identical(estimate, ref_estimate):
                bad += 1
    return bad
