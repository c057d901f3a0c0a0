"""The one fleet driver: serve a declared scenario and check the contract.

:func:`run_scenario` drives a :class:`~repro.scenarios.spec.ScenarioSpec`'s
synthetic fleet (:mod:`repro.serve.loadgen` cabins) through one
:class:`~repro.serve.manager.SessionManager` or a sharded
:class:`~repro.serve.fabric.ServingFabric`, and checks ViHOT's serving
contract on the way, whatever the traffic:

* **Containment** — every ingest and every tick is guarded; anything
  that escapes the serving layer is counted in ``unhandled``.
* **Recovery** — after the stream ends the fleet keeps ticking until
  quarantine cooldowns expire and every session is healthy again (one
  tick on a clean fleet).
* **Replay** — clean, unchurned probe cabins are replayed through a
  standalone :class:`~repro.core.online.OnlineTracker` polled at the
  served instants; every estimate must match bit for bit.
* **Latency** — with ``speedup`` the packets arrive on a wall-clock
  schedule (``start + t / speedup``) that never waits for the fleet, and
  each estimate's arrival -> serve latency is gated by an optional
  :class:`~repro.serve.openloop.SloSpec`.

Every knob of the fleet comes from the spec, so a scenario's
:attr:`~repro.scenarios.spec.ScenarioSpec.scenario_id` fully determines
the estimates a run serves.  The driver lives here rather than in
:mod:`repro.serve` because the serving layer must not import the
scenario registry.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Optional

from repro.core.config import ViHOTConfig
from repro.core.stages import Estimate
from repro.scenarios.spec import ScenarioSpec
from repro.serve.fabric import ServingFabric
from repro.serve.loadgen import (
    ALL_WORKLOAD_KINDS,
    SYNTHETIC_FINGERPRINT,
    SyntheticCabin,
    SyntheticCamera,
    _replay_standalone,
    estimates_identical,
    kind_uses_imu,
    kind_workload,
    synthetic_profile,
)
from repro.serve.manager import ManagerTickReport, SessionManager
from repro.serve.metrics import Histogram, render_snapshot
from repro.serve.openloop import SloSpec, SloViolation
from repro.serve.session import HEALTH_STATES, HEALTHY

#: The fast search configuration every synthetic fleet is served with.
SERVE_CONFIG = ViHOTConfig(profile_stride=8, num_length_candidates=3)

#: Ticks a run may spend after its stream ends waiting for quarantine
#: cooldowns (capped at ``HealthPolicy.backoff_max_ticks``) to expire.
MAX_DRAIN_TICKS = 64

#: One served poll: ``(polled stream time, estimate or None)``.
Poll = tuple[float, Optional[Estimate]]


@dataclass(frozen=True)
class FleetResult:
    """What one :func:`run_scenario` run measured and observed.

    Serving counts come from the run's final merged metrics snapshot;
    ``latency_p*_ms`` is the wall time per poll, while ``latency`` is
    the arrival -> serve digest of a paced run (empty when closed loop).
    """

    sessions: int
    workers: int  # sharded-fabric worker count (0 = one manager)
    batching: bool
    speedup: float | None  # None = closed loop
    wall_s: float
    offered_packets_per_s: float  # the arrival schedule's aggregate rate
    packets_offered: int  # packets the (fault-chained) cabins emitted
    packets: int  # packets ingested into trackers
    drops: int  # shed by queue backpressure
    rejected: int  # non-finite packets refused at ingest
    estimates: int
    deferrals: int
    deadline_misses: int
    poll_failures: int  # tracker exceptions contained by the scheduler
    quarantines: int
    releases: int
    recoveries: int
    batched_sessions: int  # serving records produced by stacked calls
    fallback_sessions: int  # serving records on the sequential path
    churned_sessions: int  # sessions closed mid-run and reopened
    unhandled: int  # exceptions that escaped the serving layer
    first_unhandled: str  # the first of them as "Type: message" ("" if none)
    injector_touches: dict[str, int]  # per-injector packets affected
    final_health: dict[str, int]  # health-state occupancy at the end
    verified_sessions: int
    bit_identical: bool
    latency_p50_ms: float
    latency_p90_ms: float
    latency_p99_ms: float
    latency: dict[str, float]  # Histogram.summary() of arrival -> serve ms
    violations: tuple[SloViolation, ...]
    slo_checked: bool
    metrics_line: str
    #: Per-captured-session poll logs, for comparing two runs estimate
    #: for estimate, and the final metrics snapshot for the Prometheus
    #: exporter — plumbing, not measurements, so not in :meth:`as_dict`.
    captured: dict[str, list[Poll]] = field(default_factory=dict)
    snapshot: dict[str, object] = field(default_factory=dict)

    @property
    def session_packets_per_s(self) -> float:
        """Aggregate packets ingested per wall second, the headline."""
        return self.packets / self.wall_s if self.wall_s > 0 else float("inf")

    @property
    def packets_per_s(self) -> float:
        """Per-session packet rate actually sustained."""
        return self.session_packets_per_s / self.sessions

    @property
    def all_healthy(self) -> bool:
        return self.final_health.get(HEALTHY, 0) == sum(self.final_health.values())

    @property
    def slo_met(self) -> bool:
        return not self.violations

    def failures(self) -> list[str]:
        """Why the run broke the serving contract (empty when it held)."""
        problems = [f"SLO {violation}" for violation in self.violations]
        if not self.bit_identical:
            problems.append("served estimates differ from standalone replay")
        if self.unhandled:
            problems.append(
                f"{self.unhandled} exception(s) escaped the serving layer, "
                f"first {self.first_unhandled}"
            )
        if not self.all_healthy:
            problems.append(
                f"fleet did not recover after faults cleared: {self.final_health}"
            )
        return problems

    def as_dict(self) -> dict[str, object]:
        plumbing = ("captured", "snapshot", "metrics_line", "latency", "violations")
        report = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name not in plumbing
        }
        report.update(
            ingested=self.packets,
            packets_per_s=self.packets_per_s,
            session_packets_per_s=self.session_packets_per_s,
            all_healthy=self.all_healthy,
            latency_ms=self.latency,
            slo_met=self.slo_met,
            violations=[str(violation) for violation in self.violations],
            failures=self.failures(),
            metrics=self.metrics_line,
        )
        return report

    def summary(self) -> str:
        loop = "closed-loop" if self.speedup is None else "open-loop"
        touches = ",".join(
            f"{name}={count}" for name, count in sorted(self.injector_touches.items())
        )
        text = (
            f"{loop} {self.sessions} sessions x {self.workers or 1} worker(s): "
            f"{self.packets} packets in {self.wall_s:.2f}s wall = "
            f"{self.session_packets_per_s:,.0f} session-packets/s, {self.estimates} "
            f"estimates (poll p50 {self.latency_p50_ms:.2f} ms), {self.drops} drops, "
            f"{self.deferrals} deferrals, {self.rejected} rejected, "
            f"{self.quarantines} quarantines / {self.recoveries} recoveries, "
            f"{self.unhandled} unhandled, "
            f"final={'all-healthy' if self.all_healthy else self.final_health}, "
            f"verify[{self.verified_sessions}]="
            f"{'bit-identical' if self.bit_identical else 'MISMATCH'}"
        )
        if touches:
            text += f", touches[{touches}]"
        if self.speedup is not None:
            slo = "; ".join(str(v) for v in self.violations) or "met"
            text += (
                f"; {self.offered_packets_per_s:,.0f} packets/s offered, latency p50 "
                f"{self.latency['p50']:.2f} ms / p99 {self.latency['p99']:.2f} ms / "
                f"p99.9 {self.latency['p99_9']:.2f} ms, "
                f"SLO {slo if self.slo_checked else 'not checked'}"
            )
        return text


def _session_options(
    kind: str, seed: int
) -> tuple[SyntheticCamera | None, ViHOTConfig | None]:
    """The camera and per-session config override of a cabin of ``kind``."""
    camera = SyntheticCamera(seed=seed) if kind == "camera" else None
    config = replace(SERVE_CONFIG, horizon_s=0.1) if kind == "forecast" else None
    return camera, config


@contextmanager
def _serving(
    spec: ScenarioSpec, workers: int, processes: bool
) -> Iterator[SessionManager | ServingFabric]:
    """The run's serving stack; a fabric is closed on every exit path."""
    build: Callable[..., SessionManager | ServingFabric] = (
        partial(ServingFabric, workers=workers, processes=processes)
        if workers
        else SessionManager
    )
    manager = build(
        SERVE_CONFIG,
        queue_depth=spec.queue_depth,
        budget_s=spec.budget_s,
        stride_s=spec.stride_s,
        idle_timeout_s=10 * spec.duration_s + 60.0,  # no idling mid-run
        buffer_s=spec.buffer_s,
        batching=spec.batching,
    )
    try:
        yield manager
    finally:
        if isinstance(manager, ServingFabric):
            manager.close()


def run_scenario(
    spec: ScenarioSpec,
    *,
    workers: int = 0,
    processes: bool = True,
    speedup: float | None = None,
    slo: SloSpec | None = None,
    verify_sessions: int | None = None,
    capture_sessions: int = 0,
) -> FleetResult:
    """Serve ``spec``'s fleet and check the serving contract.

    ``workers`` > 0 serves through a sharded fabric (``processes=False``
    keeps its shards inline: the same code path minus the transport).
    ``speedup`` paces arrivals on the wall clock instead of the closed
    loop, and ``slo`` gates the paced latency digest.

    ``verify_sessions`` standalone-replay probes default to two, or none
    when the spec churns; a faulted spec verifies none (an injected
    stream has no pristine twin).  The first ``capture_sessions`` cabins
    get their poll logs in :attr:`FleetResult.captured`.  Churn takes
    the fleet's tail so it never overlaps the probes at the front:
    tracking the whole fleet clamps the churn away.
    """
    unknown = sorted(set(spec.workload_mix) - set(ALL_WORKLOAD_KINDS))
    if unknown:
        raise ValueError(
            f"unknown workload kinds {unknown}; known: {list(ALL_WORKLOAD_KINDS)}"
        )
    if spec.num_sessions < 1:
        raise ValueError("num_sessions must be >= 1")
    if speedup is not None and not speedup > 0:
        raise ValueError("speedup must be positive")
    n = spec.num_sessions
    if verify_sessions is None:
        verify_sessions = 0 if spec.churn_sessions else 2
    verify_sessions = 0 if spec.fault_plan.enabled else min(verify_sessions, n)
    tracked = max(verify_sessions, capture_sessions)
    churn = min(spec.churn_sessions, max(n - tracked, 0))

    kinds = [spec.workload_mix[k % len(spec.workload_mix)] for k in range(n)]
    cabins = [
        SyntheticCabin(
            f"cabin-{k:04d}",
            seed=spec.seed * 10_000 + k,
            duration_s=spec.duration_s,
            rate_hz=spec.rate_hz,
            workload=kind_workload(kind),
        )
        for k, kind in enumerate(kinds)
    ]
    faults = {
        c.cabin_id: spec.fault_plan.bind(c.cabin_id)
        for c in cabins
        if spec.fault_plan.enabled
    }
    profile = synthetic_profile()
    servings: dict[str, list[Poll]] = {c.cabin_id: [] for c in cabins[:tracked]}
    latency = Histogram("fleet_latency_ms", "arrival -> serve", capacity=1 << 15)
    escaped: list[str] = []  # "Type: message" of every unhandled exception
    offered = 0

    def guarded(call: Callable[..., object], *args: object) -> object:
        """``call(*args)``, counting anything the serving layer let escape."""
        try:
            return call(*args)
        except Exception as exc:
            escaped.append(f"{type(exc).__name__}: {exc}")
            return None

    with _serving(spec, workers, processes) as manager:

        def open_cabin(k: int) -> None:
            camera, config = _session_options(kinds[k], cabins[k].seed)
            manager.open_session(
                cabins[k].cabin_id,
                fingerprint=SYNTHETIC_FINGERPRINT,
                build_profile=lambda: profile,
                camera=camera,
                config=config,
                workload=kind_workload(kinds[k]),
            )

        for k in range(n):
            open_cabin(k)
        start = time.perf_counter()

        def tick() -> ManagerTickReport | None:
            report = guarded(manager.tick)
            if not isinstance(report, ManagerTickReport):
                return None
            serve_wall = time.perf_counter() - start
            for served in report.scheduler.served:
                if served.session_id in servings:
                    servings[served.session_id].append((served.polled_t, served.estimate))
                if speedup and served.error is None and served.estimate is not None:
                    latency.observe((serve_wall - served.polled_t / speedup) * 1e3)
            return report

        closed: set[str] = set()
        churn_phase = "open" if churn else "done"  # open -> closed -> done
        imu_cursors = [0] * n
        next_tick = spec.tick_interval_s
        for step, t in enumerate(cabins[0].times.tolist()):
            if speedup:
                delay = start + t / speedup - time.perf_counter()
                if delay > 0:  # behind schedule: never slow down
                    time.sleep(delay)
            if churn_phase == "open" and t >= 0.45 * spec.duration_s:
                for cabin in cabins[n - churn:]:
                    manager.close_session(cabin.cabin_id)
                    closed.add(cabin.cabin_id)
                churn_phase = "closed"
            elif churn_phase == "closed" and t >= 0.65 * spec.duration_s:
                for k in range(n - churn, n):
                    open_cabin(k)
                closed, churn_phase = set(), "done"
            for c, cabin in enumerate(cabins):
                live = cabin.cabin_id not in closed
                if kind_uses_imu(kinds[c]):
                    cursor = imu_cursors[c]
                    while cursor < len(cabin.imu_times) and cabin.imu_times[cursor] <= t:
                        # A disconnected car's unsent IMU backlog is
                        # discarded, not delivered on reconnect.
                        if live:
                            guarded(
                                manager.ingest_imu,
                                cabin.cabin_id,
                                float(cabin.imu_times[cursor]),
                                float(cabin.imu_rates[cursor]),
                            )
                        cursor += 1
                    imu_cursors[c] = cursor
                if not live:
                    continue
                csi = cabin.csi_at(step)
                chain = faults[cabin.cabin_id].process(t, csi) if faults else [(t, csi)]
                for packet_t, packet_csi in chain:
                    offered += 1
                    guarded(manager.ingest, cabin.cabin_id, packet_t, packet_csi)
            if t >= next_tick:
                tick()
                next_tick += spec.tick_interval_s
        # Drain: quarantine cooldowns may still be counting down; keep
        # ticking until they expire and the released sessions recover.
        for _ in range(MAX_DRAIN_TICKS):
            report = tick()
            if report is not None and not report.released and all(
                state == HEALTHY for state in manager.health_states().values()
            ):
                break
        wall_s = time.perf_counter() - start
        states = list(manager.health_states().values())
        snapshot = manager.metrics_snapshot()

    bit_identical = True
    for k, cabin in enumerate(cabins[:verify_sessions]):
        log = servings[cabin.cabin_id]
        camera, config = _session_options(kinds[k], cabin.seed)
        replayed = _replay_standalone(
            cabin,
            profile,
            config or SERVE_CONFIG,
            spec.buffer_s,
            [t for t, _ in log],
            camera=camera,
            with_imu=kind_uses_imu(kinds[k]),
            workload=kind_workload(kinds[k]),
        )
        bit_identical &= len(replayed) == len(log) and all(
            estimates_identical(a, b) for a, (_, b) in zip(replayed, log)
        )
    touches: Counter[str] = Counter()
    for stream_faults in faults.values():
        touches.update(stream_faults.touched_counts())
    counters, histograms = snapshot["counters"], snapshot["histograms"]
    assert isinstance(counters, dict) and isinstance(histograms, dict)
    poll_latency = histograms["estimate_latency_ms"]
    summary = latency.summary()
    return FleetResult(
        sessions=n,
        workers=workers,
        batching=spec.batching,
        speedup=speedup,
        wall_s=wall_s,
        offered_packets_per_s=n * spec.rate_hz * speedup if speedup else offered / wall_s,
        packets_offered=offered,
        packets=int(counters["packets_ingested"]),
        drops=int(counters["packets_dropped"]),
        rejected=int(counters["packets_rejected"]),
        estimates=int(counters["estimates_served"]),
        deferrals=int(counters["scheduler_deferrals"]),
        deadline_misses=int(counters["deadline_misses"]),
        poll_failures=int(counters["poll_failures"]),
        quarantines=int(counters["quarantines_total"]),
        releases=int(counters["quarantine_releases"]),
        recoveries=int(counters["recoveries_total"]),
        batched_sessions=int(counters["sessions_batched"]),
        fallback_sessions=int(counters["sessions_fallback"]),
        churned_sessions=churn,
        unhandled=len(escaped),
        first_unhandled=escaped[0] if escaped else "",
        injector_touches=dict(touches),
        final_health={state: states.count(state) for state in HEALTH_STATES},
        verified_sessions=verify_sessions,
        bit_identical=bit_identical,
        latency_p50_ms=poll_latency["p50"],
        latency_p90_ms=poll_latency["p90"],
        latency_p99_ms=poll_latency["p99"],
        latency=summary,
        violations=slo.evaluate(summary) if slo is not None else (),
        slo_checked=slo is not None,
        metrics_line=render_snapshot(snapshot),
        captured={c.cabin_id: servings[c.cabin_id] for c in cabins[:capture_sessions]},
        snapshot=dict(snapshot),
    )
