"""The sharded multi-worker serving fabric.

One :class:`ServingFabric` scales the single-process
:class:`~repro.serve.manager.SessionManager` out to N worker processes
without changing what any tracker computes:

* **Routing.**  A :class:`~repro.serve.shard.ShardRouter` consistent-
  hashes every session id onto one shard; the session's whole life
  (open, packets, IMU, estimates, close) happens on that worker, so
  its tracker state never crosses a process boundary.
* **Ingest.**  Each shard owns a :class:`~repro.serve.shm.SharedCsiRing`
  — packets go parent -> worker through shared memory as plain numpy
  stores, never pickled.  Control traffic (open/close/IMU/tick) rides a
  duplex pipe per worker in strict request-reply order.
* **Ticks.**  ``tick()`` broadcasts to every worker (send to all, then
  collect, so workers tick concurrently) and merges the per-shard
  :class:`~repro.serve.manager.ManagerTickReport` into one fleet
  report in shard order — deterministic, which is what lets the
  bit-identity suite pin a 4-worker fleet against single-process
  serving packet for packet.
* **Backpressure & work stealing.**  With a per-tick drain quota set,
  shards whose ring crosses the high-water mark are granted the quota
  their under-loaded peers are not using this tick — a deterministic
  reallocation computed from ring occupancy alone (no wall clock, no
  racing threads), so hot shards drain faster while the bit-identity
  contract (quota unset) is untouched.
* **Observability.**  The fleet snapshot sums every worker's counters
  and gauges, keeps fleet-level latency histograms observed parent-side
  from the merged tick reports, and merges per-stage stats by name;
  :meth:`render_metrics` emits the same one-line format as a single
  manager, and :func:`repro.serve.export.render_prometheus` turns the
  same snapshots into a Prometheus text exposition.

The fabric deliberately implements the manager's serving surface
(``open_session`` / ``ingest`` / ``ingest_imu`` / ``tick`` /
``estimates`` / ``health_states`` / ``close_session`` / metrics), so
the fleet driver (:func:`repro.scenarios.run_scenario`) swaps one in
with ``workers=N`` and every probe it runs — containment, recovery,
standalone replay, latency — works unchanged.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import Connection
from typing import Any

import numpy as np

from repro.core.config import ViHOTConfig
from repro.core.profile import CsiProfile
from repro.core.stages import CameraLike, Estimate
from repro.core.workloads import HEAD_WORKLOAD
from repro.serve.manager import ManagerTickReport, ProfileCache, SessionManager
from repro.serve.metrics import MetricsRegistry, render_snapshot
from repro.serve.scheduler import TickReport
from repro.serve.session import HealthPolicy, SessionStateError
from repro.serve.shard import ShardRouter
from repro.serve.shm import SharedCsiRing


@dataclass(frozen=True)
class SessionCard:
    """What the parent must remember to re-home a session after a
    worker death: everything ``open_session`` needs, minus the tracker
    state (which died with the worker — the documented drop window)."""

    profile: CsiProfile | None
    fingerprint: str | None
    camera: CameraLike | None
    config: ViHOTConfig | None
    workload: str


class ShardWorker:
    """One shard's brain: a private :class:`SessionManager` fed from a
    shared-memory ring.  Runs identically inline (tests, ``processes=
    False``) and inside a worker process — the process boundary adds
    transport, never behaviour."""

    def __init__(
        self,
        ring: SharedCsiRing,
        manager_kwargs: dict[str, Any],
    ) -> None:
        config = manager_kwargs.pop("config")
        self._ring = ring
        self._manager = SessionManager(config, **manager_kwargs)

    @property
    def manager(self) -> SessionManager:
        return self._manager

    def _drain_ring(self, max_records: int | None) -> int:
        """Move up to ``max_records`` packets ring -> local ingest queue."""
        records = self._ring.drain(max_records)
        for record in records:
            self._manager.ingest(record.session_id, record.time, record.csi)
        return len(records)

    def handle(self, cmd: tuple[Any, ...]) -> Any:
        op = cmd[0]
        if op == "tick":
            self._drain_ring(cmd[1])
            return self._manager.tick()
        if op == "drain":
            return self._drain_ring(cmd[1])
        if op == "open":
            _, sid, profile, fingerprint, camera, config, workload = cmd
            self._manager.open_session(
                sid,
                profile,
                fingerprint=fingerprint,
                camera=camera,
                config=config,
                workload=workload,
            )
            return sid
        if op == "imu":
            self._manager.ingest_imu(cmd[1], cmd[2], cmd[3])
            return None
        if op == "close":
            return self._manager.close_session(cmd[1])
        if op == "estimates":
            return self._manager.estimates(cmd[1])
        if op == "health":
            return self._manager.health_states()
        if op == "snapshot":
            return self._manager.metrics_snapshot()
        raise ValueError(f"unknown shard command {op!r}")


def _worker_main(
    conn: Connection,
    ring: SharedCsiRing,
    manager_kwargs: dict[str, Any],
) -> None:
    """A worker process's whole life: build the manager, answer commands.

    Strict request-reply: every received command gets exactly one
    ``("ok", payload)`` or ``("err", message)``, so the parent can
    pipeline sends across workers and collect in order.
    """
    worker = ShardWorker(ring, manager_kwargs)
    while True:
        try:
            cmd = conn.recv()
        except EOFError:
            break
        if cmd[0] == "stop":
            conn.send(("ok", None))
            break
        try:
            result = worker.handle(cmd)
        except Exception as exc:  # contained: the parent decides
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
        else:
            conn.send(("ok", result))
    # Drop this process's mapping (never the segment itself: the parent
    # owns the name and unlinks it on shutdown/failover).
    ring.close(unlink=False)
    conn.close()


class _InlineShard:
    """A shard without the process: commands execute synchronously at
    ``send`` time.  Same transport contract as :class:`_ProcessShard`,
    so the fabric's logic has exactly one code path."""

    def __init__(self, index: int, ring: SharedCsiRing, worker: ShardWorker) -> None:
        self.index = index
        self.ring = ring
        self.alive = True
        self._worker = worker
        self._pending: list[tuple[str, Any]] = []

    def send(self, cmd: tuple[Any, ...]) -> None:
        if cmd[0] == "stop":
            self._pending.append(("ok", None))
            self.alive = False
            return
        try:
            self._pending.append(("ok", self._worker.handle(cmd)))
        except Exception as exc:
            self._pending.append(("err", f"{type(exc).__name__}: {exc}"))

    def recv(self) -> Any:
        status, payload = self._pending.pop(0)
        if status == "err":
            raise RuntimeError(f"shard {self.index}: {payload}")
        return payload

    def request(self, cmd: tuple[Any, ...]) -> Any:
        self.send(cmd)
        return self.recv()

    def kill(self) -> None:
        self.alive = False

    def join(self) -> None:
        return None


class _ProcessShard:
    """A shard in its own worker process (fork start method: rings,
    locks and manager kwargs are inherited, nothing is pickled at
    spawn)."""

    def __init__(
        self,
        index: int,
        ring: SharedCsiRing,
        manager_kwargs: dict[str, Any],
    ) -> None:
        self.index = index
        self.ring = ring
        self.alive = True
        ctx = get_context("fork")
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_worker_main,
            args=(child_conn, ring, manager_kwargs),
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    def send(self, cmd: tuple[Any, ...]) -> None:
        self._conn.send(cmd)

    def recv(self) -> Any:
        try:
            status, payload = self._conn.recv()
        except EOFError as exc:
            self.alive = False
            raise RuntimeError(
                f"shard {self.index} worker died mid-request"
            ) from exc
        if status == "err":
            raise RuntimeError(f"shard {self.index}: {payload}")
        return payload

    def request(self, cmd: tuple[Any, ...]) -> Any:
        self.send(cmd)
        return self.recv()

    def kill(self) -> None:
        """Hard-stop the worker (the failover test's fault injector)."""
        self.alive = False
        self._process.terminate()
        self._process.join(timeout=5.0)
        self._conn.close()

    def join(self) -> None:
        self._process.join(timeout=5.0)
        self._conn.close()


class ServingFabric:
    """N sharded :class:`SessionManager` workers behind one manager-
    shaped facade.

    Args:
        config: tracker parameters shared by every session (same
            default as the manager).
        workers: shard count.
        processes: run each shard in a forked worker process; ``False``
            keeps every shard inline in this process — identical code
            path minus the transport, which is what the 50-session
            bit-identity suite uses (and what a debugger wants).
        ring_slots: per-shard shared-memory ring capacity (defaults to
            ``queue_depth``, matching the single-process backpressure
            envelope).
        csi_shape: fixed per-packet CSI shape for the rings.
        drain_records_per_tick: per-shard ring-drain quota per tick
            (``None`` = drain everything; quota enables work stealing).
        steal_high_water: ring occupancy at which a shard becomes a
            quota thief.
        steal_low_water: ring occupancy at or below which a shard
            donates its unused quota.
        Remaining arguments mirror :class:`SessionManager` and are
        forwarded to every worker verbatim.
    """

    def __init__(
        self,
        config: ViHOTConfig = ViHOTConfig(),
        *,
        workers: int = 4,
        processes: bool = True,
        queue_depth: int = 4096,
        budget_s: float = 0.050,
        stride_s: float = 0.05,
        idle_timeout_s: float = 30.0,
        evict_after_s: float | None = 60.0,
        buffer_s: float = 10.0,
        max_history: int = 256,
        health_policy: HealthPolicy | None = None,
        batching: bool = False,
        ring_slots: int | None = None,
        csi_shape: tuple[int, ...] = (2, 30),
        drain_records_per_tick: int | None = None,
        steal_high_water: float = 0.75,
        steal_low_water: float = 0.25,
        replicas: int = 64,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not 0.0 <= steal_low_water < steal_high_water <= 1.0:
            raise ValueError(
                "need 0 <= steal_low_water < steal_high_water <= 1, got "
                f"{steal_low_water} / {steal_high_water}"
            )
        self._router = ShardRouter(workers, replicas=replicas)
        self._processes = processes
        self._drain_quota = drain_records_per_tick
        self._high_water = steal_high_water
        self._low_water = steal_low_water
        self._closed = False
        self._placement: dict[str, int] = {}
        self._cards: dict[str, SessionCard] = {}
        self._profiles = ProfileCache()

        manager_kwargs: dict[str, Any] = dict(
            config=config,
            queue_depth=queue_depth,
            budget_s=budget_s,
            stride_s=stride_s,
            idle_timeout_s=idle_timeout_s,
            evict_after_s=evict_after_s,
            buffer_s=buffer_s,
            max_history=max_history,
            health_policy=health_policy,
            batching=batching,
        )
        slots = ring_slots if ring_slots is not None else queue_depth
        self._shards: dict[int, _InlineShard | _ProcessShard] = {}
        try:
            for index in range(workers):
                ring = SharedCsiRing(slots, csi_shape)
                try:
                    if processes:
                        self._shards[index] = _ProcessShard(
                            index, ring, dict(manager_kwargs)
                        )
                    else:
                        self._shards[index] = _InlineShard(
                            index, ring, ShardWorker(ring, dict(manager_kwargs))
                        )
                except BaseException:
                    # The ring has no owning shard yet: release it here
                    # or the segment outlives the failed constructor.
                    ring.close(unlink=True)
                    raise
        except BaseException:
            for shard in self._shards.values():
                shard.kill()
                shard.ring.close(unlink=True)
            raise

        m = MetricsRegistry()
        self._metrics = m
        self._g_shards = m.gauge("fabric_shards", "live serving shards")
        self._g_shards.set(workers)
        self._c_dropped = m.counter(
            "packets_dropped", "packets shed by ring backpressure"
        )
        self._c_cache_hits = m.counter("profile_cache_hits")
        self._c_cache_misses = m.counter("profile_cache_misses")
        self._c_steals = m.counter(
            "work_steals_total", "ticks on which a hot shard was granted quota"
        )
        self._c_stolen = m.counter(
            "records_stolen_total", "ring records drained on donated quota"
        )
        self._c_failovers = m.counter(
            "shard_failovers_total", "worker deaths absorbed by re-hashing"
        )
        self._c_rehashed = m.counter(
            "sessions_rehashed_total", "sessions re-homed after a shard death"
        )
        self._h_latency = m.histogram(
            "estimate_latency_ms", "per-estimate wall time (fleet)"
        )
        self._h_lateness = m.histogram(
            "estimate_lateness_ms", "stream-time distance past the due time"
        )
        self._h_batch = m.histogram(
            "batch_size", "sessions per stacked engine call (fleet)"
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        """The parent-side registry (fleet histograms + fabric counters)."""
        return self._metrics

    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def workers(self) -> tuple[int, ...]:
        """Live shard indices."""
        return self._router.shards

    def __len__(self) -> int:
        return len(self._placement)

    def shard_of(self, session_id: str) -> int:
        return self._router.route(session_id)

    def _live_shards(self) -> list[_InlineShard | _ProcessShard]:
        return [self._shards[i] for i in self._router.shards]

    def _broadcast(self, cmd: tuple[Any, ...]) -> list[Any]:
        """Send to every live shard, then collect — workers overlap."""
        shards = self._live_shards()
        for shard in shards:
            shard.send(cmd)
        return [shard.recv() for shard in shards]

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
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
    ) -> int:
        """Admit one session on its hash-routed shard; returns the shard.

        Profile resolution happens parent-side (one
        :class:`ProfileCache` for the whole fleet — a fingerprint is
        built at most once no matter how many shards need it) and the
        resolved profile object ships to the worker, whose own cache
        then holds it for any same-fingerprint sibling on that shard.
        """
        if session_id in self._placement:
            raise ValueError(f"session {session_id!r} already open")
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
        shard_index = self._router.route(session_id)
        self._shards[shard_index].request(
            ("open", session_id, profile, fingerprint, camera, config, workload)
        )
        self._placement[session_id] = shard_index
        self._cards[session_id] = SessionCard(
            profile=profile,
            fingerprint=fingerprint,
            camera=camera,
            config=config,
            workload=workload,
        )
        return shard_index

    def close_session(self, session_id: str) -> Estimate | None:
        shard_index = self._placement.pop(session_id, None)
        if shard_index is None:
            raise KeyError(f"unknown session {session_id!r}")
        self._cards.pop(session_id, None)
        self._shards[shard_index].ring.forget_session(session_id)
        latest = self._shards[shard_index].request(("close", session_id))
        return latest  # type: ignore[no-any-return]

    # ------------------------------------------------------------------
    # Ingest (hot path: one shared-memory store, no pickling)
    # ------------------------------------------------------------------
    def ingest(self, session_id: str, time: float, csi: np.ndarray) -> bool:
        """Write one packet into the owning shard's ring; ``False`` iff
        ring backpressure shed an old packet.

        An open session's shard is its placement, which is what
        :meth:`ShardRouter.route` named at open or at its re-homing by
        :meth:`kill_worker`; only an id with no placement is routed.
        """
        shard_index = self._placement.get(session_id)
        if shard_index is None:
            shard_index = self._router.route(session_id)
        accepted = self._shards[shard_index].ring.push(session_id, time, csi)
        if not accepted:
            self._c_dropped.inc()
        return accepted

    def ingest_imu(self, session_id: str, time: float, yaw_rate: float) -> None:
        shard_index = self._placement.get(session_id)
        if shard_index is None:
            raise KeyError(f"unknown session {session_id!r}")
        self._shards[shard_index].request(("imu", session_id, time, yaw_rate))

    # ------------------------------------------------------------------
    # The tick: steal -> broadcast -> merge
    # ------------------------------------------------------------------
    def _steal_quotas(self) -> Mapping[int, int | None]:
        """Per-shard ring-drain quota for this tick.

        With no quota configured every shard drains everything (and
        stealing is moot).  With a quota, under-loaded shards (at or
        below the low-water mark) donate the part of their quota their
        backlog cannot use, and shards over the high-water mark split
        the donated pool in shard order — all computed from ring
        occupancy, so the schedule is a pure function of queue state.
        """
        base = self._drain_quota
        assert base is not None
        backlogs = {i: len(self._shards[i].ring) for i in self._router.shards}
        fills = {
            i: self._shards[i].ring.fill_fraction for i in self._router.shards
        }
        pool = sum(
            base - backlogs[i]
            for i in self._router.shards
            if fills[i] <= self._low_water and backlogs[i] < base
        )
        quotas = {i: base for i in self._router.shards}
        hot = [
            i
            for i in self._router.shards
            if fills[i] >= self._high_water and backlogs[i] > base
        ]
        stolen_this_tick = 0
        for i in hot:
            if pool <= 0:
                break
            grant = min(pool, backlogs[i] - base)
            quotas[i] += grant
            pool -= grant
            stolen_this_tick += grant
        if stolen_this_tick:
            self._c_steals.inc()
            self._c_stolen.inc(stolen_this_tick)
        return quotas

    def tick(self, max_records: int | None = None) -> ManagerTickReport:
        """One fleet tick: every worker drains its ring and ticks its
        manager concurrently; reports merge in shard order.

        ``max_records`` overrides the configured per-tick drain quota
        for this call (the manager-facade contract)."""
        quota = max_records if max_records is not None else self._drain_quota
        quotas: dict[int, int | None]
        if quota is None:
            quotas = {i: None for i in self._router.shards}
        else:
            saved, self._drain_quota = self._drain_quota, quota
            try:
                quotas = dict(self._steal_quotas())
            finally:
                self._drain_quota = saved
        shards = self._live_shards()
        for shard in shards:
            shard.send(("tick", quotas[shard.index]))
        reports: list[ManagerTickReport] = [s.recv() for s in shards]
        merged = _merge_tick_reports(reports)
        for served in merged.scheduler.served:
            if served.error is not None or served.estimate is None:
                continue
            self._h_latency.observe(served.elapsed_s * 1e3)
            self._h_lateness.observe(served.lateness_s * 1e3)
        for size in merged.scheduler.batch_sizes:
            self._h_batch.observe(float(size))
        for sid in merged.evicted:
            self._placement.pop(sid, None)
            self._cards.pop(sid, None)
        return merged

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def kill_worker(self, shard_index: int) -> tuple[str, ...]:
        """Kill one worker and re-home its sessions onto the survivors.

        The dead shard's sessions re-hash deterministically (consistent
        hashing moves only them) and reopen with their remembered
        profile/config/camera — fresh trackers, so everything since
        their last served estimate is the documented drop window.  The
        dead ring's undrained backlog is counted as dropped.  Returns
        the re-homed session ids.
        """
        if shard_index not in self._router:
            raise ValueError(f"shard {shard_index} is not live")
        if len(self._router) == 1:
            raise ValueError("cannot kill the last shard")
        shard = self._shards[shard_index]
        backlog = len(shard.ring)
        shard.kill()
        shard.ring.close(unlink=True)
        self._router.remove_shard(shard_index)
        self._c_failovers.inc()
        self._c_dropped.inc(backlog)
        orphans = tuple(
            sid for sid, where in self._placement.items() if where == shard_index
        )
        for sid in orphans:
            card = self._cards[sid]
            new_shard = self._router.route(sid)
            self._shards[new_shard].request(
                (
                    "open",
                    sid,
                    card.profile,
                    card.fingerprint,
                    card.camera,
                    card.config,
                    card.workload,
                )
            )
            self._placement[sid] = new_shard
        self._c_rehashed.inc(len(orphans))
        self._g_shards.set(len(self._router))
        return orphans

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def estimates(
        self, session_id: str | None = None
    ) -> dict[str, Estimate | None] | tuple[Estimate, ...]:
        if session_id is not None:
            shard_index = self._placement.get(session_id)
            if shard_index is None:
                raise KeyError(f"unknown session {session_id!r}")
            result = self._shards[shard_index].request(
                ("estimates", session_id)
            )
            return tuple(result)
        merged: dict[str, Estimate | None] = {}
        for snapshot in self._broadcast(("estimates", None)):
            merged.update(snapshot)
        return merged

    def health_states(self) -> dict[str, str]:
        merged: dict[str, str] = {}
        for states in self._broadcast(("health",)):
            merged.update(states)
        return merged

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def shard_snapshots(self) -> dict[int, dict[str, Any]]:
        """Each live shard's own registry snapshot, keyed by index."""
        shards = self._router.shards
        return dict(zip(shards, self._broadcast(("snapshot",))))

    def metrics_snapshot(self) -> dict[str, object]:
        """One fleet scrape: worker counters/gauges summed, fleet
        histograms from the parent registry, stage stats merged."""
        return merge_snapshots(
            list(self.shard_snapshots().values()), self._metrics.as_dict()
        )

    def render_metrics(self) -> str:
        return render_snapshot(self.metrics_snapshot())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker and release the shared-memory rings."""
        if self._closed:
            return
        self._closed = True
        for index in self._router.shards:
            shard = self._shards[index]
            if shard.alive:
                try:
                    shard.request(("stop",))
                except RuntimeError:
                    pass
            shard.join()
            shard.ring.close(unlink=True)

    def __enter__(self) -> ServingFabric:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort: rings must not leak
        try:
            self.close()
        except Exception:
            pass


def _no_builder() -> CsiProfile:
    raise SessionStateError(
        "profile cache miss and no build_profile callback was provided"
    )


def _merge_tick_reports(
    reports: Sequence[ManagerTickReport],
) -> ManagerTickReport:
    """Fold per-shard tick reports into one fleet report, shard order."""
    scheduler = TickReport(
        served=tuple(
            served for report in reports for served in report.scheduler.served
        ),
        deferred=tuple(
            sid for report in reports for sid in report.scheduler.deferred
        ),
        budget_s=max((r.scheduler.budget_s for r in reports), default=0.0),
        elapsed_s=max((r.scheduler.elapsed_s for r in reports), default=0.0),
        deadline_misses=sum(r.scheduler.deadline_misses for r in reports),
        batched_groups=sum(r.scheduler.batched_groups for r in reports),
        batched_sessions=sum(r.scheduler.batched_sessions for r in reports),
        fallback_sessions=sum(r.scheduler.fallback_sessions for r in reports),
        batch_sizes=tuple(
            size for report in reports for size in report.scheduler.batch_sizes
        ),
    )
    return ManagerTickReport(
        ingested=sum(r.ingested for r in reports),
        orphaned=sum(r.orphaned for r in reports),
        scheduler=scheduler,
        idled=tuple(sid for r in reports for sid in r.idled),
        evicted=tuple(sid for r in reports for sid in r.evicted),
        rejected=sum(r.rejected for r in reports),
        poll_failures=tuple(sid for r in reports for sid in r.poll_failures),
        quarantined=tuple(sid for r in reports for sid in r.quarantined),
        released=tuple(sid for r in reports for sid in r.released),
        recovered=tuple(sid for r in reports for sid in r.recovered),
    )


def merge_snapshots(
    worker_snapshots: Sequence[dict[str, Any]],
    parent_snapshot: dict[str, Any] | None = None,
) -> dict[str, object]:
    """Merge registry snapshots into one fleet snapshot.

    Counters and gauges sum across workers (and the parent's fabric-
    level metrics, when given).  Histograms come from the parent
    snapshot only: a histogram's percentiles cannot be merged from
    per-shard summaries, so the fabric observes fleet histograms
    parent-side from the merged tick reports instead.  Stage stats
    merge by stage name — counts sum, percentile columns take the
    worst shard (an upper bound, which is what an operator gating on
    them wants).
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    stages: dict[str, dict[str, Any]] = {}
    snapshots = list(worker_snapshots)
    if parent_snapshot is not None:
        snapshots.append(parent_snapshot)
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in snapshot.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0.0) + float(value)
        for stage in snapshot.get("stages", ()):
            name = str(stage["stage"])
            into = stages.setdefault(
                name,
                {
                    "stage": name,
                    "evaluated": 0,
                    "fired": 0,
                    "terminal": 0,
                    "p50_ms": 0.0,
                    "p90_ms": 0.0,
                },
            )
            into["evaluated"] += int(stage["evaluated"])
            into["fired"] += int(stage["fired"])
            into["terminal"] += int(stage["terminal"])
            into["p50_ms"] = max(into["p50_ms"], float(stage["p50_ms"]))
            into["p90_ms"] = max(into["p90_ms"], float(stage["p90_ms"]))
    histograms: dict[str, Any] = (
        dict(parent_snapshot.get("histograms", {}))
        if parent_snapshot is not None
        else {}
    )
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": histograms,
        "stages": [stages[name] for name in sorted(stages)],
    }
