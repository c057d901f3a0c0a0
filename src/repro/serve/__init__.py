"""The multi-session tracking service layer.

Everything below :mod:`repro.core` tracks *one* driver; this package is
the layer a fleet backend (every vehicle its own WiFi cell) or a
multi-headset bridge actually deploys: a
:class:`~repro.serve.manager.SessionManager` multiplexing many
:class:`~repro.core.online.OnlineTracker` sessions behind one batched
ingestion queue, one budgeted round-robin estimate scheduler, and one
metrics registry.

    manager = SessionManager()
    manager.open_session("car-17", fingerprint=fp, build_profile=build)
    for packet in nic:
        manager.ingest("car-17", packet.time, packet.csi)
    manager.tick()                        # drain -> schedule -> evict
    print(manager.estimates()["car-17"])  # latest Estimate
    print(manager.render_metrics())       # one-line fleet health

The serving layer adds routing, scheduling and observability — never
tracking behaviour: a session's estimates are bit-identical to a
standalone ``OnlineTracker`` fed the same packets.
"""

from repro.serve.batch import BatchedScheduler, BatchGroup, BatchPlanner
from repro.serve.export import render_prometheus
from repro.serve.fabric import ServingFabric, merge_snapshots
from repro.serve.ingest import IngestBatch, IngestQueue, IngestRecord
from repro.serve.loadgen import (
    ALL_WORKLOAD_KINDS,
    WORKLOAD_KINDS,
    SyntheticCabin,
    SyntheticCamera,
    kind_uses_imu,
    kind_workload,
)
from repro.serve.manager import (
    ManagerTickReport,
    ProfileCache,
    SessionManager,
    scenario_fingerprint,
)
from repro.serve.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_snapshot,
)
from repro.serve.openloop import SloSpec, SloViolation
from repro.serve.scheduler import RoundRobinScheduler, ServedEstimate, TickReport
from repro.serve.shard import ShardRouter
from repro.serve.shm import SharedCsiRing
from repro.serve.session import (
    CREATED,
    DEGRADED,
    EVICTED,
    HEALTH_STATES,
    HEALTHY,
    IDLE,
    LIFECYCLE,
    LIVE,
    PROFILED,
    QUARANTINED,
    HealthPolicy,
    SessionHealth,
    SessionStateError,
    TrackedSession,
)

__all__ = [
    "SessionManager",
    "ManagerTickReport",
    "ProfileCache",
    "scenario_fingerprint",
    "TrackedSession",
    "SessionStateError",
    "LIFECYCLE",
    "CREATED",
    "PROFILED",
    "LIVE",
    "IDLE",
    "EVICTED",
    "IngestQueue",
    "IngestBatch",
    "IngestRecord",
    "RoundRobinScheduler",
    "BatchedScheduler",
    "BatchPlanner",
    "BatchGroup",
    "TickReport",
    "ServedEstimate",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "render_snapshot",
    "render_prometheus",
    "ServingFabric",
    "merge_snapshots",
    "ShardRouter",
    "SharedCsiRing",
    "SloSpec",
    "SloViolation",
    "SyntheticCabin",
    "SyntheticCamera",
    "WORKLOAD_KINDS",
    "ALL_WORKLOAD_KINDS",
    "kind_workload",
    "kind_uses_imu",
    "HealthPolicy",
    "SessionHealth",
    "HEALTH_STATES",
    "HEALTHY",
    "DEGRADED",
    "QUARANTINED",
]
