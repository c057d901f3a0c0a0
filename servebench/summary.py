"""Turn episodes and harvested spans into the benchmark's named metrics."""

from __future__ import annotations

import statistics
from collections.abc import Sequence

import numpy as np

from episode import Episode
from ledger import EPISODE, SETUP, SpanTable, on_blocking_path, self_times

MB = float(1 << 20)


def percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """The ``q``-th percentile with linear interpolation between ranks,
    as ``numpy.percentile`` computes it by default."""
    data = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if len(data) == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    rank = q / 100.0 * (len(data) - 1)
    lo = int(np.floor(rank))
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (rank - lo) * (data[hi] - data[lo]))


def end_to_end(episodes: Sequence[Episode], setups: Sequence[float], mismatched: int) -> dict:
    """The user-visible metrics of a run (tracing off).

    Throughput is every repeat's work over their summed wall time, and
    the latency percentiles rank every repeat's full sample pooled, so a
    stall the program causes counts wherever it lands.
    """
    wall = sum(e.wall_s for e in episodes)
    latency = np.concatenate([e.latency_ms for e in episodes])
    polls = sum(e.polls for e in episodes)
    failed = sum(e.failed_polls for e in episodes) + mismatched
    return {
        "setup_s": (statistics.median(setups), "s"),
        "packets_per_s": (sum(e.accepted for e in episodes) / wall, "packets/s"),
        "estimates_per_s": (len(latency) / wall, "estimates/s"),
        "latency_p50_ms": (percentile(latency, 50), "ms"),
        "latency_p99_ms": (percentile(latency, 99), "ms"),
        "peak_rss_mb": (max(e.memory_bytes for e in episodes) / MB, "MB"),
        "success_rate": ((polls - failed) / polls, "fraction"),
    }


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def outermost(table: SpanTable) -> np.ndarray:
    """Each span's outermost benchmark-process span (``-1``: unlinked)."""
    top = table.root.copy()
    workers = np.flatnonzero(table.proc > 0)
    linked = table.parent[table.root[workers]]
    top[workers] = np.where(linked >= 0, table.root[np.clip(linked, 0, None)], -1)
    return top


DTW = ("dsp.dtw.batched_dtw_distance", "dsp.dtw.stacked_dtw_distance")


def dtw_work(table: SpanTable) -> tuple[int, float]:
    """DTW calls and cells in one traced episode: they must repeat exactly."""
    calls = table.mask(*DTW)
    return int(calls.sum()), float(table.work[calls].sum())


def layer_of(name: str) -> str:
    """``serve.fabric.ServingFabric.tick`` -> ``serve.fabric``."""
    return ".".join(name.split(".")[:2]) if not name.startswith("bench.") else "bench"


def traced_spans(
    tables: Sequence[SpanTable],
) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Per-layer metrics from the traced episodes' span tables, the
    number of calls recorded per span name (setup included), and each
    layer's share of the traced wall time along the blocking path.

    Totals are per episode (mean over the traced episodes); ``*_us`` /
    ``*_ms`` figures are per call.
    """
    acc: dict[str, list[np.ndarray]] = {}
    shares: dict[str, float] = {}

    def add(key: str, values: np.ndarray) -> None:
        acc.setdefault(key, []).append(values)

    coverage = 0.0
    loop_self = 0.0
    root_wall = 0.0
    for table in tables:
        own, cross_max = self_times(table)
        duration = table.duration
        top = outermost(table)
        in_episode = (top >= 0) & (table.name[np.clip(top, 0, None)] == table.code(EPISODE))
        in_setup = (top >= 0) & (table.name[np.clip(top, 0, None)] == table.code(SETUP))
        has_parent = table.parent >= 0
        parent_name = np.where(has_parent, table.name[np.clip(table.parent, 0, None)], -1)
        top_call = parent_name == table.code(EPISODE)
        setup_call = parent_name == table.code(SETUP)
        episode_roots = table.mask(EPISODE)
        ledger = in_episode & on_blocking_path(table)
        root_wall += float(duration[episode_roots].sum())
        coverage += float(own[ledger].sum())
        loop_self += float(own[episode_roots].sum())
        for name in table.names:
            m = table.mask(name)
            layer = layer_of(name)
            shares[layer] = shares.get(layer, 0.0) + float(own[m & ledger].sum())
            add(f"{name}|dur", duration[m & in_episode])
            add(f"{name}|self", own[m & in_episode])
            add(f"{name}|work", table.work[m & in_episode])
            add(f"{name}|top", duration[m & top_call])
            add(f"{name}|setup", duration[m & (in_setup | setup_call)])
            add(f"{name}|cross", (duration - cross_max)[m & in_episode])

    episodes = len(tables)

    def cat(key: str) -> np.ndarray:
        parts = acc.get(key, [])
        return np.concatenate(parts) if parts else np.zeros(0)

    def per_episode(names: Sequence[str], field: str) -> float:
        return sum(float(cat(f"{n}|{field}").sum()) for n in names) / episodes

    def calls(names: Sequence[str], field: str = "dur") -> float:
        return sum(len(cat(f"{n}|{field}")) for n in names) / episodes

    def per_call(names: Sequence[str], field: str = "dur") -> float:
        return _mean(np.concatenate([cat(f"{n}|{field}") for n in names]))

    matching = ("core.matching.SeriesMatcher.match", "core.matching.SeriesMatcher.match_many")
    engine = (
        "core.engine.EstimationEngine.estimate_at",
        "core.engine.EstimationEngine.estimate_batch",
    )
    online = ("core.online.OnlineTracker.push_csi", "core.online.OnlineTracker.push_imu")
    schedulers = ("serve.scheduler.RoundRobinScheduler.tick", "serve.batch.BatchedScheduler.tick")
    top_ingest = ("serve.manager.SessionManager.ingest", "serve.fabric.ServingFabric.ingest")
    opens = ("serve.manager.SessionManager.open_session", "serve.fabric.ServingFabric.open_session")
    scrapes = (
        "serve.manager.SessionManager.metrics_snapshot",
        "serve.fabric.ServingFabric.metrics_snapshot",
    )
    profiling = (
        "core.profiling.ProfileBuilder.add_position",
        "core.profiling.ProfileBuilder.build",
    )
    cells = per_episode(DTW, "work")
    dtw_busy = per_episode(DTW, "dur")
    metrics = {
        "dtw.busy_s": dtw_busy,
        "dtw.calls": calls(DTW),
        "dtw.cells": cells,
        "dtw.ns_per_cell": _ratio(dtw_busy, cells) * 1e9,
        "matching.self_s": per_episode(matching, "self"),
        "matching.ms_per_query": _ratio(
            per_episode(matching, "dur"), per_episode(matching, "work")
        ) * 1e3,
        "engine.self_s": per_episode(engine, "self"),
        "engine.ms_per_estimate": _ratio(
            per_episode(engine, "dur"), per_episode(engine, "work")
        ) * 1e3,
        "position.busy_s": per_episode(("core.position.PositionEstimator.update",), "dur"),
        "online.push_csi_us": per_call(("core.online.OnlineTracker.push_csi",)) * 1e6,
        "online.busy_s": per_episode(online, "dur"),
        "ingest.push_us": per_call(top_ingest, "top") * 1e6,
        "ingest.drain_us": per_call(("serve.ingest.IngestQueue.drain",)) * 1e6,
        "manager.tick_self_s": per_episode(("serve.manager.SessionManager.tick",), "self"),
        "manager.open_us": per_call(opens, "setup") * 1e6,
        "scheduler.self_s": per_episode(schedulers, "self"),
        "batch.plan_us": per_call(("serve.batch.BatchPlanner.plan",)) * 1e6,
        "fabric.tick_ms": per_call(("serve.fabric.ServingFabric.tick",)) * 1e3,
        "fabric.transport_ms_per_tick": per_call(
            ("serve.fabric.ServingFabric.tick",), "cross"
        ) * 1e3,
        "fabric.imu_rtt_us": per_call(("serve.fabric.ServingFabric.ingest_imu",), "top") * 1e6,
        "metrics.scrape_ms": per_call(scrapes, "top") * 1e3,
        "metrics.scrapes": calls(scrapes, "top"),
        "profiling.busy_s": sum(float(cat(f"{n}|setup").sum()) for n in profiling) / episodes,
        "trace.ledger_coverage": _ratio(coverage, root_wall),
        "loadgen.self_frac": _ratio(loop_self, root_wall),
    }
    calls_by_name = {
        name: len(cat(f"{name}|dur")) + len(cat(f"{name}|setup")) for name in tables[0].names
    }
    shares = {layer: _ratio(t, root_wall) for layer, t in shares.items()}
    return metrics, calls_by_name, shares


def from_episodes(episodes: Sequence[Episode]) -> dict[str, float]:
    """Per-layer figures the benchmark loop records itself (no tracing needed)."""
    n = len(episodes)
    signature = episodes[0].signature
    estimates = signature["estimates"]
    stacked = signature["batched_sessions"] + signature["fallback_sessions"]
    late = np.concatenate([e.late_ms for e in episodes])
    return {
        "stages.match_fraction": _ratio(signature["match"], estimates),
        "stages.stationary_fraction": _ratio(signature["stationary"], estimates),
        "stages.hold_fraction": _ratio(signature["hold"], estimates),
        "ingest.wait_ms": _mean(np.concatenate([e.wait_ms for e in episodes])),
        "ingest.shed": sum(e.shed for e in episodes) / n,
        "scheduler.deferrals": sum(e.deferrals for e in episodes) / n,
        "batch.mean_size": _ratio(signature["batched_sessions"], signature["batch_groups"]),
        "batch.stacked_fraction": _ratio(signature["batched_sessions"], stacked),
        "loadgen.late_p99_ms": percentile(late, 99) if len(late) else 0.0,
        "latency.samples": signature["latency_samples"],
    }
