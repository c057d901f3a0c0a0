"""The benchmark's own checks: inputs, statistics, ledger arithmetic, tracing.

Run with ``python -m pytest servebench``.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace
from multiprocessing import active_children, get_context, resource_tracker

import numpy as np
import pytest

import episode as ep
import run
from fleet import FleetSpec, make_fleet
from ledger import EPISODE, SETUP, BOUNDARIES, SpanTable, Tracer, on_blocking_path, self_times
from summary import percentile, traced_spans

SMALL = FleetSpec(3, 200.0, ("plain", "imu", "localize"), "turning")


def _arrays(inputs):
    for cabin in inputs.cabins:
        yield from (cabin.times, cabin.csi, cabin.yaw, cabin.imu_times, cabin.imu_rates)
    for stream in inputs.captures.streams:
        yield stream.csi


def test_generator_is_deterministic_per_seed():
    first, again = make_fleet(SMALL, 7), make_fleet(SMALL, 7)
    for a, b in zip(_arrays(first), _arrays(again)):
        np.testing.assert_array_equal(a, b)


def test_generator_differs_across_seeds():
    first, other = make_fleet(SMALL, 7), make_fleet(SMALL, 8)
    assert not np.array_equal(first.cabins[0].csi, other.cabins[0].csi)
    assert not np.array_equal(first.captures.streams[0].csi, other.captures.streams[0].csi)


def test_clocks_are_staggered():
    inputs = make_fleet(SMALL, 7)
    starts = [cabin.times[0] for cabin in inputs.cabins]
    assert len(set(starts)) == len(starts)


def test_peak_memory_sees_a_freed_allocation():
    inputs = make_fleet(SMALL, 7)
    ep.reset_peak_memory()
    before = ep.serving_memory(inputs)
    block = np.ones((64 << 20) // 8)  # 64 MiB, written, then freed
    del block
    assert ep.serving_memory(inputs) >= before + (60 << 20)


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
@pytest.mark.parametrize("q", [0, 1, 25, 50, 90, 99, 99.9, 100])
def test_percentile_matches_numpy(n, q):
    values = np.random.default_rng(n).lognormal(size=n)
    assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_percentile_rejects_empty_samples():
    with pytest.raises(ValueError):
        percentile([], 50)


def _table(rows):
    """rows: (name, start, end, parent, proc); roots follow the parents."""
    names = ("a", "b", "c", "serve.fabric.ServingFabric.tick", EPISODE, SETUP)
    parent = np.array([r[3] for r in rows])
    root = np.arange(len(rows))
    for i in range(len(rows)):
        j = i
        while parent[j] >= 0 and rows[parent[j]][4] == rows[i][4]:
            j = parent[j]
        root[i] = j
    return SpanTable(
        names,
        np.array([names.index(r[0]) for r in rows]),
        np.array([r[1] for r in rows], dtype=float),
        np.array([r[2] for r in rows], dtype=float),
        parent,
        root,
        np.zeros(len(rows), dtype=int),
        np.zeros(len(rows)),
        np.array([r[4] for r in rows]),
    )


def test_self_times_on_a_synthetic_tree():
    table = _table(
        [
            (EPISODE, 0.0, 20.0, -1, 0),  # 0
            ("a", 1.0, 5.0, 0, 0),  # 1
            ("b", 2.0, 3.0, 1, 0),  # 2: inside a
            ("c", 6.0, 7.0, 0, 0),  # 3
            ("serve.fabric.ServingFabric.tick", 8.0, 18.0, 0, 0),  # 4
            ("a", 9.0, 12.0, 4, 1),  # 5: worker 1, 3 s
            ("b", 9.5, 10.5, 5, 1),  # 6
            ("a", 9.0, 14.0, 4, 2),  # 7: worker 2, 5 s (slowest)
            ("c", 10.0, 11.0, 7, 2),  # 8
            ("b", 15.0, 16.0, 4, 0),  # 9: the parent's own work after the workers
        ]
    )
    own, cross = self_times(table)
    np.testing.assert_allclose(own, [20 - 4 - 1 - 10, 3, 1, 1, 10 - 1 - 5, 2, 1, 4, 1, 1])
    np.testing.assert_allclose(cross[4], 5.0)
    path = on_blocking_path(table)
    np.testing.assert_array_equal(path, [1, 1, 1, 1, 1, 0, 0, 1, 1, 1])
    # Along the blocking path the ledger adds up to the episode's wall time.
    assert own[path].sum() == pytest.approx(20.0)


def _originals():
    """Every boundary's current binding, by span name."""
    found = {}
    for boundary in BOUNDARIES:
        module = sys.modules[boundary.module]
        if "." in boundary.qualname:
            cls_name, attr = boundary.qualname.split(".")
            found[boundary.name] = getattr(module, cls_name).__dict__[attr]
        else:
            found[boundary.name] = getattr(module, boundary.qualname)
    return found


def _wrappers_left(originals):
    """Boundaries no longer bound to their original, and module
    attributes anywhere that still hold a wrapper around one."""
    wrapped = {id(func) for func in originals.values()}
    left = [name for name, func in _originals().items() if func is not originals[name]]
    for module in list(sys.modules.values()):
        for attr, value in list(getattr(module, "__dict__", {}).items()):
            if id(getattr(value, "__wrapped__", None)) in wrapped:
                left.append(f"{module.__name__}.{attr}")
    return left


@pytest.mark.parametrize("workers", [0, 2])
def test_traced_run_records_spans_then_removes_every_wrapper(tmp_path, workers):
    workload = replace(
        ep.WORKLOADS["mixed-fabric"], fleet=SMALL, workers=workers, scrape_every=10
    )
    inputs = make_fleet(workload.fleet, 3)
    sched = ep.make_schedule(inputs).prefix(2.5)
    opens = [ep.open_args(cabin) for cabin in inputs.cabins]
    originals = _originals()
    tracer = Tracer(tmp_path / "spool")
    tracer.install()
    try:
        assert tracer.patched()
        with tracer.span(SETUP):
            server, _ = ep.setup(workload, inputs, opens)
        try:
            with tracer.span(EPISODE):
                ep.drive(server, sched, workload)
        finally:
            if workers:
                server.close()
        table = tracer.harvest()
    finally:
        tracer.uninstall()
    assert not _wrappers_left(originals)
    assert not (tmp_path / "spool").exists()
    layers, calls, shares = traced_spans([table])
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-6)
    assert calls["core.online.OnlineTracker.push_csi"] > 0
    assert calls["serve.manager.SessionManager.tick"] > 0
    assert calls["dsp.dtw.stacked_dtw_distance"] + calls["dsp.dtw.batched_dtw_distance"] > 0
    assert layers["trace.ledger_coverage"] == pytest.approx(1.0, abs=1e-6)
    if workers:
        assert set(table.proc.tolist()) == {0, 1, 2}
        linked = (table.proc > 0) & (table.parent >= 0)
        assert linked.any()
        assert layers["fabric.transport_ms_per_tick"] > 0
    else:
        assert set(table.proc.tolist()) == {0}


def test_untraced_workers_write_no_spool(tmp_path):
    tracer = Tracer(tmp_path / "spool")  # registered for forks, never installed
    workload = replace(ep.WORKLOADS["mixed-fabric"], fleet=SMALL)
    inputs = make_fleet(workload.fleet, 3)
    server, _ = ep.setup(workload, inputs, [ep.open_args(c) for c in inputs.cabins])
    server.close()
    assert not (tmp_path / "spool").exists()
    assert not tracer.patched()


def test_stop_processes_ends_every_child_and_the_resource_tracker():
    workload = replace(ep.WORKLOADS["mixed-fabric"], fleet=SMALL)
    inputs = make_fleet(workload.fleet, 3)
    server, _ = ep.setup(workload, inputs, [ep.open_args(c) for c in inputs.cabins])
    server.close()
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None  # the fabric's rings started it
    straggler = get_context("fork").Process(target=time.sleep, args=(60.0,))
    straggler.start()
    run.stop_processes()
    assert not straggler.is_alive()
    assert not active_children()
    with pytest.raises(ProcessLookupError):
        os.kill(tracker, 0)
