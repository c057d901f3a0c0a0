"""The serve benchmark: one workload, one seed, every metric by name.

Run from the repository root::

    python3 servebench/run.py --workload turning-fleet --seed 1 --seconds 20 --trace 0

A run synthesizes its inputs from ``--seed`` before any clock starts,
warms the server up on a short prefix, then repeats whole episodes
(fresh server, every session opened, the full stream driven) until the
driven time reaches ``--seconds`` (at least three episodes).  It checks
every verified session's served estimates against a standalone replay,
that every repeat did exactly the same work, and that nothing was shed
or deferred; any failure exits 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced episodes, prints the per-layer metrics and
writes the traced spans as Chrome trace-event JSON under
``.servebench/``.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".servebench"

#: Repeats per run at least: the work-drift check compares them, and the
#: pooled figures then span more than one slow spell of the machine.
MIN_EPISODES = 3
#: Setup-only trials after each episode.  They spread over the whole
#: run, so a slow spell of the machine reaches few of them.
SETUPS_PER_EPISODE = 8
#: Stream seconds of the untimed warm-up prefix.
WARMUP_S = 2.5

PER_LAYER_UNITS = {
    "dtw.busy_s": "s",
    "dtw.calls": "count",
    "dtw.cells": "count",
    "dtw.ns_per_cell": "ns",
    "matching.self_s": "s",
    "matching.ms_per_query": "ms",
    "engine.self_s": "s",
    "engine.ms_per_estimate": "ms",
    "position.busy_s": "s",
    "stages.match_fraction": "fraction",
    "stages.stationary_fraction": "fraction",
    "stages.hold_fraction": "fraction",
    "online.push_csi_us": "us",
    "online.busy_s": "s",
    "ingest.push_us": "us",
    "ingest.drain_us": "us",
    "ingest.wait_ms": "ms",
    "ingest.shed": "count",
    "manager.tick_self_s": "s",
    "manager.open_us": "us",
    "scheduler.self_s": "s",
    "scheduler.deferrals": "count",
    "batch.plan_us": "us",
    "batch.mean_size": "sessions",
    "batch.stacked_fraction": "fraction",
    "fabric.tick_ms": "ms",
    "fabric.transport_ms_per_tick": "ms",
    "fabric.imu_rtt_us": "us",
    "metrics.scrape_ms": "ms",
    "metrics.scrapes": "count",
    "profiling.busy_s": "s",
    "loadgen.synth_s": "s",
    "loadgen.late_p99_ms": "ms",
    "loadgen.self_frac": "fraction",
    "latency.samples": "count",
    "trace.overhead_frac": "fraction",
    "trace.ledger_coverage": "fraction",
}

#: Span groups that must record calls in a traced run, per workload.
_COMMON = (
    ("dsp.dtw.batched_dtw_distance", "dsp.dtw.stacked_dtw_distance"),
    ("core.matching.SeriesMatcher.match", "core.matching.SeriesMatcher.match_many"),
    ("core.engine.EstimationEngine.estimate_at", "core.engine.EstimationEngine.estimate_batch"),
    ("core.position.PositionEstimator.update",),
    ("core.online.OnlineTracker.push_csi",),
    ("serve.ingest.IngestQueue.push",),
    ("serve.ingest.IngestQueue.drain",),
    ("serve.manager.SessionManager.tick",),
    ("serve.manager.SessionManager.open_session", "serve.fabric.ServingFabric.open_session"),
    ("serve.scheduler.RoundRobinScheduler.tick", "serve.batch.BatchedScheduler.tick"),
    ("serve.metrics.Histogram.observe",),
    ("core.profiling.ProfileBuilder.add_position",),
)
REQUIRED_SPANS = {
    "turning-fleet": _COMMON + (("serve.batch.BatchPlanner.plan",),),
    "glance-fleet": _COMMON,
    "mixed-fabric": _COMMON
    + (
        ("serve.batch.BatchPlanner.plan",),
        ("serve.fabric.ServingFabric.tick",),
        ("serve.fabric.ServingFabric.ingest_imu",),
        ("serve.fabric.ShardWorker.handle",),
        ("serve.shm.SharedCsiRing.push",),
        ("serve.shm.SharedCsiRing.drain",),
        ("serve.shard.ShardRouter.route",),
        ("serve.fabric.ServingFabric.metrics_snapshot",),
        ("serve.metrics.MetricsRegistry.as_dict",),
    ),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    from time import perf_counter

    import episode as ep
    import summary
    from fleet import make_fleet
    from ledger import EPISODE, SETUP, Tracer, write_chrome_trace
    from repro.analysis import process_contracts
    from repro.serve.fabric import ServingFabric

    workload = ep.WORKLOADS[workload_name]
    problems: list[str] = []
    if workload.workers > (os.cpu_count() or 1):
        log(f"warning: {workload.workers} workers on {os.cpu_count()} CPUs; expect noisy timings")

    synth_start = perf_counter()
    inputs = make_fleet(workload.fleet, seed)
    sched = ep.make_schedule(inputs)
    opens = [ep.open_args(cabin) for cabin in inputs.cabins]
    synth_s = perf_counter() - synth_start
    warm = sched.prefix(WARMUP_S)
    # The inputs live for the whole run; keep the collector from
    # rescanning them during timed work.
    gc.collect()
    gc.freeze()
    if workload.workers:
        process_contracts.activate()

    def close(server: object) -> None:
        if isinstance(server, ServingFabric):
            server.close()
            try:
                process_contracts.assert_balanced()
            except process_contracts.ContractViolation as exc:
                problems.append(str(exc))
            process_contracts.clear_records()

    def one_episode(schedule: ep.Schedule, tracer: Tracer | None = None) -> ep.Episode:
        def phase(name: str) -> contextlib.AbstractContextManager[None]:
            return tracer.span(name) if tracer is not None else contextlib.nullcontext()

        gc.collect()
        with phase(SETUP):
            server, setup_s = ep.setup(workload, inputs, opens)
        try:
            ep.reset_peak_memory()
            with phase(EPISODE):
                drive = ep.drive(server, schedule, workload)
            memory = ep.serving_memory(inputs)
        finally:
            close(server)
        return ep.summarize(drive, schedule, inputs, workload, setup_s, memory)

    def setup_only() -> float:
        gc.collect()
        server, setup_s = ep.setup(workload, inputs, opens)
        close(server)
        return setup_s

    log(f"{workload_name}: seed {seed}, {sched.packets} packets/episode, synth {synth_s:.2f}s")
    one_episode(warm)
    episodes: list[ep.Episode] = []
    setups: list[float] = []
    traced: list[ep.Episode] = []
    tables = []
    tracer = Tracer(OUT / f"spool-{os.getpid()}") if trace else None
    while len(episodes) < MIN_EPISODES or sum(e.wall_s for e in episodes) < seconds:
        episodes.append(one_episode(sched))
        last = episodes[-1]
        log(
            f"  episode {len(episodes)}: {last.wall_s:.2f}s, latency"
            f" p50 {summary.percentile(last.latency_ms, 50):.1f}"
            f" p99 {summary.percentile(last.latency_ms, 99):.1f} ms"
        )
        setups += [episodes[-1].setup_s] + [setup_only() for _ in range(SETUPS_PER_EPISODE)]
        if tracer is not None:
            # Traced repeats alternate with untraced ones, so slow spells
            # of the machine fall on both sides of the overhead ratio.
            tracer.install()
            try:
                traced.append(one_episode(sched, tracer))
                tables.append(tracer.harvest())
            finally:
                tracer.uninstall()
            log(f"  traced episode {len(traced)}: {traced[-1].wall_s:.2f}s")
    if trace:
        write_chrome_trace(tables[0], OUT / f"trace-{workload_name}-seed{seed}.json")

    # Correctness: replay the verified sessions standalone at the polled
    # instants, and every repeat against it.
    profile = ep.build_profile(inputs.captures)
    cabins = {cabin.session_id: cabin for cabin in inputs.cabins}
    reference = {}
    for sid, log_ in episodes[0].logs.items():
        polled = [t for t, _ in log_]
        reference[sid] = list(zip(polled, ep.replay(cabins[sid], profile, polled)))
    runs = episodes + traced
    mismatched = sum(ep.mismatches(e.logs, reference) for e in runs)
    for e in runs:
        problems += list(e.errors[:3])
    drifted = [e.signature for e in runs if e.signature != episodes[0].signature]
    if drifted:
        problems.append(f"work drifted between repeats: {drifted[0]} != {episodes[0].signature}")
    shed = sum(e.shed for e in runs)
    deferrals = sum(e.deferrals for e in runs)
    if mismatched:
        problems.append(f"{mismatched} verified polls differ from the standalone replay")
    if shed:
        problems.append(f"{shed} packets shed")
    if deferrals:
        problems.append(f"{deferrals} scheduler deferrals")

    attempted = sum(e.polls for e in runs)
    failed = sum(e.failed_polls for e in runs) + mismatched
    if drifted:
        metrics = {}
    elif trace:
        layers, calls, shares = summary.traced_spans(tables)
        top = sorted(shares.items(), key=lambda item: -item[1])
        log("ledger (self time along the blocking path): " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in top if share >= 0.001
        ))
        for group in REQUIRED_SPANS[workload_name]:
            if not sum(calls.get(name, 0) for name in group):
                problems.append(f"no calls traced into {' / '.join(group)}")
        dtw_work = {summary.dtw_work(table) for table in tables}
        if len(dtw_work) > 1:
            problems.append(f"DTW calls and cells drifted between traced repeats: {dtw_work}")
        layers.update(summary.from_episodes(episodes))
        layers["loadgen.synth_s"] = synth_s
        # Busy rather than wall time: an open loop's wall is its schedule.
        layers["trace.overhead_frac"] = statistics.median(
            t.busy_s / u.busy_s for t, u in zip(traced, episodes)
        ) - 1.0
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = summary.end_to_end(episodes, setups, mismatched)

    for problem in problems:
        log(f"FAIL: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: the program's sources are missing ({SRC / 'repro'})")
        return 2
    sys.path.insert(0, str(SRC))
    import episode

    if args.workload not in episode.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(episode.WORKLOADS)}")
    main_pid = os.getpid()

    def on_sigterm(signum: int, frame: object) -> None:
        # Forked workers inherit this handler; only the benchmark process
        # unwinds through its cleanup.
        if os.getpid() != main_pid:
            os._exit(128 + signum)
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_processes()


def stop_processes() -> None:
    """Stop every process the run started and wait until each has ended.

    Forked fabric workers still alive are terminated.  Creating a
    shared-memory segment starts multiprocessing's resource tracker,
    which by design outlives the process that started it; closing its
    pipe stops it, and ``_stop`` waits for it to exit.
    """
    from multiprocessing import active_children, resource_tracker

    for child in active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    # One BLAS thread: the serve path does no BLAS work, and idle pool
    # threads in a process that forks workers only add noise.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    sys.exit(main())
