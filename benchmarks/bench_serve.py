"""Serving-layer throughput: sessions x packets/s through the manager.

Drives a fleet of synthetic cabins through ``repro.serve`` (batched
ingestion -> budgeted round-robin scheduling -> metrics) and reports the
aggregate packet throughput and estimate latency percentiles.  The run
also verifies the layer's core contract end-to-end: estimates served
through the manager are bit-identical to a standalone ``OnlineTracker``
fed the same packets, and the default queue depth sheds nothing at the
acceptance fleet size (50 concurrent sessions).

Run as a script for the JSON perf artefact CI accumulates::

    PYTHONPATH=src python benchmarks/bench_serve.py --smoke --json BENCH_serve.json

or under pytest (the smoke-scale assertions)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_serve.py
"""

import argparse
import json
import sys
from pathlib import Path

#: Bumped when the JSON layout changes; the regression gate checks it.
SCHEMA = "vihot-bench-serve/1"

#: Smoke scale: CI-fast but still at the 50-session acceptance floor.
SMOKE = dict(num_sessions=50, duration_s=3.0, rate_hz=100.0, verify_sessions=2)
#: Full scale: what the README quotes.
FULL = dict(num_sessions=100, duration_s=8.0, rate_hz=200.0, verify_sessions=3)
#: Chaos scale: the 50-session acceptance fleet under every injector.
CHAOS = dict(num_sessions=50, duration_s=3.0, rate_hz=100.0)


def run(scale: dict, seed: int = 0, batching: bool = False, chaos: bool = False):
    """Serve one plain synthetic fleet at ``scale`` through the fleet
    driver; ``chaos`` adds the default fault storm (every injector over
    ``[duration/3, 0.6 * duration)`` of stream time)."""
    from repro.faults import FaultPlan, chaos_plan
    from repro.scenarios import ScenarioSpec, run_scenario

    fleet = dict(scale)
    verify = fleet.pop("verify_sessions", None)
    duration = fleet["duration_s"]
    spec = ScenarioSpec(
        name="bench-serve",
        tier="T2" if chaos else "T0",
        description="the bench_serve.py fleet",
        seed=seed,
        batching=batching,
        fault_plan=chaos_plan(seed, duration / 3.0, 0.6 * duration)
        if chaos else FaultPlan(),
        **fleet,
    )
    return run_scenario(spec, verify_sessions=verify)


def run_comparison(scale: dict, seed: int = 0) -> dict:
    """The batched-vs-sequential artefact: same fleet, both schedulers.

    Returns the combined JSON payload — each run's full measurement,
    plus the headline wall-clock speedup and the batched run's batch
    efficiency (stacked sessions / serving records).
    """
    sequential = run(scale, seed=seed, batching=False)
    batched = run(scale, seed=seed, batching=True)
    served = batched.batched_sessions + batched.fallback_sessions
    return {
        "schema": SCHEMA,
        "sequential": sequential.as_dict(),
        "batched": batched.as_dict(),
        "wall_speedup": sequential.wall_s / batched.wall_s
        if batched.wall_s > 0 else float("inf"),
        "batch_efficiency": batched.batched_sessions / served if served else 0.0,
    }


def test_serve_smoke(capsys):
    """50 concurrent sessions: zero drops, bit-identical to standalone."""
    result = run(SMOKE)
    with capsys.disabled():
        print()
        print("serve-bench (smoke scale)")
        print(f"  {result.summary()}")
    assert result.sessions >= 50
    assert result.drops == 0
    assert result.bit_identical
    assert result.estimates > 0
    # The metrics line must carry the acceptance signals.
    for needle in ("sessions_live=", "packets_ingested=", "packets_dropped=",
                   "estimate_latency_ms{p50="):
        assert needle in result.metrics_line


def test_serve_batched_smoke(capsys):
    """The batched scheduler at smoke scale: same guarantees, fewer
    engine dispatches."""
    result = run(SMOKE, batching=True)
    with capsys.disabled():
        print()
        print("serve-bench (smoke scale, batched)")
        print(f"  {result.summary()}")
    assert result.drops == 0
    assert result.bit_identical
    assert result.batched_sessions > 0


def test_serve_chaos_smoke(capsys):
    """50 sessions under every injector: contained, degraded, recovered."""
    result = run(CHAOS, chaos=True)
    with capsys.disabled():
        print()
        print("serve-bench (chaos scale)")
        print(f"  {result.summary()}")
    assert result.unhandled == 0
    assert result.rejected > 0  # NaN storms and corrupt stamps were refused
    assert result.quarantines > 0  # the faults actually bit
    assert result.all_healthy  # ...and the fleet healed itself
    assert result.estimates > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-fast scale")
    parser.add_argument("--chaos", action="store_true",
                        help="fault-injection chaos scenario (fails unless the "
                        "fleet recovers with zero unhandled exceptions)")
    parser.add_argument("--batched", action="store_true",
                        help="serve with the fleet-batched scheduler; with "
                        "--json the artefact always carries both runs")
    parser.add_argument("--sessions", type=int, default=None)
    parser.add_argument("--duration", type=float, default=None)
    parser.add_argument("--rate", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, help="write the result as JSON")
    parser.add_argument("--trajectory", default=None,
                        help="also append the artefact to this bench "
                        "trajectory file (requires --json)")
    args = parser.parse_args(argv)
    if args.trajectory and not args.json:
        parser.error("--trajectory requires --json")
    if args.trajectory and args.chaos:
        parser.error("--trajectory tracks the comparison artefact, not chaos")

    if args.chaos:
        scale = dict(CHAOS)
        if args.sessions is not None:
            scale["num_sessions"] = args.sessions
        if args.duration is not None:
            scale["duration_s"] = args.duration
        if args.rate is not None:
            scale["rate_hz"] = args.rate
        chaos = run(scale, seed=args.seed, batching=args.batched, chaos=True)
        print(chaos.summary())
        print(chaos.metrics_line)
        if args.json:
            payload = {"scale": "chaos", **chaos.as_dict()}
            Path(args.json).write_text(json.dumps(payload, indent=2))
            print(f"wrote {args.json}")
        failures = chaos.failures()
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0

    scale = dict(SMOKE if args.smoke else FULL)
    if args.sessions is not None:
        scale["num_sessions"] = args.sessions
    if args.duration is not None:
        scale["duration_s"] = args.duration
    if args.rate is not None:
        scale["rate_hz"] = args.rate

    if args.json:
        # The artefact is the comparison: same fleet, both schedulers,
        # wall-clock speedup and batch efficiency on top.
        payload = {"scale": "smoke" if args.smoke else "full",
                   **run_comparison(scale, seed=args.seed)}
        for label in ("sequential", "batched"):
            part = payload[label]
            print(f"{label}: {part['session_packets_per_s']:,.0f} "
                  f"session-packets/s, p50 {part['latency_p50_ms']:.2f} ms, "
                  f"p99 {part['latency_p99_ms']:.2f} ms")
        print(f"wall speedup (batched vs sequential): "
              f"{payload['wall_speedup']:.2f}x, "
              f"batch efficiency {payload['batch_efficiency']:.2f}")
        Path(args.json).write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.json}")
        if args.trajectory:
            from bench_trajectory import append_record

            record = append_record(args.trajectory, payload)
            print(f"appended run @ {record['commit'][:12]} to {args.trajectory}")
        failures = payload["sequential"]["failures"] + payload["batched"]["failures"]
        drops = payload["sequential"]["drops"] + payload["batched"]["drops"]
    else:
        result = run(scale, seed=args.seed, batching=args.batched)
        print(result.summary())
        print(result.metrics_line)
        failures = result.failures()
        drops = result.drops
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    if drops > 0:
        print(f"FAIL: {drops} packets shed at default queue depth",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
