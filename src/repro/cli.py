"""Command-line interface: ``vihot <subcommand>``.

The workflows a user actually runs, end to end:

* ``vihot simulate-capture`` — synthesize a capture session (the stand-in
  for logging an Intel 5300 in a car) and save it as ``.npz``.
* ``vihot profile`` — run the Sec. 3.3 profiling pass for a scenario and
  save the driver's CSI profile.
* ``vihot track`` — track a saved capture against a saved profile; write
  the estimates as CSV and print a summary.
* ``vihot figure`` — regenerate one of the paper's figures and print its
  rows (the same output as the corresponding benchmark).
* ``vihot report`` — regenerate every figure at a chosen scale and write
  a combined text report.
* ``vihot serve-bench`` — drive a fleet of simulated cabins through the
  ``repro.serve`` session manager and report serving throughput,
  scheduler behaviour and the bit-identical-to-standalone check.

Everything is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.config import ViHOTConfig
from repro.core.profile import CsiProfile
from repro.core.tracker import ViHOTTracker
from repro.experiments import figures
from repro.experiments.presets import PRESETS, preset_scenario
from repro.experiments.report import format_summary_table
from repro.net.link import CsiStream

#: Figure registry for ``vihot figure`` / ``vihot report``: name ->
#: (callable, takes campaign kwargs?).
FIGURES = {
    "fig02": (figures.fig02_head_plane, False),
    "fig03": (figures.fig03_phase_curves, False),
    "fig08": (figures.fig08_steering_phase, False),
    "fig10": (figures.fig10_prediction, True),
    "fig11": (figures.fig11_layout_curves, False),
    "fig12": (figures.fig12_antenna_layouts, True),
    "fig13a": (figures.fig13a_profile_interval, True),
    "fig13b": (figures.fig13b_window_size, True),
    "fig13c": (figures.fig13c_turn_speed, True),
    "fig13d": (figures.fig13d_drivers, True),
    "fig14": (figures.fig14_speed_curves, False),
    "fig15": (figures.fig15_micromotions, False),
    "fig16": (figures.fig16_vibration_phase, False),
    "fig17a": (figures.fig17a_vibration, True),
    "fig17b": (figures.fig17b_steering_identifier, True),
    "fig17c": (figures.fig17c_passenger, True),
    "fig17d": (figures.fig17d_interference, True),
    "sampling-rate": (figures.sampling_rate, False),
    "ablation-matching": (figures.ablation_matching, True),
    "ablation-position": (figures.ablation_position, True),
    "ablation-length": (figures.ablation_length_search, True),
    "ablation-sanitize": (figures.ablation_sanitization, False),
}

# Sec. 7 extension experiments join the registry lazily to keep import
# costs down for the common subcommands.
def _register_extensions() -> None:
    from repro.experiments import extensions

    FIGURES.setdefault("ext-5ghz", (extensions.extension_5ghz, True))
    FIGURES.setdefault("ext-fusion", (extensions.extension_fusion, True))


_register_extensions()


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="scenario seed")
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="campus",
        help="driving-condition preset",
    )
    parser.add_argument("--driver", choices=("A", "B", "C"), default="A")
    parser.add_argument(
        "--duration", type=float, default=20.0, help="run-time session seconds"
    )


def _scenario_from_args(args):
    return preset_scenario(
        args.preset,
        seed=args.seed,
        driver=args.driver,
        runtime_duration_s=args.duration,
    )


def cmd_simulate_capture(args) -> int:
    scenario = _scenario_from_args(args)
    stream, _scene = scenario.runtime_capture(args.session)
    stream.save(args.output)
    rate = (len(stream) - 1) / (stream.times[-1] - stream.times[0])
    print(f"wrote {args.output}: {len(stream)} packets at {rate:.0f} Hz "
          f"({'with' if stream.imu is not None else 'no'} IMU side-channel)")
    return 0


def cmd_profile(args) -> int:
    from repro.core.quality import assess_profile

    scenario = _scenario_from_args(args)
    start = time.perf_counter()
    profile = scenario.build_profile()
    profile.save(args.output)
    print(f"profiled {len(profile)} head positions in {time.perf_counter() - start:.1f}s "
          f"-> {args.output}")
    print(f"phi0 fingerprints: {np.round(profile.phi0_fingerprints(), 3)}")
    quality = assess_profile(profile)
    print(f"profile quality: {quality}")
    return 0 if quality.verdict != "poor" else 2


def cmd_track(args) -> int:
    profile = CsiProfile.load(args.profile)
    stream = CsiStream.load(args.capture)
    config = ViHOTConfig(
        window_s=args.window / 1000.0, horizon_s=args.horizon / 1000.0
    )
    tracker = ViHOTTracker(profile, config)
    start = time.perf_counter()
    result = tracker.process(stream, estimate_stride_s=args.stride / 1000.0)
    elapsed = time.perf_counter() - start
    if len(result) == 0:
        print("no estimates produced (capture too short?)", file=sys.stderr)
        return 1

    if args.output:
        with open(args.output, "w") as fh:
            fh.write("time_s,target_time_s,orientation_deg,mode\n")
            for e in result.estimates:
                fh.write(
                    f"{e.time:.4f},{e.target_time:.4f},"
                    f"{np.rad2deg(e.orientation):.2f},{e.mode}\n"
                )
        print(f"wrote {len(result)} estimates to {args.output}")

    modes = {m: result.modes.count(m) for m in sorted(set(result.modes))}
    rate = len(result) / (result.times[-1] - result.times[0])
    print(f"{len(result)} estimates at {rate:.0f} Hz "
          f"({len(result) / elapsed:.0f} estimates/s wall), modes: {modes}")
    spread = np.rad2deg(result.orientations)
    print(f"orientation span: [{spread.min():+.1f}, {spread.max():+.1f}] deg")

    from repro.core.diagnostics import diagnose, should_reprofile

    health = diagnose(result, stream)
    print(f"health: {health}")
    if should_reprofile(health):
        print("recommendation: re-profile this driver (Sec. 3.3 update)")
    return 0


def cmd_figure(args) -> int:
    fn, campaign = FIGURES[args.name]
    kwargs = {"seed": args.seed}
    if campaign:
        kwargs.update(
            num_sessions=args.sessions, runtime_duration_s=args.duration
        )
    start = time.perf_counter()
    result = fn(**kwargs)
    print(f"[{args.name} in {time.perf_counter() - start:.0f}s]")
    _print_figure(args.name, result)
    return 0


def _print_figure(name: str, result) -> None:
    if isinstance(result, dict) and result and all(
        isinstance(v, dict) and "summary" in v for v in result.values()
    ):
        rows = {str(k): v["summary"] for k, v in result.items()}
        print(format_summary_table(rows, title=name))
    elif isinstance(result, dict) and all(
        np.isscalar(v) for v in result.values()
    ):
        for k, v in result.items():
            print(f"  {k:28s} {v:.4g}")
    else:
        print(f"  {name}: series data with keys {list(result)[:6]} "
              "(use the python API for the raw arrays)")


def cmd_report(args) -> int:
    lines = []
    for name in args.only or FIGURES:
        fn, campaign = FIGURES[name]
        kwargs = {"seed": args.seed}
        if campaign:
            kwargs.update(
                num_sessions=args.sessions, runtime_duration_s=args.duration
            )
        start = time.perf_counter()
        result = fn(**kwargs)
        stamp = f"[{name}: {time.perf_counter() - start:.0f}s]"
        print(stamp)
        lines.append(stamp)
        import io
        from contextlib import redirect_stdout

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            _print_figure(name, result)
        print(buffer.getvalue(), end="")
        lines.append(buffer.getvalue())
    if args.output:
        Path(args.output).write_text("\n".join(lines))
        print(f"\nwrote report to {args.output}")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis import (
        concurrency_rules,
        dataflow_rules,
        default_rules,
        run_analysis,
        shape_rules,
    )

    if args.explain is not None:
        return _explain_rule(args.explain)
    rules = (
        default_rules()
        + (dataflow_rules() if args.dataflow else [])
        + (shape_rules() if args.shapes else [])
        + (concurrency_rules() if args.concurrency else [])
    )
    if args.list_rules:
        for rule in rules:
            print(f"{rule.id} {rule.name} [{rule.severity}]")
            print(f"    {rule.description}")
            print(f"    why: {rule.rationale}")
        return 0
    start = time.perf_counter()
    findings = run_analysis(
        paths=args.paths or None,
        use_default_allowlist=not args.no_default_allowlist,
        dataflow=args.dataflow,
        shapes=args.shapes,
        concurrency=args.concurrency,
        cache_dir=args.cache_dir,
    )
    elapsed = time.perf_counter() - start
    if args.format == "json":
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.format())
    if findings:
        print(
            f"vihot lint: {len(findings)} finding(s) — see docs/static-analysis.md "
            "for rationale and suppression",
            file=sys.stderr,
        )
        return 1
    if args.budget_file is not None and not _lint_budget_ok(
        Path(args.budget_file), elapsed
    ):
        return 1
    if args.format != "json":
        print("vihot lint: clean")
    return 0


def _explain_rule(rule_id: str) -> int:
    """Print one rule's full documentation (``vihot lint --explain VH502``)."""
    from repro.analysis import (
        concurrency_rules,
        dataflow_rules,
        default_rules,
        shape_rules,
    )

    wanted = rule_id.strip().upper()
    for rule in (
        default_rules() + dataflow_rules() + shape_rules() + concurrency_rules()
    ):
        if rule.id != wanted:
            continue
        print(f"{rule.id} {rule.name} [{rule.severity}]")
        print(f"    {rule.description}")
        print()
        print(f"    {rule.rationale}")
        if rule.example:
            print()
            print("    example:")
            for line in rule.example.splitlines():
                print(f"        {line}")
        return 0
    print(
        f"vihot lint: unknown rule {rule_id!r}; see --list-rules "
        "(add --dataflow/--shapes/--concurrency for the opt-in sets)",
        file=sys.stderr,
    )
    return 2


def _lint_budget_ok(budget_path: Path, elapsed_s: float) -> bool:
    """Enforce (or record) the lint-runtime budget.

    The budget file pins a recorded baseline; the run fails when it took
    more than ``max_ratio`` times that long, so a perf regression in the
    analyzer itself cannot creep into CI unnoticed.  A missing file is
    recorded rather than failed, which is how the baseline is (re)set.
    """
    if not budget_path.exists():
        budget_path.parent.mkdir(parents=True, exist_ok=True)
        budget_path.write_text(
            json.dumps({"baseline_s": round(elapsed_s, 3), "max_ratio": 2.0}, indent=2)
            + "\n"
        )
        print(f"vihot lint: recorded runtime baseline {elapsed_s:.2f}s to {budget_path}")
        return True
    budget = json.loads(budget_path.read_text())
    baseline = float(budget["baseline_s"])
    max_ratio = float(budget.get("max_ratio", 2.0))
    if elapsed_s > max_ratio * baseline:
        print(
            f"FAIL: lint took {elapsed_s:.2f}s, over {max_ratio:g}x the recorded "
            f"{baseline:.2f}s baseline ({budget_path}); investigate the "
            "regression or re-record the baseline by deleting the file",
            file=sys.stderr,
        )
        return False
    return True


def _finish_fleet_result(result, json_path, prom_path=None) -> int:
    """Report a FleetResult, write its JSON/Prometheus exports, and
    return the exit code of the shared pass/fail rule."""
    print(result.summary())
    print(result.metrics_line)
    if json_path:
        Path(json_path).write_text(json.dumps(result.as_dict(), indent=2))
        print(f"wrote {json_path}")
    _write_prometheus(prom_path, result.snapshot)
    if result.drops > 0:
        print(f"WARN: {result.drops} packets shed by backpressure", file=sys.stderr)
    failures = result.failures()
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _write_prometheus(path: str | None, snapshot) -> None:
    if not path:
        return
    from repro.serve.export import render_prometheus

    Path(path).write_text(render_prometheus(snapshot))
    print(f"wrote {path}")


def cmd_serve_bench(args) -> int:
    from repro.faults import FaultPlan, chaos_plan
    from repro.scenarios import ScenarioSpec, resolve_scenario, run_scenario
    from repro.serve.loadgen import WORKLOAD_KINDS
    from repro.serve.openloop import SloSpec

    if args.scenario:
        spec = resolve_scenario(args.scenario)
        print(f"scenario {spec.name} [{spec.tier}] id={spec.scenario_id}")
    else:
        spec = ScenarioSpec(
            name="serve-bench",
            tier="T2" if args.chaos else "T0",
            description="the ad-hoc fleet of `vihot serve-bench`",
            seed=args.seed,
            num_sessions=args.sessions,
            duration_s=args.duration,
            rate_hz=args.rate,
            tick_interval_s=args.tick / 1000.0,
            stride_s=args.stride / 1000.0,
            budget_s=args.budget / 1000.0,
            queue_depth=args.queue_depth,
            workload_mix=WORKLOAD_KINDS if args.workload_mix else ("plain",),
            fault_plan=chaos_plan(args.seed, args.duration / 3.0, 0.6 * args.duration)
            if args.chaos
            else FaultPlan(),
            batching=args.batched,
        )
    result = run_scenario(
        spec,
        workers=args.workers,
        speedup=args.speedup if args.open_loop else None,
        slo=SloSpec.parse(args.slo) if args.open_loop and args.slo else None,
        verify_sessions=None if args.scenario else args.verify,
    )
    return _finish_fleet_result(result, args.json, args.prom_out)


def cmd_scenarios(args) -> int:
    from repro.scenarios import (
        list_scenarios,
        resolve_scenario,
        run_scenario,
        validate_scenario,
    )

    if args.action == "list":
        specs = list_scenarios(tier=args.tier)
        for spec in specs:
            faults = len(spec.fault_plan.injectors)
            flags = []
            if faults:
                flags.append(f"{faults} injectors")
            if spec.churn_fraction > 0:
                flags.append(f"churn {spec.churn_fraction:g}")
            if spec.batching:
                flags.append("batched")
            extra = f" ({', '.join(flags)})" if flags else ""
            print(
                f"{spec.tier}  {spec.name:26s} {spec.scenario_id}  "
                f"{spec.num_sessions} sessions x {spec.duration_s:g}s  "
                f"mix={','.join(spec.workload_mix)}{extra}"
            )
            if args.verbose:
                print(f"    {spec.description}")
        if not specs:
            print("no scenarios registered")
        return 0

    if args.action == "validate":
        failures = 0
        for spec in list_scenarios(tier=args.tier):
            problems = validate_scenario(spec)
            if problems:
                failures += 1
                print(f"FAIL {spec.name} [{spec.tier}]", file=sys.stderr)
                for problem in problems:
                    print(f"  - {problem}", file=sys.stderr)
            else:
                print(f"ok   {spec.name} [{spec.tier}] id={spec.scenario_id}")
        return 1 if failures else 0

    # args.action == "run"
    spec = resolve_scenario(args.name)
    print(f"scenario {spec.name} [{spec.tier}] id={spec.scenario_id}")
    return _finish_fleet_result(run_scenario(spec, workers=args.workers), args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vihot",
        description="ViHOT: wireless CSI-based head tracking (CoNEXT'18 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-capture", help="synthesize a CSI capture session")
    _add_scenario_args(p)
    p.add_argument("--session", type=int, default=0, help="session index")
    p.add_argument("-o", "--output", default="capture.npz")
    p.set_defaults(func=cmd_simulate_capture)

    p = sub.add_parser("profile", help="run the profiling pass, save the profile")
    _add_scenario_args(p)
    p.add_argument("-o", "--output", default="profile.npz")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("track", help="track a saved capture against a profile")
    p.add_argument("profile", help="profile .npz from `vihot profile`")
    p.add_argument("capture", help="capture .npz from `vihot simulate-capture`")
    p.add_argument("-o", "--output", default=None, help="estimates CSV path")
    p.add_argument("--window", type=float, default=100.0, help="CSI window [ms]")
    p.add_argument("--horizon", type=float, default=0.0, help="forecast horizon [ms]")
    p.add_argument("--stride", type=float, default=50.0, help="estimate stride [ms]")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("figure", help="regenerate one paper figure")
    p.add_argument("name", choices=sorted(FIGURES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sessions", type=int, default=2)
    p.add_argument("--duration", type=float, default=12.0)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser(
        "serve-bench",
        help="drive M simulated cabins through the serving layer",
    )
    p.add_argument("--sessions", type=int, default=50, help="concurrent cabins")
    p.add_argument("--duration", type=float, default=4.0, help="stream seconds per cabin")
    p.add_argument("--rate", type=float, default=200.0, help="per-cabin packet rate [Hz]")
    p.add_argument("--tick", type=float, default=50.0, help="manager tick interval [ms]")
    p.add_argument("--stride", type=float, default=250.0, help="estimate period [ms]")
    p.add_argument("--budget", type=float, default=1000.0, help="scheduler budget per tick [ms]")
    p.add_argument("--queue-depth", type=int, default=4096, help="ingest ring capacity")
    p.add_argument("--verify", type=int, default=2,
                   help="cabins replayed standalone for the bit-identical check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, help="write the result dict as JSON")
    p.add_argument(
        "--chaos",
        action="store_true",
        help="inject the default fault storm (every injector over the "
        "middle of the run) into the ad-hoc fleet; fails unless nothing "
        "escapes and the fleet recovers",
    )
    p.add_argument(
        "--batched",
        action="store_true",
        help="serve with the fleet-batched scheduler (stacked stage "
        "execution; bit-identical to the sequential path)",
    )
    p.add_argument(
        "--workload-mix",
        action="store_true",
        help="cycle cabins through the plain/forecast/camera/imu "
        "workload kinds instead of a homogeneous fleet",
    )
    p.add_argument(
        "--scenario",
        default=None,
        metavar="NAME_OR_TIER",
        help="run a registered scenario (e.g. t3-rush-hour-chaos) or a "
        "tier's flagship (e.g. T2) instead of the ad-hoc knobs above; "
        "its faults come from the spec",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="serve through a sharded multi-process fabric of N workers "
        "(0 = one in-process manager; estimates are bit-identical "
        "either way)",
    )
    p.add_argument(
        "--open-loop",
        action="store_true",
        help="wall-clock arrival schedule instead of the closed loop "
        "(composes with --scenario, --chaos and --workers): arrivals "
        "never wait for the service, so latency percentiles reflect "
        "real queueing delay",
    )
    p.add_argument(
        "--speedup",
        type=float,
        default=10.0,
        help="open-loop stream-time compression (10 = a 4 s stream "
        "replays in 0.4 s wall)",
    )
    p.add_argument(
        "--slo",
        default=None,
        metavar="SPEC",
        help='open-loop latency objectives, e.g. "p99=50,p99.9=200" '
        "[ms]; exits nonzero when missed",
    )
    p.add_argument(
        "--prom-out",
        default=None,
        metavar="PATH",
        help="write the run's metrics as a Prometheus text exposition",
    )
    p.set_defaults(func=cmd_serve_bench)

    p = sub.add_parser(
        "scenarios",
        help="list, validate or run the declared scenario packs",
    )
    scen_sub = p.add_subparsers(dest="action", required=True)

    sp = scen_sub.add_parser("list", help="print the registered catalogue")
    sp.add_argument("--tier", default=None, help="only this tier (T0..T3)")
    sp.add_argument("-v", "--verbose", action="store_true",
                    help="include scenario descriptions")
    sp.set_defaults(func=cmd_scenarios)

    sp = scen_sub.add_parser(
        "validate", help="check every registered scenario against its tier contract"
    )
    sp.add_argument("--tier", default=None, help="only this tier (T0..T3)")
    sp.set_defaults(func=cmd_scenarios)

    sp = scen_sub.add_parser("run", help="run one scenario end to end")
    sp.add_argument("name", help="scenario name or tier (tier runs its flagship)")
    sp.add_argument("--chaos", action="store_true",
                    help="no-op kept for existing scripts: every run counts "
                    "unhandled exceptions and requires the fleet to heal")
    sp.add_argument("--json", default=None, help="write the result dict as JSON")
    sp.add_argument("--workers", type=int, default=0,
                    help="serve through a sharded fabric of N worker "
                    "processes")
    sp.set_defaults(func=cmd_scenarios)

    p = sub.add_parser(
        "lint",
        help="run the determinism/contract static-analysis suite",
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories (default: the installed repro package)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--list-rules", action="store_true", help="print the rule catalogue")
    p.add_argument(
        "--no-default-allowlist",
        action="store_true",
        help="ignore the reviewed allowlist (audit mode)",
    )
    p.add_argument(
        "--dataflow",
        action="store_true",
        help="also run the inter-procedural VH3xx/VH4xx rules "
        "(phase-domain tracking, numpy aliasing)",
    )
    p.add_argument(
        "--shapes",
        action="store_true",
        help="also run the array shape/dtype VH5xx rules "
        "(symbolic axes, batch-axis mixups, silent downcasts)",
    )
    p.add_argument(
        "--concurrency",
        action="store_true",
        help="also run the process-safety VH6xx rules (fork-inherited "
        "state, shared-memory lifecycle, pickle boundaries, RNG leakage, "
        "fork-only APIs)",
    )
    p.add_argument(
        "--explain",
        default=None,
        metavar="VHxxx",
        help="print one rule's description, rationale and example, then exit",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the call-graph summary cache (keyed on a "
        "source hash; safe to persist between runs)",
    )
    p.add_argument(
        "--budget-file",
        default=None,
        help="JSON runtime budget: fail if the lint run exceeds "
        "max_ratio x the recorded baseline; records the baseline when "
        "the file does not exist",
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("report", help="regenerate all figures into a text report")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sessions", type=int, default=1)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--only", nargs="*", choices=sorted(FIGURES), default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
