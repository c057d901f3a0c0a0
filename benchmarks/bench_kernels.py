"""Micro-benchmarks of the computational kernels (real timing runs).

These are the only benches measuring steady-state throughput rather than
regenerating a figure: the batched DTW matcher (the run-time hot path,
Alg. 1), its stacked cross-session form, the matcher's own serve and
figure shapes, CSI synthesis (Eq. 1) and the sanitiser (Sec. 3.2) in
both scalar and fleet-batched forms.

Two entry points:

* pytest (CI smoke, via pytest-benchmark)::

      PYTHONPATH=src python -m pytest -q benchmarks/bench_kernels.py

* script mode, emitting the schema'd JSON perf artefact the regression
  gate compares against ``.github/bench_baseline.json``::

      PYTHONPATH=src python benchmarks/bench_kernels.py --json BENCH_kernels.json
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core.config import ViHOTConfig
from repro.core.sanitize import sanitize_stream, sanitize_streams
from repro.dsp.dtw import batched_dtw_distance, stacked_dtw_distance
from repro.dsp.windows import sliding_windows
from repro.rf.multipath import synthesize_csi
from repro.scenarios.runner import SERVE_CONFIG

try:
    import pytest
except ImportError:  # script mode does not need pytest
    pytest = None

#: Bumped when the JSON layout changes; the regression gate checks it.
SCHEMA = "vihot-bench-kernels/1"

#: Stacked-form fleet width: how many sessions' queries ride one call.
STACK = 16

#: The stacked DP's two regimes, both reported on random contiguous
#: banks (so each call builds a cost table of ``B * L`` samples per
#: query): ``small`` is where stacking amortises numpy dispatch over the
#: ``m + L - 1`` diagonals (~1.8-1.9x); ``wide`` is the serving hot
#: path's observed shape (8 sessions x ~150 candidates x length 40),
#: where the per-diagonal work is large enough that stacking breaks
#: even (~0.9-1.0x) — the end-to-end serving win at that shape comes from
#: candidate-bank amortisation in ``SeriesMatcher.match_many`` and is
#: measured by ``bench_serve.py``.
STACKED_SMALL = (16, 40, 25)  # (stack, candidates, candidate length)
STACKED_WIDE = (8, 150, 40)

#: The matcher's own shapes as ``(name, config, profile samples,
#: sessions)``: one window against one position's profile at every
#: candidate length, through the sliding-window banks ``SeriesMatcher``
#: builds.  ``serve`` is the fleet config (m=20, lengths 10/25/40,
#: stride 8) on 1,400 profile samples, one session
#: (``batched_dtw_distance``) and eight stacked (``stacked_dtw_distance``);
#: ``figure`` is the default config (five lengths, stride 4) on 2,400
#: samples at W=20 and W=60 (the latter decimated x3 to 20 samples).
_DEFAULT = ViHOTConfig()
MATCH_SHAPES = (
    ("serve_match_s1", SERVE_CONFIG, 1400, 1),
    ("serve_match_s8", SERVE_CONFIG, 1400, 8),
    ("figure_match_w20", _DEFAULT, 2400, 1),
    ("figure_match_w60",
     dataclasses.replace(_DEFAULT, window_s=3 * _DEFAULT.window_s), 2400, 1),
)


def _dtw_inputs(rng=None):
    rng = rng or np.random.default_rng(0)
    query = rng.uniform(-np.pi, np.pi, 20)
    candidates = rng.uniform(-np.pi, np.pi, (400, 40))
    return query, candidates


def _stacked_inputs(shape=STACKED_SMALL):
    stack, n_candidates, length = shape
    rng = np.random.default_rng(0)
    queries = rng.uniform(-np.pi, np.pi, (stack, 21))
    candidates = rng.uniform(-np.pi, np.pi, (n_candidates, length))
    return queries, candidates


def _match_inputs(config, samples, stack):
    """Decimated queries and sliding-window banks, as the matcher builds
    them for one position of ``samples`` profile samples."""
    rng = np.random.default_rng(3)
    phases = rng.uniform(-np.pi, np.pi, samples)
    window = config.window_samples
    decimation = max(1, -(-window // config.max_query_samples))
    queries = rng.uniform(-np.pi, np.pi, (stack, window))[:, ::decimation]
    banks = [
        sliding_windows(phases, int(length), config.profile_stride)[:, ::decimation]
        for length in config.candidate_lengths()
    ]
    return queries, banks


def _match_one(query, banks):
    return [batched_dtw_distance(query, bank, None, "circular") for bank in banks]


def _match_stacked(queries, banks):
    return [stacked_dtw_distance(queries, bank, None, "circular") for bank in banks]


def _fleet_csi():
    """Window-sized per-session chunks: what a tick actually sanitises."""
    rng = np.random.default_rng(2)
    csi = rng.normal(size=(STACK, 256, 2, 30)) + 1j * rng.normal(
        size=(STACK, 256, 2, 30)
    )
    times = np.linspace(0, 256 / 200.0, 256)
    return times, csi


if pytest is not None:

    @pytest.fixture(scope="module")
    def dtw_inputs():
        return _dtw_inputs()

    def test_batched_dtw_throughput(benchmark, dtw_inputs):
        query, candidates = dtw_inputs
        result = benchmark(batched_dtw_distance, query, candidates, None, "circular")
        assert len(result) == 400

    def test_stacked_dtw_throughput(benchmark):
        """The cross-session form: one DP over a (16, 40) batch."""
        queries, candidates = _stacked_inputs(STACKED_SMALL)
        result = benchmark(
            stacked_dtw_distance, queries, candidates, None, "circular"
        )
        assert result.shape == (STACKED_SMALL[0], STACKED_SMALL[1])

    def test_serve_match_throughput(benchmark):
        """The matcher's serve shape, eight sessions stacked."""
        _, config, samples, stack = MATCH_SHAPES[1]
        queries, banks = _match_inputs(config, samples, stack)
        result = benchmark(_match_stacked, queries, banks)
        assert [r.shape for r in result] == [(stack, len(bank)) for bank in banks]

    def test_csi_synthesis_throughput(benchmark):
        rng = np.random.default_rng(1)
        lengths = rng.uniform(0.5, 3.0, (5000, 10))
        amps = rng.uniform(0.0, 0.01, (5000, 10))
        wavelengths = 0.123 + 0.0001 * np.arange(30)
        csi = benchmark(synthesize_csi, lengths, amps, wavelengths)
        assert csi.shape == (5000, 30)

    def test_sanitizer_throughput(benchmark):
        rng = np.random.default_rng(2)
        csi = rng.normal(size=(5000, 2, 30)) + 1j * rng.normal(size=(5000, 2, 30))
        times = np.linspace(0, 10, 5000)
        series = benchmark(sanitize_stream, times, csi)
        assert len(series) == 5000

    def test_fleet_sanitizer_throughput(benchmark):
        times, csi = _fleet_csi()
        series = benchmark(sanitize_streams, times, csi)
        assert len(series) == STACK


# ----------------------------------------------------------------------
# Script mode: the schema'd JSON artefact
# ----------------------------------------------------------------------
def _time(fn, reps: int) -> dict:
    """Run ``fn`` ``reps`` times (after one warmup) and summarise."""
    fn()  # warmup: first-touch allocations, branch caches
    samples = []
    for _ in range(reps):
        start = perf_counter()
        fn()
        samples.append(perf_counter() - start)
    ordered = sorted(samples)
    q25, q75 = np.percentile(ordered, [25, 75])
    return {
        "reps": reps,
        "best_s": ordered[0],
        "mean_s": sum(samples) / len(samples),
        "p50_s": ordered[len(ordered) // 2],
        "p99_s": ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))],
        "iqr_s": float(q75 - q25),
    }


def collect(reps: int = 30) -> dict:
    """Measure every kernel; returns the full JSON payload."""
    kernels: dict[str, dict] = {}

    query, candidates = _dtw_inputs()
    kernels["batched_dtw"] = {
        **_time(lambda: batched_dtw_distance(query, candidates, None, "circular"),
                reps),
        "candidates": int(candidates.shape[0]),
    }
    kernels["batched_dtw"]["candidates_per_s"] = (
        candidates.shape[0] / kernels["batched_dtw"]["mean_s"]
    )

    # The stacked cross-session form vs the per-session loop it must be
    # bit-identical to: the ratio is the batch efficiency the kernel
    # itself buys, in both cache regimes (see STACKED_SMALL/WIDE).
    for name, shape in (("stacked_dtw_small", STACKED_SMALL),
                        ("stacked_dtw_wide", STACKED_WIDE)):
        queries, candidates = _stacked_inputs(shape)
        stack = shape[0]
        stacked = _time(
            lambda: stacked_dtw_distance(queries, candidates, None, "circular"),
            reps,
        )
        loop = _time(
            lambda: [
                batched_dtw_distance(queries[s], candidates, None, "circular")
                for s in range(stack)
            ],
            reps,
        )
        kernels[name] = {
            **stacked,
            "stack": stack,
            "candidates": int(candidates.shape[0]),
            "candidate_length": int(candidates.shape[1]),
            "sequential_mean_s": loop["mean_s"],
            "batch_speedup": loop["mean_s"] / stacked["mean_s"],
        }

    # The matcher's shapes: one session's window against every candidate
    # length's bank (``match_s1``), eight sessions stacked (``match_s8``)
    # and the figure config's windows; ``per_session_p50_s`` divides by
    # the sessions one call serves.
    for name, config, samples, stack in MATCH_SHAPES:
        queries, banks = _match_inputs(config, samples, stack)
        if stack == 1:
            stats = _time(lambda: _match_one(queries[0], banks), reps)
        else:
            stats = _time(lambda: _match_stacked(queries, banks), reps)
        kernels[name] = {
            **stats,
            "sessions": stack,
            "query_samples": int(queries.shape[1]),
            "lengths": [int(n) for n in config.candidate_lengths()],
            "candidates": int(sum(len(bank) for bank in banks)),
            "profile_samples": samples,
            "per_session_p50_s": stats["p50_s"] / stack,
        }

    rng = np.random.default_rng(1)
    lengths = rng.uniform(0.5, 3.0, (5000, 10))
    amps = rng.uniform(0.0, 0.01, (5000, 10))
    wavelengths = 0.123 + 0.0001 * np.arange(30)
    kernels["csi_synthesis"] = {
        **_time(lambda: synthesize_csi(lengths, amps, wavelengths), reps),
        "packets": 5000,
    }
    kernels["csi_synthesis"]["packets_per_s"] = (
        5000 / kernels["csi_synthesis"]["mean_s"]
    )

    rng = np.random.default_rng(2)
    csi = rng.normal(size=(5000, 2, 30)) + 1j * rng.normal(size=(5000, 2, 30))
    times = np.linspace(0, 10, 5000)
    kernels["sanitize_stream"] = {
        **_time(lambda: sanitize_stream(times, csi), reps),
        "packets": 5000,
    }
    kernels["sanitize_stream"]["packets_per_s"] = (
        5000 / kernels["sanitize_stream"]["mean_s"]
    )

    fleet_times, fleet_csi = _fleet_csi()
    batched = _time(lambda: sanitize_streams(fleet_times, fleet_csi), reps)
    loop = _time(
        lambda: [
            sanitize_stream(fleet_times, fleet_csi[s]) for s in range(STACK)
        ],
        reps,
    )
    kernels["sanitize_streams"] = {
        **batched,
        "stack": STACK,
        "packets": int(STACK * fleet_csi.shape[1]),
        "sequential_mean_s": loop["mean_s"],
        "batch_speedup": loop["mean_s"] / batched["mean_s"],
    }

    return {"schema": SCHEMA, "kernels": kernels}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=30,
                        help="timing repetitions per kernel")
    parser.add_argument("--json", default=None, help="write the result as JSON")
    parser.add_argument("--trajectory", default=None,
                        help="also append the artefact to this bench "
                        "trajectory file")
    args = parser.parse_args(argv)

    payload = collect(reps=args.reps)
    for name, stats in payload["kernels"].items():
        line = f"{name}: mean {stats['mean_s'] * 1e3:.3f} ms"
        if "batch_speedup" in stats:
            line += (f" (x{stats['stack']} stacked, "
                     f"{stats['batch_speedup']:.2f}x vs loop)")
        print(line)
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.json}")
    if args.trajectory:
        from bench_trajectory import append_record

        record = append_record(args.trajectory, payload)
        print(f"appended run @ {record['commit'][:12]} to {args.trajectory}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
