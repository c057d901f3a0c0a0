"""Online-tracker ingest/estimate cost (real timing runs).

``OnlineTracker`` keeps its phase/IMU history in preallocated numpy ring
buffers and hands the engine zero-copy views, so per-``push_csi`` cost is
amortised O(1) and per-``estimate()`` cost depends only on the retained
buffer span — never on how long the session has been running.  This
bench measures both and asserts the flatness: a 4x longer session must
not make ``estimate()`` meaningfully slower.  It also pushes one session
in 25-packet blocks (what a serve tick hands a 500 Hz cabin), checks the
ring against per-packet pushes and prints both per-packet costs.
"""

import time

import numpy as np

from repro.core.config import ViHOTConfig
from repro.core.online import OnlineTracker
from repro.core.profile import CsiProfile, PositionProfile

RATE_HZ = 400.0
N_RX = 2
N_SUBCARRIERS = 30
BLOCK = 25


def synthetic_profile(num_positions: int = 4) -> CsiProfile:
    """A plausible scan-shaped profile, cheap to build (no RF sim)."""
    profile = CsiProfile(driver="bench")
    n = 1200
    for k in range(num_positions):
        rng = np.random.default_rng(100 + k)
        orientations = np.deg2rad(70.0) * np.sin(np.linspace(0, 14, n))
        phases = 0.012 * np.rad2deg(orientations) + rng.normal(0, 0.002, n)
        profile.add(
            PositionProfile(float(k), 200.0, phases + 0.2 * k, orientations, 0.2 * k)
        )
    return profile


def synthetic_packets(duration_s: float, seed: int = 0):
    """CSI packets whose phase difference sweeps like a turning head."""
    rng = np.random.default_rng(seed)
    times = np.arange(0.0, duration_s, 1.0 / RATE_HZ)
    sweep = 0.8 * np.sin(2.0 * np.pi * 0.4 * times) + rng.normal(0, 0.01, len(times))
    csi = np.empty((len(times), N_RX, N_SUBCARRIERS), dtype=np.complex128)
    csi[:, 0, :] = np.exp(1j * sweep)[:, None]
    csi[:, 1, :] = 1.0
    return times, csi


def _run_session(profile, duration_s, buffer_s=6.0, estimate_stride_s=0.25):
    """Stream one session; returns (per-push seconds, per-estimate seconds)."""
    config = ViHOTConfig(profile_stride=8, num_length_candidates=3)
    tracker = OnlineTracker(profile, config, buffer_s=buffer_s)
    times, csi = synthetic_packets(duration_s)
    push_elapsed = 0.0
    estimate_times = []
    next_estimate = None
    for k in range(len(times)):
        t = float(times[k])
        start = time.perf_counter()
        tracker.push_csi(t, csi[k])
        push_elapsed += time.perf_counter() - start
        if next_estimate is None and tracker.ready():
            next_estimate = t
        if next_estimate is not None and t >= next_estimate:
            start = time.perf_counter()
            tracker.estimate(t)
            estimate_times.append(time.perf_counter() - start)
            next_estimate += estimate_stride_s
    # Steady-state per-estimate cost: drop the warmup half.
    steady = estimate_times[len(estimate_times) // 2 :]
    return push_elapsed / len(times), float(np.mean(steady))


def test_estimate_cost_flat_in_session_length(capsys):
    profile = synthetic_profile()
    # Warm caches (numpy, DTW code paths) off the clock.
    _run_session(profile, 4.0)

    short_push, short_estimate = _run_session(profile, 10.0)
    long_push, long_estimate = _run_session(profile, 40.0)

    with capsys.disabled():
        print()
        print("online tracker cost (ring buffer, zero-copy views)")
        print(f"  10 s session: push {short_push * 1e6:7.1f} us   "
              f"estimate {short_estimate * 1e3:7.2f} ms")
        print(f"  40 s session: push {long_push * 1e6:7.1f} us   "
              f"estimate {long_estimate * 1e3:7.2f} ms")
        print(f"  estimate ratio (40s/10s): {long_estimate / short_estimate:.2f}")

    # Per-push cost is amortised O(1): generous bound for slow CI boxes.
    assert short_push < 2e-3 and long_push < 2e-3
    # Per-estimate cost depends on the buffer span, not the session
    # length: a 4x longer session must stay within noise of the short one.
    assert long_estimate < 3.0 * short_estimate


def test_buffer_view_cost_flat(capsys):
    """Building the engine's phase view is O(buffer), not O(session)."""
    profile = synthetic_profile()
    config = ViHOTConfig()
    costs = {}
    for duration_s in (10.0, 40.0):
        tracker = OnlineTracker(profile, config, buffer_s=6.0)
        times, csi = synthetic_packets(duration_s)
        for k in range(len(times)):
            tracker.push_csi(float(times[k]), csi[k])
        start = time.perf_counter()
        for _ in range(200):
            series = tracker.phase_series()
        costs[duration_s] = (time.perf_counter() - start) / 200
        assert np.shares_memory(series.values, tracker.phase_series().values)
    with capsys.disabled():
        print()
        for duration_s, cost in costs.items():
            print(f"  phase_series() after {duration_s:4.0f} s: {cost * 1e6:6.1f} us")
    assert costs[40.0] < 3.0 * costs[10.0] + 50e-6


def _push_cost(profile, times, csi, block):
    """Push one session in ``block``-packet blocks (``None``: one packet
    per call); returns (tracker, seconds per packet)."""
    tracker = OnlineTracker(profile, ViHOTConfig(), buffer_s=6.0)
    start = time.perf_counter()
    if block is None:
        for k in range(len(times)):
            tracker.push_csi(float(times[k]), csi[k])
    else:
        for k in range(0, len(times), block):
            tracker.push_csi(times[k : k + block], csi[k : k + block])
    return tracker, (time.perf_counter() - start) / len(times)


def test_block_push_matches_per_packet(capsys):
    profile = synthetic_profile()
    times, csi = synthetic_packets(10.0)
    runs = {}
    for block in (None, BLOCK, None, BLOCK, None, BLOCK):
        tracker, cost = _push_cost(profile, times, csi, block)
        best = runs.get(block, (None, float("inf")))[1]
        runs[block] = (tracker, min(cost, best))
    single, single_cost = runs[None]
    blocked, block_cost = runs[BLOCK]
    assert np.array_equal(blocked.phase_series().times, single.phase_series().times)
    assert np.array_equal(blocked.phase_series().values, single.phase_series().values)
    with capsys.disabled():
        print()
        print(f"  push per packet: {single_cost * 1e6:6.1f} us one at a time, "
              f"{block_cost * 1e6:6.1f} us in {BLOCK}-packet blocks "
              f"({single_cost / block_cost:.1f}x)")
