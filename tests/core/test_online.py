"""Online tracker tests: streaming equivalence and buffer behaviour."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ViHOTConfig, ViHOTTracker
from repro.core.online import OnlineTracker, SampleRing
from repro.experiments.scenarios import Scenario
from repro.sensors.camera import CameraTracker
from repro.serve.loadgen import estimates_identical, synthetic_profile

from tests.conftest import SMALL


def test_buffer_too_small_rejected(small_profile):
    with pytest.raises(ValueError):
        OnlineTracker(small_profile, buffer_s=0.5)


def test_not_ready_before_warmup(small_profile, runtime_stream):
    stream, _scene = runtime_stream
    online = OnlineTracker(small_profile)
    for k in range(10):
        online.push_csi(float(stream.times[k]), stream.csi[k])
    assert not online.ready()
    assert online.estimate() is None


def test_reordered_packets_dropped(small_profile, runtime_stream):
    stream, _scene = runtime_stream
    online = OnlineTracker(small_profile)
    online.push_csi(1.0, stream.csi[0])
    online.push_csi(0.5, stream.csi[1])  # late packet: dropped
    online.push_csi(1.5, stream.csi[2])
    assert online.buffered_samples == 2


def test_buffer_eviction(small_profile, runtime_stream):
    stream, _scene = runtime_stream
    online = OnlineTracker(small_profile, buffer_s=3.0)
    for k in range(len(stream)):
        online.push_csi(float(stream.times[k]), stream.csi[k])
    assert online.buffered_seconds <= 3.0 + 0.1


def test_streaming_tracks_accurately(small_profile, runtime_stream):
    stream, scene = runtime_stream
    online = OnlineTracker(small_profile, ViHOTConfig())
    estimates = list(online.feed(stream, estimate_stride_s=0.1))
    assert len(estimates) > 20
    times = np.array([e.target_time for e in estimates])
    values = np.array([e.orientation for e in estimates])
    truth = scene.driver_yaw(times)
    err = np.abs(np.rad2deg(values - truth))
    assert np.median(err[times > 2.5]) < 10.0


def _median_err(scene, times, values):
    truth = scene.driver_yaw(times)
    err = np.abs(np.rad2deg(values - truth))
    return float(np.median(err[times > 2.5]))


def test_streaming_close_to_batch(small_profile, runtime_stream):
    """Online and batch trackers share the engine; error levels match.

    (Exact estimate-by-estimate equality is not required — estimate
    timestamps differ because the online path aligns them to packet
    arrivals — but the medians must agree.)"""
    stream, scene = runtime_stream
    batch = ViHOTTracker(small_profile).process(stream, estimate_stride_s=0.1)
    online = OnlineTracker(small_profile)
    streamed = list(online.feed(stream, estimate_stride_s=0.1))

    batch_err = _median_err(scene, batch.target_times, batch.orientations)
    online_err = _median_err(
        scene,
        np.array([e.target_time for e in streamed]),
        np.array([e.orientation for e in streamed]),
    )
    assert abs(batch_err - online_err) < 3.0


@pytest.fixture(scope="module")
def steering_capture(small_profile):
    """A run-time session with intersection turns (IMU side-channel on).

    Reuses the session-scoped profile — profiling scenes never steer, so
    the profile is the same world as the plain SMALL scenario's.
    """
    scenario = Scenario(SMALL.with_(steering="turns"))
    stream, scene = scenario.runtime_capture(0)
    assert stream.imu is not None
    return stream, scene


def test_streaming_close_to_batch_with_steering_and_camera(
    small_profile, steering_capture
):
    """Batch/online equivalence through steering events with a camera.

    Both frontends must route steering-polluted instants to the camera
    fallback (Sec. 3.6.2) and agree on overall error.  Separate camera
    instances with identical seeds keep the two runs' frame noise
    streams independent of each other's call pattern.
    """
    stream, scene = steering_capture
    batch_camera = CameraTracker(scene, rng=np.random.default_rng(42))
    online_camera = CameraTracker(scene, rng=np.random.default_rng(42))

    batch = ViHOTTracker(small_profile, camera=batch_camera).process(
        stream, estimate_stride_s=0.1
    )
    online = OnlineTracker(small_profile, camera=online_camera)
    streamed = list(online.feed(stream, estimate_stride_s=0.1))

    assert "fallback" in batch.modes
    assert "fallback" in [e.mode for e in streamed]

    batch_err = _median_err(scene, batch.target_times, batch.orientations)
    online_err = _median_err(
        scene,
        np.array([e.target_time for e in streamed]),
        np.array([e.orientation for e in streamed]),
    )
    assert batch_err < 12.0
    assert abs(batch_err - online_err) < 3.0


def test_steering_holds_without_camera(small_profile, steering_capture):
    """Without a camera, steering instants hold the previous estimate."""
    stream, _scene = steering_capture
    online = OnlineTracker(small_profile)
    streamed = list(online.feed(stream, estimate_stride_s=0.1))
    modes = {e.mode for e in streamed}
    assert "fallback" not in modes
    assert "held" in modes


def test_incremental_unwrap_matches_numpy(small_profile, runtime_stream):
    stream, _scene = runtime_stream
    online = OnlineTracker(small_profile)
    n = 400
    for k in range(n):
        online.push_csi(float(stream.times[k]), stream.csi[k])
    from repro.core.sanitize import sanitize_stream

    reference = sanitize_stream(stream.times[:n], stream.csi[:n])
    ours = np.asarray(online.phase_series().values)
    # Same shape up to a constant 2*pi multiple.
    delta = ours - np.asarray(reference.values)
    np.testing.assert_allclose(delta, delta[0], atol=1e-9)


def test_push_csi_shape_validation(small_profile):
    online = OnlineTracker(small_profile)
    with pytest.raises(ValueError):
        online.push_csi(0.0, np.zeros(30))


def test_push_csi_nonfinite_time_rejected(small_profile, runtime_stream):
    stream, _scene = runtime_stream
    online = OnlineTracker(small_profile)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            online.push_csi(bad, stream.csi[0])
    assert online.buffered_samples == 0


def test_push_imu_nonfinite_rejected(small_profile):
    online = OnlineTracker(small_profile)
    with pytest.raises(ValueError, match="finite"):
        online.push_imu(float("nan"), 0.1)
    with pytest.raises(ValueError, match="finite"):
        online.push_imu(0.0, float("inf"))
    online.push_imu(0.0, 0.1)  # finite reading still accepted


def test_push_csi_block_shape_validation(small_profile, runtime_stream):
    stream, _scene = runtime_stream
    online = OnlineTracker(small_profile)
    times = np.asarray(stream.times[:4], dtype=np.float64)
    with pytest.raises(ValueError, match="block"):
        online.push_csi(times, stream.csi[0])  # (n_rx, F) CSI for 4 stamps
    with pytest.raises(ValueError, match="block"):
        online.push_csi(times[:3], stream.csi[:4])  # stamp/packet count mismatch
    with pytest.raises(ValueError, match="block"):
        online.push_csi(times[None, :], stream.csi[:4])  # (1, T) stamps
    bad = times.copy()
    bad[2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        online.push_csi(bad, stream.csi[:4])
    assert online.buffered_samples == 0  # a refused block changes nothing


# ------------------------------------------------- block ingest property
BLOCK_CONFIG = ViHOTConfig(profile_stride=8, num_length_candidates=3)
BLOCK_PROFILE = synthetic_profile()
N_SUBCARRIERS = 30
SEGMENT_KINDS = ("fresh", "stale", "shuffled")


def _segment_stream(seed, segments, big):
    """Blocks of ``(stamps, csi)`` cut from one packet stream.

    ``fresh`` blocks advance the clock; ``stale`` blocks replay stamps at
    or before the newest one (duplicates included); ``shuffled`` blocks
    are fresh stamps out of order with duplicates spliced in.  Phases sit
    near +-pi, so consecutive packets keep crossing the wrap.  ``big``
    leads with a block longer than the ring's default capacity.
    """
    rng = np.random.default_rng(seed)
    if big:
        segments = [("fresh", 1100)] + list(segments)
    clock = 0.0
    blocks = []
    for kind, size in segments:
        fresh = clock + np.cumsum(rng.uniform(0.005, 0.03, size))
        if kind == "fresh":
            stamps = fresh
        elif kind == "stale":
            stamps = rng.uniform(max(0.0, clock - 0.3), clock, size)
            stamps[rng.random(size) < 0.3] = clock
        else:
            stamps = rng.permutation(fresh)
            dup = rng.random(size) < 0.25
            stamps[dup] = np.roll(stamps, 1)[dup]
        if size:
            clock = max(clock, float(stamps.max()))
        phase = np.pi + rng.normal(0.0, 0.5, size)
        csi = np.empty((size, 2, N_SUBCARRIERS), dtype=np.complex128)
        csi[:, 0, :] = np.exp(
            1j * (phase[:, None] + rng.normal(0.0, 0.05, (size, N_SUBCARRIERS)))
        )
        csi[:, 1, :] = np.exp(1j * rng.normal(0.0, 0.05, (size, N_SUBCARRIERS)))
        blocks.append((stamps, csi))
    return blocks


def _assert_same_tracker(block, single):
    assert np.array_equal(block.phase_series().times, single.phase_series().times)
    assert np.array_equal(block.phase_series().values, single.phase_series().values)
    assert block._unwrap_offset == single._unwrap_offset
    assert block._last_wrapped == single._last_wrapped


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    segments=st.lists(
        st.tuples(st.sampled_from(SEGMENT_KINDS), st.integers(0, 40)), max_size=10
    ),
    big=st.booleans(),
)
@example(
    seed=1,
    segments=[("fresh", 0), ("fresh", 1), ("fresh", 30), ("stale", 6), ("shuffled", 9)],
    big=True,
)
@example(seed=2, segments=[("stale", 3), ("fresh", 1), ("stale", 1)], big=False)
def test_block_push_matches_per_packet_push(seed, segments, big):
    """Any cut of a packet stream into blocks leaves the tracker exactly
    as pushing the same packets one at a time does."""
    block = OnlineTracker(BLOCK_PROFILE, BLOCK_CONFIG, buffer_s=3.0)
    single = OnlineTracker(BLOCK_PROFILE, BLOCK_CONFIG, buffer_s=3.0)
    for stamps, csi in _segment_stream(seed, segments, big):
        block.push_csi(stamps, csi)
        for t, packet in zip(stamps.tolist(), csi):
            single.push_csi(t, packet)
        _assert_same_tracker(block, single)
    assert estimates_identical(block.estimate(), single.estimate())


# ----------------------------------------------------------------- ring
def test_ring_grows_and_stays_ordered():
    ring = SampleRing(capacity=4)
    for k in range(100):
        ring.append(0.01 * k, float(k))
    assert len(ring) == 100
    np.testing.assert_allclose(np.diff(ring.times()), 0.01, atol=1e-12)
    np.testing.assert_allclose(ring.values(), np.arange(100.0))


def test_ring_eviction_then_compaction_reuses_capacity():
    ring = SampleRing(capacity=64)
    for k in range(10_000):
        ring.append(0.01 * k, float(k))
        ring.evict_before(0.01 * k - 0.3)  # keep ~30 live samples
    assert len(ring) <= 32
    # Amortised reuse: the buffer never needed to grow for a bounded span.
    assert ring.capacity == 64
    assert ring.first_time >= 0.01 * 9_999 - 0.3 - 1e-9
    assert ring.last_time == pytest.approx(0.01 * 9_999)


def test_ring_extend_grows_past_capacity():
    ring = SampleRing(capacity=4)
    ring.extend([0.0, 0.1], [0.0, 1.0])
    ring.extend((0.1 * np.arange(2, 13)).tolist(), np.arange(2.0, 13.0).tolist())
    assert len(ring) == 13
    assert ring.capacity == 16  # doubled until the block fit
    np.testing.assert_allclose(ring.values(), np.arange(13.0))
    np.testing.assert_allclose(np.diff(ring.times()), 0.1, atol=1e-12)


def test_ring_extend_compacts_after_eviction():
    ring = SampleRing(capacity=16)
    ring.extend(np.arange(10.0), np.arange(10.0))
    assert ring.evict_before(8.0) == 8
    ring.extend(np.arange(10.0, 18.0), np.arange(10.0, 18.0))
    # Two live samples plus the block fit once compacted: no growth.
    assert ring.capacity == 16
    assert ring.times().tolist() == [8.0, 9.0] + list(np.arange(10.0, 18.0))
    ring.extend([], [])
    assert len(ring) == 10


def test_ring_extend_matches_appends():
    blocks = np.split(np.arange(0.0, 9.0, 0.01), [3, 4, 4, 250, 600])
    extended, appended = SampleRing(capacity=8), SampleRing(capacity=8)
    for times in blocks:
        extended.extend(times, 2.0 * times)
        for t in times.tolist():
            appended.append(t, 2.0 * t)
            appended.evict_before(t - 2.0)
        if len(times):
            extended.evict_before(times[-1] - 2.0)
        assert np.array_equal(extended.times(), appended.times())
        assert np.array_equal(extended.values(), appended.values())


def test_ring_views_are_zero_copy():
    ring = SampleRing(capacity=16)
    for k in range(8):
        ring.append(float(k), float(k))
    times = ring.times()
    assert times.base is not None  # a view, not a fresh array
    series = ring.series()
    assert np.shares_memory(series.values, ring.values())
