"""Online (streaming) tracking — the API a real deployment drives.

:class:`repro.core.tracker.ViHOTTracker` processes a whole logged capture
at once, which is right for evaluation but not for a head unit receiving
one CSI report per WiFi packet.  ``OnlineTracker`` exposes the push-style
interface:

    tracker = OnlineTracker(profile)
    for record in nic:                      # one CsiRecord per packet
        tracker.push_csi(record.time, record.csi)
        ...
    estimate = tracker.estimate()           # whenever the HUD needs one

A receiver that buffers packets can push them as one block instead —
``push_csi(times, csis)`` with ``(T,)`` stamps and ``(T, n_rx, F)`` CSI —
and pays one phase-difference call, one ring write and one eviction for
all ``T``; the tracker ends up exactly as after ``T`` single pushes.

It drives the same :class:`repro.core.engine.EstimationEngine` as the
batch tracker (same stages, same session state); the difference is purely
that samples arrive incrementally into preallocated numpy ring buffers
and old ones are evicted past the retention horizon.  ``estimate()``
hands the engine zero-copy views of the live region, so its cost depends
on the buffer span, never on how long the session has been running.
``tests/core/test_online.py`` pins the equivalence against the batch
tracker, and block pushes against per-packet pushes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from repro.core.config import ViHOTConfig
from repro.core.engine import BatchItem, EstimationEngine, SessionState
from repro.core.profile import CsiProfile
from repro.core.sanitize import antenna_phase_difference
from repro.core.stages import CameraLike, Estimate
from repro.dsp.series import TimeSeries
from repro.net.link import CsiStream


class SampleRing:
    """A preallocated, time-ordered ring of ``(time, value)`` samples.

    The live region is kept *contiguous*: appends and block extends
    write at the tail, eviction advances the head, and when a write
    would pass the capacity the live region is compacted to the front
    (or the arrays doubled while the region still fills more than half
    the capacity or the block would not fit).  Both operations are
    amortised O(1) per sample, and :meth:`times` / :meth:`values`
    are zero-copy views — no per-read array rebuild, which is what keeps
    ``OnlineTracker.estimate()`` flat in session length.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self._times = np.empty(capacity, dtype=np.float64)
        self._values = np.empty(capacity, dtype=np.float64)
        self._head = 0
        self._tail = 0

    def __len__(self) -> int:
        return self._tail - self._head

    @property
    def capacity(self) -> int:
        return len(self._times)

    @property
    def first_time(self) -> float:
        if len(self) == 0:
            raise ValueError("empty ring has no first time")
        return float(self._times[self._head])

    @property
    def last_time(self) -> float:
        if len(self) == 0:
            raise ValueError("empty ring has no last time")
        return float(self._times[self._tail - 1])

    def times(self) -> np.ndarray:
        """Zero-copy view of the live timestamps."""
        return self._times[self._head : self._tail]

    def values(self) -> np.ndarray:
        """Zero-copy view of the live values."""
        return self._values[self._head : self._tail]

    def series(self) -> TimeSeries:
        """The live region as a :class:`TimeSeries` (views, no copy)."""
        return TimeSeries(self.times(), self.values())

    def append(self, time: float, value: float) -> None:
        """Append one sample; ``time`` must exceed the last timestamp."""
        self.extend((time,), (value,))

    def extend(
        self, times: Sequence[float] | np.ndarray, values: Sequence[float] | np.ndarray
    ) -> None:
        """Append samples in order; ``times`` must increase past the last
        timestamp.  One block write, however many samples."""
        n = len(times)
        if self._tail + n > len(self._times):
            self._make_room(n)
        end = self._tail + n
        self._times[self._tail : end] = times
        self._values[self._tail : end] = values
        self._tail = end

    def evict_before(self, horizon: float) -> int:
        """Drop samples with ``time < horizon``; returns how many."""
        live = self.times()
        drop = int(np.searchsorted(live, horizon, side="left"))
        self._head += drop
        return drop

    def _make_room(self, extra: int) -> None:
        live = len(self)
        capacity = self.capacity
        while 2 * live > capacity or live + extra > capacity:
            capacity *= 2
        if capacity > self.capacity:
            # Still mostly full after eviction (or the incoming block
            # would not fit): grow by doubling.
            grown_times = np.empty(capacity, dtype=np.float64)
            grown_values = np.empty(capacity, dtype=np.float64)
            grown_times[:live] = self.times()
            grown_values[:live] = self.values()
            self._times = grown_times
            self._values = grown_values
        else:
            # Compact the (evicted-down) live region to the front.
            self._times[:live] = self.times()
            self._values[:live] = self.values()
        self._head = 0
        self._tail = live


class OnlineTracker:
    """Incremental ViHOT: push CSI/IMU samples, pull estimates.

    CSI goes in one packet or one block of packets per
    :meth:`push_csi`; a single packet is the ``T = 1`` block of the same
    code, so how a stream is cut into blocks never changes the tracker's
    state or its estimates.  The serving layer pushes each session's
    drained packets as blocks; :meth:`feed` and the reference replays
    push one packet at a time.

    Args:
        profile: the driver's CSI profile.
        config: run-time parameters (shared with the batch tracker).
        camera: optional steering fallback with ``estimate_at(t)``.
        buffer_s: how much phase history to retain.  Must cover the
            stability window plus the largest match window; the default
            keeps a comfortable margin.
        engine: a pre-built estimation engine to drive instead of the
            default head-tracking one — the workload registry passes
            localization / micro-motion engines here.  When given, its
            config wins (``config`` must be None or equal to it).
    """

    def __init__(
        self,
        profile: CsiProfile,
        config: ViHOTConfig | None = None,
        camera: CameraLike | None = None,
        buffer_s: float = 10.0,
        engine: EstimationEngine | None = None,
    ) -> None:
        if engine is not None:
            if config is not None and config != engine.config:
                raise ValueError(
                    "config conflicts with the provided engine's config"
                )
            config = engine.config
        config = config if config is not None else ViHOTConfig()
        needed = max(config.stable_window_s, config.window_s) + 1.0
        if buffer_s < needed:
            raise ValueError(
                f"buffer_s={buffer_s} too small; need >= {needed:.1f}s for "
                "the configured stability/match windows"
            )
        self._engine = (
            engine
            if engine is not None
            else EstimationEngine(profile, config, camera=camera)
        )
        self._config = config
        self._buffer_s = buffer_s

        self._phase = SampleRing()
        self._last_wrapped: float | None = None
        self._unwrap_offset = 0.0

        self._imu = SampleRing()

        self._state: SessionState = self._engine.new_session()

    @property
    def config(self) -> ViHOTConfig:
        return self._config

    @property
    def engine(self) -> EstimationEngine:
        """The shared stage-based estimation engine."""
        return self._engine

    @property
    def buffered_samples(self) -> int:
        """How many CSI phase samples are currently retained."""
        return len(self._phase)

    @property
    def buffered_seconds(self) -> float:
        if len(self._phase) < 2:
            return 0.0
        return self._phase.last_time - self._phase.first_time

    def phase_series(self) -> TimeSeries:
        """The buffered (unwrapped) phase track as a zero-copy view."""
        return self._phase.series()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def push_csi(self, time: float | np.ndarray, csi: np.ndarray) -> None:
        """Ingest one packet, or a block of packets in arrival order.

        One packet is a scalar ``time`` with CSI of shape ``(n_rx, F)``;
        a block is ``(T,)`` stamps with ``(T, n_rx, F)`` CSI, and one
        packet is its ``T = 1`` case.  A block leaves the tracker exactly
        as ``T`` single pushes in order would: a packet is kept iff its
        stamp exceeds the ring's last stamp and every earlier stamp in
        the block (the NIC timestamps are our clock, so a reordered or
        duplicate arrival is dropped), and the incremental unwrap runs
        over the kept packets in order.  The block costs one phase
        difference call, one ring write and one eviction.

        Raises ``ValueError`` on a malformed block or a non-finite stamp
        before any state changes.
        """
        times = np.asarray(time, dtype=np.float64)
        csi = np.asarray(csi)
        if times.ndim == 0:
            # One packet: the T = 1 block.
            if csi.ndim != 2:
                raise ValueError(f"per-packet CSI must be (n_rx, F), got {csi.shape}")
            stamps = [float(times)]
            csi = csi[None]
        elif times.ndim == 1 and csi.ndim == 3 and len(csi) == len(times):
            stamps = times.tolist()
        else:
            raise ValueError(
                f"a CSI block needs (T,) stamps and (T, n_rx, F) CSI, got "
                f"{times.shape} and {csi.shape}"
            )
        if not all(map(math.isfinite, stamps)):
            raise ValueError(f"packet timestamps must be finite, got {stamps}")
        wrapped = antenna_phase_difference(csi).tolist()
        bound = self._phase.last_time if len(self._phase) else -math.inf
        last_wrapped = self._last_wrapped
        offset = self._unwrap_offset
        kept_times: list[float] = []
        kept_values: list[float] = []
        for t, w in zip(stamps, wrapped):
            if t <= bound:
                continue
            bound = t
            # Incremental unwrap against the previous kept sample.
            if last_wrapped is not None:
                delta = w - last_wrapped
                if delta > np.pi:
                    offset -= 2.0 * np.pi
                elif delta < -np.pi:
                    offset += 2.0 * np.pi
            last_wrapped = w
            kept_times.append(t)
            kept_values.append(w + offset)
        if not kept_times:
            return
        self._last_wrapped = last_wrapped
        self._unwrap_offset = offset
        self._phase.extend(kept_times, kept_values)
        self._evict(bound)

    def push_imu(self, time: float, yaw_rate: float) -> None:
        """Ingest one phone gyro reading."""
        time = float(time)
        yaw_rate = float(yaw_rate)
        if not np.isfinite(time):
            raise ValueError(f"IMU timestamp must be finite, got {time}")
        if not np.isfinite(yaw_rate):
            raise ValueError(f"IMU yaw rate must be finite, got {yaw_rate}")
        if len(self._imu) and time <= self._imu.last_time:
            return
        self._imu.append(time, yaw_rate)

    def _evict(self, now: float) -> None:
        horizon = now - self._buffer_s
        self._phase.evict_before(horizon)
        self._imu.evict_before(horizon)

    # ------------------------------------------------------------------
    # Estimate
    # ------------------------------------------------------------------
    def ready(self) -> bool:
        """True once enough history has accumulated to estimate."""
        warmup = max(self._config.window_s, self._config.stable_window_s)
        return self.buffered_seconds >= warmup

    def estimation_inputs(self, t: float | None = None) -> BatchItem | None:
        """The exact engine inputs :meth:`estimate` would use at ``t``.

        ``None`` under the same early-out conditions (no samples, not
        warmed up).  The serving layer's batch planner collects these
        from many trackers and hands them to one shared engine's
        :meth:`~repro.core.engine.EstimationEngine.estimate_batch` —
        the item carries this tracker's live session state, so the
        batched call advances it exactly as :meth:`estimate` would.
        """
        if len(self._phase) == 0:
            return None
        if t is None:
            t = self._phase.last_time
        if not self.ready():
            return None
        imu = self._imu.series() if len(self._imu) else None
        return BatchItem(
            self._phase.series(), imu, float(t), self._state, engine=self._engine
        )

    def estimate(self, t: float | None = None) -> Estimate | None:
        """Estimate the head orientation at ``t`` (default: latest sample).

        Returns ``None`` until :meth:`ready` (Alg. 1's setup time) or if
        no estimate can be formed at ``t``.
        """
        item = self.estimation_inputs(t)
        if item is None:
            return None
        return self._engine.estimate_at(item.phase, item.imu, item.t, item.state)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def feed(
        self, stream: CsiStream, estimate_stride_s: float = 0.05
    ) -> Iterator[Estimate]:
        """Replay a logged capture through the online path.

        Yields estimates as they become available — the streaming
        equivalent of ``ViHOTTracker.process``.
        """
        if estimate_stride_s <= 0:
            raise ValueError("estimate_stride_s must be positive")
        imu_iter = 0
        imu = stream.imu
        imu_values = np.asarray(imu.values) if imu is not None else None
        next_estimate = None
        for k in range(len(stream)):
            t = float(stream.times[k])
            if imu is not None:
                while imu_iter < len(imu) and imu.times[imu_iter] <= t:
                    self.push_imu(
                        float(imu.times[imu_iter]), float(imu_values[imu_iter])
                    )
                    imu_iter += 1
            self.push_csi(t, stream.csi[k])
            if next_estimate is None and self.ready():
                next_estimate = t
            if next_estimate is not None and t >= next_estimate:
                estimate = self.estimate(t)
                next_estimate += estimate_stride_s
                if estimate is not None:
                    yield estimate
