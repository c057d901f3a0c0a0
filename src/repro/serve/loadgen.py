"""Synthetic fleet load for the serving layer (no RF simulation).

The full cabin simulator costs seconds of CPU per simulated second of
driving — fine for accuracy experiments, hopeless for exercising a
*serving* layer whose point is thousands of packets per wall second.
This module generates the same shape of traffic the real pipeline
produces (per-packet ``(n_rx, F)`` CSI whose antenna phase difference
sweeps like a turning head) directly, so a laptop can drive 50+
concurrent sessions through the :class:`~repro.serve.manager.SessionManager`
at far beyond real time.

Every cabin is deterministic in ``(seed, cabin index)``: the same fleet
replays bit-identically, which is what lets the fleet driver
(:func:`repro.scenarios.run_scenario`) verify the acceptance property
end-to-end — estimates served through the manager must equal a
standalone :class:`~repro.core.online.OnlineTracker` fed the same
packets and polled at the same instants (:func:`_replay_standalone`,
compared with :func:`estimates_identical`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ViHOTConfig
from repro.core.online import OnlineTracker
from repro.core.profile import CsiProfile, PositionProfile
from repro.core.stages import Estimate
from repro.core.workloads import HEAD_WORKLOAD, engine_for_workload

#: Intel-5300-shaped packets.
N_RX = 2
N_SUBCARRIERS = 30

#: The fingerprint all synthetic cabins share — one profiling pass
#: serves the whole fleet through the manager's profile cache.
SYNTHETIC_FINGERPRINT = "synthetic-cabin-v1"

#: The head-tracking traffic shapes (``vihot serve-bench --workload-mix``
#: cycles them per cabin index):
#: ``plain`` (CSI only), ``forecast`` (nonzero horizon — shares its
#: plain siblings' batch group, the items carry their own engines),
#: ``camera`` (IMU + camera steering fallback — excluded from batches),
#: ``imu`` (IMU without camera — steering holds).
WORKLOAD_KINDS = ("plain", "forecast", "camera", "imu")

#: Every kind a scenario's workload mix may name: the four head-tracking
#: traffic shapes above plus the non-head estimation workloads
#: (``localize`` — rear-seat occupant localization, ``breathing`` —
#: respiration-rate micro-motion sensing).  A scenario's ``workload_mix``
#: is cycled per cabin index.
ALL_WORKLOAD_KINDS = WORKLOAD_KINDS + ("localize", "breathing")


def kind_workload(kind: str) -> str:
    """The serve-layer session workload behind a loadgen kind: the four
    head-tracking traffic shapes all run the ``"head"`` chain; the
    estimation workloads run their own."""
    return kind if kind in ("localize", "breathing") else HEAD_WORKLOAD


def kind_uses_imu(kind: str) -> bool:
    """Whether cabins of this kind stream the gyro side-channel."""
    return kind in ("camera", "imu")


def synthetic_profile(num_positions: int = 4, seed: int = 100) -> CsiProfile:
    """A plausible scan-shaped profile, cheap to build (no RF sim)."""
    profile = CsiProfile(driver="loadgen")
    n = 1200
    for k in range(num_positions):
        rng = np.random.default_rng(seed + k)
        orientations = np.deg2rad(70.0) * np.sin(np.linspace(0, 14, n))
        phases = 0.012 * np.rad2deg(orientations) + rng.normal(0, 0.002, n)
        profile.add(
            PositionProfile(float(k), 200.0, phases + 0.2 * k, orientations, 0.2 * k)
        )
    return profile


@dataclass
class SyntheticCabin:
    """One cabin's deterministic packet stream.

    The phase track depends on the cabin's ``workload`` traffic shape:

    * ``"head"`` (default): the head sweeps sinusoidally at a per-cabin
      frequency/amplitude — the pre-registry stream, byte for byte.
    * ``"localize"``: a rear-seat occupant parked near one profiled
      seat's ``phi0`` fingerprint (recorded as :attr:`seat_index`), with
      slow posture drift on top.
    * ``"breathing"``: a small respiration sinusoid at a per-cabin rate
      in the physiological band (recorded as :attr:`breathing_rate_hz`).

    All shapes are deterministic in ``(seed, workload)``, so the same
    fleet replays bit-identically.
    """

    cabin_id: str
    seed: int
    duration_s: float
    rate_hz: float = 200.0
    imu_rate_hz: float = 20.0
    workload: str = "head"

    def __post_init__(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.times = np.arange(0.0, self.duration_s, 1.0 / self.rate_hz)
        if self.workload == "localize":
            # Seat fingerprints in synthetic_profile() sit at 0.2 * k.
            self.seat_index = int(rng.integers(4))
            drift = 0.03 * np.sin(
                2.0 * np.pi * 0.08 * self.times + 2.0 * np.pi * rng.random()
            )
            self._sweep = (
                0.2 * self.seat_index
                + drift
                + rng.normal(0, 0.01, len(self.times))
            )
        elif self.workload == "breathing":
            self.breathing_rate_hz = float(0.18 + 0.17 * rng.random())
            chest = 0.05 * np.sin(
                2.0 * np.pi * self.breathing_rate_hz * self.times
                + 2.0 * np.pi * rng.random()
            )
            self._sweep = chest + rng.normal(0, 0.004, len(self.times))
        else:
            # The head-tracking shape.  Draw order is bit-identity
            # critical: the serve-layer equivalence gates replay these
            # exact streams.
            freq = 0.30 + 0.15 * rng.random()
            amplitude = 0.6 + 0.4 * rng.random()
            self._sweep = amplitude * np.sin(
                2.0 * np.pi * freq * self.times
            ) + rng.normal(0, 0.01, len(self.times))
        # A deterministic gyro track: quiet, except one mid-run steering
        # burst well above the 0.06 rad/s identification threshold so
        # IMU-carrying workloads actually exercise the steering stage.
        imu_rng = np.random.default_rng(self.seed + 1)
        self.imu_times = np.arange(0.0, self.duration_s, 1.0 / self.imu_rate_hz)
        burst_start = self.duration_s * (0.35 + 0.1 * imu_rng.random())
        burst_stop = burst_start + 0.2 * self.duration_s
        in_burst = (self.imu_times >= burst_start) & (self.imu_times < burst_stop)
        self.imu_rates = np.where(in_burst, 0.3, 0.0) + imu_rng.normal(
            0, 0.005, len(self.imu_times)
        )

    def __len__(self) -> int:
        return len(self.times)

    def csi_at(self, k: int) -> np.ndarray:
        """Packet ``k``'s CSI matrix, built on demand (no fleet-sized
        complex arrays held in memory)."""
        csi = np.empty((N_RX, N_SUBCARRIERS), dtype=np.complex128)
        csi[0, :] = np.exp(1j * self._sweep[k])
        csi[1, :] = 1.0
        return csi


@dataclass(frozen=True)
class SyntheticCamera:
    """Deterministic camera stub: head yaw as a pure function of time,
    so a served session and its standalone replay see the same fallback
    values."""

    seed: int

    def estimate_at(self, t: float) -> float:
        return float(0.3 * np.sin(2.0 * np.pi * 0.25 * t + (self.seed % 7)))


def estimates_identical(a: Estimate | None, b: Estimate | None) -> bool:
    """Bit-identical payload comparison, NaN-aware.

    Dataclass equality treats ``dtw_distance=NaN`` (any non-matching
    mode) as unequal to itself, so exact-replay verification needs this
    instead of ``==``.  Traces are metadata and excluded, like in
    ``Estimate.__eq__``.
    """
    if a is None or b is None:
        return a is b
    same_dtw = (
        a.dtw_distance == b.dtw_distance
        or (np.isnan(a.dtw_distance) and np.isnan(b.dtw_distance))
    )
    return (
        a.time == b.time
        and a.target_time == b.target_time
        and a.orientation == b.orientation
        and a.mode == b.mode
        and a.position_index == b.position_index
        and same_dtw
    )


def _replay_standalone(
    cabin: SyntheticCabin,
    profile: CsiProfile,
    config: ViHOTConfig,
    buffer_s: float,
    estimate_times: list[float],
    camera: SyntheticCamera | None = None,
    with_imu: bool = False,
    workload: str = HEAD_WORKLOAD,
) -> list[Estimate | None]:
    """Feed a fresh standalone tracker the cabin's packets, polling at
    exactly the instants the manager's scheduler polled.

    IMU samples (when the cabin's workload carries them) are pushed
    ahead of each CSI packet, mirroring the fleet driver's loop: both
    paths leave the tracker's IMU ring holding exactly the readings
    stamped at or before the current stream time when a poll lands.
    """
    if workload == HEAD_WORKLOAD:
        tracker = OnlineTracker(profile, config, camera=camera, buffer_s=buffer_s)
    else:
        tracker = OnlineTracker(
            profile,
            camera=camera,
            buffer_s=buffer_s,
            engine=engine_for_workload(workload, profile, config, camera=camera),
        )
    produced: list[Estimate | None] = []
    poll = 0
    imu_k = 0
    for k in range(len(cabin)):
        t = float(cabin.times[k])
        if with_imu:
            while imu_k < len(cabin.imu_times) and cabin.imu_times[imu_k] <= t:
                tracker.push_imu(
                    float(cabin.imu_times[imu_k]), float(cabin.imu_rates[imu_k])
                )
                imu_k += 1
        tracker.push_csi(t, cabin.csi_at(k))
        while poll < len(estimate_times) and estimate_times[poll] <= t + 1e-12:
            produced.append(tracker.estimate(estimate_times[poll]))
            poll += 1
    return produced
