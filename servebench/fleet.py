"""Seeded fleet inputs for the serve benchmark, built before any clock starts.

Everything a run feeds the serving layer comes from here and is a pure
function of ``(spec, seed)``: every cabin's ``(T, 2, 30)`` CSI capture,
its head-yaw track (steady sweeps or front-facing glances), its IMU
steering track, and the raw per-position profiling captures the shared
profile is built from.  Nothing here imports the program's own load
generators, so their synthesis never lands on the timed path.

The phase model is one smooth map from head yaw to antenna-difference
phase per head position, ``a_i + 0.69 yaw + 0.25 yaw**2`` (the slope of
the loadgen profile, plus curvature so the map is not linear), shared
by the profiling captures and the run-time cabins, so the tracker's
position fixes, stationary holds and DTW matches behave as on real
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.series import TimeSeries
from repro.net.link import CsiStream

N_RX = 2
N_SUBCARRIERS = 30

#: Profiled head positions; their fingerprints are ``POSITION_PHI0[i]``.
POSITION_PHI0 = (-0.45, -0.15, 0.15, 0.45)
#: Cabins sit at the head positions in runs of this many (cabins 0-3 at
#: position 0, 4-7 at 1, ...).  The fleet matcher stacks same-position
#: queries, so a fixed layout gives every seed the same DTW stacks and
#: the same largest cost tensor.
CABINS_PER_POSITION = 4
#: Profiling pass per position: a facing-front hold, then a sweep.
PROFILE_RATE_HZ = 500.0
PROFILE_HOLD_S = 1.0
PROFILE_SWEEP_S = 6.0
#: Every cabin is the same car model, so one profile serves the fleet.
FINGERPRINT = "servebench-cabin-v1"

#: Stream length of one episode, every workload.
DURATION_S = 8.0
#: Cabin ``k`` of ``n`` starts ``k * STAGGER_S / n`` late, so cabins
#: fall due at different ticks like independent cars.
STAGGER_S = 0.1

IMU_RATE_HZ = 20.0
GLANCE_PERIOD_S = 6.0
#: Per-subcarrier phase noise [rad]; the subcarrier average leaves
#: about 0.005 rad on the antenna difference.
PHASE_NOISE_RAD = 0.02

#: Cabin kinds and the serve-layer workload each runs.
KIND_WORKLOAD = {
    "plain": "head",
    "imu": "head",
    "camera": "head",
    "forecast": "head",
    "localize": "localize",
    "breathing": "breathing",
}


def position_phase(yaw: np.ndarray, position: int) -> np.ndarray:
    """The antenna-difference phase [rad] of ``yaw`` at a head position."""
    return POSITION_PHI0[position] + 0.69 * yaw + 0.25 * yaw**2


def synthesize_csi(phase: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-packet ``(T, 2, 30)`` CSI whose antenna difference is ``phase``.

    Each subcarrier carries its own small phase error on both antennas,
    so the tracker's subcarrier average has real work to do.
    """
    n = len(phase)
    jitter = rng.normal(0.0, PHASE_NOISE_RAD, (n, N_RX, N_SUBCARRIERS))
    jitter[:, 0, :] += phase[:, None]
    amplitude = 1.0 + rng.normal(0.0, 0.02, (n, N_RX, N_SUBCARRIERS))
    return amplitude * np.exp(1j * jitter)


@dataclass(frozen=True)
class TrackCamera:
    """A steering-fallback camera that reads the cabin's true head yaw.

    Picklable (plain arrays), so a forked fabric worker and the
    standalone replay see the same values.
    """

    times: np.ndarray
    yaw: np.ndarray

    def estimate_at(self, t: float) -> float:
        return float(np.interp(t, self.times, self.yaw))


@dataclass(frozen=True)
class Cabin:
    """One cabin's whole stream for one episode."""

    session_id: str
    kind: str
    times: np.ndarray  # (T,) stream time [s], staggered per cabin
    csi: np.ndarray  # (T, 2, 30) complex128
    yaw: np.ndarray  # (T,) true head yaw [rad]
    imu_times: np.ndarray  # (K,) empty unless the kind streams IMU
    imu_rates: np.ndarray  # (K,) car yaw rate [rad/s]

    @property
    def workload(self) -> str:
        return KIND_WORKLOAD[self.kind]

    @property
    def camera(self) -> TrackCamera | None:
        return TrackCamera(self.times, self.yaw) if self.kind == "camera" else None


@dataclass(frozen=True)
class ProfilingCaptures:
    """Raw profiling captures, one per head position."""

    streams: tuple[CsiStream, ...]
    truths: tuple[TimeSeries, ...]
    labels: tuple[float, ...]


@dataclass(frozen=True)
class FleetSpec:
    """The traffic shape of one workload's fleet.

    Attributes:
        cabins: fleet size.
        rate_hz: CSI packet rate per cabin.
        kinds: cabin kinds, cycled over the cabin index.
        motion: ``"turning"`` (continuous sweeps) or ``"glance"``
            (front-facing with brief glances).
    """

    cabins: int
    rate_hz: float
    kinds: tuple[str, ...]
    motion: str


@dataclass(frozen=True)
class FleetInputs:
    cabins: tuple[Cabin, ...]
    captures: ProfilingCaptures

    @property
    def nbytes(self) -> int:
        """Bytes held by the input arrays (excluded from serving memory)."""
        total = 0
        for cabin in self.cabins:
            total += cabin.times.nbytes + cabin.csi.nbytes + cabin.yaw.nbytes
            total += cabin.imu_times.nbytes + cabin.imu_rates.nbytes
        for stream, truth in zip(self.captures.streams, self.captures.truths):
            total += stream.times.nbytes + stream.csi.nbytes + stream.seqs.nbytes
            total += truth.times.nbytes + truth.values.nbytes
        return total


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def profiling_captures(seed: int) -> ProfilingCaptures:
    """One hold-then-sweep capture per profiled head position."""
    streams, truths, labels = [], [], []
    for position in range(len(POSITION_PHI0)):
        rng = _rng(seed, 1, position)
        times = np.arange(0.0, PROFILE_HOLD_S + PROFILE_SWEEP_S, 1.0 / PROFILE_RATE_HZ)
        sweep = np.clip(times - PROFILE_HOLD_S, 0.0, None)
        yaw = np.deg2rad(70.0) * np.sin(2.0 * np.pi * 0.3 * sweep)
        csi = synthesize_csi(position_phase(yaw, position), rng)
        streams.append(CsiStream(times, csi, np.arange(len(times))))
        truths.append(TimeSeries(times, yaw))
        labels.append(float(position))
    return ProfilingCaptures(tuple(streams), tuple(truths), tuple(labels))


def _turning_yaw(times: np.ndarray, start: float, rng: np.random.Generator) -> np.ndarray:
    """Front-facing for 1.5 s (a position fix), then a steady left-right
    sweep at constant speed, so no match window is ever flat."""
    amplitude = np.deg2rad(rng.uniform(50.0, 65.0))
    freq = rng.uniform(0.6, 0.8)
    moving = np.clip(times - start - 1.5, 0.0, None)
    return amplitude * (2.0 / np.pi) * np.arcsin(np.sin(2.0 * np.pi * freq * moving))


def _glance_yaw(
    times: np.ndarray, phase: float, rng: np.random.Generator
) -> np.ndarray:
    """Front-facing, with a 0.5 s glance every 6 s.

    ``phase`` in ``[0, 1)`` places the first glance; spreading it over
    the fleet staggers the glances (an 8-cabin fleet has at most one
    cabin mid-glance at any moment).  The
    seed draws only each glance's angle, so which glances overlap, and
    with it the latency tail, is the same for every seed.
    """
    yaw = np.zeros(len(times))
    t = 1.5 + GLANCE_PERIOD_S * phase
    while t < times[-1]:
        angle = np.deg2rad(rng.uniform(30.0, 55.0)) * rng.choice((-1.0, 1.0))
        inside = (times >= t) & (times < t + 0.5)
        yaw[inside] = angle * 0.5 * (1.0 - np.cos(2.0 * np.pi * (times[inside] - t) / 0.5))
        t += GLANCE_PERIOD_S
    return yaw


def _imu_track(start: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Car yaw rate: quiet, with a 1.5 s steering burst every 6-9 s."""
    times = start + np.arange(0.0, DURATION_S - start, 1.0 / IMU_RATE_HZ)
    rates = rng.normal(0.0, 0.005, len(times))
    t = start + rng.uniform(2.5, 5.0)
    while t < DURATION_S:
        rates[(times >= t) & (times < t + 1.5)] += 0.3
        t += rng.uniform(6.0, 9.0)
    return times, rates


def make_cabin(spec: FleetSpec, seed: int, index: int) -> Cabin:
    kind = spec.kinds[index % len(spec.kinds)]
    rng = _rng(seed, 2, index)
    start = index * STAGGER_S / spec.cabins
    times = start + np.arange(0.0, DURATION_S - start, 1.0 / spec.rate_hz)
    position = (index // CABINS_PER_POSITION) % len(POSITION_PHI0)
    if kind == "localize":
        # An occupant parked at one seat fingerprint: slow posture drift
        # plus breathing, so the occupancy gate sees someone there.
        yaw = np.zeros(len(times))
        phase = (
            POSITION_PHI0[position]
            + 0.03 * np.sin(2.0 * np.pi * 0.08 * times + 2.0 * np.pi * rng.random())
            + 0.04 * np.sin(2.0 * np.pi * 0.3 * times + 2.0 * np.pi * rng.random())
        )
    elif kind == "breathing":
        yaw = np.zeros(len(times))
        rate_hz = rng.uniform(0.18, 0.35)
        phase = POSITION_PHI0[position] + 0.05 * np.sin(
            2.0 * np.pi * rate_hz * times + 2.0 * np.pi * rng.random()
        )
    else:
        if spec.motion == "glance":
            yaw = _glance_yaw(times, index / spec.cabins, rng)
        else:
            yaw = _turning_yaw(times, start, rng)
        phase = position_phase(yaw, position)
    if kind in ("imu", "camera"):
        imu_times, imu_rates = _imu_track(start, rng)
    else:
        imu_times, imu_rates = np.zeros(0), np.zeros(0)
    return Cabin(
        session_id=f"cabin-{index:03d}",
        kind=kind,
        times=times,
        csi=synthesize_csi(phase, rng),
        yaw=yaw,
        imu_times=imu_times,
        imu_rates=imu_rates,
    )


def make_fleet(spec: FleetSpec, seed: int) -> FleetInputs:
    """Every input of one workload, deterministic in ``seed``."""
    cabins = tuple(make_cabin(spec, seed, k) for k in range(spec.cabins))
    return FleetInputs(cabins, profiling_captures(seed))
