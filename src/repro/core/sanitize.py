"""CSI phase sanitisation (Sec. 3.2).

Raw CSI phase from commodity hardware is useless: the CFO term ``beta(t)``
jumps packet-to-packet and the SFO term tilts the phase across
subcarriers.  Both are *common to all RX antennas* of one NIC, so the
phase difference between two RX antennas cancels them (Eq. 3):

    phi_hat_1 - phi_hat_2 = phi_1 - phi_2 + (Z_1 - Z_2)

Averaging that difference across subcarriers then suppresses the residual
thermal noise.  We do the average circularly (on unit phasors), which is
the numerically exact version of the paper's arithmetic mean and behaves
at the +-pi seam.  Finally the per-packet phases are unwrapped along time
into a continuous track, which is what windowing/resampling needs.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.phase import circular_mean
from repro.dsp.series import TimeSeries


def antenna_phase_difference(
    csi: np.ndarray, rx_a: int = 0, rx_b: int = 1
) -> np.ndarray:
    """Per-packet subcarrier-averaged phase difference between antennas.

    Args:
        csi: CSI matrices, shape ``(T, n_rx, F)``.
        rx_a, rx_b: which RX antennas to difference.

    Returns:
        Wrapped phases in ``(-pi, pi]``, shape ``(T,)``.

    :domain return: wrapped_rad
    :shape csi: (T, n_rx, F)
    :dtype csi: complex128
    :shape return: (T,)
    :dtype return: float64
    """
    csi = np.asarray(csi)
    if csi.ndim != 3:
        raise ValueError(f"csi must have shape (T, n_rx, F), got {csi.shape}")
    n_rx = csi.shape[1]
    if not (0 <= rx_a < n_rx and 0 <= rx_b < n_rx) or rx_a == rx_b:
        raise ValueError(
            f"need two distinct RX indices below {n_rx}, got {rx_a}, {rx_b}"
        )
    # angle(H_a * conj(H_b)) is the wrapped difference phi_a - phi_b,
    # computed without ever forming the individually-wrapped phases.  The
    # product goes into the conjugate's buffer in the order (a, b) at any
    # block size: ``a * np.conj(b)`` lets numpy reuse a large conjugate
    # temporary with the operands swapped, and under fused multiply-adds
    # ``a * b`` and ``b * a`` can differ in the last bit; a fresh output
    # array would cost a capture-sized allocation.
    cross = np.conj(csi[:, rx_b, :])
    np.multiply(csi[:, rx_a, :], cross, out=cross)
    per_subcarrier = np.angle(cross)
    return np.asarray(circular_mean(per_subcarrier, axis=1))


def sanitize_stream(
    times: np.ndarray,
    csi: np.ndarray,
    rx_a: int = 0,
    rx_b: int = 1,
    unwrap: bool = True,
) -> TimeSeries:
    """Turn a CSI capture into the tracker's phase series ``phi(t)``.

    With ``unwrap=True`` (default) the result is a continuous track,
    suitable for interpolation; wrap it back (``repro.dsp.phase.wrap_phase``)
    when a value in ``(-pi, pi]`` is needed.

    :shape times: (T,)
    :shape csi: (T, n_rx, F)
    :dtype csi: complex128
    """
    times = np.asarray(times, dtype=np.float64)
    phases = antenna_phase_difference(csi, rx_a, rx_b)
    if len(times) != len(phases):
        raise ValueError(
            f"got {len(times)} timestamps for {len(phases)} CSI snapshots"
        )
    if unwrap and len(phases) > 1:
        phases = np.unwrap(phases)
    return TimeSeries(times, phases)


def sanitize_streams(
    times: np.ndarray,
    csi: np.ndarray,
    rx_a: int = 0,
    rx_b: int = 1,
    unwrap: bool = True,
) -> list[TimeSeries]:
    """Batched :func:`sanitize_stream` over a stack of sessions.

    The fleet-serving hot path runs the same sanitisation on ``S``
    near-identical captures; stacking them turns ``S`` python dispatches
    into one numpy pass over a ``session x time x subcarrier`` tensor.

    Args:
        times: timestamps, shape ``(T,)`` (shared by every session) or
            ``(S, T)`` (one clock per session).
        csi: CSI matrices, shape ``(S, T, n_rx, F)``.

    Returns:
        One :class:`TimeSeries` per session, bit-identical to calling
        :func:`sanitize_stream` on each session alone: the subcarrier
        average reduces per packet row and the unwrap accumulates per
        session row, so stacking changes neither reduction order.

    :shape times: (T,) | (S, T)
    :shape csi: (S, T, n_rx, F)
    :dtype csi: complex128
    """
    csi = np.asarray(csi)
    if csi.ndim != 4:
        raise ValueError(f"csi must have shape (S, T, n_rx, F), got {csi.shape}")
    n_sessions, n_packets = csi.shape[0], csi.shape[1]
    times = np.asarray(times, dtype=np.float64)
    if times.ndim == 1:
        stamped = np.broadcast_to(times, (n_sessions, len(times)))
    elif times.ndim == 2:
        stamped = times
    else:
        raise ValueError(f"times must have shape (T,) or (S, T), got {times.shape}")
    if stamped.shape != (n_sessions, n_packets):
        raise ValueError(
            f"got timestamps of shape {times.shape} for {n_sessions} sessions "
            f"of {n_packets} CSI snapshots"
        )
    if n_sessions == 0:
        return []
    # One flattened (S*T, n_rx, F) pass: the subcarrier reduction is
    # per-row, so this is the scalar kernel's arithmetic exactly.
    flat = antenna_phase_difference(
        csi.reshape(n_sessions * n_packets, csi.shape[2], csi.shape[3]), rx_a, rx_b
    )
    phases = flat.reshape(n_sessions, n_packets)
    if unwrap and n_packets > 1:
        phases = np.unwrap(phases, axis=1)
    return [
        TimeSeries(np.array(stamped[s]), phases[s]) for s in range(n_sessions)
    ]
