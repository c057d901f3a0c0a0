"""Sanitiser tests — the CFO/SFO cancellation of Sec. 3.2."""

import numpy as np
import pytest

from repro.core.sanitize import (
    antenna_phase_difference,
    sanitize_stream,
    sanitize_streams,
)
from repro.rf.impairments import HardwareImpairments, ImpairmentConfig
from repro.rf.spectrum import Spectrum


def make_clean_csi(phase_diff_rad, num_packets=40, spectrum=None):
    """CSI where antenna 0 leads antenna 1 by a known phase."""
    spectrum = spectrum or Spectrum()
    base = np.exp(1j * np.linspace(0, 1, spectrum.num_subcarriers))
    csi = np.empty((num_packets, 2, spectrum.num_subcarriers), dtype=complex)
    csi[:, 1, :] = base
    csi[:, 0, :] = base * np.exp(1j * phase_diff_rad)
    return csi


def test_recovers_known_difference():
    csi = make_clean_csi(0.7)
    phases = antenna_phase_difference(csi)
    np.testing.assert_allclose(phases, 0.7, atol=1e-9)


def test_difference_sign_convention():
    csi = make_clean_csi(-0.4)
    phases = antenna_phase_difference(csi)
    np.testing.assert_allclose(phases, -0.4, atol=1e-9)


def test_cancels_cfo_and_sfo():
    """The headline property: impairments common to both antennas vanish."""
    spectrum = Spectrum()
    csi = make_clean_csi(0.5, num_packets=200, spectrum=spectrum)
    imp = HardwareImpairments(
        spectrum,
        ImpairmentConfig(snr_db=200.0),  # isolate CFO/SFO
        rng=np.random.default_rng(0),
    )
    noisy = imp.apply(csi, np.linspace(0, 2, 200))
    # Raw per-antenna phase is garbage...
    raw = np.angle(noisy[:, 0, 0])
    assert np.std(np.diff(raw)) > 0.1
    # ...but the antenna difference is still exactly 0.5.
    phases = antenna_phase_difference(noisy)
    np.testing.assert_allclose(phases, 0.5, atol=1e-3)


def test_subcarrier_averaging_reduces_thermal_noise():
    spectrum = Spectrum()
    csi = make_clean_csi(0.3, num_packets=500, spectrum=spectrum)
    imp = HardwareImpairments(
        spectrum,
        ImpairmentConfig(cfo_step_rad=0, cfo_jitter_rad=0, sfo_delay_std_s=0, snr_db=20.0),
        rng=np.random.default_rng(1),
    )
    noisy = imp.apply(csi, np.linspace(0, 2, 500))
    averaged = antenna_phase_difference(noisy)
    single = np.angle(noisy[:, 0, 0] * np.conj(noisy[:, 1, 0]))
    assert np.std(averaged) < 0.5 * np.std(single)


def test_antenna_selection():
    csi = make_clean_csi(0.2)
    swapped = antenna_phase_difference(csi, rx_a=1, rx_b=0)
    np.testing.assert_allclose(swapped, -0.2, atol=1e-9)
    with pytest.raises(ValueError):
        antenna_phase_difference(csi, rx_a=0, rx_b=0)
    with pytest.raises(ValueError):
        antenna_phase_difference(csi, rx_a=0, rx_b=5)


def test_sanitize_stream_unwraps():
    # A phase ramping past pi must come out continuous.
    num = 100
    spectrum = Spectrum()
    ramp = np.linspace(0, 3 * np.pi, num)
    base = np.exp(1j * np.linspace(0, 1, spectrum.num_subcarriers))
    csi = np.empty((num, 2, spectrum.num_subcarriers), dtype=complex)
    csi[:, 1, :] = base
    csi[:, 0, :] = base * np.exp(1j * ramp)[:, None]
    series = sanitize_stream(np.linspace(0, 1, num), csi)
    np.testing.assert_allclose(np.asarray(series.values), ramp, atol=1e-6)


def test_sanitize_stream_length_mismatch():
    csi = make_clean_csi(0.1, num_packets=5)
    with pytest.raises(ValueError):
        sanitize_stream(np.zeros(4), csi)


def test_shape_validation():
    with pytest.raises(ValueError):
        antenna_phase_difference(np.zeros((3, 30), dtype=complex))


def test_long_capture_phases_equal_per_packet_bits():
    """A capture's phase of a packet does not depend on how many packets
    share the call: 1,100 packets (a product far past numpy's in-place
    temporary size) equal one call per packet, bit for bit."""
    rng = np.random.default_rng(23)
    shape = (1100, 2, Spectrum().num_subcarriers)
    csi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    per_packet = np.array([antenna_phase_difference(packet[None])[0] for packet in csi])
    series = sanitize_stream(np.linspace(0.0, 5.5, len(csi)), csi, unwrap=False)
    np.testing.assert_array_equal(np.asarray(series.values), per_packet)


# ----------------------------------------------------------------------
# Batched sanitiser: bit-identity to the scalar kernel
# ----------------------------------------------------------------------
def _random_fleet_csi(rng, n_sessions=7, num_packets=60, spectrum=None):
    spectrum = spectrum or Spectrum()
    shape = (n_sessions, num_packets, 3, spectrum.num_subcarriers)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("unwrap", [True, False])
def test_sanitize_streams_bit_identical_to_loop(unwrap):
    rng = np.random.default_rng(21)
    csi = _random_fleet_csi(rng)
    times = np.linspace(0.0, 1.5, csi.shape[1])
    got = sanitize_streams(times, csi, rx_a=0, rx_b=2, unwrap=unwrap)
    assert len(got) == csi.shape[0]
    for s, series in enumerate(got):
        want = sanitize_stream(times, csi[s], rx_a=0, rx_b=2, unwrap=unwrap)
        np.testing.assert_array_equal(
            np.asarray(series.values), np.asarray(want.values)
        )
        np.testing.assert_array_equal(
            np.asarray(series.times), np.asarray(want.times)
        )


def test_sanitize_streams_per_session_clocks():
    rng = np.random.default_rng(22)
    csi = _random_fleet_csi(rng, n_sessions=4, num_packets=30)
    clocks = np.cumsum(rng.uniform(0.01, 0.05, (4, 30)), axis=1)
    got = sanitize_streams(clocks, csi)
    for s, series in enumerate(got):
        want = sanitize_stream(clocks[s], csi[s])
        np.testing.assert_array_equal(
            np.asarray(series.values), np.asarray(want.values)
        )
        np.testing.assert_array_equal(
            np.asarray(series.times), np.asarray(want.times)
        )


def test_sanitize_streams_single_packet_no_unwrap():
    rng = np.random.default_rng(23)
    csi = _random_fleet_csi(rng, n_sessions=3, num_packets=1)
    got = sanitize_streams(np.array([0.0]), csi)
    for s, series in enumerate(got):
        want = sanitize_stream(np.array([0.0]), csi[s])
        np.testing.assert_array_equal(
            np.asarray(series.values), np.asarray(want.values)
        )


def test_sanitize_streams_validation():
    with pytest.raises(ValueError):
        sanitize_streams(np.zeros(5), np.zeros((5, 2, 30), dtype=complex))
    with pytest.raises(ValueError):
        sanitize_streams(np.zeros(4), np.zeros((2, 5, 2, 30), dtype=complex))
    with pytest.raises(ValueError):
        sanitize_streams(
            np.zeros((3, 5)), np.zeros((2, 5, 2, 30), dtype=complex)
        )
    assert sanitize_streams(np.zeros(5), np.zeros((0, 5, 2, 30), dtype=complex)) == []


def test_sanitize_preserves_float64_end_to_end():
    """The declared dtype contract: complex128 CSI in, float64 phases
    out, at every sanitisation boundary (pinned for VH503)."""
    rng = np.random.default_rng(47)
    csi = (
        rng.normal(size=(20, 2, 4)) + 1j * rng.normal(size=(20, 2, 4))
    ).astype(np.complex128)
    times = np.linspace(0.0, 1.0, 20)

    diff = antenna_phase_difference(csi)
    assert diff.dtype == np.float64

    series = sanitize_stream(times, csi)
    assert np.asarray(series.times).dtype == np.float64
    assert np.asarray(series.values).dtype == np.float64

    stacked = sanitize_streams(times, csi[None, ...].repeat(3, axis=0))
    for one in stacked:
        assert np.asarray(one.times).dtype == np.float64
        assert np.asarray(one.values).dtype == np.float64
