"""The runtime shape/dtype contract cross-check.

Static VH5xx rules trust the ``:shape``/``:dtype`` markers; these tests
pin the other half of the bargain: the wrappers installed by
``repro.analysis.runtime_contracts`` observe real kernel traffic, fail
on divergence, and change nothing about the values that flow through.
"""

import numpy as np
import pytest

from repro.analysis import runtime_contracts as rc
from repro.dsp import dtw as dtw_module
from repro.dsp.dtw import batched_dtw_distance, stacked_dtw_distance
from repro.dsp.phase import unwrap_phase
from repro.dsp.windows import sliding_windows


@pytest.fixture()
def contract_slate():
    """Exclusive control of activation for one test.

    The suite may itself be running under ``--runtime-contracts``
    (session-wide wrappers); these tests manage activation by hand, so
    start from a deactivated slate and restore whatever was in place.
    """
    was_active = rc.active()
    rc.deactivate()
    rc.clear_records()
    try:
        yield rc
    finally:
        rc.deactivate()
        rc.clear_records()
        if was_active:
            rc.activate()


@pytest.fixture()
def contracts(contract_slate):
    """Contracts active for one test, restored afterwards no matter what."""
    contract_slate.activate()
    return contract_slate


def test_activate_is_idempotent_and_deactivate_restores(contract_slate):
    original = dtw_module.batched_dtw_distance
    assert rc.activate() == len(rc.CONTRACT_BOUNDARIES)
    assert rc.activate() == len(rc.CONTRACT_BOUNDARIES)  # no double-wrap
    assert rc.active()
    patched = dtw_module.batched_dtw_distance
    assert patched is not original
    assert getattr(patched, "__vihot_contract__", None) is not None
    rc.deactivate()
    assert not rc.active()
    assert dtw_module.batched_dtw_distance is original


def test_every_boundary_parses_and_declares_something():
    for boundary in rc.CONTRACT_BOUNDARIES:
        contract = rc._parse_contract(boundary)
        assert contract.shapes or contract.dtypes or contract.shape_return


def test_observed_kernel_traffic_is_recorded(contracts):
    bank = sliding_windows(np.linspace(0.0, 1.0, 32), 8, 2)
    distances = batched_dtw_distance(np.zeros(8), bank)
    assert distances.shape == (len(bank),)
    counts = rc.summary()
    assert counts["repro.dsp.windows.sliding_windows"] == 1
    assert counts["repro.dsp.dtw.batched_dtw_distance"] == 1
    record = next(
        r for r in rc.records() if r.boundary.endswith("sliding_windows")
    )
    bound = dict(record.bindings)
    assert bound["T"] == 32
    assert bound["B"] == len(bank)
    assert bound["L"] == 8


def test_symbol_bindings_are_consistent_within_one_call(contracts):
    queries = np.zeros((3, 8))
    bank = sliding_windows(np.linspace(0.0, 1.0, 32), 8, 2)
    stacked = np.stack([bank] * 3)
    distances = stacked_dtw_distance(queries, stacked)
    record = next(
        r for r in rc.records() if r.boundary.endswith("stacked_dtw_distance")
    )
    bound = dict(record.bindings)
    assert bound["S"] == 3 and bound["B"] == len(bank) and bound["L"] == 8
    assert distances.shape == (3, len(bank))


def test_kernel_validation_errors_propagate_unchecked(contracts):
    # The kernel's own loud error wins; contracts judge only calls the
    # kernel accepted.
    with pytest.raises(ValueError):
        unwrap_phase(np.zeros((3, 4)))
    assert not any(
        r.boundary.endswith("unwrap_phase") for r in rc.records()
    )


def _lying_kernel(queries, candidates):
    """A kernel whose return shape breaks its own declaration.

    :shape queries: (S, m)
    :shape candidates: (B, L) | (S, B, L)
    :shape return: (S, B)
    :dtype return: float64
    """
    return np.zeros((queries.shape[0] + 1, candidates.shape[0]))


def test_divergent_return_shape_raises(contract_slate, monkeypatch):
    monkeypatch.setattr(
        rc,
        "CONTRACT_BOUNDARIES",
        (f"{__name__}._lying_kernel",),
    )
    rc.activate()
    lying = rc._ACTIVE[0]
    wrapped = getattr(__import__(__name__, fromlist=["x"]), "_lying_kernel")
    assert getattr(wrapped, "__vihot_contract__", None) is lying
    with pytest.raises(rc.ContractViolation, match="return"):
        wrapped(np.zeros((2, 5)), np.zeros((4, 9)))


def _mismatched_axes_kernel(queries, candidates):
    """A kernel declaration the caller below cannot satisfy.

    :shape queries: (S, m)
    :shape candidates: (S, B, L)
    """
    return float(queries.shape[0] + candidates.shape[0])


def test_inconsistent_symbol_binding_raises(contract_slate, monkeypatch):
    monkeypatch.setattr(
        rc,
        "CONTRACT_BOUNDARIES",
        (f"{__name__}._mismatched_axes_kernel",),
    )
    rc.activate()
    wrapped = getattr(
        __import__(__name__, fromlist=["x"]), "_mismatched_axes_kernel"
    )
    # S binds to 2 via queries, then candidates leads with 3.
    with pytest.raises(rc.ContractViolation, match="candidates"):
        wrapped(np.zeros((2, 5)), np.zeros((3, 4, 9)))
    # Consistent S passes.
    wrapped(np.zeros((2, 5)), np.zeros((2, 4, 9)))


def test_tracker_output_is_bit_identical_under_contracts(
    contract_slate, small_scenario, small_profile
):
    from repro.experiments.runner import run_tracking_session

    plain = run_tracking_session(small_scenario, small_profile)
    rc.activate()
    checked = run_tracking_session(small_scenario, small_profile)
    assert rc.summary(), "the tracker crossed no annotated boundary"
    assert np.array_equal(
        plain.tracking.orientations, checked.tracking.orientations
    )
    assert np.array_equal(
        plain.tracking.target_times, checked.tracking.target_times
    )


@pytest.mark.parametrize(
    "scenario_name", ["t0-calm-commute", "t2-downtown-interference"]
)
def test_flagship_scenarios_pass_under_contracts(contract_slate, scenario_name):
    """The ISSUE acceptance runs: T0 and T2 flagship traffic crosses the
    annotated boundaries with zero contract violations."""
    from repro.scenarios import get_scenario, run_scenario

    rc.activate()
    result = run_scenario(get_scenario(scenario_name))
    assert result.unhandled == 0
    assert result.all_healthy
    counts = rc.summary()
    assert counts, "scenario traffic crossed no annotated boundary"
    assert any("dtw" in boundary for boundary in counts)
