"""Estimate equality holds for held estimates, whose distance is NaN."""

import pickle

from repro.core import ViHOTConfig
from repro.core.stages import Estimate, EstimationContext, HoldStage
from repro.serve.loadgen import estimates_identical


def _held(t=2.0):
    """A no-match hold: the previous estimate re-issued, distance NaN."""
    ctx = EstimationContext(
        phase=None,
        imu=None,
        t=t,
        position=None,  # the hold stage never touches the estimator
        default_position=0,
        previous=Estimate(t - 0.1, t - 0.1, 0.3, "csi", 1, 0.25),
    )
    estimate = HoldStage(ViHOTConfig()).run(ctx).estimate
    assert estimate.mode == "held" and estimate.dtw_distance != estimate.dtw_distance
    return estimate


def test_two_held_no_match_estimates_compare_equal():
    a, b = _held(), _held()
    assert a == b
    assert hash(a) == hash(b)
    assert estimates_identical(a, b)


def test_held_estimate_equals_its_pickle_round_trip():
    held = _held()
    copy = pickle.loads(pickle.dumps(held))
    assert copy == held
    assert hash(copy) == hash(held)
    assert estimates_identical(copy, held)


def test_payload_differences_still_break_equality():
    held = _held()
    assert held != _held(t=3.0)
    assert held != Estimate(held.time, held.target_time, held.orientation, "held", -1, 0.5)
    assert held != Estimate(held.time, held.target_time, held.orientation, "csi")
    assert not estimates_identical(held, None)
    assert estimates_identical(None, None)
