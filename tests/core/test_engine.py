"""Estimation-engine tests: stage order, traces, terminal-stage mapping,
and the chain interpreter itself under scripted stages."""

import numpy as np
import pytest

from repro.core import ViHOTConfig, ViHOTTracker, diagnose
from repro.core.engine import BatchItem, EstimationEngine
from repro.core.stages import EMIT, HOLD, PASS, RESOLVE, Estimate, Stage, StageDecision
from repro.dsp.series import TimeSeries

#: The decision chain's canonical order (Secs. 3.4-3.6).
CHAIN = (
    "position",
    "steering",
    "stability_fix",
    "stationary",
    "match",
    "forecast",
    "jump_filter",
    "emit",
)

#: Every mode maps to exactly one terminal stage.
MODE_TERMINAL = {
    "csi": "emit",
    "init": "emit",
    "stationary": "stationary",
    "fallback": "steering",
    "held": "hold",
}


@pytest.fixture(scope="module")
def tracked(small_profile, runtime_stream):
    stream, scene = runtime_stream
    result = ViHOTTracker(small_profile, ViHOTConfig()).process(
        stream, estimate_stride_s=0.1
    )
    assert len(result) > 30
    return result, stream


def test_stage_order_is_pinned(small_profile):
    engine = EstimationEngine(small_profile)
    assert engine.stage_names == CHAIN
    assert engine.hold_stage_name == "hold"


def test_every_estimate_carries_a_trace(tracked):
    result, _stream = tracked
    for estimate in result.estimates:
        assert estimate.trace is not None
        assert len(estimate.trace.stages) >= 1
        assert all(t.elapsed_ms >= 0.0 for t in estimate.trace.stages)


def test_traces_follow_chain_order(tracked):
    """Each trace's stage sequence is an in-order subsequence of the chain
    (plus the off-chain hold terminal), starting at the position stage."""
    result, _stream = tracked
    order = {name: k for k, name in enumerate(CHAIN)}
    for estimate in result.estimates:
        names = estimate.trace.stage_names
        assert names[0] == "position"
        on_chain = [n for n in names if n != "hold"]
        indices = [order[n] for n in on_chain]
        assert indices == sorted(indices)
        if "hold" in names:
            assert names[-1] == "hold"


def test_mode_maps_to_exactly_one_terminal_stage(tracked):
    result, _stream = tracked
    for estimate in result.estimates:
        assert estimate.trace.terminal == MODE_TERMINAL[estimate.mode]
        # The terminal stage is the last one that ran.
        assert estimate.trace.stage_names[-1] == estimate.trace.terminal


def test_emitted_mode_is_the_position_stage_regime(tracked):
    """The init/csi regime decided by the position stage propagates to the
    output mode for every emit-terminal estimate — including stability
    fixes, which used to hardcode "csi"."""
    result, _stream = tracked
    for estimate in result.estimates:
        if estimate.trace.terminal != "emit":
            continue
        position = estimate.trace.stage("position")
        assert estimate.mode == position.detail["regime"]


def test_stability_fix_resolves_through_emit(tracked):
    result, _stream = tracked
    fixed = [e for e in result.estimates if e.trace.fired("stability_fix")]
    assert fixed, "session never hit a facing-front stability fix"
    for estimate in fixed:
        assert estimate.trace.terminal == "emit"
        assert estimate.orientation == 0.0
        # The fix skips the stationary/match stages entirely.
        assert estimate.trace.stage("match") is None


def test_match_detail_records_key_quantities(tracked):
    result, _stream = tracked
    matched = [
        e
        for e in result.estimates
        if e.trace.stage("match") is not None and e.trace.fired("match")
    ]
    assert matched
    for estimate in matched:
        detail = estimate.trace.stage("match").detail
        assert np.isfinite(detail["distance"])
        assert detail["tolerance_rad"] > 0.0
    # Emit-terminal matches surface the winning distance on the estimate.
    for estimate in matched:
        if estimate.trace.terminal == "emit":
            assert estimate.dtw_distance == estimate.trace.stage("match").detail["distance"]


def test_batch_tracker_is_engine_track_stream(small_profile, runtime_stream):
    """ViHOTTracker.process is a thin wrapper — outputs are bit-identical."""
    stream, _scene = runtime_stream
    via_tracker = ViHOTTracker(small_profile).process(stream, estimate_stride_s=0.1)
    via_engine = EstimationEngine(small_profile).track_stream(
        stream, estimate_stride_s=0.1
    )
    assert len(via_tracker) == len(via_engine)
    np.testing.assert_array_equal(
        via_tracker.orientations, np.array([e.orientation for e in via_engine])
    )
    assert via_tracker.modes == [e.mode for e in via_engine]


def test_forecast_stage_fires_only_with_horizon(small_profile, runtime_stream):
    stream, _scene = runtime_stream
    result = ViHOTTracker(small_profile, ViHOTConfig(horizon_s=0.2)).process(
        stream, estimate_stride_s=0.25
    )
    forecasted = [e for e in result.estimates if e.trace.stage("forecast") is not None]
    assert forecasted
    assert all(e.trace.fired("forecast") for e in forecasted)
    # With a horizon, the jump filter never fires (it only guards tracking).
    assert not any(e.trace.fired("jump_filter") for e in result.estimates)


def test_diagnose_reports_stage_stats(tracked):
    result, stream = tracked
    health = diagnose(result, stream)
    names = [stats.stage for stats in health.stage_stats]
    assert names[0] == "position"
    assert set(names) <= set(CHAIN) | {"hold"}

    position = health.stage("position")
    assert position.evaluated == len(result)
    assert position.terminal == 0
    for stats in health.stage_stats:
        assert stats.p50_ms <= stats.p90_ms
        assert stats.fired <= stats.evaluated
        assert str(stats)

    # Terminal counts partition the session's estimates.
    assert sum(s.terminal for s in health.stage_stats) == len(result)
    assert health.stage_report()


def test_manual_estimates_have_no_stage_stats():
    from repro.core.tracker import Estimate, TrackingResult

    result = TrackingResult([Estimate(0.0, 0.0, 0.1, "csi")])
    health = diagnose(result)
    assert health.stage_stats == ()
    assert health.stage("position") is None
    assert health.stage_report() == ""


# ----------------------------------------------------------------------
# The chain interpreter, pinned with scripted stages
# ----------------------------------------------------------------------
RAISE = "raise"


class ScriptedStage(Stage):
    """A stage whose action at each estimate time is scripted."""

    def __init__(self, name, script, default=PASS):
        self.name = name
        self.script = script
        self.default = default

    def run(self, ctx):
        action = self.script.get(ctx.t, self.default)
        if action == RAISE:
            raise ValueError(f"{self.name} failed at t={ctx.t}")
        if action == EMIT:
            return StageDecision.emit(Estimate(ctx.t, ctx.t, ctx.t / 10, "csi"))
        return StageDecision(action, fired=action != PASS, detail={"t": ctx.t})


#: Estimate time -> (the one scripted action, whether the session has a
#: previous estimate, the trace's stage names, its terminal stage).
#: ``None`` names mean no estimate; a ``RAISE`` case has none either.
SCRIPTS = {
    1.0: ({}, True, ("a", "b", "c", "emit"), "emit"),  # PASS through to emit
    2.0: ({"a": RESOLVE}, True, ("a", "emit"), "emit"),  # RESOLVE skips b, c
    3.0: ({"b": HOLD}, True, ("a", "b", "hold"), "hold"),  # re-issue previous
    4.0: ({"b": HOLD}, False, None, None),  # nothing to re-issue
    5.0: ({"b": EMIT}, True, ("a", "b"), "b"),  # EMIT from a middle stage
    6.0: ({"b": RAISE}, True, None, None),  # the stage raises
}


def _scripted_engine(profile):
    def script(name):
        return {t: acts[name] for t, (acts, *_rest) in SCRIPTS.items() if name in acts}

    stages = [ScriptedStage(name, script(name)) for name in ("a", "b", "c")]
    stages.append(ScriptedStage("emit", script("emit"), default=EMIT))
    return EstimationEngine(profile, ViHOTConfig(), stages=stages)


def _session(engine, t):
    state = engine.new_session()
    if SCRIPTS[t][1]:
        state.previous = Estimate(t - 0.1, t - 0.1, 0.5, "csi")
        state.last_confident_time = t - 0.1
    return state


def _payload(e):
    if e is None:
        return None
    return (e.time, e.target_time, e.orientation, e.mode, e.position_index, e.dtw_distance)


def _check_outcome(t, estimate, state, previous, confident):
    _acts, _has_previous, names, terminal = SCRIPTS[t]
    if names is None:
        assert estimate is None
        assert state.previous is previous
        assert state.last_confident_time == confident
        return
    assert estimate.trace.stage_names == names
    assert estimate.trace.terminal == terminal
    assert all(stage.elapsed_ms >= 0.0 for stage in estimate.trace.stages)
    assert state.previous is estimate
    if terminal == "hold":
        assert estimate.mode == "held"
        assert estimate.orientation == previous.orientation
        assert state.last_confident_time == confident  # "held" is not confident
    else:
        assert estimate.orientation == t / 10
        assert state.last_confident_time == t


@pytest.mark.parametrize("t", sorted(SCRIPTS))
def test_estimate_at_follows_each_scripted_decision(small_profile, t):
    engine = _scripted_engine(small_profile)
    state = _session(engine, t)
    previous, confident = state.previous, state.last_confident_time
    if SCRIPTS[t][0].get("b") == RAISE:
        with pytest.raises(ValueError, match=r"^b failed at t=6\.0$"):
            engine.estimate_at(TimeSeries.empty(), None, t, state)
        assert state.previous is previous
        assert state.last_confident_time == confident
        return
    estimate = engine.estimate_at(TimeSeries.empty(), None, t, state)
    _check_outcome(t, estimate, state, previous, confident)


def test_one_mixed_wave_follows_every_scripted_decision(small_profile):
    """Every case at once through ``estimate_batch``: each item ends
    exactly as its own ``estimate_at`` call does, and the raising item's
    error is contained in its result alone."""
    engine = _scripted_engine(small_profile)
    times = sorted(SCRIPTS)
    states = [_session(engine, t) for t in times]
    before = [(s.previous, s.last_confident_time) for s in states]
    items = [BatchItem(TimeSeries.empty(), None, t, s) for t, s in zip(times, states)]
    results = engine.estimate_batch(items)
    assert len(results) == len(times)
    for t, result, state, (previous, confident) in zip(times, results, states, before):
        if SCRIPTS[t][0].get("b") == RAISE:
            assert isinstance(result.error, ValueError)
            assert str(result.error) == "b failed at t=6.0"
            assert result.estimate is None
            assert state.previous is previous
            assert state.last_confident_time == confident
            continue
        assert result.error is None
        _check_outcome(t, result.estimate, state, previous, confident)
        reference = engine.estimate_at(TimeSeries.empty(), None, t, _session(engine, t))
        # assert_equal: a held estimate's NaN distance equals itself here.
        np.testing.assert_equal(_payload(result.estimate), _payload(reference))
