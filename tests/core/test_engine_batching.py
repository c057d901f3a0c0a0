"""Batched engine execution: a stacked wave equals waves of one.

``EstimationEngine.estimate_at`` is the engine's one chain interpreter
run on a single item, so calling it per session is a wave of one at
every stage.  ``estimate_batch`` over a whole fleet — where the
batch-aware stages stack their waves, ``MatchStage.run_batch`` and
``SeriesMatcher.match_many`` included — must produce bit-identical
estimates and identical session-state evolution for any fleet of
sessions sharing an engine.  The interpreter's own decision handling is
pinned separately, with scripted stages, in ``tests/core/test_engine.py``.
"""

import numpy as np
import pytest

from repro.core import ViHOTConfig
from repro.core.engine import BatchItem, EstimationEngine
from repro.core.matching import SeriesMatcher
from repro.core.sanitize import sanitize_stream
from repro.core.stages import MatchStage, Stage, StageDecision
from repro.experiments.scenarios import Scenario, ScenarioConfig


@pytest.fixture(scope="module")
def fleet_world():
    """One profile plus several runtime captures (one per 'car')."""
    scenario = Scenario(
        ScenarioConfig(
            seed=19,
            num_positions=4,
            profile_seconds=5.0,
            runtime_duration_s=6.0,
        )
    )
    profile = scenario.build_profile()
    streams = [scenario.runtime_capture(k)[0] for k in range(5)]
    return profile, streams


def _phase_views(streams):
    return [sanitize_stream(s.times, s.csi) for s in streams]


def _run_sequential(engine, phases, streams, t_grid):
    states = [engine.new_session() for _ in phases]
    outputs = []
    for t in t_grid:
        row = []
        for phase, stream, state in zip(phases, streams, states):
            row.append(engine.estimate_at(phase, stream.imu, t, state))
        outputs.append(row)
    return outputs, states


def _run_batched(engine, phases, streams, t_grid):
    states = [engine.new_session() for _ in phases]
    outputs = []
    for t in t_grid:
        items = [
            BatchItem(phase, stream.imu, t, state)
            for phase, stream, state in zip(phases, streams, states)
        ]
        results = engine.estimate_batch(items)
        assert all(r.error is None for r in results)
        outputs.append([r.estimate for r in results])
    return outputs, states


def _t_grid(config, phases):
    start = max(p.start for p in phases) + max(
        config.window_s, config.stable_window_s
    )
    end = min(p.end for p in phases)
    return np.arange(start, end, 0.2)


def test_estimate_batch_bit_identical_to_sequential(fleet_world):
    """The headline pin: batched fleet execution is bit-identical to the
    per-session sequential chain, estimate by estimate."""
    profile, streams = fleet_world
    config = ViHOTConfig(profile_stride=6, num_length_candidates=3)
    phases = _phase_views(streams)
    t_grid = _t_grid(config, phases)
    assert len(t_grid) > 10

    seq_engine = EstimationEngine(profile, config)
    bat_engine = EstimationEngine(profile, config)
    seq, seq_states = _run_sequential(seq_engine, phases, streams, t_grid)
    bat, bat_states = _run_batched(bat_engine, phases, streams, t_grid)

    produced = 0
    for seq_row, bat_row in zip(seq, bat):
        for a, b in zip(seq_row, bat_row):
            assert a == b  # Estimate equality excludes trace timing
            if a is not None:
                produced += 1
                assert a.trace is not None and b.trace is not None
                assert a.trace.stage_names == b.trace.stage_names
                assert a.trace.terminal == b.trace.terminal
    assert produced > 20
    for s_state, b_state in zip(seq_states, bat_states):
        assert s_state.previous == b_state.previous
        assert s_state.last_confident_time == b_state.last_confident_time


def test_estimate_batch_with_imu_bit_identical(fleet_world):
    """Steering/hold paths (IMU present) batch bit-identically too."""
    profile, streams = fleet_world
    config = ViHOTConfig(profile_stride=6, num_length_candidates=3)
    with_imu = [s for s in streams if s.imu is not None] or streams
    phases = _phase_views(with_imu)
    t_grid = _t_grid(config, phases)

    seq, _ = _run_sequential(EstimationEngine(profile, config), phases, with_imu, t_grid)
    bat, _ = _run_batched(EstimationEngine(profile, config), phases, with_imu, t_grid)
    for seq_row, bat_row in zip(seq, bat):
        assert seq_row == bat_row


def test_match_stage_run_batch_bit_identical(fleet_world):
    """MatchStage.run_batch == looping MatchStage.run — the VH205 pin for
    the batch-aware match stage: bit-identical decisions and context
    mutations against the scalar stage."""
    profile, streams = fleet_world
    config = ViHOTConfig(profile_stride=6, num_length_candidates=3)
    engine = EstimationEngine(profile, config)
    phases = _phase_views(streams)
    t_grid = _t_grid(config, phases)

    stage = MatchStage(SeriesMatcher(profile, config), config)
    assert stage.batch_aware

    from repro.core.stages import EstimationContext

    def contexts_at(t):
        ctxs = []
        for phase, stream in zip(phases, streams):
            state = engine.new_session()
            ctx = EstimationContext(
                phase=phase,
                imu=stream.imu,
                t=float(t),
                position=state.position,
                default_position=len(profile) // 2,
            )
            ctx.position_index = len(profile) // 2
            ctxs.append(ctx)
        return ctxs

    checked = 0
    for t in t_grid[:: max(1, len(t_grid) // 5)]:
        seq_ctxs = contexts_at(t)
        bat_ctxs = contexts_at(t)
        seq_decisions = [stage.run(ctx) for ctx in seq_ctxs]
        bat_decisions = stage.run_batch(bat_ctxs)
        assert bat_decisions == seq_decisions
        for a, b in zip(seq_ctxs, bat_ctxs):
            assert a.match == b.match
        checked += sum(d.action == "pass" for d in seq_decisions)
    assert checked > 0


def test_match_many_bit_identical_to_match(fleet_world):
    """SeriesMatcher.match_many == SeriesMatcher.match per query, across
    mixed lengths, positions and continuity priors."""
    profile, _ = fleet_world
    config = ViHOTConfig(profile_stride=6, num_length_candidates=3)
    matcher = SeriesMatcher(profile, config)
    rng = np.random.default_rng(5)

    queries, positions, centers, tolerances = [], [], [], []
    for k in range(8):
        length = int(rng.choice([40, 40, 64, 80]))
        queries.append(rng.uniform(-np.pi, np.pi, length))
        positions.append(int(rng.integers(0, len(profile))))
        if k % 3 == 0:
            centers.append(None)
            tolerances.append(float("inf"))
        else:
            centers.append(float(rng.uniform(-0.5, 0.5)))
            tolerances.append(float(rng.uniform(0.3, 1.5)))

    batched = matcher.match_many(queries, positions, centers, tolerances)
    for i in range(len(queries)):
        single = matcher.match(queries[i], positions[i], centers[i], tolerances[i])
        assert batched[i] == single


def test_match_many_validation(fleet_world):
    profile, _ = fleet_world
    matcher = SeriesMatcher(profile, ViHOTConfig())
    with pytest.raises(ValueError):
        matcher.match_many([np.zeros(3)], [len(profile) + 1])
    with pytest.raises(ValueError):
        matcher.match_many([np.zeros(1)], [0])
    with pytest.raises(ValueError):
        matcher.match_many([np.zeros(3)], [0, 1])
    assert matcher.match_many([], []) == []


def test_default_run_batch_is_the_loop(fleet_world):
    """A stage without an override loops run() per context."""

    class CountingStage(Stage):
        name = "counting"

        def __init__(self):
            self.calls = 0

        def run(self, ctx):
            self.calls += 1
            return StageDecision.passthrough(fired=True, n=self.calls)

    stage = CountingStage()
    assert not stage.batch_aware
    decisions = stage.run_batch([object(), object(), object()])
    assert stage.calls == 3
    assert [d.detail["n"] for d in decisions] == [1, 2, 3]


def test_estimate_batch_contains_per_context_errors(fleet_world):
    """A poisoned context errors alone; healthy wave members still get
    their estimates, and the errored session's state is untouched."""
    profile, streams = fleet_world
    config = ViHOTConfig(profile_stride=6, num_length_candidates=3)
    engine = EstimationEngine(profile, config)
    phases = _phase_views(streams[:3])
    t_grid = _t_grid(config, phases)
    t = float(t_grid[len(t_grid) // 2])

    states = [engine.new_session() for _ in phases]

    class ExplodingPosition:
        def update(self, phase, t):
            raise RuntimeError("sensor gone")

        last_fix_time = None

    bad_state = engine.new_session()
    bad_state.position = ExplodingPosition()

    items = [
        BatchItem(phases[0], streams[0].imu, t, states[0]),
        BatchItem(phases[1], streams[1].imu, t, bad_state),
        BatchItem(phases[2], streams[2].imu, t, states[2]),
    ]
    results = engine.estimate_batch(items)
    assert results[1].error is not None
    assert isinstance(results[1].error, RuntimeError)
    assert results[1].estimate is None
    assert bad_state.previous is None
    assert results[0].error is None and results[2].error is None
    reference = engine.estimate_at(phases[0], streams[0].imu, t, engine.new_session())
    assert results[0].estimate == reference
