"""The run-time decision chain as explicit, ordered stages.

ViHOT's per-estimate logic (Sec. 3.4-3.6) is a short chain of decisions:
position fix -> steering check -> stationary rule -> DTW match ->
forecast -> jump filter.  This module gives each decision its own
``Stage`` so the chain is inspectable and observable: every stage records
a :class:`StageTrace` (did it fire, how long it took, which quantities it
saw), and the engine attaches the full :class:`EstimationTrace` to the
resulting :class:`Estimate`.  A deployment can therefore log *why* an
estimate came out the way it did — the same self-observability argument
in-vehicle CSI deployments make — instead of just its value.

Stage contract: :meth:`Stage.run` consumes an :class:`EstimationContext`
and returns a :class:`StageDecision` that either passes through to the
next stage, emits a final estimate, diverts to the hold path (re-issue
the previous estimate as ``"held"``), or resolves straight to the emit
stage.  :class:`repro.core.engine.EstimationEngine` owns the ordering.

Batch contract: :meth:`Stage.run_batch` consumes a list of contexts (one
per serving session) and returns one decision per context.  The default
is the per-context loop — bit-identical to sequential execution by
construction.  A stage that can genuinely stack the work across sessions
(the DTW match) overrides it and sets ``batch_aware = True``; any such
override must stay bit-identical to looping :meth:`run`, pinned by a
paired test (``vihot lint`` VH205).
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence
from typing import Protocol

from repro.core.config import ViHOTConfig
from repro.core.forecast import forecast_orientation
from repro.core.matching import MatchResult, SeriesMatcher
from repro.core.position import PositionEstimator
from repro.core.profile import CsiProfile
from repro.core.sanitize import sanitize_stream, sanitize_streams
from repro.core.steering_id import SteeringIdentifier
from repro.dsp.phase import phase_std, stacked_phase_std, wrap_phase
from repro.dsp.resample import resample_uniform
from repro.dsp.series import TimeSeries

#: Modes that count as "confident" — they refresh the continuity clock.
CONFIDENT_MODES = ("csi", "fallback")


class CameraLike(Protocol):
    """What the steering fallback needs from a camera tracker.

    Satisfied by :class:`repro.sensors.camera.CameraTracker` and by the
    stub trackers the tests inject.
    """

    def estimate_at(self, t: float) -> float:
        """Head yaw [rad] the camera believes at time ``t``."""
        ...


@dataclass(frozen=True)
class StageTrace:
    """One stage's record for one estimate.

    Attributes:
        stage: the stage's name.
        fired: whether the stage's condition triggered (a position fix
            exists, steering was detected, the window was flat, a match
            was found, the jump filter rejected, ...).
        elapsed_ms: wall time spent inside the stage.
        detail: key quantities the stage observed (flatness, continuity
            tolerance, winning DTW distance, smoothed steering rate, ...).
    """

    stage: str
    fired: bool
    elapsed_ms: float
    detail: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class EstimationTrace:
    """Per-stage provenance of one estimate.

    Attributes:
        stages: the :class:`StageTrace` of every stage that ran, in
            execution order (a prefix of the chain, plus ``hold`` when
            the estimate was a re-issue).
        terminal: name of the stage that produced the estimate.
    """

    stages: tuple[StageTrace, ...]
    terminal: str

    def stage(self, name: str) -> StageTrace | None:
        """The trace of stage ``name``, or ``None`` if it never ran."""
        for trace in self.stages:
            if trace.stage == name:
                return trace
        return None

    def fired(self, name: str) -> bool:
        """Whether stage ``name`` ran and fired."""
        trace = self.stage(name)
        return trace is not None and trace.fired

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(trace.stage for trace in self.stages)


@dataclass(frozen=True)
class Estimate:
    """One tracker output.

    Attributes:
        time: when the estimate was produced [s].
        target_time: the instant the orientation refers to (``time`` for
            tracking, ``time + horizon`` for forecasting).
        orientation: estimated head yaw [rad].
        mode: ``"csi"`` (DTW match or a facing-front stability fix),
            ``"stationary"`` (flat window — head not moving, previous
            estimate re-issued), ``"fallback"`` (camera), ``"held"``
            (jump-filtered or no data) or ``"init"`` (before the first
            position fix; matched against the default position).
        position_index: head-position index used for the match (-1 when
            not applicable).
        dtw_distance: winning DTW distance (NaN unless mode involves a
            match).
        trace: per-stage provenance (``None`` for estimates built
            outside the engine, e.g. in tests); excluded from equality
            so two estimates with the same payload still compare equal.

    Equality compares the payload with NaN equal to NaN, so a hold with
    no match equals its twin and its pickled copy (a fresh NaN is never
    equal to another); the hash follows the same rule.
    """

    time: float
    target_time: float
    orientation: float
    mode: str
    position_index: int = -1
    dtw_distance: float = float("nan")
    trace: EstimationTrace | None = field(
        default=None, repr=False, compare=False
    )

    def _payload(self) -> tuple[object, ...]:
        fields = (
            self.time,
            self.target_time,
            self.orientation,
            self.mode,
            self.position_index,
            self.dtw_distance,
        )
        return tuple(None if value != value else value for value in fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Estimate) or other.__class__ is not self.__class__:
            return NotImplemented
        return self._payload() == other._payload()

    def __hash__(self) -> int:
        return hash(self._payload())


@dataclass
class EstimationContext:
    """Everything one estimate consumes, plus the stages' scratch state.

    The first block is the frontend's input: the phase view, the IMU
    view, the clock ``t`` and the session state (position estimator,
    previous estimate, last confident time).  The second block is filled
    in by the stages as the chain advances.

    :shape raw_times: (T,)
    :shape raw_csi: (T, n_rx, F)
    :dtype raw_csi: complex128
    """

    phase: TimeSeries
    imu: TimeSeries | None
    t: float
    position: PositionEstimator
    default_position: int
    previous: Estimate | None = None
    last_confident_time: float | None = None

    #: The forecast horizon this estimate should carry [s].  Set by the
    #: engine from the *owning session's* config: a batched group mixes
    #: forecast and plain sessions (the planner's group key normalizes
    #: ``horizon_s``), and a batch-aware stage runs on the group
    #: leader's instance — reading ``self._config.horizon_s`` there
    #: would stamp the leader's horizon on every session's estimate.
    #: ``None`` means "use the stage's own config" (contexts built
    #: outside the engine, e.g. directly in tests).
    horizon_s: float | None = None

    # Filled in by the stages.
    position_index: int = -1
    regime: str = "csi"  # "csi" once a position fix exists, else "init"
    match: MatchResult | None = None
    orientation: float = float("nan")
    hold_reason: str = ""

    # Optional raw CSI capture.  Whole-capture frontends attach the raw
    # packet arrays here and let :class:`SanitizeStage` turn them into
    # ``phase``; online frontends sanitize at ingest and leave these None.
    raw_times: np.ndarray | None = None
    raw_csi: np.ndarray | None = None


#: StageDecision actions.
PASS = "pass"  # continue with the next stage
EMIT = "emit"  # terminal: the decision's estimate is the outcome
HOLD = "hold"  # divert to the hold stage (re-issue previous as "held")
RESOLVE = "resolve"  # skip ahead to the emit stage


@dataclass(frozen=True)
class StageDecision:
    """What one stage decided, plus its observability payload."""

    action: str
    estimate: Estimate | None = None
    fired: bool = False
    detail: dict[str, object] = field(default_factory=dict)

    @staticmethod
    def passthrough(fired: bool = False, **detail: object) -> StageDecision:
        return StageDecision(PASS, fired=fired, detail=detail)

    @staticmethod
    def emit(
        estimate: Estimate | None, fired: bool = True, **detail: object
    ) -> StageDecision:
        return StageDecision(EMIT, estimate=estimate, fired=fired, detail=detail)

    @staticmethod
    def hold(fired: bool = True, **detail: object) -> StageDecision:
        return StageDecision(HOLD, fired=fired, detail=detail)

    @staticmethod
    def resolve(fired: bool = True, **detail: object) -> StageDecision:
        return StageDecision(RESOLVE, fired=fired, detail=detail)


class Stage:
    """Base class: one named step of the decision chain."""

    name = "stage"

    #: True when :meth:`run_batch` is a genuinely stacked implementation
    #: rather than the default per-context loop.  The engine uses this to
    #: decide whether a batched dispatch buys anything (and how to
    #: contain a batch-call failure).
    batch_aware = False

    def run(self, ctx: EstimationContext) -> StageDecision:
        raise NotImplementedError

    def run_batch(
        self, contexts: Sequence[EstimationContext]
    ) -> list[StageDecision]:
        """Run the stage for many sessions' contexts in one call.

        Default: the per-context loop, bit-identical to sequential
        execution by construction.  Batch-aware overrides must preserve
        that bit-identity (pinned by a paired test, VH205).
        """
        return [self.run(ctx) for ctx in contexts]


class SanitizeStage(Stage):
    """Turn a raw CSI capture into the context's phase series (Sec. 3.2).

    The online frontends sanitize incrementally at ingest, so their
    contexts arrive with ``phase`` already filled and ``raw_times`` /
    ``raw_csi`` unset — this stage passes them through untouched.
    Whole-capture frontends attach the raw packet arrays instead, and
    this stage runs the antenna-phase-difference sanitization
    (:func:`repro.core.sanitize.sanitize_stream`) to produce ``phase``.

    Batch-aware: captures sharing one shape are stacked through
    :func:`repro.core.sanitize.sanitize_streams` — a single numpy pass
    over the ``session x time x rx x subcarrier`` tensor — and ragged
    shapes fall back to the per-context loop.  Bit-identical to looping
    :meth:`run` (pinned by ``tests/core/test_sanitize_stage.py``,
    ``vihot lint`` VH205).
    """

    name = "sanitize"
    batch_aware = True

    def run(self, ctx: EstimationContext) -> StageDecision:
        if ctx.raw_times is None or ctx.raw_csi is None:
            return StageDecision.passthrough(fired=False)
        ctx.phase = sanitize_stream(ctx.raw_times, ctx.raw_csi)
        return StageDecision.passthrough(fired=True, samples=len(ctx.phase))

    def run_batch(
        self, contexts: Sequence[EstimationContext]
    ) -> list[StageDecision]:
        """Sanitize many captures in stacked kernel calls.

        Groups contexts by raw-capture shape (stacking needs rectangular
        arrays); each same-shape group becomes one
        :func:`sanitize_streams` call.  Singleton groups and contexts
        with no raw capture take the scalar path verbatim.
        """
        decisions: list[StageDecision | None] = [None] * len(contexts)
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, ctx in enumerate(contexts):
            if ctx.raw_times is None or ctx.raw_csi is None:
                decisions[i] = StageDecision.passthrough(fired=False)
                continue
            shape = tuple(np.shape(ctx.raw_times)) + tuple(np.shape(ctx.raw_csi))
            groups.setdefault(shape, []).append(i)
        for slots in groups.values():
            if len(slots) == 1:
                decisions[slots[0]] = self.run(contexts[slots[0]])
                continue
            times = np.stack([np.asarray(contexts[i].raw_times) for i in slots])
            csi = np.stack([np.asarray(contexts[i].raw_csi) for i in slots])
            for i, series in zip(slots, sanitize_streams(times, csi)):
                contexts[i].phase = series
                decisions[i] = StageDecision.passthrough(
                    fired=True, samples=len(series)
                )
        return [d for d in decisions if d is not None]


class PositionStage(Stage):
    """Keep the head-position estimate fresh (Sec. 3.4.1).

    Never terminal: it updates the position estimator from the phase
    history and records the tracking regime — ``"csi"`` once any fix
    exists this session, ``"init"`` (default position) before that.
    Every later stage that labels an estimate reads the regime from the
    context, so the init/csi distinction propagates consistently.
    """

    name = "position"

    def run(self, ctx: EstimationContext) -> StageDecision:
        index = ctx.position.update(ctx.phase, ctx.t)
        if index is None:
            ctx.position_index = ctx.default_position
            ctx.regime = "init"
            return StageDecision.passthrough(
                fired=False, position_index=ctx.position_index, regime="init"
            )
        ctx.position_index = index
        ctx.regime = "csi"
        fix_age = (
            ctx.t - ctx.position.last_fix_time
            if ctx.position.last_fix_time is not None
            else float("nan")
        )
        return StageDecision.passthrough(
            fired=True, position_index=index, regime="csi", fix_age_s=fix_age
        )


class SteeringStage(Stage):
    """Distrust CSI while the car is turning (Sec. 3.6.2).

    Fires when the smoothed car yaw rate says the CSI variation is
    steering-borne: emits the camera fallback when one is available,
    otherwise diverts to the hold path.
    """

    name = "steering"

    def __init__(
        self,
        identifier: SteeringIdentifier,
        camera: CameraLike | None,
        config: ViHOTConfig,
    ) -> None:
        self._identifier = identifier
        self._camera = camera
        self._config = config

    def run(self, ctx: EstimationContext) -> StageDecision:
        if ctx.imu is None:
            return StageDecision.passthrough(fired=False)
        rate = self._identifier.smoothed_rate(ctx.imu, ctx.t)
        if not self._identifier.is_steering(ctx.imu, ctx.t):
            return StageDecision.passthrough(fired=False, smoothed_rate=rate)
        if self._camera is not None:
            yaw = float(self._camera.estimate_at(ctx.t))
            return StageDecision.emit(
                Estimate(
                    ctx.t, ctx.t + self._config.horizon_s, yaw, "fallback"
                ),
                smoothed_rate=rate,
            )
        return StageDecision.hold(smoothed_rate=rate)


class StabilityFixStage(Stage):
    """Pin the orientation to 0 during a *current* stability fix.

    Sec. 3.4.1: stable phase <=> driver facing front.  When the position
    estimator saw a stable interval ending exactly now, the orientation
    is 0 degrees by assumption — no match needed.  Resolves straight to
    the emit stage so the estimate carries the context's regime (the
    fix itself implies a position exists, so this is ``"csi"``; the
    regime is propagated rather than hardcoded so the label can never
    disagree with the position stage).
    """

    name = "stability_fix"

    def run(self, ctx: EstimationContext) -> StageDecision:
        fix_time = ctx.position.last_fix_time
        if fix_time is not None and fix_time == ctx.t:
            ctx.orientation = 0.0
            return StageDecision.resolve(orientation=0.0)
        return StageDecision.passthrough(fired=False)


class StationaryStage(Stage):
    """Re-issue the previous estimate through flat windows.

    A flat-but-short window means the head is not moving; a shape-less
    window would make DTW pick an arbitrary equal-phase profile sample
    (see :class:`ViHOTConfig`), so the previous estimate is re-issued
    instead.

    Batch-aware: windows sharing one length are stacked through
    :func:`repro.dsp.phase.stacked_phase_std` — one complex-exponential
    pass over the ``session x sample`` matrix instead of one per
    session.  Bit-identical to looping :meth:`run` (pinned by
    ``tests/core/test_stationary_stage.py``, ``vihot lint`` VH205).
    """

    name = "stationary"
    batch_aware = True

    def __init__(self, config: ViHOTConfig) -> None:
        self._config = config

    def _decide(
        self, ctx: EstimationContext, flatness: float, samples: int
    ) -> StageDecision:
        """Turn a computed flatness into the stage's decision.

        Shared verbatim by :meth:`run` and :meth:`run_batch` so the
        batched path cannot drift from the sequential reference.
        """
        config = self._config
        if flatness < config.stationary_std_rad:
            horizon = (
                ctx.horizon_s if ctx.horizon_s is not None else config.horizon_s
            )
            return StageDecision.emit(
                Estimate(
                    ctx.t,
                    ctx.t + horizon,
                    ctx.previous.orientation,
                    "stationary",
                    ctx.position_index,
                ),
                flatness=flatness,
                samples=samples,
            )
        return StageDecision.passthrough(
            fired=False, flatness=flatness, samples=samples
        )

    def run(self, ctx: EstimationContext) -> StageDecision:
        config = self._config
        window = ctx.phase.slice(ctx.t - config.window_s, ctx.t)
        if ctx.previous is None or len(window) < 5:
            return StageDecision.passthrough(fired=False, samples=len(window))
        flatness = phase_std(wrap_phase(np.asarray(window.values)))
        return self._decide(ctx, flatness, len(window))

    def run_batch(
        self, contexts: Sequence[EstimationContext]
    ) -> list[StageDecision]:
        """Flatness for many sessions in stacked circular-std calls.

        Groups contexts by window length (stacking needs a rectangular
        matrix); each same-length group becomes one
        :func:`stacked_phase_std` call.  Contexts with no previous
        estimate or a too-short window pass through exactly as in
        :meth:`run`, and singleton groups take the scalar path verbatim.
        """
        config = self._config
        decisions: list[StageDecision | None] = [None] * len(contexts)
        groups: dict[int, list[int]] = {}
        wrapped: dict[int, np.ndarray] = {}
        for i, ctx in enumerate(contexts):
            window = ctx.phase.slice(ctx.t - config.window_s, ctx.t)
            if ctx.previous is None or len(window) < 5:
                decisions[i] = StageDecision.passthrough(
                    fired=False, samples=len(window)
                )
                continue
            wrapped[i] = np.asarray(wrap_phase(np.asarray(window.values)))
            groups.setdefault(len(window), []).append(i)
        for length, slots in groups.items():
            if len(slots) == 1:
                i = slots[0]
                flatness = phase_std(wrapped[i])
                decisions[i] = self._decide(contexts[i], flatness, length)
                continue
            stacked = np.stack([wrapped[i] for i in slots])
            for i, row_std in zip(slots, stacked_phase_std(stacked)):
                decisions[i] = self._decide(contexts[i], float(row_std), length)
        return [d for d in decisions if d is not None]


class MatchStage(Stage):
    """Run Alg. 1 on the window ending at ``t`` (Secs. 3.4.3-3.4.5).

    Resamples the window onto the uniform grid, derives the continuity
    window around the previous estimate (growing with the time since the
    last *confident* estimate: stationary/held estimates re-issue an old
    value, and meanwhile the head may have kept moving), and matches.
    No usable window or no match diverts to the hold path.
    """

    name = "match"
    batch_aware = True

    def __init__(self, matcher: SeriesMatcher, config: ViHOTConfig) -> None:
        self._matcher = matcher
        self._config = config

    def _prepare(
        self, ctx: EstimationContext
    ) -> StageDecision | tuple[np.ndarray, float | None, float]:
        """The pre-match work: window, resample, continuity tolerance.

        Returns an early hold decision when no usable window exists,
        else the matcher inputs ``(query, center, tolerance)``.  Shared
        verbatim by :meth:`run` and :meth:`run_batch` so the batched
        path cannot drift from the sequential reference.
        """
        config = self._config
        t = ctx.t
        window = ctx.phase.slice(t - config.window_s, t)
        if len(window) < 2 or window.duration < 0.5 * config.window_s:
            return StageDecision.hold(fired=False, samples=len(window))
        uniform = resample_uniform(window, config.resample_rate_hz)
        query = wrap_phase(np.asarray(uniform.values))
        if len(query) < 2:
            return StageDecision.hold(fired=False, samples=len(query))
        center = None
        tolerance = float("inf")
        if ctx.previous is not None and ctx.previous.mode != "init":
            since = (
                ctx.last_confident_time
                if ctx.last_confident_time is not None
                else ctx.previous.time
            )
            dt = max(t - since, 0.0)
            center = ctx.previous.orientation
            tolerance = config.max_head_rate * dt + config.continuity_margin
        return query, center, tolerance

    def _decide(
        self,
        ctx: EstimationContext,
        match: MatchResult | None,
        tolerance: float,
    ) -> StageDecision:
        if match is None:
            return StageDecision.hold(fired=False, tolerance_rad=tolerance)
        ctx.match = match
        return StageDecision.passthrough(
            fired=True,
            tolerance_rad=tolerance,
            distance=match.distance,
            position_index=match.position_index,
            length=match.length,
            speed_ratio=match.speed_ratio,
        )

    def run(self, ctx: EstimationContext) -> StageDecision:
        prepared = self._prepare(ctx)
        if isinstance(prepared, StageDecision):
            return prepared
        query, center, tolerance = prepared
        match = self._matcher.match(query, ctx.position_index, center, tolerance)
        return self._decide(ctx, match, tolerance)

    def run_batch(
        self, contexts: Sequence[EstimationContext]
    ) -> list[StageDecision]:
        """All sessions' matches in one stacked DTW pass.

        Contexts with no usable window hold exactly as in :meth:`run`;
        the rest go through :meth:`SeriesMatcher.match_many`, which
        stacks same-shape queries into one anti-diagonal DP per
        candidate length.  Bit-identical to looping :meth:`run` (pinned
        by ``tests/core/test_engine_batching.py``).
        """
        decisions: list[StageDecision | None] = [None] * len(contexts)
        slots: list[int] = []
        queries: list[np.ndarray] = []
        positions: list[int] = []
        centers: list[float | None] = []
        tolerances: list[float] = []
        for i, ctx in enumerate(contexts):
            prepared = self._prepare(ctx)
            if isinstance(prepared, StageDecision):
                decisions[i] = prepared
                continue
            query, center, tolerance = prepared
            slots.append(i)
            queries.append(query)
            positions.append(ctx.position_index)
            centers.append(center)
            tolerances.append(tolerance)
        if slots:
            matches = self._matcher.match_many(
                queries, positions, centers, tolerances
            )
            for slot, match, tolerance in zip(slots, matches, tolerances):
                decisions[slot] = self._decide(contexts[slot], match, tolerance)
        return [d for d in decisions if d is not None]


class ForecastStage(Stage):
    """Read the orientation off the match — now, or ``horizon_s`` ahead.

    With a zero horizon the match end's orientation *is* the estimate;
    with a nonzero horizon Eq. (6) steps forward through the profile's
    own future (fires only in that case).
    """

    name = "forecast"

    def __init__(self, profile: CsiProfile, config: ViHOTConfig) -> None:
        self._profile = profile
        self._config = config

    def run(self, ctx: EstimationContext) -> StageDecision:
        if self._config.horizon_s > 0:
            ctx.orientation = forecast_orientation(
                self._profile, ctx.match, self._config.horizon_s
            )
            return StageDecision.passthrough(
                fired=True,
                orientation=ctx.orientation,
                horizon_s=self._config.horizon_s,
            )
        ctx.orientation = ctx.match.orientation
        return StageDecision.passthrough(fired=False, orientation=ctx.orientation)


class JumpFilterStage(Stage):
    """Reject estimates implying an impossible head speed (Sec. 3.6).

    Fires (diverting to hold) when the matched orientation implies a
    head yaw rate above ``max_head_rate`` relative to the previous
    trusted estimate.  Only applies when tracking (zero horizon).
    """

    name = "jump_filter"

    def __init__(self, config: ViHOTConfig) -> None:
        self._config = config

    def run(self, ctx: EstimationContext) -> StageDecision:
        config = self._config
        if (
            config.horizon_s == 0
            and ctx.previous is not None
            and ctx.previous.mode in ("csi", "held", "fallback")
        ):
            dt = ctx.t - ctx.previous.time
            if dt > 0:
                implied_rate = abs(ctx.orientation - ctx.previous.orientation) / dt
                if implied_rate > config.max_head_rate:
                    return StageDecision.hold(implied_rate=implied_rate)
                return StageDecision.passthrough(
                    fired=False, implied_rate=implied_rate
                )
        return StageDecision.passthrough(fired=False)


class EmitStage(Stage):
    """Terminal: package the chain's outcome as an :class:`Estimate`.

    The mode is the context's regime (``"csi"`` / ``"init"``), so the
    init/default-position distinction set by the position stage reaches
    the output no matter which path led here (match or stability fix).
    """

    name = "emit"

    def __init__(self, config: ViHOTConfig) -> None:
        self._config = config

    def run(self, ctx: EstimationContext) -> StageDecision:
        if ctx.match is not None:
            return StageDecision.emit(
                Estimate(
                    ctx.t,
                    ctx.t + self._config.horizon_s,
                    ctx.orientation,
                    ctx.regime,
                    ctx.match.position_index,
                    ctx.match.distance,
                ),
                mode=ctx.regime,
            )
        return StageDecision.emit(
            Estimate(
                ctx.t,
                ctx.t + self._config.horizon_s,
                ctx.orientation,
                ctx.regime,
                ctx.position_index,
            ),
            mode=ctx.regime,
        )


class HoldStage(Stage):
    """Terminal for the hold path: re-issue the previous estimate.

    Any stage can divert here (steering without a camera, no usable
    match window, jump filter).  With no previous estimate there is
    nothing to re-issue and the tick produces no estimate at all.  A
    jump-filtered hold keeps the rejected match's position index and
    DTW distance so diagnostics can still see the residual.
    """

    name = "hold"

    def __init__(self, config: ViHOTConfig) -> None:
        self._config = config

    def run(self, ctx: EstimationContext) -> StageDecision:
        if ctx.previous is None:
            return StageDecision.emit(None, fired=False, reason=ctx.hold_reason)
        position_index = ctx.match.position_index if ctx.match is not None else -1
        distance = ctx.match.distance if ctx.match is not None else float("nan")
        return StageDecision.emit(
            Estimate(
                ctx.t,
                ctx.t + self._config.horizon_s,
                ctx.previous.orientation,
                "held",
                position_index,
                distance,
            ),
            reason=ctx.hold_reason,
        )
