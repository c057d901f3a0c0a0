"""The shared estimation engine under every ViHOT frontend.

``EstimationEngine`` owns the per-estimate decision chain (Fig. 4, right
half) as the ordered stages of :mod:`repro.core.stages`:

    position -> steering -> stability_fix -> stationary -> match
             -> forecast -> jump_filter -> emit        (+ hold off-chain)

The engine itself is stateless across estimates — everything mutable
lives in a :class:`SessionState` — so one engine (profile + matcher +
config) can serve many concurrent sessions of the same driver.  The
frontends differ only in how they feed the context:

* ``ViHOTTracker`` walks a whole logged capture (``track_stream``),
* ``OnlineTracker`` views its ring buffers and calls ``estimate_at``,
* ``FusedTracker`` runs ``track_stream`` and fuses camera frames on top.

One interpreter runs the chain.  :meth:`EstimationEngine.estimate_batch`
drives many sessions through it a stage wave at a time (batch-aware
stages stack their wave into one kernel call), and
:meth:`EstimationEngine.estimate_at` is the same interpreter on a wave
of one, so a sequential poll and a stacked group cannot disagree.

Every estimate the engine produces carries an
:class:`~repro.core.stages.EstimationTrace`: which stages ran, which
fired, how long each took, and the key quantities they saw.
``repro.core.diagnostics`` aggregates those traces into per-stage
counters and latency percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from collections.abc import Callable, Sequence

from repro.core.config import ViHOTConfig
from repro.core.matching import SeriesMatcher
from repro.core.position import PositionEstimator
from repro.core.profile import CsiProfile
from repro.core.stages import (
    CONFIDENT_MODES,
    EMIT,
    HOLD,
    PASS,
    RESOLVE,
    CameraLike,
    EmitStage,
    Estimate,
    EstimationContext,
    EstimationTrace,
    ForecastStage,
    HoldStage,
    JumpFilterStage,
    MatchStage,
    PositionStage,
    SanitizeStage,
    StabilityFixStage,
    Stage,
    StageDecision,
    StageTrace,
    StationaryStage,
    SteeringStage,
)
from repro.core.steering_id import SteeringIdentifier
from repro.dsp.series import TimeSeries
from repro.net.link import CsiStream


@dataclass(frozen=True)
class BatchItem:
    """One session's inputs to :meth:`EstimationEngine.estimate_batch`.

    Exactly what :meth:`EstimationEngine.estimate_at` takes, bundled so
    a fleet of sessions can be handed to the engine in one call.

    ``engine`` names the engine whose stage chain serves this item —
    sessions whose configs differ only in fields the batch-aware stages
    never read (the forecast horizon) can then share one wave while
    per-context stages still run with their own parameters.  ``None``
    means "the engine :meth:`~EstimationEngine.estimate_batch` was
    called on", which keeps direct construction backward compatible.

    The phase series carries ``(T,)`` float64 values; a stacked wave of
    ``S`` items therefore feeds the match stage an ``(S, m)`` query
    block (see :func:`repro.dsp.dtw.stacked_dtw_distance`).
    """

    phase: TimeSeries
    imu: TimeSeries | None
    t: float
    state: SessionState
    engine: EstimationEngine | None = None


@dataclass
class BatchResult:
    """One session's outcome from :meth:`EstimationEngine.estimate_batch`.

    Attributes:
        estimate: the estimate produced (``None`` when the chain formed
            none — same meaning as :meth:`estimate_at` returning None).
        error: the contained exception when this item's chain raised —
            the exception :meth:`estimate_at` re-raises for a one-item
            call, so callers apply the same fault handling either way.
            ``estimate`` is always ``None`` when set, and the session
            state was not advanced.
    """

    estimate: Estimate | None = None
    error: Exception | None = None


@dataclass
class SessionState:
    """One tracking session's mutable state.

    Attributes:
        position: the session's head-position estimator.
        previous: the last estimate issued (any mode).
        last_confident_time: when the last *confident* estimate (a CSI
            match or a camera fallback) was issued; the continuity
            window grows with the time since.
    """

    position: PositionEstimator
    previous: Estimate | None = None
    last_confident_time: float | None = None

    def observe(self, estimate: Estimate) -> None:
        """Fold a newly issued estimate into the session state."""
        self.previous = estimate
        if estimate.mode in CONFIDENT_MODES:
            self.last_confident_time = estimate.time


class EstimationEngine:
    """The stage-based per-estimate decision chain (Secs. 3.4-3.6)."""

    def __init__(
        self,
        profile: CsiProfile,
        config: ViHOTConfig | None = None,
        camera: CameraLike | None = None,
        wall_clock: Callable[[], float] = perf_counter,
        stages: Sequence[Stage] | None = None,
    ) -> None:
        """Args:
            profile: the driver's CSI profile from the profiling stage.
            config: run-time parameters.
            camera: optional object with ``estimate_at(t) -> float`` used
                as the steering fallback (Sec. 3.6.2); without one the
                engine holds the previous estimate through steering
                events.
            wall_clock: the clock behind the per-stage ``elapsed_ms``
                trace timing — injectable so estimate *values* stay a
                pure function of the stream (``vihot lint`` VH103).
            stages: an alternative decision chain (last stage terminal).
                ``None`` builds the paper's head-tracking chain; the
                workload registry (:mod:`repro.core.workloads`) passes
                localization / micro-motion chains here so every
                frontend and the serve layer stay workload-agnostic.
        """
        config = config if config is not None else ViHOTConfig()
        self._profile = profile
        self._config = config
        self._wall_clock = wall_clock
        self._camera = camera
        self._matcher = SeriesMatcher(profile, config)
        self._steering = SteeringIdentifier(
            rate_threshold=config.steering_rate_threshold
        )
        self._default_position = len(profile) // 2
        if stages is None:
            stages = (
                PositionStage(),
                SteeringStage(self._steering, camera, config),
                StabilityFixStage(),
                StationaryStage(config),
                MatchStage(self._matcher, config),
                ForecastStage(profile, config),
                JumpFilterStage(config),
                EmitStage(config),
            )
        self._stages: tuple[Stage, ...] = tuple(stages)
        self._hold = HoldStage(config)
        self._sanitizer = SanitizeStage()

    @property
    def config(self) -> ViHOTConfig:
        return self._config

    @property
    def profile(self) -> CsiProfile:
        return self._profile

    @property
    def camera(self) -> CameraLike | None:
        """The steering-fallback camera, if any.  Engines with the same
        profile object, equal config and no camera are interchangeable —
        the batch planner's grouping precondition."""
        return self._camera

    @property
    def stage_names(self) -> tuple[str, ...]:
        """The chain's stage names in execution order (``hold`` is the
        off-chain terminal every divert routes to)."""
        return tuple(stage.name for stage in self._stages)

    @property
    def hold_stage_name(self) -> str:
        return self._hold.name

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def new_session(self) -> SessionState:
        """Fresh per-session state (position estimator + continuity)."""
        return SessionState(
            position=PositionEstimator(
                self._profile,
                window_s=self._config.stable_window_s,
                std_threshold_rad=self._config.stable_std_rad,
            )
        )

    # ------------------------------------------------------------------
    # Estimation: one interpreter, a single estimate is a wave of one
    # ------------------------------------------------------------------
    def estimate_at(
        self,
        phase: TimeSeries,
        imu: TimeSeries | None,
        t: float,
        state: SessionState,
    ) -> Estimate | None:
        """Run the chain once at time ``t`` and update ``state``.

        The one-item case of :meth:`estimate_batch`: the same wave
        interpreter runs, and the item's contained error is re-raised.

        Args:
            phase: the sanitized phase history covering at least the
                stability and match windows ending at ``t``.
            imu: the phone gyro yaw-rate history (``None`` when IMU
                streaming is off).
            t: estimate time.
            state: the session's state; updated in place when an
                estimate is produced.

        Returns:
            The estimate (with its trace attached), or ``None`` when no
            estimate can be formed at ``t``.
        """
        (result,) = self._run_waves([BatchItem(phase, imu, t, state)])
        if result.error is not None:
            raise result.error
        return result.estimate

    def estimate_batch(self, items: Sequence[BatchItem]) -> list[BatchResult]:
        """Drive many sessions through the chain, one stage wave at a time.

        All contexts currently at the same stage are dispatched together
        through :meth:`Stage.run_batch`; batch-aware stages (sanitize,
        stationary, the DTW match) turn the wave into stacked kernel
        calls, the rest loop per context.  A wave of one runs
        :meth:`Stage.run` exactly as :meth:`estimate_at` does, and the
        batch-aware stages are pinned bit-identical to looping
        :meth:`Stage.run`, so the estimates equal calling
        :meth:`estimate_at` item by item (only trace *timings* differ: a
        stacked stage's elapsed wall time is split evenly across its
        wave, and timing is excluded from estimate equality).

        Error containment: a per-context stage exception becomes that
        item's :attr:`BatchResult.error` without touching its session
        state — the exception :meth:`estimate_at` would raise.  A
        stacked stage call failing maps its error to every context in
        the wave; that failure is systematic, because a batch-aware
        stage only ever sees contexts sharing profile, config and query
        shape (grouping is the serve-layer planner's contract).

        Heterogeneous items: an item carrying its own
        :attr:`BatchItem.engine` runs the per-context stages (and the
        hold terminal) through *that* engine, so sessions whose configs
        differ only in the forecast horizon share one wave without
        losing their own horizon.  Member engines must expose the same
        chain (equal :attr:`stage_names`) as this one, and batch-aware
        waves still dispatch through this engine's stage — legal because
        a batch-aware stage never reads the config fields grouping
        allows to differ (the planner's contract).
        """
        return self._run_waves(items)

    def _run_waves(self, items: Sequence[BatchItem]) -> list[BatchResult]:
        """The chain interpreter behind both public estimate calls.

        Stage indices only move forward (PASS: +1, RESOLVE: jump to
        emit), so one sweep over the chain visits every context at every
        stage it reaches; the contexts at one stage form its wave.  A
        HOLD runs the item's own hold terminal at once, and an EMIT (the
        hold's included) ends the chain.  Both public calls come here
        (rather than one calling the other) so that a tracer wrapping
        them sees one span per call.
        """
        clock = self._wall_clock
        n_stages = len(self._stages)
        engines = [self if item.engine is None else item.engine for item in items]
        ctxs = [
            EstimationContext(
                phase=item.phase,
                imu=item.imu,
                t=float(item.t),
                position=item.state.position,
                default_position=engine._default_position,
                previous=item.state.previous,
                last_confident_time=item.state.last_confident_time,
                horizon_s=engine._config.horizon_s,
            )
            for item, engine in zip(items, engines)
        ]
        results = [BatchResult() for _ in items]
        traces: list[list[StageTrace]] = [[] for _ in items]
        # Each context's next stage index; ``n_stages`` once finished.
        at = [0] * len(items)

        def step(i: int, si: int, stage: Stage) -> None:
            """Run one context through one stage; contain what it raises."""
            start = clock()
            try:
                decision = stage.run(ctxs[i])
            except Exception as exc:
                results[i].error = exc
                at[i] = n_stages
                return
            follow(i, si, stage, decision, (clock() - start) * 1e3)

        def follow(
            i: int, si: int, stage: Stage, decision: StageDecision, ms: float
        ) -> None:
            traces[i].append(StageTrace(stage.name, decision.fired, ms, decision.detail))
            if decision.action == PASS:
                at[i] = si + 1
            elif decision.action == RESOLVE:
                at[i] = n_stages - 1
            elif decision.action == HOLD:
                ctxs[i].hold_reason = stage.name
                step(i, si, engines[i]._hold)  # the hold terminal always emits
            else:
                assert decision.action == EMIT
                at[i] = n_stages
                estimate = decision.estimate
                if estimate is not None:
                    estimate = replace(
                        estimate, trace=EstimationTrace(tuple(traces[i]), stage.name)
                    )
                    items[i].state.observe(estimate)
                    results[i].estimate = estimate

        for si, stage in enumerate(self._stages):
            wave = [i for i, next_stage in enumerate(at) if next_stage == si]
            if stage.batch_aware and len(wave) > 1:
                start = clock()
                try:
                    decisions = stage.run_batch([ctxs[i] for i in wave])
                except Exception as exc:
                    for i in wave:
                        results[i].error = exc
                        at[i] = n_stages
                    continue
                ms = (clock() - start) * 1e3 / len(wave)
                for i, decision in zip(wave, decisions):
                    follow(i, si, stage, decision, ms)
            else:
                for i in wave:
                    step(i, si, engines[i]._stages[si])
        return results

    # ------------------------------------------------------------------
    # Whole-capture sessions (the batch frontends)
    # ------------------------------------------------------------------
    def _capture_context(self, stream: CsiStream) -> EstimationContext:
        """A context carrying a raw capture for the sanitize stage."""
        return EstimationContext(
            phase=TimeSeries.empty(),
            imu=stream.imu,
            t=0.0,
            position=self.new_session().position,
            default_position=self._default_position,
            horizon_s=self._config.horizon_s,
            raw_times=stream.times,
            raw_csi=stream.csi,
        )

    def _track_phase(
        self,
        phase: TimeSeries,
        imu: TimeSeries | None,
        estimate_stride_s: float,
        t_start: float | None,
    ) -> list[Estimate]:
        """The estimate loop shared by :meth:`track_stream` and
        :meth:`track_streams` (one code path, so the batched frontend
        cannot drift from the scalar one)."""
        if estimate_stride_s <= 0:
            raise ValueError("estimate_stride_s must be positive")
        config = self._config
        state = self.new_session()
        if t_start is None:
            t_start = phase.start + max(config.window_s, config.stable_window_s)
        estimates: list[Estimate] = []
        t = float(t_start)
        while t <= phase.end + 1e-9:
            estimate = self.estimate_at(phase, imu, t, state)
            if estimate is not None:
                estimates.append(estimate)
            t += estimate_stride_s
        return estimates

    def track_stream(
        self,
        stream: CsiStream,
        estimate_stride_s: float = 0.05,
        t_start: float | None = None,
    ) -> list[Estimate]:
        """Track a whole capture session through a fresh session state.

        Args:
            stream: the CSI capture (with its IMU side-channel, if any).
            estimate_stride_s: spacing between tracker outputs.
            t_start: first estimate time; defaults to one window plus one
                stability window after the capture start (Alg. 1 line 1's
                setup time).
        """
        ctx = self._capture_context(stream)
        self._sanitizer.run(ctx)
        return self._track_phase(ctx.phase, stream.imu, estimate_stride_s, t_start)

    def track_streams(
        self,
        streams: Sequence[CsiStream],
        estimate_stride_s: float = 0.05,
        t_start: float | None = None,
    ) -> list[list[Estimate]]:
        """Track many captures, sanitizing them in stacked kernel calls.

        Same-shape captures go through one
        :meth:`~repro.core.stages.SanitizeStage.run_batch` pass (the
        stacked ``sanitize_streams`` kernel); the per-capture estimate
        loop then runs exactly as :meth:`track_stream`'s, so the result
        is bit-identical to ``[self.track_stream(s) for s in streams]``.
        """
        ctxs = [self._capture_context(stream) for stream in streams]
        self._sanitizer.run_batch(ctxs)
        return [
            self._track_phase(ctx.phase, stream.imu, estimate_stride_s, t_start)
            for ctx, stream in zip(ctxs, streams)
        ]
