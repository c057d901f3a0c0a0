"""DTW series matching — Algorithm 1 of the paper (Secs. 3.4.3-3.4.5).

The instantaneous phase cannot be inverted to an orientation (the mapping
is non-injective), so ViHOT matches the whole windowed phase series
``Phi_r = {phi_r(t') : t' in [t - W, t]}`` against the profile series
``Phi*_c`` and reads the orientation off the best match's end point:

1. enumerate candidate match lengths ``L_n in [0.5 W, 2 W]`` (the head may
   have turned faster or slower than during profiling);
2. for each length, DTW-match ``Phi_r`` against every profile segment of
   that length (vectorised in one ``stacked_dtw_distance`` call, which
   also stacks the same-shape windows of a fleet; one window is a stack
   of one);
3. take the globally best segment ``Phi*_m``; its last sample's
   ground-truth orientation is the estimate, and ``L_m / W`` is the
   profiling-to-runtime speed ratio the forecaster reuses (Sec. 3.4.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
import math

import numpy as np

from repro.core.config import ViHOTConfig
from repro.core.profile import CsiProfile
from repro.dsp.dtw import stacked_dtw_distance
from repro.dsp.phase import wrap_phase
from repro.dsp.windows import sliding_windows


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one window match.

    Attributes:
        orientation: estimated head yaw [rad] (``Theta*_m``'s last sample).
        distance: normalised DTW distance of the winning segment.
        position_index: which profiled position the match came from.
        start_index: offset of ``Phi*_m`` in that position's series.
        length: match length ``L_m`` [samples].
        speed_ratio: ``L_m / W`` — profiling-time over run-time speed.
    """

    orientation: float
    distance: float
    position_index: int
    start_index: int
    length: int
    speed_ratio: float

    @property
    def end_index(self) -> int:
        """Index of the match's final sample in the profile series."""
        return self.start_index + self.length - 1


class SeriesMatcher:
    """Matches CSI input windows against a driver's profile."""

    def __init__(
        self, profile: CsiProfile, config: ViHOTConfig | None = None
    ) -> None:
        if len(profile) == 0:
            raise ValueError("cannot match against an empty profile")
        self._profile = profile
        self._config = config if config is not None else ViHOTConfig()

    @property
    def config(self) -> ViHOTConfig:
        return self._config

    def _wrapped_query(self, query: np.ndarray) -> np.ndarray:
        """``query`` as wrapped float64 phases, validated.

        :domain query: rad
        :domain return: wrapped_rad
        :shape query: (m,)
        :shape return: (m,)
        """
        wrapped = wrap_phase(np.asarray(query, dtype=np.float64))
        if wrapped.ndim != 1 or len(wrapped) < 2:
            raise ValueError("query must be a 1-D array with >= 2 samples")
        return wrapped

    def _check_position(self, position_index: int) -> None:
        if not 0 <= position_index < len(self._profile):
            raise ValueError(
                f"position_index {position_index} out of range "
                f"[0, {len(self._profile)})"
            )

    def _match_group(
        self,
        queries: np.ndarray,
        position_index: int,
        centers: Sequence[float | None],
        tolerances: Sequence[float],
    ) -> list[MatchResult]:
        """Alg. 1 for ``S`` same-length queries at one estimated position.

        Every neighbour position and candidate length costs one
        :func:`stacked_dtw_distance` call over the whole group; the
        selection then runs per query: the first lowest distance over
        positions, lengths and offsets (in that order) wins, a query
        with a continuity prior keeps the best feasible candidate, and
        the unconstrained winner replaces that one when its distance is
        below ``config.escape_ratio`` times the feasible distance.  A
        single query is a group of one.

        :domain queries: wrapped_rad
        :domain centers: rad
        :domain tolerances: rad
        :shape queries: (S, m)
        """
        config = self._config
        n_stack, m = queries.shape
        # Long windows are decimated (query and candidates alike) so DTW
        # cost stays bounded; the matched time span is unchanged.
        decimation = max(1, -(-m // config.max_query_samples))
        decimated = queries[:, ::decimation]
        best_global: list[MatchResult | None] = [None] * n_stack
        best_feasible: list[MatchResult | None] = [None] * n_stack
        lo = max(0, position_index - config.neighbor_positions)
        hi = min(len(self._profile), position_index + config.neighbor_positions + 1)
        for index in range(lo, hi):
            position = self._profile[index]
            for length in config.candidate_lengths():
                if length > len(position.phases):
                    continue
                candidates = sliding_windows(
                    position.phases, int(length), config.profile_stride
                )
                ends = (
                    np.arange(len(candidates)) * config.profile_stride + int(length) - 1
                )
                distances = stacked_dtw_distance(
                    decimated,
                    candidates[:, ::decimation],
                    band=config.dtw_band,
                    metric="circular",
                )
                orientations = position.orientations[ends]
                for s, row in enumerate(distances):
                    # The unconstrained and the continuity-feasible
                    # winners share one selection rule.
                    selections = [(best_global, row)]
                    center = centers[s]
                    if center is not None:
                        feasible = np.abs(orientations - center) <= tolerances[s]
                        if np.any(feasible):
                            selections.append(
                                (best_feasible, np.where(feasible, row, np.inf))
                            )
                    for best, scored in selections:
                        k = int(np.argmin(scored))
                        current = best[s]
                        if current is None or scored[k] < current.distance:
                            best[s] = MatchResult(
                                orientation=float(orientations[k]),
                                distance=float(row[k]),
                                position_index=index,
                                start_index=int(ends[k]) - int(length) + 1,
                                length=int(length),
                                speed_ratio=float(length) / m,
                            )
        results: list[MatchResult] = []
        for found, feasible_found in zip(best_global, best_feasible):
            if found is None:
                raise ValueError(
                    "every profiled position is shorter than every candidate "
                    "match length"
                )
            if (
                feasible_found is None
                or found.distance < config.escape_ratio * feasible_found.distance
            ):
                results.append(found)
            else:
                results.append(feasible_found)
        return results

    def match(
        self,
        query: np.ndarray,
        position_index: int,
        center_orientation: float | None = None,
        tolerance_rad: float = math.inf,
    ) -> MatchResult:
        """Match a resampled, wrapped phase window (Alg. 1).

        Args:
            query: the CSI input window on the uniform grid, wrapped
                phases, shape ``(W_samples,)``.
            position_index: the estimated head position ``i*``; with
                ``config.neighbor_positions > 0`` adjacent positions
                compete too and the lowest DTW distance wins.
            center_orientation: optional continuity prior — candidates
                ending within ``tolerance_rad`` of this yaw are
                preferred.  The head moves continuously, so the tracker
                passes its previous estimate here; this is the
                search-space form of the paper's jump filter, resolving
                same-phase-different-orientation ambiguity instead of
                merely rejecting its fallout.  To avoid locking onto a
                wrong branch forever, the unconstrained global best wins
                whenever its distance beats the best feasible candidate
                by more than ``config.escape_ratio``.

        :domain query: rad
        :domain center_orientation: rad
        :domain tolerance_rad: rad
        :shape query: (m,)
        """
        wrapped = self._wrapped_query(query)
        self._check_position(position_index)
        return self._match_group(
            wrapped[None, :], position_index, [center_orientation], [tolerance_rad]
        )[0]

    def match_many(
        self,
        queries: Sequence[np.ndarray],
        position_indices: Sequence[int],
        centers: Sequence[float | None] | None = None,
        tolerances: Sequence[float] | None = None,
    ) -> list[MatchResult]:
        """Batched :meth:`match` over many sessions' windows (Alg. 1 × S).

        Queries are grouped by ``(length, position_index)`` and each
        group is matched in one pass, one stacked DTW call per neighbour
        position and candidate length — the fleet-batching win.  The
        selection stays per query, so entry ``i`` is bit-identical to
        ``match(queries[i], position_indices[i], centers[i],
        tolerances[i])``.

        Validation errors raise exactly as :meth:`match` would.  Within
        a group an exception is systematic (all members share the
        profile, config and query shape), so callers may attribute a
        raised error to every query of the batch.

        :domain queries: rad
        :domain centers: rad
        :domain tolerances: rad
        """
        n = len(queries)
        if centers is None:
            centers = [None] * n
        if tolerances is None:
            tolerances = [math.inf] * n
        if not (len(position_indices) == len(centers) == len(tolerances) == n):
            raise ValueError(
                "queries, position_indices, centers and tolerances must "
                "have equal lengths"
            )
        wrapped = [self._wrapped_query(query) for query in queries]
        for position_index in position_indices:
            self._check_position(position_index)
        groups: dict[tuple[int, int], list[int]] = {}
        for i in range(n):
            key = (len(wrapped[i]), int(position_indices[i]))
            groups.setdefault(key, []).append(i)
        results: dict[int, MatchResult] = {}
        for (_, position_index), members in groups.items():
            matched = self._match_group(
                np.stack([wrapped[i] for i in members]),
                position_index,
                [centers[i] for i in members],
                [tolerances[i] for i in members],
            )
            results.update(zip(members, matched))
        return [results[i] for i in range(n)]
