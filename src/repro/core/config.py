"""ViHOT configuration.

Defaults mirror the paper's evaluation defaults (Sec. 5.1): a 100 ms CSI
input window, a 0 ms prediction horizon, DTW length search over
[0.5 W, 2 W], and profile matching against the single estimated head
position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import constants


@dataclass(frozen=True)
class ViHOTConfig:
    """Tunable parameters of the run-time tracker.

    Attributes:
        window_s: CSI input window length ``W`` (Sec. 5.2.3 sweeps this).
        resample_rate_hz: uniform grid rate both the input window and the
            profile are resampled to before DTW (Sec. 3.4.3 Step 1).
        num_length_candidates: how many candidate match lengths ``L_n``
            to enumerate within ``length_range`` (Alg. 1 line 3).
        length_range: match-length search range as multiples of ``W``
            (the paper uses [0.5, 2]).
        profile_stride: stride, in profile samples, between candidate
            segment offsets (Alg. 1 line 5 checks every offset; a stride
            of a few samples is an accuracy-neutral speedup at 200 Hz).
        max_query_samples: before DTW, decimate the query (and the
            candidate segments, by the same factor) so the query has at
            most this many samples.  Bounds the DTW cost for large
            windows (Sec. 5.2.3 sweeps W up to 300 ms) without changing
            the time span being matched.
        dtw_band: optional Sakoe-Chiba band (profile samples); ``None``
            disables the constraint.
        stable_window_s: how long the phase must stay flat to count as
            "driver facing front" for position estimation (Sec. 3.4.1).
            Longer than any plausible mid-glance dwell, because Eq. (4)
            is only valid if stability really implies a 0-degree head.
        stable_std_rad: circular-std threshold defining "flat".
        stationary_std_rad: if the circular std of the current input
            window is below this, the head is not moving and the tracker
            re-issues its previous estimate instead of matching.  A flat
            window carries no trajectory shape, so DTW would pick an
            arbitrary profile sample with a similar phase *value* — the
            non-injectivity problem of Sec. 2.3 in its purest form; the
            physics (no phase change => no head motion) resolves it.
        steering_rate_threshold: car yaw rate [rad/s] above which the
            steering identifier attributes CSI variation to the wheel
            (Sec. 3.6.2).
        max_head_rate: plausibility bound on the head yaw rate [rad/s];
            estimates implying faster motion are rejected by the jump
            filter (Sec. 3.6: "jumpy estimation ... can be easily
            filtered out").
        continuity_margin: extra slack [rad] added to the continuity
            window ``max_head_rate * dt`` when constraining the match
            search around the previous estimate.
        escape_ratio: the unconstrained global best overrides the best
            continuity-feasible candidate when its DTW distance is below
            ``escape_ratio`` times the feasible one — the recovery hatch
            against locking onto a wrong curve branch.
        horizon_s: prediction horizon ``t_h`` (0 = track, not forecast).
        neighbor_positions: how many adjacent profiled positions (each
            side of the estimated one) to include in the match search;
            0 reproduces the paper exactly.
    """

    window_s: float = constants.DEFAULT_WINDOW_S
    resample_rate_hz: float = constants.DEFAULT_RESAMPLE_RATE_HZ
    num_length_candidates: int = 5
    length_range: tuple = (0.5, 2.0)
    profile_stride: int = 4
    max_query_samples: int = 24
    dtw_band: int = None
    stable_window_s: float = 1.2
    stable_std_rad: float = 0.06
    stationary_std_rad: float = 0.015
    steering_rate_threshold: float = 0.06
    max_head_rate: float = np.deg2rad(400.0)
    continuity_margin: float = np.deg2rad(15.0)
    escape_ratio: float = 0.6
    horizon_s: float = 0.0
    neighbor_positions: int = 0

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError(f"window_s must be positive, got {self.window_s}")
        if self.resample_rate_hz <= 0:
            raise ValueError("resample_rate_hz must be positive")
        if self.num_length_candidates < 1:
            raise ValueError("need at least one length candidate")
        lo, hi = self.length_range
        if not 0 < lo <= hi:
            raise ValueError(f"invalid length_range {self.length_range}")
        if self.profile_stride < 1:
            raise ValueError("profile_stride must be >= 1")
        if self.max_query_samples < 4:
            raise ValueError("max_query_samples must be >= 4")
        if self.stable_window_s <= 0 or self.stable_std_rad <= 0:
            raise ValueError("stability parameters must be positive")
        if self.stationary_std_rad < 0:
            raise ValueError("stationary_std_rad must be non-negative")
        if self.steering_rate_threshold <= 0:
            raise ValueError("steering_rate_threshold must be positive")
        if self.max_head_rate <= 0:
            raise ValueError("max_head_rate must be positive")
        if self.continuity_margin < 0:
            raise ValueError("continuity_margin must be non-negative")
        if not 0.0 < self.escape_ratio <= 1.0:
            raise ValueError("escape_ratio must be in (0, 1]")
        if self.horizon_s < 0:
            raise ValueError("horizon_s must be non-negative")
        if self.neighbor_positions < 0:
            raise ValueError("neighbor_positions must be non-negative")

    @property
    def window_samples(self) -> int:
        """CSI input window length in resampled grid samples (>= 2)."""
        return max(2, int(round(self.window_s * self.resample_rate_hz)))

    def candidate_lengths(self) -> np.ndarray:
        """Candidate match lengths [samples], deduplicated, each >= 2."""
        lo, hi = self.length_range
        w = self.window_samples
        raw = np.linspace(lo * w, hi * w, self.num_length_candidates)
        rounded = np.maximum(2, np.round(raw).astype(int))
        # Not np.unique: its first call in a process imports numpy.ma
        # (~10-20 ms), which every forked serving worker would pay when
        # its first session's matcher reads the lengths.
        return np.array(sorted(set(rounded.tolist())), dtype=int)
