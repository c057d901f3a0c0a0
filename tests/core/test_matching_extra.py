"""Additional matcher tests: bands, decimation, determinism."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import matching
from repro.core.config import ViHOTConfig
from repro.core.matching import MatchResult, SeriesMatcher
from repro.core.profile import CsiProfile, PositionProfile
from repro.dsp.dtw import stacked_dtw_distance
from repro.dsp.phase import wrap_phase
from repro.dsp.windows import sliding_windows
from repro.scenarios.runner import SERVE_CONFIG


RATE = 200.0


def make_profile(duration_s=8.0):
    n = int(duration_s * RATE)
    t = np.linspace(0, duration_s, n)
    orientation = 1.2 * np.sin(2 * np.pi * t / duration_s * 1.5)
    phases = 0.9 * np.sin(orientation) + 0.05 * np.sin(3 * orientation)
    profile = CsiProfile()
    profile.add(PositionProfile(0.0, RATE, phases, orientation, 0.0))
    return profile


@pytest.fixture(scope="module")
def profile():
    return make_profile()


def query_at(profile, end, length=20):
    return profile[0].phases[end - length + 1 : end + 1].copy()


def test_matching_deterministic(profile):
    matcher = SeriesMatcher(profile, ViHOTConfig())
    q = query_at(profile, 600)
    a = matcher.match(q, 0)
    b = matcher.match(q, 0)
    assert a == b


def test_dtw_band_still_finds_match(profile):
    banded = SeriesMatcher(profile, ViHOTConfig(dtw_band=10))
    free = SeriesMatcher(profile, ViHOTConfig())
    q = query_at(profile, 600)
    rb = banded.match(q, 0)
    rf = free.match(q, 0)
    assert abs(rb.orientation - rf.orientation) < 0.15


def test_decimation_changes_little(profile):
    fine = SeriesMatcher(profile, ViHOTConfig(max_query_samples=100))
    coarse = SeriesMatcher(profile, ViHOTConfig(max_query_samples=8))
    q = query_at(profile, 700, length=40)
    rf = fine.match(q, 0)
    rc = coarse.match(q, 0)
    assert abs(rf.orientation - rc.orientation) < 0.2


def test_stride_one_at_least_as_good(profile):
    exact = SeriesMatcher(profile, ViHOTConfig(profile_stride=1))
    strided = SeriesMatcher(profile, ViHOTConfig(profile_stride=8))
    q = query_at(profile, 650)
    assert exact.match(q, 0).distance <= strided.match(q, 0).distance + 1e-12


def test_noisy_query_still_matches(profile):
    matcher = SeriesMatcher(profile, ViHOTConfig())
    rng = np.random.default_rng(0)
    end = 600
    q = query_at(profile, end) + rng.normal(0, 0.02, 20)
    result = matcher.match(q, 0)
    truth = profile[0].orientations[end]
    assert abs(result.orientation - truth) < 0.25


def test_length_candidates_all_usable_on_short_profile():
    short = make_profile(duration_s=0.5)  # 100 samples
    matcher = SeriesMatcher(short, ViHOTConfig())
    q = query_at(short, 60)
    result = matcher.match(q, 0)
    assert result.length <= 100


# ----------------------------------------------------------------------
# One DP per position serves every candidate length: bit-identity against
# one stacked_dtw_distance call per position and length
# ----------------------------------------------------------------------
def _per_length_reference(profile, config, query, position_index, center, tolerance):
    """``SeriesMatcher.match`` with one ``stacked_dtw_distance`` call per
    neighbour position and candidate length, each on its own bank."""
    query = wrap_phase(np.asarray(query, dtype=np.float64))
    m = len(query)
    decimation = max(1, -(-m // config.max_query_samples))
    best = {"global": None, "feasible": None}
    lo = max(0, position_index - config.neighbor_positions)
    hi = min(len(profile), position_index + config.neighbor_positions + 1)
    for index in range(lo, hi):
        position = profile[index]
        for length in map(int, config.candidate_lengths()):
            if length > len(position.phases):
                continue
            bank = sliding_windows(position.phases, length, config.profile_stride)
            row = stacked_dtw_distance(
                query[None, ::decimation],
                bank[:, ::decimation],
                band=config.dtw_band,
                metric="circular",
            )[0]
            ends = np.arange(len(bank)) * config.profile_stride + length - 1
            orientations = position.orientations[ends]
            scored = {"global": row}
            if center is not None:
                feasible = np.abs(orientations - center) <= tolerance
                if feasible.any():
                    scored["feasible"] = np.where(feasible, row, np.inf)
            for kind, values in scored.items():
                k = int(np.argmin(values))
                if best[kind] is None or values[k] < best[kind].distance:
                    best[kind] = MatchResult(
                        float(orientations[k]),
                        float(row[k]),
                        index,
                        int(ends[k]) - length + 1,
                        length,
                        length / m,
                    )
    found, feasible = best["global"], best["feasible"]
    if feasible is None or found.distance < config.escape_ratio * feasible.distance:
        return found
    return feasible


def _three_positions():
    """A long, a short (30 samples) and a seam-crossing position."""
    profile = CsiProfile()
    for offset, duration_s in ((0.0, 8.0), (1.1, 0.15), (2.9, 3.0)):
        position = make_profile(duration_s)[0]
        profile.add(
            PositionProfile(offset, RATE, position.phases + offset, position.orientations, 0.0)
        )
    return profile


IDENTITY_CONFIGS = {
    "serve": SERVE_CONFIG,
    "default": ViHOTConfig(),
    "decimated": ViHOTConfig(window_s=0.3),
    "neighbors": ViHOTConfig(neighbor_positions=1),
    "band": ViHOTConfig(dtw_band=10),
}

#: Continuity priors: none, feasible near the truth, a wrong branch the
#: escape can leave, and one no candidate satisfies.
PRIORS = ((None, math.inf), (0.3, 0.4), (-0.9, 0.2), (5.0, 0.1))


@pytest.mark.parametrize("config_name", sorted(IDENTITY_CONFIGS))
@pytest.mark.parametrize(
    "make",
    [_three_positions, lambda: make_profile(0.15), lambda: make_profile(0.5)],
    ids=["three_positions", "short_30", "short_100"],
)
def test_match_bit_identical_to_per_length_calls(config_name, make):
    """``match`` and ``match_many`` equal the per-length loop exactly, on
    profiles where every, some or only one candidate length fits."""
    config = IDENTITY_CONFIGS[config_name]
    profile = make()
    matcher = SeriesMatcher(profile, config)
    curve = make_profile()[0].phases
    rng = np.random.default_rng(5)
    window = config.window_samples
    queries = [
        curve[end - m + 1 : end + 1] + rng.normal(0, 0.03, m)
        for m in (window, window + 5)
        for end in (300, 777, 1203)
    ] + [rng.uniform(-np.pi, np.pi, window)]
    cases = [
        (query, i % len(profile), center, tolerance)
        for i, query in enumerate(queries)
        for center, tolerance in PRIORS
    ]
    want = [_per_length_reference(profile, config, *case) for case in cases]
    got = [matcher.match(*case) for case in cases]
    many = matcher.match_many(*map(list, zip(*cases)))
    for expected, single, batched in zip(want, got, many):
        assert dataclasses.astuple(single) == dataclasses.astuple(expected)
        assert dataclasses.astuple(batched) == dataclasses.astuple(expected)


@pytest.mark.parametrize("config_name", ["serve", "neighbors", "band"])
def test_match_many_one_kernel_call_per_query_length(config_name, monkeypatch):
    """Queries at mixed positions share one kernel call per query length
    (one per candidate length under a band), one row per query and
    neighbour position."""
    config = IDENTITY_CONFIGS[config_name]
    profile = _three_positions()
    stacks = []

    def counting(queries, candidates, *args, **kwargs):
        stacks.append(len(queries))
        return stacked_dtw_distance(queries, candidates, *args, **kwargs)

    monkeypatch.setattr(matching, "stacked_dtw_distance", counting)
    matcher = SeriesMatcher(profile, config)
    curve = make_profile()[0].phases
    window = config.window_samples
    sizes = (window, window, window + 5, window, window + 5)
    queries = [curve[300 : 300 + m] for m in sizes]
    positions = [0, 1, 2, 2, 0]
    matcher.match_many(queries, positions)
    reach = config.neighbor_positions
    rows = {
        m: sum(
            min(len(profile), p + reach + 1) - max(0, p - reach)
            for size, p in zip(sizes, positions)
            if size == m
        )
        for m in (window, window + 5)
    }
    per_group = 1 if config.dtw_band is None else len(config.candidate_lengths())
    assert stacks == [rows[window]] * per_group + [rows[window + 5]] * per_group
