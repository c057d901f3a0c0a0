"""DTW tests: metric properties, warping behaviour, batched equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.dtw import (
    _within_pi,
    batched_dtw_distance,
    dtw_distance,
    dtw_path,
    stacked_dtw_distance,
)
from repro.dsp.windows import sliding_windows


def _full_table_batched_reference(query, candidates, band=None, metric="abs"):
    """The pre-refactor full-table DP, kept as the bit-identity reference
    for the two-diagonal implementation."""
    from repro.dsp.dtw import _pointwise_cost

    query = np.asarray(query, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    m = len(query)
    n_batch, length = candidates.shape
    cost = _pointwise_cost(query[None, :, None], candidates[:, None, :], metric)
    if band is not None:
        i_idx = np.arange(m)[:, None]
        j_idx = np.arange(length)[None, :]
        off_diag = np.abs(i_idx * (length / m) - j_idx)
        cost = np.where(off_diag[None] <= band, cost, np.inf)
    dp = np.full((n_batch, m + 1, length + 1), np.inf)
    dp[:, 0, 0] = 0.0
    for k in range(2, m + length + 1):
        i_lo = max(1, k - length)
        i_hi = min(m, k - 1)
        if i_lo > i_hi:
            continue
        i_arr = np.arange(i_lo, i_hi + 1)
        j_arr = k - i_arr
        step_cost = cost[:, i_arr - 1, j_arr - 1]
        best = np.minimum(
            dp[:, i_arr - 1, j_arr],
            np.minimum(dp[:, i_arr, j_arr - 1], dp[:, i_arr - 1, j_arr - 1]),
        )
        dp[:, i_arr, j_arr] = step_cost + best
    return dp[:, m, length] / (m + length)


def _phases(rng, size, ties=False):
    """Wrapped phases; ``ties`` rounds them to 0.1 so costs tie exactly."""
    values = rng.uniform(-np.pi, np.pi, size)
    return np.round(values, 1) if ties else values


def _bank_kinds(rng, length, ties=False):
    """One ``(B, L)`` bank of every stride pattern the kernel tells apart:
    the matcher's sliding-window views (with and without decimation),
    windows with gaps, reversed and zero-stride views, and copies."""
    x = _phases(rng, 3 * length + 20, ties)
    windows = sliding_windows(x, length, 3)
    return {
        "contiguous": _phases(rng, (7, length), ties),
        "sliding": windows,
        "decimated": sliding_windows(x, 3 * length - 2, 2)[:, ::3],
        "gapped": sliding_windows(x, length, length + 2),
        "reversed": windows[::-1],
        "reversed_samples": windows[:, ::-1],
        "broadcast": np.broadcast_to(x[:length], (4, length)),
        "broadcast_sample": np.broadcast_to(x[:5, None], (5, length)),
        "fortran": np.asfortranarray(_phases(rng, (6, length), ties)),
        "one_window": windows[:1],
    }


series = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=15
)


def test_identical_series_zero_distance():
    x = np.sin(np.linspace(0, 3, 30))
    assert dtw_distance(x, x) == pytest.approx(0.0, abs=1e-12)


@given(series, series)
@settings(max_examples=50, deadline=None)
def test_symmetry(a, b):
    a, b = np.array(a), np.array(b)
    assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a), rel=1e-9)


@given(series)
@settings(max_examples=50, deadline=None)
def test_nonnegative_and_self_zero(a):
    a = np.array(a)
    assert dtw_distance(a, a) == pytest.approx(0.0, abs=1e-12)
    assert dtw_distance(a, a + 1.0) > 0.0


def test_time_warp_invariance():
    # A stretched copy of the same shape matches much better than a
    # different shape of the same length.
    t = np.linspace(0, 1, 40)
    shape = np.sin(2 * np.pi * t)
    stretched = np.sin(2 * np.pi * np.linspace(0, 1, 80))
    other = np.cos(2 * np.pi * np.linspace(0, 1, 80))
    assert dtw_distance(shape, stretched) < 0.25 * dtw_distance(shape, other)


def test_band_constraint_inf_when_infeasible():
    a = np.zeros(10)
    b = np.concatenate([np.zeros(50), np.ones(50)])
    unconstrained = dtw_distance(a, b)
    assert np.isfinite(unconstrained)
    assert dtw_distance(a, b, band=0) >= unconstrained


def test_band_negative_rejected():
    with pytest.raises(ValueError):
        dtw_distance(np.zeros(3), np.zeros(3), band=-1)


def test_metric_circular_seam():
    # Two series on opposite sides of the +-pi seam are close circularly.
    a = np.full(10, np.pi - 0.05)
    b = np.full(10, -np.pi + 0.05)
    # 10 aligned pairs, each |wrap(a-b)| = 0.1, normalised by m+n = 20.
    assert dtw_distance(a, b, metric="circular") == pytest.approx(0.05, abs=1e-9)
    assert dtw_distance(a, b, metric="abs") > 2.0


def test_unknown_metric_rejected():
    with pytest.raises(ValueError):
        dtw_distance(np.zeros(3), np.zeros(3), metric="euclid")


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        dtw_distance(np.array([]), np.zeros(3))


def test_path_endpoints_and_monotonicity():
    a = np.sin(np.linspace(0, 2, 20))
    b = np.sin(np.linspace(0, 2, 33))
    dist, path = dtw_path(a, b)
    assert path[0] == (0, 0)
    assert path[-1] == (len(a) - 1, len(b) - 1)
    steps = np.diff(np.array(path), axis=0)
    assert np.all(steps >= 0) and np.all(steps <= 1)
    assert dist == pytest.approx(dtw_distance(a, b), rel=1e-9)


@given(series, st.lists(series, min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_batched_matches_single(query, candidate_lists):
    query = np.array(query)
    length = min(len(c) for c in candidate_lists)
    candidates = np.array([c[:length] for c in candidate_lists])
    batched = batched_dtw_distance(query, candidates)
    singles = np.array([dtw_distance(query, c) for c in candidates])
    np.testing.assert_allclose(batched, singles, rtol=1e-9, atol=1e-12)


def test_batched_circular_matches_single():
    rng = np.random.default_rng(3)
    query = rng.uniform(-np.pi, np.pi, 12)
    candidates = rng.uniform(-np.pi, np.pi, (5, 20))
    batched = batched_dtw_distance(query, candidates, metric="circular")
    singles = [dtw_distance(query, c, metric="circular") for c in candidates]
    np.testing.assert_allclose(batched, singles, rtol=1e-9)


def test_batched_shape_validation():
    with pytest.raises(ValueError):
        batched_dtw_distance(np.zeros(3), np.zeros((2, 0)))
    assert len(batched_dtw_distance(np.zeros(3), np.zeros((0, 5)))) == 0


# ----------------------------------------------------------------------
# Two-diagonal DP refactor: bit-identity against the full-table DP
# ----------------------------------------------------------------------
@pytest.mark.parametrize("band", [None, 0, 3, 10])
@pytest.mark.parametrize("metric", ["abs", "circular"])
def test_two_diagonal_dp_bit_identical_to_full_table(band, metric):
    rng = np.random.default_rng(7)
    query = rng.uniform(-np.pi, np.pi, 13)
    candidates = rng.uniform(-np.pi, np.pi, (9, 21))
    got = batched_dtw_distance(query, candidates, band=band, metric=metric)
    want = _full_table_batched_reference(query, candidates, band=band, metric=metric)
    np.testing.assert_array_equal(got, want)
    # Every bank layout, with and without exact ties.
    for ties in (False, True):
        q = _phases(rng, 13, ties)
        for name, bank in _bank_kinds(rng, 21, ties).items():
            got = batched_dtw_distance(q, bank, band=band, metric=metric)
            want = _full_table_batched_reference(q, bank, band=band, metric=metric)
            assert np.array_equal(got, want), (name, ties)


@given(
    m=st.integers(1, 12),
    length=st.integers(1, 12),
    extra=st.integers(0, 40),
    stride=st.integers(1, 16),
    decimation=st.integers(1, 4),
    band=st.one_of(st.none(), st.integers(0, 6)),
    metric=st.sampled_from(["abs", "circular"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_matcher_banks_bit_identical(
    m, length, extra, stride, decimation, band, metric, seed
):
    """``sliding_windows(phases, L, stride)[:, ::decimation]`` banks, as
    the matcher builds them, over every stride and decimation."""
    rng = np.random.default_rng(seed)
    phases = _phases(rng, length + extra, ties=seed % 2 == 0)
    bank = sliding_windows(phases, length, stride)[:, ::decimation]
    queries = _phases(rng, (3, m))
    want = _full_table_batched_reference(queries[0], bank, band, metric)
    assert np.array_equal(batched_dtw_distance(queries[0], bank, band, metric), want)
    stacked = stacked_dtw_distance(queries, bank, band, metric)
    assert np.array_equal(stacked[0], want)
    for s in (1, 2):
        assert np.array_equal(
            stacked[s], batched_dtw_distance(queries[s], bank, band, metric)
        )


_PI_ULP_INSIDE = np.nextafter(np.pi, 0.0)


@pytest.mark.parametrize(
    "values, fast",
    [
        ([np.pi, -np.pi, 0.0], True),
        ([_PI_ULP_INSIDE, -_PI_ULP_INSIDE, np.pi], True),
        ([np.nextafter(np.pi, 4.0), 0.0], False),
        ([-3.5, 7.0, 2.0 * np.pi], False),
        ([np.nan, 0.0], False),
    ],
)
def test_circular_wrap_bit_identical_on_both_sides_of_fast_path(values, fast):
    """Operands at exactly +-pi, one ulp inside, outside, and NaN: the
    masked wrap runs only inside [-pi, pi] and matches ``np.mod``."""
    assert _within_pi(np.array(values)) is fast
    rng = np.random.default_rng(31)
    edge = np.array(values)
    seam = np.array([np.pi, -np.pi, _PI_ULP_INSIDE, -_PI_ULP_INSIDE])
    query = rng.permutation(np.concatenate([edge, seam, _phases(rng, 5)]))
    bank = sliding_windows(np.concatenate([seam, _phases(rng, 30), seam]), 9, 2)
    for band in (None, 2):
        for q, b in ((query, bank), (_phases(rng, 8), rng.permutation(query)[None])):
            got = batched_dtw_distance(q, b, band=band, metric="circular")
            want = _full_table_batched_reference(q, b, band=band, metric="circular")
            assert np.array_equal(got, want, equal_nan=True)


def test_two_diagonal_dp_degenerate_shapes():
    # 1x1 and 1xL tables exercise the diagonal bookkeeping edges.
    assert batched_dtw_distance(
        np.array([1.0]), np.array([[3.0]])
    ) == pytest.approx(1.0)
    got = batched_dtw_distance(np.array([0.5]), np.array([[0.5, 1.5, 0.5]]))
    want = _full_table_batched_reference(np.array([0.5]), np.array([[0.5, 1.5, 0.5]]))
    np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# Stacked multi-query kernel (the fleet-batching form)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("band", [None, 4])
@pytest.mark.parametrize("metric", ["abs", "circular"])
def test_stacked_bit_identical_to_batched_loop(band, metric):
    rng = np.random.default_rng(11)
    queries = rng.uniform(-np.pi, np.pi, (6, 12))
    banks = rng.uniform(-np.pi, np.pi, (6, 17, 25))
    got = stacked_dtw_distance(queries, banks, band=band, metric=metric)
    want = np.stack(
        [
            batched_dtw_distance(queries[s], banks[s], band=band, metric=metric)
            for s in range(len(queries))
        ]
    )
    np.testing.assert_array_equal(got, want)
    # Shared and per-query banks of every layout, with exact ties.
    for ties in (False, True):
        queries = _phases(rng, (4, 12), ties)
        for name, bank in _bank_kinds(rng, 25, ties).items():
            per_query = np.stack([bank[::-1], bank, bank[:, ::-1], bank])
            for stack in (bank, per_query, np.broadcast_to(bank, (4,) + bank.shape)):
                got = stacked_dtw_distance(queries, stack, band=band, metric=metric)
                rows = stack if stack.ndim == 3 else [stack] * 4
                want = np.stack(
                    [
                        batched_dtw_distance(q, b, band=band, metric=metric)
                        for q, b in zip(queries, rows)
                    ]
                )
                assert np.array_equal(got, want), (name, ties, stack.ndim)
                assert np.array_equal(
                    got[1],
                    _full_table_batched_reference(queries[1], rows[1], band, metric),
                ), (name, ties)


def test_stacked_shared_bank_bit_identical():
    # One (B, L) bank shared by every query — the cached-profile case.
    rng = np.random.default_rng(12)
    queries = rng.uniform(-np.pi, np.pi, (5, 10))
    bank = rng.uniform(-np.pi, np.pi, (8, 14))
    got = stacked_dtw_distance(queries, bank, metric="circular")
    want = np.stack(
        [
            batched_dtw_distance(queries[s], bank, metric="circular")
            for s in range(len(queries))
        ]
    )
    np.testing.assert_array_equal(got, want)


def test_stacked_single_query_matches_batched():
    rng = np.random.default_rng(13)
    query = rng.uniform(-1, 1, 9)
    bank = rng.uniform(-1, 1, (4, 9))
    np.testing.assert_array_equal(
        stacked_dtw_distance(query[None, :], bank)[0],
        batched_dtw_distance(query, bank),
    )


def test_stacked_shape_validation():
    with pytest.raises(ValueError):
        stacked_dtw_distance(np.zeros((2, 0)), np.zeros((3, 4)))
    with pytest.raises(ValueError):
        stacked_dtw_distance(np.zeros((2, 5)), np.zeros((3, 4, 6)))  # S mismatch
    with pytest.raises(ValueError):
        stacked_dtw_distance(np.zeros((2, 5)), np.zeros((3, 0)))
    with pytest.raises(ValueError):
        stacked_dtw_distance(np.zeros((2, 5)), np.zeros(7))
    with pytest.raises(ValueError):
        stacked_dtw_distance(np.zeros((2, 5)), np.zeros((2, 3, 4)), band=-1)
    assert stacked_dtw_distance(np.zeros((0, 5)), np.zeros((3, 4))).shape == (0, 3)
    assert stacked_dtw_distance(np.zeros((2, 5)), np.zeros((0, 4))).shape == (2, 0)


def test_stacked_degenerate_axis_sizes():
    """Every axis of the (S, m) x (S, B, L) contract survives size 1."""
    rng = np.random.default_rng(29)
    # S=1: one session stacked is exactly the batched kernel.
    query = rng.uniform(-1, 1, 7)
    bank = rng.uniform(-1, 1, (5, 8))
    np.testing.assert_array_equal(
        stacked_dtw_distance(query[None, :], bank[None, :, :])[0],
        batched_dtw_distance(query, bank),
    )
    # B=1: a single-candidate bank gives one column per session.
    queries = rng.uniform(-1, 1, (3, 7))
    single = rng.uniform(-1, 1, (1, 8))
    out = stacked_dtw_distance(queries, single)
    assert out.shape == (3, 1)
    for s in range(3):
        np.testing.assert_array_equal(
            out[s], batched_dtw_distance(queries[s], single)
        )
    # m=1: a one-sample query warps onto every candidate sample.
    ones = rng.uniform(-1, 1, (2, 1))
    out = stacked_dtw_distance(ones, bank)
    assert out.shape == (2, 5)
    for s in range(2):
        np.testing.assert_array_equal(
            out[s], batched_dtw_distance(ones[s], bank)
        )
    # L=1 for completeness: candidates of a single sample each.
    thin = rng.uniform(-1, 1, (4, 1))
    out = stacked_dtw_distance(queries, thin)
    assert out.shape == (3, 4)
    # Every axis at size 1 on strided banks, with the band, both metrics
    # and exact ties, against the loop and the full-table reference.
    x = _phases(rng, 40, ties=True)
    for m, length, n_batch in [(1, 6, 5), (6, 1, 5), (6, 6, 1), (1, 1, 1)]:
        views = (
            sliding_windows(x, length, 3)[:n_batch],
            sliding_windows(x, 2 * length, 2)[:n_batch, ::2],
            sliding_windows(x, length, 3)[:n_batch][::-1, ::-1],
        )
        for bank in views:
            for n_stack in (1, 3):
                qs = _phases(rng, (n_stack, m), ties=True)
                for band in (None, 0, 2):
                    for metric in ("abs", "circular"):
                        out = stacked_dtw_distance(qs, bank, band, metric)
                        assert out.shape == (n_stack, n_batch)
                        for s in range(n_stack):
                            want = batched_dtw_distance(qs[s], bank, band, metric)
                            assert np.array_equal(out[s], want)
                            assert np.array_equal(
                                want,
                                _full_table_batched_reference(qs[s], bank, band, metric),
                            )


def test_stacked_ragged_bank_rejected():
    """A ragged candidate bank cannot form the (B, L) tensor: the kernel
    must refuse it loudly rather than let numpy build an object array."""
    ragged = [[0.0, 1.0, 2.0], [3.0, 4.0]]
    with pytest.raises((ValueError, TypeError)):
        stacked_dtw_distance(np.zeros((2, 3)), ragged)
    with pytest.raises((ValueError, TypeError)):
        batched_dtw_distance(np.zeros(3), ragged)
