"""Dynamic Time Warping distances for CSI series matching.

Algorithm 1 of the paper matches a windowed CSI phase series against every
candidate segment of the CSI profile, for a range of candidate lengths
(Sec. 3.4.4-3.4.5).  Three entry points support that:

``dtw_distance``
    Reference implementation for a single pair of series.  Used by tests
    and small ablations; clarity over speed.

``dtw_path``
    Distance plus the optimal alignment path (needed by the forecasting
    ablation and useful for debugging matches).

``batched_dtw_distance``
    One query against a stack of equal-length candidates, vectorised over
    the batch along anti-diagonals of the DP table.  This is what makes the
    faithful Algorithm 1 (hundreds of candidate offsets per length)
    tractable in pure numpy.

``stacked_dtw_distance``
    The multi-query form: ``S`` queries, each against its own candidate
    bank (or one bank shared by all queries), evaluated as a single
    ``(S, B)`` anti-diagonal DP.  This is the fleet-batching kernel: the
    matcher stacks one row per query and profile position, so one call
    serves a whole batch of sessions at mixed positions.  Bit-identical
    to looping :func:`batched_dtw_distance` over the rows (the DP is
    elementwise over the stacked axes).  With ``lengths`` it also reads
    every candidate length off that one DP: the distance of a window's
    first ``n`` samples is row ``m`` of the sweep at diagonal ``m + n``,
    so the matcher's one bank of the longest length at a profile
    position serves every shorter length at the same offsets.

Both batch kernels share one implementation.  A call builds one cost
table, ``cost(query[i], x[p])`` for every query sample and every profile
sample ``p`` its candidate bank covers, instead of a cost per candidate
cell: the matcher's overlapping sliding windows read the same profile
samples many times over.  The table is polyphase in the bank's window
step and skewed by query row (see :func:`_cost_table`), so each
anti-diagonal's costs are one slice whose innermost axis is the ``B``
candidates, contiguous; the DP keeps only the two live anti-diagonals
with the same candidate axis innermost, so numpy's inner loops run over
``B`` whatever the stack size.  Memory is the ``(m, s, S, U)`` table
(``s*U`` is the ``span`` of profile samples the bank covers plus
``(m-1)*d`` padding, ``span`` at most ``B*L``, ~1,400 for a matcher
bank) plus three ``(m+1, S, B)`` diagonals and the ``(K, S, B)``
result; nothing scales with ``B*L`` times ``m`` except a bank that has
to be copied (see :func:`_bank_series`).

Distances are normalised by ``len(a) + len(b)`` so that candidates of
different lengths compete fairly in the length search.

All entry points accept ``metric="abs"`` (plain ``|a - b|``) or
``metric="circular"`` (``|wrap(a - b)|``); the circular metric is the right
one for wrapped CSI phases, which would otherwise pay a spurious ~2 pi cost
when a series crosses the +-pi seam.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

import numpy as np

_INF = np.inf

_METRICS = ("abs", "circular")


def _as_1d(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError(f"{name} must be a non-empty 1-D array, got shape {x.shape}")
    return x


def _check_options(band: int | None, metric: str) -> None:
    """Reject an unknown ``metric`` and a negative ``band``."""
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}, got {metric!r}")
    if band is not None and band < 0:
        raise ValueError(f"band must be non-negative, got {band}")


def _pointwise_cost(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    """Element-wise cost between broadcastable arrays under ``metric``."""
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}, got {metric!r}")
    diff = a - b
    if metric == "circular":
        diff = np.mod(diff + np.pi, 2.0 * np.pi) - np.pi
    return np.abs(diff)


def dtw_distance(
    a: np.ndarray,
    b: np.ndarray,
    band: int | None = None,
    metric: str = "abs",
) -> float:
    """Normalised DTW distance between two 1-D series.

    ``band`` is an optional Sakoe-Chiba constraint: cells further than
    ``band`` from the (rescaled) diagonal are forbidden.  Returns ``inf``
    when the band makes alignment infeasible.

    :shape a: (m,)
    :shape b: (L,)
    """
    a = _as_1d(a, "a")
    b = _as_1d(b, "b")
    _check_options(band, metric)
    m, n = len(a), len(b)
    cost = _pointwise_cost(a[:, None], b[None, :], metric)
    if band is not None:
        i_idx = np.arange(m)[:, None]
        j_idx = np.arange(n)[None, :]
        # Rescale the diagonal for unequal lengths before applying the band.
        off_diag = np.abs(i_idx * (n / m) - j_idx)
        cost = np.where(off_diag <= band, cost, _INF)

    dp = np.full((m + 1, n + 1), _INF)
    dp[0, 0] = 0.0
    for i in range(1, m + 1):
        # Vector over j is impossible (dp[i, j-1] dependency); plain loop.
        row_cost = cost[i - 1]
        prev = dp[i - 1]
        cur = dp[i]
        for j in range(1, n + 1):
            c = row_cost[j - 1]
            if c == _INF:
                continue
            best = min(prev[j], prev[j - 1], cur[j - 1])
            if best != _INF:
                cur[j] = c + best
    total = dp[m, n]
    if total == _INF:
        return _INF
    return float(total / (m + n))


def dtw_path(
    a: np.ndarray, b: np.ndarray, metric: str = "abs"
) -> tuple[float, list[tuple[int, int]]]:
    """DTW distance and optimal alignment path as ``[(i, j), ...]``.

    The path starts at ``(0, 0)`` and ends at ``(len(a)-1, len(b)-1)``.

    :shape a: (m,)
    :shape b: (L,)
    """
    a = _as_1d(a, "a")
    b = _as_1d(b, "b")
    m, n = len(a), len(b)
    cost = _pointwise_cost(a[:, None], b[None, :], metric)
    dp = np.full((m + 1, n + 1), _INF)
    dp[0, 0] = 0.0
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            best = min(dp[i - 1, j], dp[i, j - 1], dp[i - 1, j - 1])
            dp[i, j] = cost[i - 1, j - 1] + best

    path: list[tuple[int, int]] = []
    i, j = m, n
    while i > 0 and j > 0:
        path.append((i - 1, j - 1))
        moves = (
            (dp[i - 1, j - 1], i - 1, j - 1),
            (dp[i - 1, j], i - 1, j),
            (dp[i, j - 1], i, j - 1),
        )
        _, i, j = min(moves, key=lambda item: item[0])
    path.reverse()
    return float(dp[m, n] / (m + n)), path


def _within_pi(values: np.ndarray) -> bool:
    """Whether every value lies in ``[-pi, pi]`` (``False`` on NaN)."""
    return bool(np.max(np.abs(values)) <= np.pi)


def _bank_series(banks: np.ndarray) -> tuple[np.ndarray, int, int]:
    """The series ``x``, window step ``s >= 1`` and decimation ``d`` of a bank.

    ``banks`` has shape ``(S', B, L)``; the result satisfies
    ``banks[q, b, l] == x[q, b*s + l*d]`` with ``x`` a zero-copy
    ``(S', span)`` view, ``span = (B-1)*s + (L-1)*d + 1``.  The matcher's
    banks, ``sliding_window_view(rows, L, axis=1)[:, ::stride,
    ::decimation]``, read ``s = stride`` and ``d = decimation`` off their
    own strides.  A one-candidate bank steps by 1.  Any other bank
    (negative, zero or part-sample window steps, or gaps that make the
    span longer than ``B*L``) is copied contiguous first.
    """
    n_batch, length = banks.shape[1:]
    item = banks.itemsize
    # A size-1 axis never steps, whatever stride numpy gave it.
    step = banks.strides[1] if n_batch > 1 else item
    decimation = banks.strides[2] if length > 1 else 0
    if step > 0 and decimation >= 0 and not (step % item or decimation % item):
        step, decimation = step // item, decimation // item
        span = (n_batch - 1) * step + (length - 1) * decimation + 1
        if span <= n_batch * length:
            series = np.lib.stride_tricks.as_strided(
                banks,
                shape=(banks.shape[0], span),
                strides=(banks.strides[0], item),
                writeable=False,
            )
            return series, step, decimation
    return _bank_series(np.ascontiguousarray(banks))


def _cost_table(
    queries: np.ndarray, series: np.ndarray, step: int, decimation: int, metric: str
) -> np.ndarray:
    """``cost(queries[q, r], x[q', u*s + v - r*d])`` as an ``(m, s, S, U)``
    table.

    ``series`` is ``x``, ``(S', span)`` with ``S'`` either ``S`` or 1
    (shared); ``s`` and ``d`` are its bank's window step and decimation.
    The table is polyphase in the profile sample (``p = u*s + v``) and
    skewed by row (``- r*d``), so cell ``(r, c)`` of candidate ``b``,
    ``x[b*s + c*d]``, lies at ``u = b + u0``, ``v`` with ``(u0, v) =
    divmod((r + c)*d, s)``: one anti-diagonal's costs for every
    candidate are a contiguous run along ``u``.  ``x`` is front-padded
    with ``(m-1)*d`` zeros (and back-padded to fill ``U*s`` samples), so
    the whole table is one ``np.subtract`` from one strided view; the
    padded entries feed no DP cell.

    The circular wrap ``mod(y, 2 pi)`` of ``y = a - b + pi`` is one masked
    subtract and one masked add of ``2 pi`` when every operand lies in
    ``[-pi, pi]``: then ``y`` is in ``[-pi, 3 pi]``, ``y - 2 pi`` is exact
    on ``[2 pi, 3 pi]`` (Sterbenz) and ``y + 2 pi`` is the rounding
    ``np.mod`` itself does below 0, so the table is bit-identical to
    :func:`_pointwise_cost`.  Other operands (and NaN) take ``np.mod``.
    """
    n_stack, m = queries.shape
    n_series, span = series.shape
    front = (m - 1) * decimation
    n_units = -(-(span + front) // step)
    padded = np.zeros((n_series, front + n_units * step), dtype=np.float64)
    padded[:, front : front + span] = series
    item = padded.itemsize
    # view[r, v, q', u] = padded[q', front - r*d + u*s + v]; the lowest
    # address is padded[q', 0] and the highest the last sample.
    view = np.lib.stride_tricks.as_strided(
        padded[:, front:],
        shape=(m, step, n_series, n_units),
        strides=(-decimation * item, item, padded.strides[0], step * item),
        writeable=False,
    )
    table = np.empty((m, step, n_stack, n_units), dtype=np.float64)
    np.subtract(queries.T[:, None, :, None], view, out=table)
    if metric == "circular":
        table += np.pi
        if _within_pi(queries) and _within_pi(padded):
            np.subtract(table, 2.0 * np.pi, out=table, where=table >= 2.0 * np.pi)
            np.add(table, 2.0 * np.pi, out=table, where=table < 0.0)
        else:
            np.mod(table, 2.0 * np.pi, out=table)
        table -= np.pi
    return np.abs(table, out=table)


def _band_rows(m: int, length: int, band: int) -> tuple[list[int], list[int]]:
    """Per anti-diagonal ``r + c``, the in-band rows ``[first, stop)``.

    The band test is :func:`dtw_distance`'s, bit for bit.  Along one
    diagonal ``r * (L/m) - c`` is non-decreasing in ``r``, so its in-band
    rows are one run; an empty run reads ``first = stop = m``.
    """
    i_idx = np.arange(m)[:, None]
    j_idx = np.arange(length)[None, :]
    # Rescale the diagonal for unequal lengths before applying the band.
    rows, cols = np.nonzero(np.abs(i_idx * (length / m) - j_idx) <= band)
    first = np.full(m + length - 1, m)
    np.minimum.at(first, rows + cols, rows)
    stop = first + np.bincount(rows + cols, minlength=m + length - 1)
    return first.tolist(), stop.tolist()


def _profile_table_dtw(
    queries: np.ndarray,
    banks: np.ndarray,
    band: int | None,
    metric: str,
    lengths: tuple[int, ...],
) -> np.ndarray:
    """Normalised DTW distances ``(K, S, B)`` of ``queries`` against
    the first ``n`` columns of ``banks``, for each ``n`` in ``lengths``.

    ``queries`` is ``(S, m)``; ``banks`` is ``(S', B, L)`` with ``S'`` in
    ``{1, S}``.  One cost table over the span of profile samples the bank
    covers replaces a ``(S, B, m, L)`` tensor (see :func:`_cost_table`):
    anti-diagonal ``k = r + c`` reads its step costs as one slice
    ``table[rows, v, :, u0 : u0 + B]`` with ``(u0, v) = divmod(k*d, s)``.
    The DP keeps the two live diagonals ``(m+1, S, B)`` with the
    candidate axis innermost, so every min/add runs numpy's inner loop
    over ``B`` contiguous candidates, and in the classic operand order,
    so the result is bit-identical to the full-table DP.  A cell never
    reads a later column, so ``dp[m, n]`` is the prefix's distance: the
    sweep reads it as it passes diagonal ``m + n`` and stops at the
    longest ``n``.
    """
    n_stack, m = queries.shape
    n_batch, length = banks.shape[1:]
    series, step, decimation = _bank_series(banks)
    table = _cost_table(queries, series, step, decimation, metric)
    if band is not None:
        first, stop = _band_rows(m, length, band)
    reads: dict[int, list[int]] = {}
    for index, n in enumerate(lengths):
        reads.setdefault(m + n, []).append(index)
    out = np.empty((len(lengths), n_stack, n_batch), dtype=np.float64)
    # Diagonal k of the (m+1, L+1) table stored by row i (j = k - i).
    # Only rows lo..hi are written, so the edge rows later diagonals read
    # (dp[0, j] and dp[i, 0]) keep their initial inf; dp[0, 0] is the one
    # exception and is reset once read.
    prev2 = np.full((m + 1, n_stack, n_batch), _INF)  # diagonal k-2
    prev = np.full((m + 1, n_stack, n_batch), _INF)  # diagonal k-1
    cur = np.full((m + 1, n_stack, n_batch), _INF)  # diagonal k (reused)
    prev2[0] = 0.0  # dp[0, 0]
    for k in range(2, max(reads) + 1):
        lo = max(1, k - length)
        hi = min(m, k - 1)
        # Cell (i, j) costs table[i-1, v, :, u0 + b], (i-1) + (j-1) = k-2.
        u0, v = divmod((k - 2) * decimation, step)
        best = cur[lo : hi + 1]
        # Same operand order as the full-table DP:
        # cost + min(dp[i-1, j], min(dp[i, j-1], dp[i-1, j-1])).
        np.minimum(prev[lo : hi + 1], prev2[lo - 1 : hi], out=best)
        np.minimum(prev[lo - 1 : hi], best, out=best)
        if band is None:
            np.add(table[lo - 1 : hi, v, :, u0 : u0 + n_batch], best, out=best)
        else:
            a, b = first[k - 2], stop[k - 2]
            np.add(
                table[a:b, v, :, u0 : u0 + n_batch],
                cur[a + 1 : b + 1],
                out=cur[a + 1 : b + 1],
            )
            np.add(_INF, cur[lo : a + 1], out=cur[lo : a + 1])
            np.add(_INF, cur[b + 1 : hi + 1], out=cur[b + 1 : hi + 1])
        for index in reads.get(k, ()):
            np.divide(cur[m], k, out=out[index])  # dp[m, k - m] / (m + n)
        if k == 2:
            prev2[0] = _INF  # this buffer holds diagonal 3 next
        prev2, prev, cur = prev, cur, prev2
    return out


def batched_dtw_distance(
    query: np.ndarray,
    candidates: np.ndarray,
    band: int | None = None,
    metric: str = "abs",
) -> np.ndarray:
    """Normalised DTW distance from ``query`` to each row of ``candidates``.

    ``query`` has shape ``(m,)``; ``candidates`` has shape ``(B, L)``.
    Returns shape ``(B,)``.  The DP table is evaluated along anti-diagonals
    (two live diagonals, see :func:`_profile_table_dtw`) so the per-cell
    min/add work is vectorised over all ``B`` candidates and all cells of
    the diagonal at once; the python-level loop runs only ``m + L - 1``
    times.  A sliding-window bank (the matcher's) costs one profile-sample
    cost table, not one cost per candidate cell.

    :shape query: (m,)
    :shape candidates: (B, L)
    :shape return: (B,)
    :dtype return: float64
    """
    query = _as_1d(query, "query")
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.ndim != 2 or candidates.shape[1] == 0:
        raise ValueError(
            f"candidates must have shape (B, L) with L > 0, got {candidates.shape}"
        )
    _check_options(band, metric)
    if len(candidates) == 0:
        return np.zeros(0)
    return _profile_table_dtw(
        query[None, :], candidates[None], band, metric, (candidates.shape[1],)
    )[0, 0]


def stacked_dtw_distance(
    queries: np.ndarray,
    candidates: np.ndarray,
    band: int | None = None,
    metric: str = "abs",
    lengths: Sequence[int] | None = None,
) -> np.ndarray:
    """Normalised DTW distances for a stack of queries in one DP.

    The multi-query (fleet-batched) form of :func:`batched_dtw_distance`:
    ``queries`` has shape ``(S, m)`` — one query per serving session —
    and ``candidates`` either ``(S, B, L)`` (a candidate bank per query)
    or ``(B, L)`` (one bank shared by every query, the common case when
    the sessions match against the same cached profile).  Returns shape
    ``(S, B)``: row ``s`` is bit-identical to
    ``batched_dtw_distance(queries[s], candidates[s], band, metric)``
    because the anti-diagonal DP is elementwise over the stacked axes.

    ``lengths`` reads several candidate lengths off the same DP: entry
    ``i`` of the ``(K, S, B)`` result is the distance of each
    candidate's first ``lengths[i]`` columns, bit-identical to a call on
    ``candidates[..., :lengths[i]]``.  No DP cell reads a later column,
    so each distance is row ``m`` of the sweep as it passes diagonal
    ``m + n``, divided by ``m + n``; the default is the ``lengths=(L,)``
    case without the leading axis.  A Sakoe-Chiba band rescales with
    the length, so a band with any ``n < L`` raises.

    Memory is an ``(m, s, S, U)`` cost table, ``m*S*(span + (m-1)*d)``
    values up to the last window step, plus three ``(m+1, S, B)`` DP
    diagonals.  ``span`` is the profile samples a sliding-window bank
    covers (~1,400 at serve shapes, whatever ``B`` and ``L``), ``s`` its
    window step and ``d`` its decimation; a bank that has to be copied
    has ``span = B*L``.

    :shape queries: (S, m)
    :shape candidates: (B, L) | (S, B, L)
    :shape return: (S, B) | (K, S, B)
    :dtype return: float64
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] == 0:
        raise ValueError(
            f"queries must have shape (S, m) with m > 0, got {queries.shape}"
        )
    candidates = np.asarray(candidates, dtype=np.float64)
    n_stack, m = queries.shape
    if candidates.ndim == 2:
        banks = candidates[None, :, :]
    elif candidates.ndim == 3:
        if candidates.shape[0] != n_stack:
            raise ValueError(
                f"per-query banks need leading size {n_stack}, "
                f"got {candidates.shape}"
            )
        banks = candidates
    else:
        raise ValueError(
            f"candidates must have shape (B, L) or (S, B, L), got {candidates.shape}"
        )
    n_batch, length = banks.shape[1:]
    if length == 0:
        raise ValueError(f"candidates must have L > 0, got {candidates.shape}")
    prefixes = (length,) if lengths is None else tuple(map(operator.index, lengths))
    if not prefixes or not all(1 <= n <= length for n in prefixes):
        raise ValueError(f"lengths must be non-empty, each in [1, {length}], got {lengths}")
    if band is not None and min(prefixes) < length:
        raise ValueError(f"a band needs every length equal to L={length}, got {lengths}")
    _check_options(band, metric)
    if n_stack == 0 or n_batch == 0:
        out = np.zeros((len(prefixes), n_stack, n_batch))
    else:
        out = _profile_table_dtw(queries, banks, band, metric, prefixes)
    return out[0] if lengths is None else out
