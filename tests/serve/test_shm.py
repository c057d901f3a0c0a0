"""Shared-memory CSI ring: ordering, backpressure, cross-process use."""

from __future__ import annotations

from multiprocessing import get_context

import numpy as np
import pytest

from repro.serve.shm import SharedCsiRing

SHAPE = (2, 3)


def _packet(k: int) -> np.ndarray:
    return np.full(SHAPE, k + 1j * k, dtype=np.complex128)


def test_push_drain_roundtrip_preserves_order_and_values() -> None:
    ring = SharedCsiRing(8, SHAPE)
    try:
        for k in range(5):
            assert ring.push(f"cabin-{k}", 0.1 * k, _packet(k))
        assert len(ring) == 5
        assert ring.fill_fraction == pytest.approx(5 / 8)
        records = ring.drain()
        assert [r.session_id for r in records] == [f"cabin-{k}" for k in range(5)]
        assert [r.time for r in records] == pytest.approx([0.1 * k for k in range(5)])
        for k, record in enumerate(records):
            np.testing.assert_array_equal(record.csi, _packet(k))
            assert record.csi.dtype == np.complex128
        assert len(ring) == 0
    finally:
        ring.close()


def test_drained_records_survive_slot_reuse() -> None:
    # drain() must copy the CSI out: the slot is rewritten as soon as
    # the head advances, and a view would silently mutate.
    ring = SharedCsiRing(2, SHAPE)
    try:
        ring.push("a", 0.0, _packet(1))
        records = ring.drain()
        for k in range(10, 14):
            ring.push("b", 1.0, _packet(k))
        np.testing.assert_array_equal(records[0].csi, _packet(1))
    finally:
        ring.close()


def test_drop_oldest_attribution() -> None:
    ring = SharedCsiRing(4, SHAPE)
    try:
        for k in range(4):
            assert ring.push("old", float(k), _packet(k))
        # Ring full: the next two pushes shed the two oldest packets,
        # attributed to the session that lost them — not the pusher.
        assert not ring.push("new", 4.0, _packet(4))
        assert not ring.push("new", 5.0, _packet(5))
        assert ring.dropped_total == 2
        assert ring.dropped_by_session == {"old": 2}
        assert ring.pushed_total == 6
        times = [r.time for r in ring.drain()]
        assert times == [2.0, 3.0, 4.0, 5.0]  # freshest always admitted
        ring.forget_session("old")
        assert ring.dropped_by_session == {}
    finally:
        ring.close()


def test_partial_drain_quota() -> None:
    ring = SharedCsiRing(8, SHAPE)
    try:
        for k in range(6):
            ring.push("s", float(k), _packet(k))
        first = ring.drain(max_records=4)
        assert [r.time for r in first] == [0.0, 1.0, 2.0, 3.0]
        assert len(ring) == 2
        rest = ring.drain(max_records=10)  # quota larger than backlog
        assert [r.time for r in rest] == [4.0, 5.0]
    finally:
        ring.close()


def test_emptied_ring_restarts_at_slot_zero() -> None:
    # A full drain resets the head, so the next packet lands in slot 0
    # rather than walking every slot of the ring over time.
    ring = SharedCsiRing(8, SHAPE)
    try:
        ring.push("a", 1.0, _packet(1))
        assert [r.time for r in ring.drain()] == [1.0]
        assert ring.push("b", 2.0, _packet(2))
        assert ring._times[0] == 2.0
        np.testing.assert_array_equal(ring._csi[0], _packet(2))
        assert len(ring) == 1
        assert ring.pushed_total == 2 and ring.dropped_total == 0
        assert [r.session_id for r in ring.drain()] == ["b"]
    finally:
        ring.close()


def test_wraparound_many_times() -> None:
    ring = SharedCsiRing(3, SHAPE)
    try:
        for k in range(17):
            ring.push("s", float(k), _packet(k))
            if k % 2:
                ring.drain(max_records=1)
        drained = ring.drain()
        assert [r.time for r in drained] == sorted(r.time for r in drained)
    finally:
        ring.close()


def test_validation() -> None:
    with pytest.raises(ValueError):
        SharedCsiRing(0, SHAPE)
    ring = SharedCsiRing(2, SHAPE)
    try:
        with pytest.raises(ValueError):
            ring.push("s", 0.0, np.zeros((3, 3), dtype=np.complex128))
        with pytest.raises(ValueError):
            ring.push("x" * 100, 0.0, _packet(0))  # sid over the 64-byte slot
    finally:
        ring.close()


def _child_pushes(ring: SharedCsiRing, n: int) -> None:
    for k in range(n):
        ring.push(f"child-{k % 2}", float(k), _packet(k))


def test_cross_process_push_visible_to_parent() -> None:
    # The fabric's actual topology is parent-writes / worker-reads; the
    # symmetric direction proves the mapping is truly shared either way.
    ring = SharedCsiRing(32, SHAPE)
    try:
        ctx = get_context("fork")
        child = ctx.Process(target=_child_pushes, args=(ring, 10))
        child.start()
        child.join(timeout=30.0)
        assert child.exitcode == 0
        assert ring.pushed_total == 10
        records = ring.drain()
        assert len(records) == 10
        np.testing.assert_array_equal(records[7].csi, _packet(7))
    finally:
        ring.close()


def test_attach_by_name_shares_storage() -> None:
    owner = SharedCsiRing(4, SHAPE)
    reader = None
    try:
        owner.push("s", 1.5, _packet(3))
        reader = SharedCsiRing(4, SHAPE, name=owner.name, lock=owner._lock)
        assert not reader.owner
        records = reader.drain()
        assert records[0].session_id == "s"
        assert records[0].time == 1.5
        assert len(owner) == 0  # same ring, not a copy
    finally:
        if reader is not None:
            reader.close(unlink=False)
        owner.close()
