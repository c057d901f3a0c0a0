"""Shared-memory CSI ring buffers for cross-process ingest.

The sharded fabric's hot path is the same as the single-process one —
"N cabins x hundreds of CSI packets per second" — but with the
:class:`~repro.serve.manager.SessionManager` living in a worker
process.  Shipping every ``(2, 30) complex128`` packet through a pipe
would pickle ~1 kB per packet on the ingest thread; instead each shard
gets one :class:`SharedCsiRing`, a fixed-slot drop-oldest ring in
``multiprocessing.shared_memory`` that the parent writes with plain
numpy stores and the worker drains with numpy reads.  No pickling on
the packet path, bounded memory, and the same drop-oldest backpressure
semantics as the in-process :class:`~repro.serve.ingest.IngestQueue`
(the freshest packet always gets in; the oldest is shed and attributed
to its session).

Layout (one shm segment):

* header — 4 int64: ``head``, ``count``, ``pushed``, ``dropped``;
* per slot — session-id bytes (padded to ``sid_bytes``) + id length,
  a float64 timestamp, and a fixed-shape complex128 CSI matrix.

A ``multiprocessing.Lock`` serialises push/drain.  The parent creates
the segment and is its owner (``close(unlink=True)`` at fabric
shutdown); workers inherit the mapping through ``fork`` and never
unlink.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from multiprocessing.synchronize import Lock as LockType
from multiprocessing import get_context

import numpy as np

from repro.serve.ingest import IngestRecord

_HEAD, _COUNT, _PUSHED, _DROPPED = range(4)
_HEADER_BYTES = 4 * 8


class SharedCsiRing:
    """Bounded drop-oldest packet ring in shared memory.

    Args:
        slots: ring capacity in packets.
        csi_shape: the fixed per-packet CSI shape, e.g. ``(2, 30)`` —
            fixed slots are what make lock-cheap numpy stores possible;
            a ragged packet is a caller bug and raises.
        sid_bytes: bytes reserved per session id (utf-8).
        name: attach to an existing segment of this name instead of
            creating one (cross-process use without fork inheritance);
            the attaching side must pass the creator's ``lock``.
        lock: the push/drain lock (created when omitted).
    """

    def __init__(
        self,
        slots: int,
        csi_shape: tuple[int, ...],
        *,
        sid_bytes: int = 64,
        name: str | None = None,
        lock: LockType | None = None,
    ) -> None:
        if slots < 1:
            raise ValueError(f"ring slots must be >= 1, got {slots}")
        if sid_bytes < 1:
            raise ValueError(f"sid_bytes must be >= 1, got {sid_bytes}")
        self._slots = slots
        self._csi_shape = tuple(int(d) for d in csi_shape)
        self._sid_bytes = sid_bytes
        csi_items = int(np.prod(self._csi_shape)) if self._csi_shape else 1
        self._csi_items = csi_items
        size = (
            _HEADER_BYTES
            + slots * 8  # sid lengths (int64)
            + slots * sid_bytes  # sid bytes
            + slots * 8  # timestamps (float64)
            + slots * csi_items * 16  # complex128 CSI
        )
        self.owner = name is None
        if self.owner:
            self._shm = shared_memory.SharedMemory(create=True, size=size)
        else:
            self._shm = shared_memory.SharedMemory(name=name)
        self._lock: LockType = (
            lock if lock is not None else get_context("fork").Lock()
        )
        buf = self._shm.buf
        offset = 0

        def view(dtype: np.dtype, count: int) -> np.ndarray:
            nonlocal offset
            nbytes = count * dtype.itemsize
            array = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
            offset += nbytes
            return array

        self._header = view(np.dtype(np.int64), 4)
        self._sid_lens = view(np.dtype(np.int64), slots)
        self._sids = view(np.dtype(np.uint8), slots * sid_bytes).reshape(
            slots, sid_bytes
        )
        self._times = view(np.dtype(np.float64), slots)
        self._csi = view(np.dtype(np.complex128), slots * csi_items).reshape(
            (slots, *self._csi_shape)
        )
        if self.owner:
            self._header[:] = 0
        #: Writer-side shed attribution, same shape as
        #: :attr:`IngestQueue.dropped_by_session` (the dict cannot live
        #: in shm; only the writing side ever sheds, so it owns it).
        self._dropped_by_session: dict[str, int] = {}

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def slots(self) -> int:
        return self._slots

    @property
    def csi_shape(self) -> tuple[int, ...]:
        return self._csi_shape

    def __len__(self) -> int:
        return int(self._header[_COUNT])

    @property
    def fill_fraction(self) -> float:
        """Occupancy in ``[0, 1]`` — the backpressure / work-stealing
        signal (a racy read is fine: it steers quota, not correctness)."""
        return int(self._header[_COUNT]) / self._slots

    @property
    def pushed_total(self) -> int:
        return int(self._header[_PUSHED])

    @property
    def dropped_total(self) -> int:
        return int(self._header[_DROPPED])

    @property
    def dropped_by_session(self) -> dict[str, int]:
        return dict(self._dropped_by_session)

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def push(self, session_id: str, time: float, csi: np.ndarray) -> bool:
        """Enqueue one packet.  Returns ``False`` iff an old one was shed."""
        csi = np.asarray(csi)
        if csi.shape != self._csi_shape:
            raise ValueError(
                f"packet shape {csi.shape} != ring slot shape {self._csi_shape}"
            )
        sid = session_id.encode("utf-8")
        if len(sid) > self._sid_bytes:
            raise ValueError(
                f"session id {session_id!r} exceeds {self._sid_bytes} bytes"
            )
        with self._lock:
            header = self._header
            header[_PUSHED] += 1
            accepted = True
            head = int(header[_HEAD])
            count = int(header[_COUNT])
            if count == self._slots:
                length = int(self._sid_lens[head])
                shed = bytes(self._sids[head, :length]).decode("utf-8")
                self._dropped_by_session[shed] = (
                    self._dropped_by_session.get(shed, 0) + 1
                )
                header[_DROPPED] += 1
                head = (head + 1) % self._slots
                header[_HEAD] = head
                count -= 1
                accepted = False
            slot = (head + count) % self._slots
            self._sid_lens[slot] = len(sid)
            self._sids[slot, : len(sid)] = np.frombuffer(sid, dtype=np.uint8)
            self._times[slot] = time
            self._csi[slot] = csi
            header[_COUNT] = count + 1
        return accepted

    def drain(self, max_records: int | None = None) -> list[IngestRecord]:
        """Pop up to ``max_records`` (default: everything) in order.

        CSI matrices are copied out of the ring (the slot is reused the
        moment the head advances), so the records are safe to hold."""
        with self._lock:
            count = int(self._header[_COUNT])
            n = count if max_records is None else min(max_records, count)
            head = int(self._header[_HEAD])
            records: list[IngestRecord] = []
            for k in range(n):
                slot = (head + k) % self._slots
                length = int(self._sid_lens[slot])
                sid = bytes(self._sids[slot, :length]).decode("utf-8")
                records.append(
                    IngestRecord(
                        sid,
                        float(self._times[slot]),
                        np.array(self._csi[slot], copy=True),
                    )
                )
            # An emptied ring restarts at slot 0, so a steady trickle
            # reuses the same few slots instead of touching all of them.
            self._header[_HEAD] = (head + n) % self._slots if n < count else 0
            self._header[_COUNT] = count - n
        return records

    def forget_session(self, session_id: str) -> None:
        """Drop a session's shed-count bookkeeping (mirror of
        :meth:`IngestQueue.forget_session`)."""
        self._dropped_by_session.pop(session_id, None)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, unlink: bool | None = None) -> None:
        """Release this process's mapping; the owner also unlinks.

        Idempotent, and the unlink decision is independent of whether
        the mapping could be dropped: a ``BufferError`` (an exported
        view still alive somewhere) must not leak the *segment* — the
        name is removed regardless and the mapping goes when the last
        view dies.
        """
        # Views into the buffer must go before the mapping can close.
        for attr in ("_header", "_sid_lens", "_sids", "_times", "_csi"):
            if hasattr(self, attr):
                delattr(self, attr)
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - exported views still live
            pass
        if unlink if unlink is not None else self.owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
