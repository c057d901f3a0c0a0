"""The traced run's layer ledger: spans around each layer's public calls.

:class:`Tracer` wraps the public functions and methods listed in
:data:`BOUNDARIES` — every alias of a module function, found by the same
``sys.modules`` scan the runtime contracts use, and methods at class
level — so each call records one span: a name, start and end on the
``perf_counter`` clock (``CLOCK_MONOTONIC``, shared by forked workers),
the enclosing span, the outermost span, the tick it belongs to, and a
work count (DTW cells, queries, estimates, drained records).  Spans stay
in flat in-memory arrays until :meth:`Tracer.harvest`.

Forked fabric workers inherit the wrappers.  After the fork each worker
starts an empty span store and writes it to a spool file when it exits;
the harvest links every worker's outermost spans to the parent-side
fabric call that was waiting on them.

Self time is a span's duration minus the time its children cover.  A
parent waiting on several workers at once is covered by the slowest of
them only: that worker is on the blocking path, the others ran beside
it.  The ledger sums self times along the blocking path, so it adds up
to wall time exactly when every moment is attributed once.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
from array import array
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from repro.analysis.runtime_contracts import _alias_slots

Work = Callable[[tuple[Any, ...], Any], float]


def _dtw_cells(args: tuple[Any, ...], result: Any) -> float:
    """``S * B * m * L`` from the call's query and candidate shapes."""
    query, candidates = np.shape(args[0]), np.shape(args[1])
    stack, m = (1, query[0]) if len(query) == 1 else query
    return float(stack * m * candidates[-2] * candidates[-1])


def _one(args: tuple[Any, ...], result: Any) -> float:
    return 1.0


def _second_len(args: tuple[Any, ...], result: Any) -> float:
    return float(len(args[1]))


def _result_len(args: tuple[Any, ...], result: Any) -> float:
    return float(len(result))


@dataclass(frozen=True)
class Boundary:
    """One traced public call: ``module`` attribute ``qualname``."""

    module: str
    qualname: str
    work: Work | None = None
    tick_root: bool = False

    @property
    def name(self) -> str:
        return f"{self.module.removeprefix('repro.')}.{self.qualname}"


#: Every layer boundary of the serve path, top to bottom.
BOUNDARIES = (
    Boundary("repro.serve.fabric", "ServingFabric.open_session"),
    Boundary("repro.serve.fabric", "ServingFabric.ingest"),
    Boundary("repro.serve.fabric", "ServingFabric.ingest_imu"),
    Boundary("repro.serve.fabric", "ServingFabric.tick", tick_root=True),
    Boundary("repro.serve.fabric", "ServingFabric.metrics_snapshot"),
    Boundary("repro.serve.fabric", "ShardWorker.handle"),
    Boundary("repro.serve.shard", "ShardRouter.route"),
    Boundary("repro.serve.shm", "SharedCsiRing.push"),
    Boundary("repro.serve.shm", "SharedCsiRing.drain", _result_len),
    Boundary("repro.serve.manager", "SessionManager.open_session"),
    Boundary("repro.serve.manager", "SessionManager.ingest"),
    Boundary("repro.serve.manager", "SessionManager.ingest_imu"),
    Boundary("repro.serve.manager", "SessionManager.tick", tick_root=True),
    Boundary("repro.serve.manager", "SessionManager.metrics_snapshot"),
    Boundary("repro.serve.ingest", "IngestQueue.push"),
    Boundary("repro.serve.ingest", "IngestQueue.drain", _result_len),
    Boundary("repro.serve.scheduler", "RoundRobinScheduler.tick"),
    Boundary("repro.serve.batch", "BatchedScheduler.tick"),
    Boundary("repro.serve.batch", "BatchPlanner.plan"),
    Boundary("repro.serve.metrics", "Histogram.observe"),
    Boundary("repro.serve.metrics", "MetricsRegistry.fold_stage_stats"),
    Boundary("repro.serve.metrics", "MetricsRegistry.as_dict"),
    Boundary("repro.core.online", "OnlineTracker.push_csi"),
    Boundary("repro.core.online", "OnlineTracker.push_imu"),
    Boundary("repro.core.engine", "EstimationEngine.estimate_at", _one),
    Boundary("repro.core.engine", "EstimationEngine.estimate_batch", _second_len),
    Boundary("repro.core.position", "PositionEstimator.update"),
    Boundary("repro.core.matching", "SeriesMatcher.match", _one),
    Boundary("repro.core.matching", "SeriesMatcher.match_many", _second_len),
    Boundary("repro.dsp.dtw", "batched_dtw_distance", _dtw_cells),
    Boundary("repro.dsp.dtw", "stacked_dtw_distance", _dtw_cells),
    Boundary("repro.core.profiling", "ProfileBuilder.add_position"),
    Boundary("repro.core.profiling", "ProfileBuilder.build"),
)

#: Span columns a worker writes to its spool file (``proc`` is assigned
#: when the parent reads it back).
SPOOLED = ("name", "start", "end", "parent", "root", "tick", "work")

#: Spans the benchmark opens around its own phases.
EPISODE = "bench.episode"
SETUP = "bench.setup"


@dataclass(frozen=True)
class SpanTable:
    """Harvested spans as parallel arrays.

    ``parent`` and ``root`` index into the table (``-1``: none); ``proc``
    is 0 for the benchmark process and ``1..`` for forked workers.
    """

    names: tuple[str, ...]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    root: np.ndarray
    tick: np.ndarray
    work: np.ndarray
    proc: np.ndarray

    def __len__(self) -> int:
        return len(self.name)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def code(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def mask(self, *names: str) -> np.ndarray:
        return np.isin(self.name, [self.code(n) for n in names])


def self_times(table: SpanTable) -> tuple[np.ndarray, np.ndarray]:
    """Each span's self time, and the slowest cross-process child's span.

    Same-process children run one after another, so their durations
    sum; children in other processes run side by side, so only the
    slowest one covers its parent.
    """
    n = len(table)
    duration = table.duration
    has_parent = table.parent >= 0
    parents = table.parent[has_parent]
    same = np.zeros(n, dtype=bool)
    same[has_parent] = table.proc[parents] == table.proc[has_parent]
    covered = np.bincount(table.parent[same], weights=duration[same], minlength=n)
    cross = has_parent & ~same
    cross_max = np.zeros(n)
    np.maximum.at(cross_max, table.parent[cross], duration[cross])
    return duration - covered[:n] - cross_max, cross_max


def on_blocking_path(table: SpanTable) -> np.ndarray:
    """Spans whose self time lies on the benchmark process's wall clock.

    Every span of the benchmark process does; a worker's span does when
    its outermost span was the slowest of its parent's parallel children.
    """
    duration = table.duration
    on_path = table.proc == 0
    worker_roots = np.flatnonzero((table.proc > 0) & (table.root == np.arange(len(table))))
    slowest: dict[int, int] = {}
    for i in worker_roots:
        parent = int(table.parent[i])
        if parent < 0:
            continue
        if parent not in slowest or duration[i] > duration[slowest[parent]]:
            slowest[parent] = int(i)
    for i in slowest.values():
        on_path[i] = True
    workers = table.proc > 0
    on_path[workers] = on_path[table.root[workers]]
    return on_path


def _concat(tables: list[SpanTable]) -> SpanTable:
    offsets = np.cumsum([0] + [len(t) for t in tables[:-1]])

    def shifted(field: str, t: SpanTable, off: int) -> np.ndarray:
        values = getattr(t, field)
        return np.where(values >= 0, values + off, -1)

    return SpanTable(
        tables[0].names,
        np.concatenate([t.name for t in tables]),
        np.concatenate([t.start for t in tables]),
        np.concatenate([t.end for t in tables]),
        np.concatenate([shifted("parent", t, o) for t, o in zip(tables, offsets)]),
        np.concatenate([shifted("root", t, o) for t, o in zip(tables, offsets)]),
        np.concatenate([t.tick for t in tables]),
        np.concatenate([t.work for t in tables]),
        np.concatenate([t.proc for t in tables]),
    )


def link_workers(parent: SpanTable, workers: list[SpanTable]) -> SpanTable:
    """Merge worker span tables under the parent-side calls that waited.

    A worker's outermost span becomes the child of the parent-process
    fabric span (``serve.fabric.ServingFabric.*``) whose interval
    contains it; unmatched ones stay roots.
    """
    merged = _concat([parent, *workers])
    fabric = np.flatnonzero(
        (merged.proc == 0)
        & np.isin(
            merged.name,
            [i for i, n in enumerate(merged.names) if n.startswith("serve.fabric.ServingFabric.")],
        )
    )
    fabric = fabric[np.argsort(merged.start[fabric], kind="stable")]
    roots = np.flatnonzero((merged.proc > 0) & (merged.parent < 0))
    if len(fabric) and len(roots):
        k = np.searchsorted(merged.start[fabric], merged.start[roots], side="right") - 1
        found = k >= 0
        host = fabric[np.clip(k, 0, None)]
        contains = found & (merged.end[host] >= merged.end[roots])
        merged.parent[roots[contains]] = host[contains]
    return merged


class Tracer:
    """Installs span-recording wrappers on :data:`BOUNDARIES`.

    Args:
        spool_dir: where forked workers write their spans on exit.
    """

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = spool_dir
        self.names = tuple(b.name for b in BOUNDARIES) + (EPISODE, SETUP)
        self.tick = 0
        self._tick_depth = 0
        self._name = array("q")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._root = array("q")
        self._tick = array("q")
        self._work = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._active = False
        mp_util.register_after_fork(self, Tracer._after_fork)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _clear(self) -> None:
        for column in (
            self._name, self._start, self._end, self._parent,
            self._root, self._tick, self._work,
        ):
            del column[:]
        del self._stack[:]

    def _open(self, code: int) -> int:
        i = len(self._name)
        parent = self._stack[-1] if self._stack else -1
        self._name.append(code)
        self._parent.append(parent)
        self._root.append(self._root[parent] if parent >= 0 else i)
        self._tick.append(self.tick)
        self._work.append(0.0)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around one of the benchmark's own phases."""
        i = self._open(self.names.index(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, code: int, boundary: Boundary, func: Any) -> Any:
        tracer = self
        work = boundary.work
        opened = self._open
        ends = self._end
        works = self._work
        stack = self._stack

        if boundary.tick_root:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                i = opened(code)
                tracer._tick_depth += 1
                try:
                    return func(*args, **kwargs)
                finally:
                    ends[i] = perf_counter()
                    stack.pop()
                    tracer._tick_depth -= 1
                    if tracer._tick_depth == 0:
                        tracer.tick += 1

        elif work is None:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                i = opened(code)
                try:
                    return func(*args, **kwargs)
                finally:
                    ends[i] = perf_counter()
                    stack.pop()

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                i = opened(code)
                try:
                    result = func(*args, **kwargs)
                finally:
                    ends[i] = perf_counter()
                    stack.pop()
                works[i] = work(args, result)
                return result

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._active:
            return
        self._clear()
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        for code, boundary in enumerate(BOUNDARIES):
            module = importlib.import_module(boundary.module)
            if "." in boundary.qualname:
                cls_name, attr = boundary.qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(code, boundary, original))
            else:
                original = getattr(module, boundary.qualname)
                wrapper = self._wrap(code, boundary, original)
                for owner, attr in _alias_slots(original):
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
        self._active = True

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._active = False
        shutil.rmtree(self.spool_dir, ignore_errors=True)

    def patched(self) -> list[tuple[Any, str]]:
        """Every ``(owner, attribute)`` slot currently wrapped."""
        return [(owner, attr) for owner, attr, _ in self._patched]

    # ------------------------------------------------------------------
    # Forked workers
    # ------------------------------------------------------------------
    def _after_fork(self) -> None:
        if not self._active:
            return
        self._clear()
        mp_util.Finalize(self, self._spill, exitpriority=10)

    def _spill(self) -> None:
        table = self._table(proc=1)
        np.savez(
            self.spool_dir / f"worker-{os.getpid()}.npz",
            **{f: getattr(table, f) for f in SPOOLED},
        )

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------
    def _table(self, proc: int) -> SpanTable:
        n = len(self._name)
        return SpanTable(
            self.names,
            np.frombuffer(self._name, dtype=np.int64).copy(),
            np.frombuffer(self._start, dtype=np.float64).copy(),
            np.frombuffer(self._end, dtype=np.float64).copy(),
            np.frombuffer(self._parent, dtype=np.int64).copy(),
            np.frombuffer(self._root, dtype=np.int64).copy(),
            np.frombuffer(self._tick, dtype=np.int64).copy(),
            np.frombuffer(self._work, dtype=np.float64).copy(),
            np.full(n, proc, dtype=np.int64),
        )

    def harvest(self) -> SpanTable:
        """Every span recorded since the last harvest, workers linked in.

        Call with no span open and after any fabric has been closed (its
        workers write their spool files on exit).
        """
        parent = self._table(proc=0)
        workers = []
        for k, path in enumerate(sorted(self.spool_dir.glob("worker-*.npz")), start=1):
            with np.load(path) as data:
                columns = {f: data[f] for f in data.files}
            path.unlink()
            workers.append(
                SpanTable(self.names, proc=np.full(len(columns["name"]), k), **columns)
            )
        self._clear()
        return link_workers(parent, workers) if workers else parent


#: Spans written to the Chrome trace, earliest first; a traced episode
#: records 100-250 thousand, more than a trace viewer loads comfortably.
TRACE_EVENTS = 50_000


def chrome_trace(table: SpanTable) -> dict[str, Any]:
    """The first :data:`TRACE_EVENTS` spans as Chrome trace-event JSON
    (``ph: X``)."""
    order = np.argsort(table.start, kind="stable")[:TRACE_EVENTS]
    t0 = float(table.start.min()) if len(table) else 0.0
    events = [
        {
            "name": table.names[table.name[i]],
            "cat": table.names[table.name[i]].rsplit(".", 1)[0],
            "ph": "X",
            "ts": (float(table.start[i]) - t0) * 1e6,
            "dur": float(table.end[i] - table.start[i]) * 1e6,
            "pid": int(table.proc[i]),
            "tid": 0,
            "args": {"tick": int(table.tick[i]), "parent": int(table.parent[i])},
        }
        for i in order.tolist()
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": {"spans": len(table)}}


def write_chrome_trace(table: SpanTable, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(chrome_trace(table), handle)
