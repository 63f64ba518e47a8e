"""True multicore substrate: persistent process pool over shared memory.

Every other substrate in :mod:`repro.parallel` is either simulated
(``simmpi``, ``phi``, ``gpu``) or runs on Python threads; this one puts
the reduction on real cores.  The design follows the shape that Neal's
small-accumulator paper (arXiv:1505.05571) and Goodrich & Eldawy's
parallel summation analysis (arXiv:1605.05436) identify as the key to
efficient exact parallel reduction: per-PE partials that are *tiny* and
merge *carry-free*, so the only data that crosses a process boundary is
a few hundred bytes per task.

Three pieces:

* **Zero-copy input.**  The master copies the summands once into a
  ``multiprocessing.shared_memory`` segment; every worker attaches a
  read-only ``numpy`` view over the same physical pages at pool start.
  Task messages are just ``(method, lo, hi)`` index ranges, and results
  are the method's partial (HP words, small-accumulator chunks, a double)
  plus a small metadata dict.
* **Out-of-core streaming.**  For inputs larger than RAM the summands
  never enter a Python process wholesale: workers open the ``.npy`` file
  with ``np.memmap`` semantics (``np.load(..., mmap_mode="r")``) and
  fault in only their own chunk, bounded by :data:`DEFAULT_OOC_CHUNK`
  elements at a time.
* **Deterministic combine.**  Chunks are claimed first-come-first-served
  by whichever worker is free (real ``dynamic``/``guided`` scheduling,
  reusing :func:`repro.parallel.schedule.chunk_ranges`), but the master
  combines the per-chunk partials in *chunk order*.  For the exact
  methods order is irrelevant by construction; for the ``double`` method
  this makes the result a deterministic function of ``(n, schedule,
  chunk)`` even though worker arrival order varies run to run.

Start methods: ``fork`` where the platform offers it (cheapest), with a
``spawn`` fallback that works everywhere — both produce bit-identical
partials, which the tests pin.

Observability: the master records ``procpool.*`` metrics and a
``procpool.reduce`` span; workers measure their own ``procpool.worker``
spans (plus any nested engine spans) in their private tracer and ship
them back with the partials, where
:meth:`repro.observability.tracing.Tracer.record_imported` re-homes them
under the master's reduce span.  Worker-side counters (for example
``smallacc.propagate_triggers``) are merged into the master registry the same
way.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Generic, TypeVar

import numpy as np
from multiprocessing import get_all_start_methods, get_context
from multiprocessing import shared_memory as _shm_mod

from repro.analysis import racecheck as _race
from repro.observability import journal as _journal
from repro.observability import metrics as _obs
from repro.observability import monitor as _drift
from repro.observability import profile as _profile
from repro.observability import tracing as _trace
from repro.observability.profile import phase as _phase
from repro.parallel.methods import ReductionMethod
from repro.parallel.schedule import Schedule, chunk_ranges

P = TypeVar("P")

__all__ = [
    "DEFAULT_OOC_CHUNK",
    "ProcPool",
    "ProcReduceResult",
    "default_start_method",
    "procpool_reduce",
]

#: Elements a worker faults in per out-of-core task (32 MiB of float64):
#: bounds resident memory per worker regardless of input size.
DEFAULT_OOC_CHUNK = 1 << 22

#: Histogram buckets for per-task wall time (seconds).
_TASK_SECONDS_BUCKETS = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
    10.0, 30.0,
)


def default_start_method() -> str:
    """``fork`` where available (cheap workers, inherited pages), else
    ``spawn`` — the portable fallback."""
    return "fork" if "fork" in get_all_start_methods() else "spawn"


# ---------------------------------------------------------------------------
# worker side — module-level so every start method can pickle it
# ---------------------------------------------------------------------------

#: Per-worker state installed by :func:`_worker_init`.
_STATE: dict | None = None


def _worker_init(
    shm_name: str | None,
    shape: tuple[int, ...],
    metrics_on: bool,
    tracing_on: bool,
    profile_on: bool = False,
    journal_on: bool = False,
) -> None:
    """Pool initializer: attach the shared segment and arm observability.

    Runs once per worker process.  Under ``fork`` the child inherits the
    master's registry/tracer/journal *contents*, so all are reset here —
    a worker must only ever report its own increments, spans and events.
    """
    global _STATE
    if metrics_on:
        _obs.enable()
    if tracing_on:
        _trace.enable()
    if profile_on:
        # spawn starts from a fresh interpreter, so the master's phase
        # gate does not carry over; re-arm it explicitly.
        _profile.enable()
    if journal_on:
        _journal.enable()
    _obs.REGISTRY.reset()
    _trace.TRACER.reset()
    _journal.JOURNAL.reset()
    _journal.emit("worker.start", shm=shm_name is not None)
    shm = None
    view = None
    if shm_name is not None:
        # Pool children share the master's resource-tracker process, so
        # the attach-side registration is a deduplicated no-op there and
        # the master's single unlink() settles the books; workers must
        # NOT unregister (a second UNREGISTER corrupts the tracker).
        shm = _shm_mod.SharedMemory(name=shm_name)
        view = np.ndarray(shape, dtype=np.float64, buffer=shm.buf)
    _STATE = {"shm": shm, "view": view, "memmaps": {}}


def _worker_slice(lo: int, hi: int, path: str | None) -> np.ndarray:
    """The worker's summand slice: a zero-copy view over the shared
    segment, or a memmap window that faults in only ``hi - lo``
    elements."""
    assert _STATE is not None, "worker used before _worker_init"
    if path is None:
        view = _STATE["view"]
        if view is None:
            raise RuntimeError("pool was started without a shared segment")
        return view[lo:hi]
    mm = _STATE["memmaps"].get(path)
    if mm is None:
        mm = np.load(path, mmap_mode="r")
        if mm.ndim != 1:
            raise ValueError(f"expected a 1-D array in {path}, got {mm.shape}")
        _STATE["memmaps"][path] = mm
    return np.asarray(mm[lo:hi], dtype=np.float64)


def _worker_run(task: tuple) -> tuple[Any, dict]:
    """Reduce one ``[lo, hi)`` chunk; return ``(partial, meta)``.

    The task envelope carries the master's :class:`TraceContext`: the
    worker seeds its tracer from the context's disjoint id block and
    parents its span directly under the master's reduce span, so the
    spans (and journal events) it ships back are part of the request's
    causal trace *at creation time* — no post-hoc re-homing.

    ``meta`` carries the worker pid, wall time, and — when observability
    is armed — the worker's span export, counter snapshot and journal
    events, all drained so a persistent worker never reports the same
    measurement twice.
    """
    method, lo, hi, path, ctx_data = task
    ctx = _trace.TraceContext.from_dict(ctx_data)
    if ctx is not None and ctx.id_base:
        _trace.TRACER.seed(ctx.id_base)
    scope = _trace.activate_context(ctx) if ctx is not None else None
    if scope is not None:
        scope.__enter__()
    try:
        start = time.perf_counter()
        attrs = {
            "pid": os.getpid(), "lo": lo, "hi": hi, "n": hi - lo,
            "method": method.name, "source": "memmap" if path else "shm",
        }
        if ctx is not None:
            attrs["trace"] = ctx.trace_id
        with _trace.span(
            "procpool.worker",
            parent_id=ctx.span_id if ctx is not None else None,
            **attrs,
        ):
            with _phase("procs.compute"):
                part = method.local_reduce(_worker_slice(lo, hi, path))
        seconds = time.perf_counter() - start
        _journal.emit(
            "worker.task", lo=lo, hi=hi, n=hi - lo, method=method.name,
            seconds=seconds, source="memmap" if path else "shm",
        )
        meta: dict = {
            "pid": os.getpid(),
            "lo": lo,
            "hi": hi,
            "seconds": seconds,
        }
        if ctx is not None:
            meta["trace"] = ctx.trace_id
        if _trace.ENABLED:
            meta["spans"] = _trace.TRACER.export()["spans"]
            _trace.TRACER.reset()
        if _obs.ENABLED:
            snapshot = _obs.REGISTRY.snapshot()
            meta["counters"] = [
                m for m in snapshot["metrics"] if m["type"] == "counter"
            ]
            _obs.REGISTRY.reset()
        if _journal.ENABLED:
            meta["journal"] = _journal.JOURNAL.drain()
        return part, meta
    finally:
        if scope is not None:
            scope.__exit__(None, None, None)


def _worker_ping(_: int) -> int:
    """No-op task used to prime worker processes (import cost, shm
    attach) before a timed reduction."""
    return os.getpid()


# ---------------------------------------------------------------------------
# master side
# ---------------------------------------------------------------------------


@dataclass
class ProcReduceResult(Generic[P]):
    """Outcome of one process-pool reduction."""

    value: float
    partial: P
    pes: int
    tasks: int
    start_method: str
    #: ``"shm"`` (in-core shared segment) or ``"memmap"`` (out-of-core)
    source: str

    def __repr__(self) -> str:
        return (
            f"ProcReduceResult(value={self.value!r}, pes={self.pes}, "
            f"tasks={self.tasks}, {self.start_method}/{self.source})"
        )


def _task_ranges(
    n: int, schedule: Schedule, pes: int, chunk: int | None
) -> list[tuple[int, int]]:
    """The ordered task list: schedule chunks, further split so no task
    exceeds ``chunk`` elements (the out-of-core residency bound)."""
    ranges = chunk_ranges(n, schedule, pes)
    if chunk is None:
        return ranges
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    split: list[tuple[int, int]] = []
    for lo, hi in ranges:
        if hi - lo <= chunk:
            split.append((lo, hi))
        else:
            split.extend(
                (start, min(start + chunk, hi))
                for start in range(lo, hi, chunk)
            )
    return split


class ProcPool:
    """A persistent multicore worker pool for repeated reductions.

    Parameters
    ----------
    data:
        Optional summands to place into shared memory immediately
        (equivalent to calling :meth:`load`).
    pes:
        Worker process count.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; default picks
        :func:`default_start_method`.

    The pool is lazy: worker processes start on the first reduction (or
    :meth:`warmup`) so that construction is cheap and the shared segment
    exists before anyone attaches.  Use as a context manager, or call
    :meth:`close` — the segment is unlinked there, not in ``__del__``.
    """

    def __init__(
        self,
        data: np.ndarray | None = None,
        pes: int = 2,
        start_method: str | None = None,
    ) -> None:
        if pes < 1:
            raise ValueError(f"need >= 1 worker, got {pes}")
        self.pes = pes
        self.start_method = start_method or default_start_method()
        self._ctx = get_context(self.start_method)
        self._pool = None
        self._shm = None
        self._shape: tuple[int, ...] | None = None
        if data is not None:
            self.load(data)

    # -- lifecycle ----------------------------------------------------------

    def load(self, data: np.ndarray) -> None:
        """Place ``data`` into the shared segment (one copy, master
        side).  Restarts the workers if the pool is already running,
        since they attach the segment at start."""
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 1:
            raise ValueError(f"expected 1-D summands, got shape {data.shape}")
        self._close_pool()
        self._release_shm()
        with _trace.span("procpool.load", n=len(data), nbytes=data.nbytes):
            if data.nbytes:
                self._shm = _shm_mod.SharedMemory(
                    create=True, size=data.nbytes
                )
                np.ndarray(
                    data.shape, dtype=np.float64, buffer=self._shm.buf
                )[:] = data
        self._shape = data.shape

    def _ensure_pool(self):
        if self._pool is None:
            shm_name = self._shm.name if self._shm is not None else None
            shape = self._shape if self._shape is not None else (0,)
            self._pool = self._ctx.Pool(
                processes=self.pes,
                initializer=_worker_init,
                initargs=(shm_name, shape, _obs.ENABLED, _trace.ENABLED,
                          _profile.ENABLED, _journal.ENABLED),
            )
            if _obs.ENABLED:
                _obs.REGISTRY.counter(
                    "procpool.workers_spawned", start=self.start_method
                ).inc(self.pes)
        return self._pool

    def warmup(self) -> None:
        """Start the workers and run one no-op task per slot, so a timed
        reduction that follows measures the reduction, not process
        creation and imports."""
        self._ensure_pool().map(_worker_ping, range(self.pes))

    def _close_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def _release_shm(self) -> None:
        if self._shm is not None:
            self._shm.close()
            self._shm.unlink()
            self._shm = None
        self._shape = None

    def close(self) -> None:
        """Shut down the workers and unlink the shared segment."""
        self._close_pool()
        self._release_shm()

    def __enter__(self) -> "ProcPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- reductions ---------------------------------------------------------

    def reduce(
        self,
        method: ReductionMethod[P],
        schedule: Schedule | None = None,
        chunk: int | None = None,
    ) -> ProcReduceResult[P]:
        """Reduce the loaded shared-memory summands with ``method``."""
        if self._shape is None:
            raise RuntimeError(
                "no data loaded; call load() (or use reduce_memmap)"
            )
        return self._run(method, self._shape[0], schedule, chunk,
                         path=None, source="shm")

    def reduce_memmap(
        self,
        path: str | os.PathLike,
        method: ReductionMethod[P],
        schedule: Schedule | None = None,
        chunk: int | None = DEFAULT_OOC_CHUNK,
    ) -> ProcReduceResult[P]:
        """Out-of-core reduction of a ``.npy`` file.

        The master reads only the header; each worker memmaps the file
        and faults in its own ``chunk``-bounded windows, so inputs
        larger than RAM stream through at bounded residency."""
        path = os.fspath(path)
        header = np.load(path, mmap_mode="r")
        if header.ndim != 1:
            raise ValueError(
                f"expected a 1-D array in {path}, got shape {header.shape}"
            )
        n = header.shape[0]
        del header
        return self._run(method, n, schedule, chunk, path=path,
                         source="memmap")

    def _run(
        self,
        method: ReductionMethod[P],
        n: int,
        schedule: Schedule | None,
        chunk: int | None,
        path: str | None,
        source: str,
    ) -> ProcReduceResult[P]:
        schedule = schedule or Schedule("static")
        with _trace.span(
            "procpool.reduce", method=method.name, pes=self.pes, n=n,
            schedule=str(schedule), start=self.start_method, source=source,
        ) as reduce_span:
            if n == 0:
                total = method.identity()
                return ProcReduceResult(
                    value=method.finalize(total), partial=total,
                    pes=self.pes, tasks=0,
                    start_method=self.start_method, source=source,
                )
            with _phase("procs.partition"):
                ranges = _task_ranges(n, schedule, self.pes, chunk)
            pool = self._ensure_pool()
            # Each task envelope carries the request's trace context,
            # re-parented under this reduce span, plus a disjoint span-id
            # block so worker-created spans are globally unique and can
            # be adopted verbatim (no re-homing).
            ctx = _trace.current_context() or _trace.TraceContext.new()
            task_ctxs = [
                ctx.child(
                    reduce_span.span_id,
                    id_base=_trace.TRACER.allocate_block(),
                ).to_dict()
                for _ in ranges
            ]
            with _phase("procs.dispatch"):
                # pool.map is a full barrier: the race detector (when
                # armed) records the dispatch as one fork/join so the
                # master's combine is ordered after every worker result.
                _race.task_created("procpool.map")
                outcomes = pool.map(
                    _worker_run,
                    [
                        (method, lo, hi, path, task_ctx)
                        for (lo, hi), task_ctx in zip(ranges, task_ctxs)
                    ],
                )
                _race.task_joined("procpool.map")
            # Combine per-chunk partials in chunk (submission) order:
            # exact methods are order-free anyway; for doubles this makes
            # the result deterministic for a fixed (n, schedule, chunk).
            with _phase("procs.combine"):
                total = method.identity()
                for part, _meta in outcomes:
                    total = method.combine(total, part)
            self._record(outcomes, method, source, reduce_span)
            _journal.emit(
                "merge", trace_id=ctx.trace_id, span_id=reduce_span.span_id,
                method=method.name, substrate="procs", pes=self.pes,
                tasks=len(ranges), source=source,
            )
        value = method.finalize(total)
        if _drift.MONITOR.armed:
            view = self._data_view(path)
            if view is not None:
                _drift.MONITOR.observe(view, value, method, "procs")
        return ProcReduceResult(
            value=value, partial=total, pes=self.pes,
            tasks=len(ranges), start_method=self.start_method, source=source,
        )

    def _data_view(self, path: str | None) -> np.ndarray | None:
        """Master-side read view of the summands for the drift monitor:
        a zero-copy view over the shared segment, or a memmap of the
        out-of-core file (the monitor's sample cap bounds page faults)."""
        if path is not None:
            return np.load(path, mmap_mode="r")
        if self._shm is not None and self._shape is not None:
            return np.ndarray(
                self._shape, dtype=np.float64, buffer=self._shm.buf
            )
        return None

    def _record(self, outcomes, method, source, reduce_span) -> None:
        """Fold worker metadata into the master's observability layer."""
        if _trace.ENABLED:
            for _part, meta in outcomes:
                worker_spans = meta.get("spans")
                if worker_spans:
                    spans = [_trace.Span.from_dict(d) for d in worker_spans]
                    if meta.get("trace"):
                        # Created under a propagated TraceContext: ids
                        # come from a disjoint block and parent links
                        # already point at the reduce span.
                        _trace.TRACER.adopt(spans)
                    else:
                        _trace.TRACER.record_imported(
                            spans, parent=reduce_span
                        )
        if _journal.ENABLED:
            for _part, meta in outcomes:
                events = meta.get("journal")
                if events:
                    _journal.JOURNAL.absorb(events)
        if not _obs.ENABLED:
            return
        reg = _obs.REGISTRY
        reg.counter("procpool.reduces", method=method.name, source=source,
                    start=self.start_method).inc()
        reg.counter("procpool.tasks", method=method.name).inc(len(outcomes))
        reg.counter("procpool.partial_bytes", method=method.name).inc(
            len(outcomes) * method.partial_nbytes()
        )
        seconds = reg.histogram(
            "procpool.task_seconds", buckets=_TASK_SECONDS_BUCKETS,
            method=method.name,
        )
        for _part, meta in outcomes:
            seconds.observe(meta["seconds"])
            for counter in meta.get("counters", ()):
                if counter["value"]:
                    reg.counter(
                        counter["name"], **counter["labels"]
                    ).inc(counter["value"])


def procpool_reduce(
    source: np.ndarray | str | os.PathLike,
    method: ReductionMethod[P],
    pes: int,
    schedule: Schedule | None = None,
    start_method: str | None = None,
    chunk: int | None = None,
    ooc_threshold: int | None = None,
) -> ProcReduceResult[P]:
    """One-shot multicore reduction (pool per call).

    ``source`` may be an in-memory array (shared-memory transport) or a
    path to a ``.npy`` file (out-of-core streaming).  When
    ``ooc_threshold`` is given, arrays larger than that many bytes are
    spilled to a temporary ``.npy`` and streamed instead of copied into
    a shared segment — the path taken when the input would not fit RAM
    twice.  Benchmarks that reduce the same data repeatedly should hold
    a :class:`ProcPool` instead, so workers and the shared segment are
    reused across runs.
    """
    if isinstance(source, (str, os.PathLike)):
        with ProcPool(pes=pes, start_method=start_method) as pool:
            return pool.reduce_memmap(
                source, method, schedule=schedule,
                chunk=chunk if chunk is not None else DEFAULT_OOC_CHUNK,
            )
    data = np.ascontiguousarray(source, dtype=np.float64)
    if ooc_threshold is not None and data.nbytes > ooc_threshold:
        import tempfile

        fd, tmp = tempfile.mkstemp(suffix=".npy")
        os.close(fd)
        try:
            np.save(tmp, data)
            if _obs.ENABLED:
                _obs.REGISTRY.counter("procpool.ooc_spill_bytes").inc(
                    data.nbytes
                )
            with ProcPool(pes=pes, start_method=start_method) as pool:
                return pool.reduce_memmap(
                    tmp, method, schedule=schedule,
                    chunk=chunk if chunk is not None else DEFAULT_OOC_CHUNK,
                )
        finally:
            os.unlink(tmp)
    with ProcPool(data=data, pes=pes, start_method=start_method) as pool:
        return pool.reduce(method, schedule=schedule, chunk=chunk)
