"""OpenMP-analog substrate: fork/join thread team over contiguous blocks.

Reproduces the structure of the paper's OpenMP benchmark (Fig. 5): each
of ``p`` threads reduces its ``n/p``-element block to a partial, then the
master thread reduces the ``p`` partials in rank order.

Two execution engines share that structure:

* ``simulated`` (default) — per-thread work runs sequentially under a
  deterministic scheduler.  This is the right engine on a machine whose
  core count differs from the paper's testbed: parallel *semantics* (the
  partition and combine tree) are what determine the result, and the
  perfmodel supplies the timing.
* ``native`` — a real ``ThreadPoolExecutor``; NumPy's vectorized kernels
  release the GIL, so this also demonstrates genuine thread-safety of
  the reduction.

Both engines produce bit-identical partials, which is the point of the
method under test.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Generic, TypeVar

import numpy as np

from repro.analysis import racecheck as _race
from repro.observability import journal as _journal
from repro.observability import monitor as _drift
from repro.observability import tracing as _trace
from repro.observability.profile import phase as _phase
from repro.parallel.methods import ReductionMethod
from repro.parallel.partition import block_ranges

P = TypeVar("P")

__all__ = ["ThreadReduceResult", "thread_reduce"]


@dataclass
class ThreadReduceResult(Generic[P]):
    """Outcome of a fork/join reduction (result + per-PE bookkeeping)."""

    value: float
    partial: P
    num_threads: int
    block_sizes: list[int] = field(default_factory=list)
    engine: str = "simulated"

    def __repr__(self) -> str:  # keep reprs short in test failures
        return (
            f"ThreadReduceResult(value={self.value!r}, "
            f"p={self.num_threads}, engine={self.engine})"
        )


def thread_reduce(
    data: np.ndarray,
    method: ReductionMethod[P],
    num_threads: int,
    engine: str = "simulated",
) -> ThreadReduceResult[P]:
    """Fork/join global summation of ``data`` over ``num_threads`` PEs.

    Parameters
    ----------
    data:
        1-D float64 array of summands.
    method:
        Summation method (double / HP / Hallberg adapter).
    num_threads:
        Team size ``p``; blocks follow the standard OpenMP static
        schedule (contiguous, near-equal).
    engine:
        ``"simulated"`` or ``"native"`` (real threads).
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    with _phase("threads.partition"):
        ranges = block_ranges(len(data), num_threads)

    # The request's trace context is thread-local; capture it here so
    # native pool threads re-activate it and their spans/journal events
    # stay inside the request's causal trace.
    ctx = _trace.current_context()

    def worker(rank: int, lo: int, hi: int):
        # One span per PE: on the native engine these run on real pool
        # threads, so each worker span is a root in its own thread
        # (re-parented via the propagated context when one is active).
        scope = _trace.activate_context(ctx) if ctx is not None else None
        if scope is not None:
            scope.__enter__()
        try:
            # Nest under the thread's open span when there is one (the
            # simulated engine runs under threads.reduce); a bare pool
            # thread parents to the propagated context instead.
            parent_id = None
            if ctx is not None and _trace.TRACER.current() is None:
                parent_id = ctx.span_id
            with _trace.span(
                "threads.worker", rank=rank, engine=engine, size=hi - lo,
                parent_id=parent_id,
            ):
                with _phase("threads.compute"):
                    part = method.local_reduce(data[lo:hi])
            _journal.emit(
                "worker.task", rank=rank, lo=lo, hi=hi, n=hi - lo,
                method=method.name, engine=engine, substrate="threads",
            )
            return part
        finally:
            if scope is not None:
                scope.__exit__(None, None, None)

    with _trace.span("threads.reduce", engine=engine, p=num_threads,
                     method=method.name, n=len(data)):
        if engine == "simulated":
            partials = [
                worker(rank, lo, hi) for rank, (lo, hi) in enumerate(ranges)
            ]
        elif engine == "native":
            # Fork/join edges for the happens-before race detector: a
            # no-op unless repro.analysis.racecheck is armed.
            def run_task(rank: int, lo: int, hi: int):
                task = f"threads.worker[{rank}]"
                _race.task_begun(task)
                try:
                    return worker(rank, lo, hi)
                finally:
                    _race.task_done(task)

            # The master's fork/join wait is a phase of its own; the
            # workers' phases land on their own rows.
            with _phase("threads.dispatch"), \
                    ThreadPoolExecutor(max_workers=num_threads) as pool:
                futures = []
                for rank, (lo, hi) in enumerate(ranges):
                    _race.task_created(f"threads.worker[{rank}]")
                    futures.append(pool.submit(run_task, rank, lo, hi))
                partials = [f.result() for f in futures]
                for rank in range(len(ranges)):
                    _race.task_joined(f"threads.worker[{rank}]")
        else:
            raise ValueError(f"unknown engine {engine!r}")

        # Master-thread reduction of the p partials, in rank order —
        # exactly the paper's "master PE reduces the p partial sums" step.
        with _trace.span("threads.combine", p=num_threads), \
                _phase("threads.combine"):
            total: Any = method.identity()
            for part in partials:
                total = method.combine(total, part)
        _journal.emit(
            "merge", method=method.name, substrate="threads",
            pes=num_threads, tasks=len(ranges), engine=engine,
        )

    value = method.finalize(total)
    if _drift.MONITOR.armed:
        _drift.MONITOR.observe(data, value, method, "threads")
    return ThreadReduceResult(
        value=value,
        partial=total,
        num_threads=num_threads,
        block_sizes=[hi - lo for lo, hi in ranges],
        engine=engine,
    )
