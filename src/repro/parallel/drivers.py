"""One-call global summation across any method and substrate.

The facade a downstream application actually wants::

    from repro.parallel import global_sum
    result = global_sum(data, method="hp", substrate="mpi", pes=16)
    result.value        # correctly-rounded double
    result.words        # the invariant bit pattern (exact methods)

It normalizes the per-substrate result types, so sweeping substrates or
PE counts for reproducibility checks is one loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.params import HPParams
from repro.hallberg.params import HallbergParams
from repro.observability import journal as _journal
from repro.observability import metrics as _obs
from repro.observability import monitor as _drift
from repro.observability import tracing as _trace
from repro.parallel.methods import (
    DoubleMethod,
    HallbergMethod,
    HPMethod,
    HPSmallaccMethod,
    ReductionMethod,
)
from repro.parallel.phi import offload_reduce
from repro.parallel.procpool import procpool_reduce
from repro.parallel.schedule import Schedule, scheduled_partial
from repro.parallel.simmpi import distributed_sum, mpi_reduce
from repro.parallel.threads import thread_reduce

__all__ = ["GlobalSumResult", "global_sum", "SUBSTRATES", "make_method"]

SUBSTRATES = ("serial", "threads", "procs", "mpi", "mpi-scatter", "gpu", "phi")


@dataclass(frozen=True)
class GlobalSumResult:
    """Normalized outcome of a global summation."""

    value: float
    method: str
    substrate: str
    pes: int
    #: exact bit pattern (HP words / Hallberg digits); None for double
    words: tuple | None

    def bitwise_equal(self, other: "GlobalSumResult") -> bool:
        """True when two runs produced the same exact bit pattern."""
        return self.words is not None and self.words == other.words


def make_method(
    method: str | ReductionMethod,
    params: HPParams | HallbergParams | None = None,
) -> ReductionMethod:
    """Resolve a method name to an adapter (paper defaults when no
    params are given: HP(6,3), Hallberg(10,38)).

    HP engine-backed methods (``hp``, ``hp-small``)
    resolve through the :mod:`repro.core.engines` registry, so a newly
    registered engine is reachable here without touching this function.
    """
    from repro.core import engines

    if isinstance(method, ReductionMethod):
        return method
    if method == "double":
        return DoubleMethod()
    if method == "hallberg":
        if params is not None and not isinstance(params, HallbergParams):
            raise TypeError(
                f"hallberg needs HallbergParams, got {type(params).__name__}"
            )
        return HallbergMethod(params or HallbergParams(10, 38))
    factory = engines.adapter_factory(method)
    if factory is not None:
        if params is not None and not isinstance(params, HPParams):
            raise TypeError(
                f"{method} needs HPParams, got {type(params).__name__}"
            )
        return factory(params or HPParams(6, 3))
    known = "/".join((*engines.adapter_names(), "hallberg", "double"))
    raise ValueError(f"unknown method {method!r}; pick {known}")


def _extract_words(method: ReductionMethod, partial: Any) -> tuple | None:
    if isinstance(method, HPSmallaccMethod):
        # Fold chunks to HP words so results compare bitwise against
        # the word-carrying hp adapter.
        return tuple(method.words(partial))
    if isinstance(method, HPMethod):
        return tuple(partial)
    if isinstance(method, HallbergMethod):
        return tuple(partial[0])
    return None


def global_sum(
    data: np.ndarray,
    method: str | ReductionMethod = "hp",
    substrate: str = "serial",
    pes: int = 1,
    params: HPParams | HallbergParams | None = None,
    schedule: Schedule | None = None,
    **kwargs: Any,
) -> GlobalSumResult:
    """Sum ``data`` with ``method`` on ``substrate`` using ``pes`` PEs.

    Substrates: ``serial`` (one PE), ``threads`` (OpenMP analog, accepts
    ``schedule=``), ``procs`` (true multicore: shared-memory process
    pool, accepts ``schedule=`` / ``start_method=`` / ``chunk=``),
    ``mpi`` (pre-placed ranks), ``mpi-scatter`` (root-held data, full
    SPMD), ``gpu`` (atomic-kernel device simulation — small inputs
    only), ``phi`` (offload).  Extra kwargs pass through to the
    substrate driver.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    adapter = make_method(method, params)
    name = adapter.name

    # Every request runs under a trace context: a fresh one at the root,
    # or the caller's when global_sum is nested (bench sweeps).  The
    # context follows the request across process and rank boundaries
    # (procpool envelopes, simmpi headers), so the journal and the trace
    # tell one causal story per trace_id.
    ctx = _trace.current_context()
    if ctx is None:
        ctx = _trace.TraceContext.new()
    start = time.perf_counter()
    _journal.emit(
        "request.start", trace_id=ctx.trace_id, span_id=ctx.span_id,
        method=name, substrate=substrate, pes=pes, n=len(data),
    )
    with _trace.activate_context(ctx):
        with _trace.span("global_sum", method=name, substrate=substrate,
                         pes=pes, n=len(data), trace=ctx.trace_id) as sp:
            if sp.span_id is not None:
                ctx.span_id = sp.span_id
            try:
                value, partial, pes = _dispatch(
                    data, adapter, substrate, pes, schedule, kwargs
                )
            except BaseException as exc:
                _journal.emit(
                    "request.finish", trace_id=ctx.trace_id,
                    span_id=ctx.span_id, method=name, substrate=substrate,
                    ok=False, error=f"{type(exc).__name__}: {exc}",
                    duration_s=time.perf_counter() - start,
                )
                raise
    _journal.emit(
        "request.finish", trace_id=ctx.trace_id, span_id=ctx.span_id,
        method=name, substrate=substrate, pes=pes, n=len(data),
        ok=True, value=value, duration_s=time.perf_counter() - start,
    )
    if _obs.ENABLED:
        _obs.REGISTRY.counter(
            "global_sum.calls", method=name, substrate=substrate
        ).inc()
        _obs.REGISTRY.counter(
            "global_sum.summands", method=name, substrate=substrate
        ).inc(len(data))
    # Accuracy-drift watchdog: the threads/procs substrates observe
    # their own reductions (they are also entered directly, without this
    # driver), so the driver only reports the substrates that lack a
    # hook of their own.
    if _drift.MONITOR.armed and substrate not in ("threads", "procs"):
        with _trace.activate_context(ctx):
            _drift.MONITOR.observe(data, value, adapter, substrate)

    words = None
    if partial is not None and adapter.is_exact():
        words = _extract_words(adapter, partial)
    return GlobalSumResult(
        value=value, method=name, substrate=substrate, pes=pes, words=words
    )


def _dispatch(
    data: np.ndarray,
    adapter: ReductionMethod,
    substrate: str,
    pes: int,
    schedule: Schedule | None,
    kwargs: dict,
) -> tuple[float, Any, int]:
    """Route to the substrate driver; returns (value, partial, pes)."""
    name = adapter.name
    if substrate == "serial":
        partial = adapter.local_reduce(data)
        value = adapter.finalize(partial)
        pes = 1
    elif substrate == "threads":
        if schedule is not None:
            # The scheduled combine already holds the exact words — no
            # second full-array pass to recover them.
            partial = scheduled_partial(data, adapter, pes, schedule)
            value = adapter.finalize(partial)
            if not adapter.is_exact():
                partial = None
        else:
            r = thread_reduce(data, adapter, pes, **kwargs)
            value, partial = r.value, r.partial
    elif substrate == "procs":
        r = procpool_reduce(data, adapter, pes, schedule=schedule, **kwargs)
        value, partial = r.value, r.partial
    elif substrate == "mpi":
        r = mpi_reduce(data, adapter, pes, **kwargs)
        value, partial = r.value, r.partial
    elif substrate == "mpi-scatter":
        value, partial, _comm = distributed_sum(data, adapter, pes, **kwargs)
    elif substrate == "gpu":
        from repro.core.scalar import add_words
        from repro.parallel.gpu import gpu_sum

        if name == "double":
            g = gpu_sum(data, "double", num_threads=pes, **kwargs)
            value, partial = g.value, None
        elif name == "hp-small":
            # Chunk partials need the block-structured kernel: chunks
            # are signed lanes merged by carry-free atomic adds, which
            # the 256-partial atomic kernel's word layout does not model.
            from repro.parallel.gpu.block_reduce import gpu_block_sum

            block_size = 1
            while block_size * 2 <= min(pes, 256):
                block_size *= 2
            num_blocks = max(1, -(-pes // block_size))
            g = gpu_block_sum(
                data, "hp-small", num_blocks=num_blocks,
                block_size=block_size, params=adapter.params, **kwargs,
            )
            value, partial = g.value, tuple(g.global_words)
            pes = num_blocks * block_size
        elif name.startswith("comp-"):
            raise ValueError(
                f"substrate 'gpu' has no {name} kernel; run the "
                "compensated tiers on serial/threads/procs/mpi/phi"
            )
        else:
            g = gpu_sum(data, name, num_threads=pes,
                        params=adapter.params, **kwargs)
            value = g.value
            if name == "hp":
                total = (0,) * adapter.params.n
                for part in g.partials:
                    total = add_words(total, part)
                partial = total
            else:
                digits = [0] * adapter.params.n
                for part in g.partials:
                    for i, d in enumerate(part):
                        digits[i] += d
                partial = (tuple(digits), len(data))
    elif substrate == "phi":
        r = offload_reduce(data, adapter, pes, **kwargs)
        value, partial = r.value, r.partial
    else:
        raise ValueError(
            f"unknown substrate {substrate!r}; pick one of {SUBSTRATES}"
        )
    return value, partial, pes
