"""The traced run: spans around each layer's public calls, recorded from
the benchmark's own code, and the per-layer metrics derived from them.

A traced request re-enacts the request path as the public calls it is
made of (the serial ``global_sum`` path as make_method, local_reduce and
finalize; the one-shot procs path as ProcPool ingest, spawn, reduce and
close; ``planned_sum`` as plan, kernel and decode), each inside a span.
Probe rounds time every layer on the same inputs, so each run reports
the layers its workload's path does not reach too.  Spans inside the
program are not recorded.

The run has four phases, each given a share of ``--seconds``:

1. request rounds: the real request, the re-enacted request untraced,
   and the re-enacted request traced;
2. probe rounds of the in-process layers, cycling the planner's
   accuracy targets;
3. probe rounds of the one-shot process pool;
4. blocks of real requests with the program's own observability
   (metrics, tracing, journal) on and off, alternately.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass

from repro import observability
from repro.core import engines, planner
from repro.core.scalar import from_int_scaled, to_double
from repro.parallel.drivers import make_method
from repro.parallel.procpool import ProcPool

import checkout
import workloads as wl
from measure import Tally, prepare, send, timed

#: per-layer metric -> unit; BENCHMARK.json holds their directions.
UNITS = {
    "core.engines.kernel_ms": "ms",
    "core.engines.ns_per_summand": "ns",
    "core.engines.gbytes_per_s_computed": "GB/s",
    "parallel.methods.local_reduce_ms": "ms",
    "parallel.methods.combine_us": "us",
    "parallel.methods.finalize_us": "us",
    "parallel.methods.partial_bytes": "bytes",
    "parallel.procpool.ingest_ms": "ms",
    "parallel.procpool.spawn_ms": "ms",
    "parallel.procpool.reduce_ms": "ms",
    "parallel.procpool.close_ms": "ms",
    "parallel.procpool.tasks": "count",
    "parallel.procpool.parallel_efficiency": "ratio",
    "parallel.drivers.make_method_us": "us",
    "parallel.drivers.overhead_us": "us",
    "core.planner.plan_us": "us",
    "core.planner.exact_share": "ratio",
    "core.planner.bound_margin_min": "ratio",
    "observability.enabled_overhead_pct": "%",
    "bench.trace_overhead_pct": "%",
}
#: Shares of ``--seconds`` for the four phases.
PHASE_SHARES = (0.4, 0.15, 0.15, 0.3)
#: Caps the spans a run keeps (many-small sends ~0.1 ms requests).
MAX_ROUNDS = 5000
MIN_PROBES = 2 * len(wl.TARGETS)
MIN_BLOCKS = 3
#: Largest share of the real request's median wall time that the sum of
#: its layers' median times may miss, over or under.
CLOSURE_TOLERANCE = 0.10
#: Chunk size the library's adapters and planned_sum default to.
CHUNK = 1 << 20


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in Tracer.spans, None at the root
    parent: int | None
    request: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; while disabled it records nothing."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._open: list[int] = []

    def span(self, name: str, request: int):
        return _Scope(self, name, request) if self.enabled else nullcontext()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover.

        Children run one after another in this single-threaded loop, so
        the time they cover is the sum of their durations.
        """
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def request_layers_seconds(self, layers: tuple[str, ...]) -> float:
        """Sum over ``layers`` of the median duration of that layer's
        spans directly inside a traced request."""
        return sum(
            statistics.median(
                s.seconds for s in self.spans
                if s.name == name and s.parent is not None
                and self.spans[s.parent].name == "request"
            )
            for name in layers
        )

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def write(self, path, **header) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        selfs = self.self_times()
        doc = dict(header, spans=[
            dict(asdict(s), start=s.start - origin, end=s.end - origin,
                 self=own)
            for s, own in zip(self.spans, selfs)
        ])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


class _Scope:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: Tracer, name: str, request: int) -> None:
        parent = tracer._open[-1] if tracer._open else None
        self.tracer = tracer
        self.span = Span(name, 0.0, 0.0, parent, request)

    def __enter__(self) -> None:
        self.tracer._open.append(len(self.tracer.spans))
        self.tracer.spans.append(self.span)
        self.span.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.tracer._open.pop()


def exact_words(adapter, partial) -> tuple:
    """HP words of an exact adapter's partial."""
    if hasattr(adapter, "words"):
        return tuple(adapter.words(partial))
    return tuple(partial)


def kernel(spec, x, params):
    """The engine's batch kernel: a scaled integer, or a float for the
    compensated tiers."""
    if spec.exact:
        return engines.scaled_total(x, params, CHUNK, spec.name)
    return spec.float_total(x, CHUNK)


def exact_adapter(workload, params):
    """The adapter behind the workload's exact requests."""
    if workload.path == "planned":
        engine = planner.plan(workload.n, 0.0).engine
        return make_method(engines.get(engine).adapter_name, params)
    return make_method(workload.method, wl.HP)


def pool_layers(tr: Tracer, rid: int, adapter, x):
    """The one-shot procs path: ingest, spawn, reduce and close."""
    with tr.span("parallel.procpool.ingest", rid):
        pool = ProcPool(data=x, pes=wl.PES)
    try:
        with tr.span("parallel.procpool.spawn", rid):
            pool.warmup()
        with tr.span("parallel.procpool.reduce", rid):
            result = pool.reduce(adapter)
    finally:
        with tr.span("parallel.procpool.close", rid):
            pool.close()
    return result


def layered_request(tr: Tracer, rid: int, workload, req, x, params):
    """One request re-enacted as the public calls of its layers."""
    with tr.span("request", rid):
        if workload.path == "planned":
            with tr.span("core.planner.plan", rid):
                decision = planner.plan(x.size, req.target)
            spec = engines.get(decision.engine)
            with tr.span("core.engines.kernel", rid):
                total = kernel(spec, x, params)
            if not spec.exact:
                return wl.Outcome(total, None, decision)
            with tr.span("core.scalar.decode", rid):
                words = from_int_scaled(total, params)
                return wl.Outcome(to_double(words, params), words, decision)
        with tr.span("parallel.drivers.make_method", rid):
            adapter = make_method(workload.method, wl.HP)
        if workload.path == "procs":
            result = pool_layers(tr, rid, adapter, x)
            words = exact_words(adapter, result.partial)
            return wl.Outcome(result.value, words)
        with tr.span("parallel.methods.local_reduce", rid):
            partial = adapter.local_reduce(x)
        with tr.span("parallel.methods.finalize", rid):
            value = adapter.finalize(partial)
        return wl.Outcome(value, exact_words(adapter, partial))


def probe(tr: Tracer, rid: int, workload, x, orc, target):
    """Time each in-process layer once on ``x``; returns the bound
    margin of the compensated tier the planner picks for ``target``, or
    None when it picks an exact engine."""
    with tr.span("probe", rid):
        with tr.span("core.planner.plan", rid):
            decision = planner.plan(x.size, target)
        with tr.span("parallel.drivers.make_method", rid):
            adapter = exact_adapter(workload, orc.params)
        # The engine the workload's request for this target runs.
        engine = (
            decision.engine if workload.path == "planned"
            else getattr(adapter, "engine", None)
            or engines.engine_for_adapter(adapter.name)
        )
        with tr.span("core.engines.kernel", rid):
            kernel(engines.get(engine), x, orc.params)
        with tr.span("parallel.methods.local_reduce", rid):
            partial = adapter.local_reduce(x)
        with tr.span("parallel.methods.combine", rid):
            adapter.combine(partial, partial)
        with tr.span("parallel.methods.finalize", rid):
            adapter.finalize(partial)
    if decision.exact:
        return None
    value = engines.get(decision.engine).float_total(x, CHUNK)
    return bound_margin(value, decision, orc)


def bound_margin(value: float, decision, orc) -> float:
    """1 - err/bound of a compensated result; negative on a breach."""
    return 1.0 - abs(value - orc.fsum) / decision.absolute_bound(orc.mass)


def rounds(deadline: float, minimum: int, multiple: int = 1,
           cap: float = float("inf")):
    """Round numbers 0, 1, ... until ``deadline`` or ``cap``, but at least
    ``minimum`` of them and always a whole number of ``multiple``."""
    i = 0
    while i < minimum or i % multiple or (
        i < cap and time.perf_counter() < deadline
    ):
        yield i
        i += 1


def per_layer(workload, seed: int, seconds: float):
    """The traced run; returns ``(metrics, tally, info)``."""
    tally = Tally()
    inputs, oracles = prepare(workload, seed, tally)
    mains = [req for req in workload.cycle() if req.kind == "main"]
    tr = Tracer()
    start, ends, share = time.perf_counter(), [], 0.0
    for part in PHASE_SHARES:
        share += part
        ends.append(start + share * seconds)
    counts = {}

    # Phase 1: real, re-enacted and traced requests, interleaved.
    real, plain, traced, exact, margins = [], [], [], [], []
    for rid in rounds(ends[0], len(mains), len(mains), MAX_ROUNDS):
        req = mains[rid % len(mains)]
        x, orc = inputs[req.index], oracles[req.index]
        real.append(send(workload, req, inputs, oracles, tally))
        # Alternate which variant goes first.
        for on in ((False, True) if rid % 2 else (True, False)):
            tr.enabled = on
            dt, out, error = timed(
                lambda: layered_request(tr, rid, workload, req, x, orc.params)
            )
            tr.enabled = False
            if error is None:
                error = wl.check(req, out, orc, workload.n)
                exact.append(out.words is not None)
                if out.plan is not None and not out.plan.exact:
                    margins.append(bound_margin(out.value, out.plan, orc))
            tally.record(error)
            (traced if on else plain).append(dt)
    counts["request_rounds"] = rid + 1

    # Phases 2 and 3 probe every layer, the in-process ones apart from
    # the pool: after a fork the first memory writes fault, and that
    # cost would land on whichever layer came next.
    tr.enabled = True
    ids = itertools.count(rid + 1)
    for i in rounds(ends[1], MIN_PROBES, len(wl.TARGETS)):
        j = i % len(inputs)
        margin = probe(tr, next(ids), workload, inputs[j], oracles[j],
                       wl.TARGETS[i % len(wl.TARGETS)])
        if margin is not None:
            margins.append(margin)
            tally.record(None if margin >= 0.0 else (
                f"compensated probe outside its bound (margin {margin:.3g})"
            ))
    counts["probe_rounds"] = i + 1
    adapter = exact_adapter(workload, oracles[0].params)
    for i in rounds(ends[2], MIN_PROBES):
        result = pool_layers(tr, next(ids), adapter, inputs[i % len(inputs)])
    counts["pool_rounds"] = i + 1
    tr.enabled = False

    # Phase 4: the program's own observability on against off.
    blocks = {False: [], True: []}
    for i in rounds(ends[3], MIN_BLOCKS):
        for on in ((False, True) if i % 2 else (True, False)):
            if on:
                observability.enable(True, True, True)
            try:
                for req in mains:
                    blocks[on].append(
                        send(workload, req, inputs, oracles, tally)
                    )
            finally:
                if on:
                    observability.disable()
                    observability.reset()
    counts["observability_blocks"] = i + 1

    # Closure: the layers' median times must add up to the median wall
    # time of the real request, so work the program does beyond the
    # re-enacted calls shows as a miss.
    miss = None
    if workload.closure:
        wall = statistics.median(real)
        miss = abs(tr.request_layers_seconds(workload.closure) - wall) / wall
    trace_file = (
        checkout.BUILD / "e2ebench" / f"trace-{workload.name}-seed{seed}.json"
    )
    tr.write(trace_file, workload=workload.name, seed=seed)

    def med(name):
        return statistics.median(tr.durations(name))

    def pct(a, b):
        return (statistics.median(a) / statistics.median(b) - 1.0) * 100.0

    kernel_s = med("core.engines.kernel")
    local_s = med("parallel.methods.local_reduce")
    reduce_s = med("parallel.procpool.reduce")
    metrics = {
        "core.engines.kernel_ms": kernel_s * 1e3,
        "core.engines.ns_per_summand": kernel_s * 1e9 / workload.n,
        "core.engines.gbytes_per_s_computed": 8 * workload.n / kernel_s / 1e9,
        "parallel.methods.local_reduce_ms": local_s * 1e3,
        "parallel.methods.combine_us": med("parallel.methods.combine") * 1e6,
        "parallel.methods.finalize_us": med("parallel.methods.finalize") * 1e6,
        "parallel.methods.partial_bytes": (
            adapter.partial_nbytes() * result.tasks
        ),
        "parallel.procpool.ingest_ms": med("parallel.procpool.ingest") * 1e3,
        "parallel.procpool.spawn_ms": med("parallel.procpool.spawn") * 1e3,
        "parallel.procpool.reduce_ms": reduce_s * 1e3,
        "parallel.procpool.close_ms": med("parallel.procpool.close") * 1e3,
        "parallel.procpool.tasks": result.tasks,
        "parallel.procpool.parallel_efficiency": local_s / (wl.PES * reduce_s),
        "parallel.drivers.make_method_us": (
            med("parallel.drivers.make_method") * 1e6
        ),
        "parallel.drivers.overhead_us": (
            statistics.median(real) - statistics.median(plain)
        ) * 1e6,
        "core.planner.plan_us": med("core.planner.plan") * 1e6,
        "core.planner.exact_share": sum(exact) / len(exact),
        "core.planner.bound_margin_min": min(margins),
        "observability.enabled_overhead_pct": pct(blocks[True], blocks[False]),
        "bench.trace_overhead_pct": pct(traced, plain),
    }
    info = dict(
        counts,
        closure_layers=list(workload.closure),
        closure_miss=miss,
        closure_ok=miss is None or miss <= CLOSURE_TOLERANCE,
        trace_file=str(trace_file.relative_to(checkout.ROOT)),
    )
    return metrics, tally, info
