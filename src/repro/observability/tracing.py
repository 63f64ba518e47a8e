"""Tracing spans: nested, timed regions with JSON export.

A :class:`Span` measures one region with both clocks — wall time
(``time.time``, for aligning runs against external logs) and monotonic
time (``time.perf_counter``, for durations).  Spans nest: the tracer
keeps a per-thread stack, so a span opened inside another records it as
parent, including across the worker threads of the ``native`` engine
(each thread has its own stack; cross-thread spans are roots unless the
caller passes ``parent=``).

Like the metrics layer, tracing has a module-level :data:`ENABLED` gate.
A span is *always* timed — :class:`repro.util.timing.Timer` is a thin
wrapper over this API and must work unconditionally — but it is only
registered with the tracer (id allocation, parent linkage, retention for
export) when the gate is on at entry.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Any, Callable, Iterator, TypeVar

__all__ = [
    "ENABLED",
    "enable",
    "disable",
    "Span",
    "Tracer",
    "TRACER",
    "TraceContext",
    "current_context",
    "activate_context",
    "span",
    "traced",
    "TRACE_SCHEMA_VERSION",
]

F = TypeVar("F", bound=Callable[..., Any])

#: Hot-path gate.  Mutate only through :func:`enable` / :func:`disable`.
ENABLED = False

#: Version stamped into every exported trace document.
TRACE_SCHEMA_VERSION = 1


class Span:
    """One timed region.  Use via :func:`span` / :func:`traced`."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "start_unix",
                 "_start_mono", "duration_s", "error")

    def __init__(self, name: str, attrs: dict | None = None) -> None:
        self.name = name
        self.attrs = attrs or {}
        self.span_id: int | None = None   # allocated only when recorded
        self.parent_id: int | None = None
        self.start_unix = 0.0
        self._start_mono = 0.0
        self.duration_s: float | None = None
        self.error: str | None = None

    def _start(self) -> None:
        self.start_unix = time.time()
        self._start_mono = time.perf_counter()

    def _finish(self) -> None:
        self.duration_s = time.perf_counter() - self._start_mono

    @property
    def finished(self) -> bool:
        return self.duration_s is not None

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": {k: _jsonable(v) for k, v in self.attrs.items()},
            "start_unix": self.start_unix,
            "duration_s": self.duration_s,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Inverse of :meth:`to_dict` (the JSON round-trip the tests pin)."""
        s = cls(data["name"], dict(data.get("attrs") or {}))
        s.span_id = data.get("span_id")
        s.parent_id = data.get("parent_id")
        s.start_unix = data.get("start_unix", 0.0)
        s.duration_s = data.get("duration_s")
        s.error = data.get("error")
        return s

    def __repr__(self) -> str:
        dur = f"{self.duration_s:.6f}s" if self.finished else "open"
        return f"Span({self.name!r}, id={self.span_id}, {dur})"


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


#: Size of the span-id block handed to each remote worker: big enough
#: that no realistic task exhausts it, small enough that a 64-bit id
#: space holds millions of blocks.
ID_BLOCK = 1 << 20


class TraceContext:
    """Propagatable trace identity: *which* request, under *which* span.

    A context names one causal trace (``trace_id``, a random hex token
    minted at the request root) and the span the next child should hang
    under (``span_id``).  It crosses process boundaries as a plain dict
    (procpool task envelopes) or a byte header (simmpi messages); the
    receiving side seeds its tracer from ``id_base`` — a disjoint span-id
    block allocated by the sender — so spans created remotely carry
    globally unique ids and real parent links from birth, with no
    post-hoc re-homing.
    """

    __slots__ = ("trace_id", "span_id", "id_base")

    def __init__(self, trace_id: str, span_id: int | None = None,
                 id_base: int | None = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.id_base = id_base

    @classmethod
    def new(cls) -> "TraceContext":
        """Mint a fresh root context (16 hex chars of OS entropy)."""
        return cls(trace_id=os.urandom(8).hex())

    def child(self, span_id: int | None, id_base: int | None = None
              ) -> "TraceContext":
        """Same trace, re-parented under ``span_id``."""
        return TraceContext(self.trace_id, span_id, id_base)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "id_base": self.id_base,
        }

    @classmethod
    def from_dict(cls, data: dict | None) -> "TraceContext | None":
        if not data or not data.get("trace_id"):
            return None
        return cls(
            trace_id=data["trace_id"],
            span_id=data.get("span_id"),
            id_base=data.get("id_base"),
        )

    # Wire form for byte transports (simmpi message headers).  Fixed
    # width keeps the parse trivial: magic + 16 chars of trace id + 16
    # hex chars of parent span id (0 means "no parent").  A shorter id
    # is padded with "-", never a hex digit, so an id that starts with
    # "0" comes back whole.
    _MAGIC = b"RTC1"
    HEADER_LEN = 4 + 16 + 16

    def to_header(self) -> bytes:
        return (
            self._MAGIC
            + self.trace_id[:16].rjust(16, "-").encode("ascii")
            + format(self.span_id or 0, "016x").encode("ascii")
        )

    @classmethod
    def from_header(cls, payload: bytes) -> "tuple[TraceContext | None, bytes]":
        """Split ``payload`` into (context, body); context is ``None``
        when the payload carries no header."""
        if len(payload) >= cls.HEADER_LEN and payload[:4] == cls._MAGIC:
            try:
                trace_id = payload[4:20].decode("ascii").lstrip("-") or "0"
                span_id = int(payload[20:36], 16) or None
            except (UnicodeDecodeError, ValueError):
                return None, payload
            return cls(trace_id, span_id), payload[cls.HEADER_LEN:]
        return None, payload

    def __repr__(self) -> str:
        return (f"TraceContext({self.trace_id!r}, span_id={self.span_id}, "
                f"id_base={self.id_base})")


_CONTEXT = threading.local()


def current_context() -> TraceContext | None:
    """The innermost active context on this thread (None outside one)."""
    stack = getattr(_CONTEXT, "stack", None)
    return stack[-1] if stack else None


class _ContextScope:
    __slots__ = ("_ctx",)

    def __init__(self, ctx: TraceContext) -> None:
        self._ctx = ctx

    def __enter__(self) -> TraceContext:
        stack = getattr(_CONTEXT, "stack", None)
        if stack is None:
            stack = _CONTEXT.stack = []
        stack.append(self._ctx)
        return self._ctx

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = getattr(_CONTEXT, "stack", None)
        if stack and stack[-1] is self._ctx:
            stack.pop()
        elif stack and self._ctx in stack:
            stack.remove(self._ctx)


def activate_context(ctx: TraceContext) -> _ContextScope:
    """Make ``ctx`` the thread's current context for a ``with`` block."""
    return _ContextScope(ctx)


class _SpanContext:
    """Context manager produced by :meth:`Tracer.span`.

    Captures the gate at entry so a mid-span enable/disable cannot
    unbalance the per-thread stack."""

    __slots__ = ("_tracer", "_span", "_recorded")

    def __init__(self, tracer: "Tracer", sp: Span) -> None:
        self._tracer = tracer
        self._span = sp
        self._recorded = False

    def __enter__(self) -> Span:
        self._recorded = ENABLED
        if self._recorded:
            self._tracer._open(self._span)
        self._span._start()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span._finish()
        if exc is not None:
            self._span.error = f"{exc_type.__name__}: {exc}"
        if self._recorded:
            self._tracer._close(self._span)


class Tracer:
    """Collects finished spans and maintains per-thread nesting."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._next_id = 1
        self._block_next = ID_BLOCK
        self._active: dict[int, Span] = {}
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, sp: Span) -> None:
        with self._lock:
            sp.span_id = self._next_id
            self._next_id += 1
            self._active[sp.span_id] = sp
        stack = self._stack()
        if sp.parent_id is None and stack:
            sp.parent_id = stack[-1].span_id
        stack.append(sp)

    def _close(self, sp: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is sp:
            stack.pop()
        elif sp in stack:  # tolerate mis-nested exits rather than corrupt
            stack.remove(sp)
        with self._lock:
            if sp.span_id is not None:
                self._active.pop(sp.span_id, None)
            self._spans.append(sp)

    def span(self, name: str, parent: Span | None = None,
             parent_id: int | None = None, **attrs: object) -> _SpanContext:
        """Open a (to-be-)recorded span as a context manager.

        ``parent_id`` links under a span that lives in *another* process
        (the master's reduce span, named by a :class:`TraceContext`);
        ``parent`` links under a local :class:`Span` object.
        """
        sp = Span(name, dict(attrs))
        if parent is not None:
            sp.parent_id = parent.span_id
        elif parent_id is not None:
            sp.parent_id = parent_id
        return _SpanContext(self, sp)

    def current(self) -> Span | None:
        """The innermost open span on this thread (None at top level)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def active(self) -> list[Span]:
        """Every span currently open on *any* thread, in open order.

        This is the flight recorder's view: at crash time the open spans
        say what the process was in the middle of."""
        with self._lock:
            return [self._active[k] for k in sorted(self._active)]

    # -- cross-process id space -------------------------------------------

    def allocate_block(self) -> int:
        """Reserve a disjoint span-id block for a remote worker.

        The local tracer allocates ids from 1 upward; blocks start at
        :data:`ID_BLOCK`, so remotely created spans can never collide
        with local ones and can be adopted verbatim."""
        with self._lock:
            base = self._block_next
            self._block_next += ID_BLOCK
        return base

    def seed(self, base: int) -> None:
        """Start allocating ids at ``base`` (worker-side, post-reset)."""
        with self._lock:
            self._next_id = base

    def adopt(self, spans: list[Span]) -> list[Span]:
        """Append remotely-created spans *verbatim* — ids and parent
        links were assigned at creation time from a disjoint block (see
        :meth:`allocate_block`), so unlike :meth:`record_imported` there
        is nothing to remap.  No-op while the gate is off."""
        if not ENABLED:
            return []
        with self._lock:
            self._spans.extend(spans)
        return list(spans)

    # -- introspection / export -------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        with self._lock:
            return iter(list(self._spans))

    def spans(self, name: str | None = None) -> list[Span]:
        """Finished spans, optionally filtered by exact name."""
        with self._lock:
            found = list(self._spans)
        if name is not None:
            found = [s for s in found if s.name == name]
        return found

    def children(self, parent: Span) -> list[Span]:
        return [s for s in self.spans() if s.parent_id == parent.span_id]

    def export(self) -> dict:
        """The trace document (see docs/OBSERVABILITY.md).

        Spans are sorted by id, i.e. open order, so parents precede
        children."""
        spans = sorted(self.spans(), key=lambda s: s.span_id or 0)
        return {
            "kind": "trace",
            "schema_version": TRACE_SCHEMA_VERSION,
            "generated_unix": time.time(),
            "spans": [s.to_dict() for s in spans],
        }

    @staticmethod
    def import_spans(doc: dict) -> list[Span]:
        """Rebuild :class:`Span` objects from an exported document."""
        return [Span.from_dict(d) for d in doc.get("spans", [])]

    def record_imported(
        self, spans: list[Span], parent: Span | None = None
    ) -> list[Span]:
        """Adopt externally-measured spans into this tracer.

        The process-pool substrate measures worker spans in the worker's
        own tracer and ships them back with the partials; this re-homes
        them: every span gets a fresh id, parent links *within* the batch
        are remapped, and batch roots are attached under ``parent`` (or
        left as roots).  Spans must arrive parents-before-children, which
        :meth:`export` guarantees.  No-op (returns ``[]``) while the gate
        is off.
        """
        if not ENABLED:
            return []
        id_map: dict[int, int] = {}
        with self._lock:
            for sp in spans:
                old_id = sp.span_id
                sp.span_id = self._next_id
                self._next_id += 1
                if old_id is not None:
                    id_map[old_id] = sp.span_id
            for sp in spans:
                if sp.parent_id in id_map:
                    sp.parent_id = id_map[sp.parent_id]
                elif parent is not None:
                    sp.parent_id = parent.span_id
                else:
                    sp.parent_id = None
                self._spans.append(sp)
        return list(spans)

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
            self._next_id = 1
            self._block_next = ID_BLOCK
            self._active.clear()
        self._local = threading.local()


#: The process-wide default tracer all built-in instrumentation targets.
TRACER = Tracer()


def enable() -> None:
    """Turn the tracing gate on."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn the tracing gate off (collected spans are kept)."""
    global ENABLED
    ENABLED = False


def span(name: str, parent: Span | None = None, **attrs: object) -> _SpanContext:
    """Open a span on the default tracer::

        with span("simmpi.reduce", algo="binomial", size=8) as sp:
            ...
    """
    return TRACER.span(name, parent=parent, **attrs)


def traced(name: str | None = None, **attrs: object) -> Callable[[F], F]:
    """Decorator form: wrap every call of ``fn`` in a span.

    >>> @traced("work.step")
    ... def step(x):
    ...     return x + 1
    >>> step(1)
    2
    """

    def decorate(fn: F) -> F:
        span_name = name or f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with TRACER.span(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate
