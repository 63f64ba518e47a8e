"""TraceContext: dict/header wire forms, thread-local activation, and
the disjoint span-id block machinery that makes remote spans adoptable
verbatim."""

from __future__ import annotations

import pytest

from repro.observability import tracing
from repro.observability.tracing import (
    ID_BLOCK,
    Span,
    TRACER,
    TraceContext,
    Tracer,
    activate_context,
    current_context,
)


class TestWireForms:
    def test_new_mints_random_hex(self):
        a, b = TraceContext.new(), TraceContext.new()
        assert len(a.trace_id) == 16
        int(a.trace_id, 16)  # must be hex
        assert a.trace_id != b.trace_id
        assert a.span_id is None

    def test_dict_roundtrip(self):
        ctx = TraceContext("abcdef0123456789", span_id=42, id_base=ID_BLOCK)
        back = TraceContext.from_dict(ctx.to_dict())
        assert back.trace_id == ctx.trace_id
        assert back.span_id == 42
        assert back.id_base == ID_BLOCK

    def test_from_dict_rejects_empty(self):
        assert TraceContext.from_dict(None) is None
        assert TraceContext.from_dict({}) is None
        assert TraceContext.from_dict({"trace_id": ""}) is None

    def test_child_reparents_within_the_trace(self):
        ctx = TraceContext.new()
        kid = ctx.child(span_id=7, id_base=2 * ID_BLOCK)
        assert kid.trace_id == ctx.trace_id
        assert kid.span_id == 7
        assert kid.id_base == 2 * ID_BLOCK

    def test_header_roundtrip(self):
        ctx = TraceContext("abcdef0123456789", span_id=42)
        payload = ctx.to_header() + b"body-bytes"
        back, body = TraceContext.from_header(payload)
        assert body == b"body-bytes"
        assert back.trace_id == ctx.trace_id
        assert back.span_id == 42

    @pytest.mark.parametrize(
        "trace_id", ["0bcdef0123456789", "00000000000000a7", "abc"]
    )
    def test_header_keeps_every_digit_of_the_trace_id(self, trace_id):
        # One minted id in 16 starts with "0"; its messages must still
        # journal under the request's trace.
        back, _ = TraceContext.from_header(TraceContext(trace_id).to_header())
        assert back.trace_id == trace_id

    def test_header_without_span_id(self):
        ctx = TraceContext("abcdef0123456789")
        back, _ = TraceContext.from_header(ctx.to_header())
        assert back.span_id is None

    def test_header_len_is_fixed(self):
        assert len(TraceContext.new().to_header()) == TraceContext.HEADER_LEN

    @pytest.mark.parametrize("payload", [
        b"",
        b"short",
        b"not-a-header-but-long-enough-to-fool-a-sloppy-parser",
        b"RTC1" + b"\xff" * 32,  # magic, garbage hex
    ])
    def test_garbage_payloads_pass_through(self, payload):
        ctx, body = TraceContext.from_header(payload)
        assert ctx is None
        assert body == payload


class TestActivation:
    def test_no_context_by_default(self):
        assert current_context() is None

    def test_activation_nests_and_unwinds(self):
        outer, inner = TraceContext.new(), TraceContext.new()
        with activate_context(outer):
            assert current_context() is outer
            with activate_context(inner):
                assert current_context() is inner
            assert current_context() is outer
        assert current_context() is None

    def test_activation_is_thread_local(self):
        import threading

        seen = []
        ctx = TraceContext.new()

        def probe():
            seen.append(current_context())

        with activate_context(ctx):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert seen == [None]


class TestIdBlocks:
    def test_blocks_are_disjoint(self):
        tracer = Tracer()
        blocks = [tracer.allocate_block() for _ in range(3)]
        assert blocks == [ID_BLOCK, 2 * ID_BLOCK, 3 * ID_BLOCK]

    def test_seeded_tracer_allocates_from_the_block(self):
        tracing.enable()
        master, worker = Tracer(), Tracer()
        base = master.allocate_block()
        worker.seed(base)
        with worker.span("worker.task"):
            pass
        with master.span("reduce"):
            pass
        worker_ids = {s.span_id for s in worker.spans()}
        master_ids = {s.span_id for s in master.spans()}
        assert worker_ids == {base}
        assert master_ids == {1}
        assert not worker_ids & master_ids

    def test_adopt_keeps_ids_verbatim(self):
        tracing.enable()
        master, worker = Tracer(), Tracer()
        worker.seed(master.allocate_block())
        with master.span("reduce") as reduce_span:
            with worker.span(
                "worker.task", parent_id=reduce_span.span_id
            ):
                pass
        shipped = worker.spans()
        adopted = master.adopt(shipped)
        assert adopted == shipped
        task = master.spans("worker.task")[0]
        assert task.span_id == ID_BLOCK
        assert task.parent_id == reduce_span.span_id

    def test_adopt_gated_off(self):
        tracer = Tracer()
        assert tracer.adopt([Span("x")]) == []


class TestActiveSpans:
    def test_active_lists_open_spans_in_open_order(self):
        tracing.enable()
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                names = [s.name for s in tracer.active()]
                assert names == ["outer", "inner"]
        assert tracer.active() == []

    def test_span_parent_id_links_under_remote_span(self):
        tracing.enable()
        tracer = Tracer()
        with tracer.span("child", parent_id=999) as sp:
            pass
        assert sp.parent_id == 999
