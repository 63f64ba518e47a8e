"""Chrome trace-event / Perfetto export: track assignment for master and
procpool-worker spans, nesting after ``Tracer.adopt``, metadata."""

from __future__ import annotations

import json

import pytest

from repro.observability import tracing
from repro.observability.export import (
    MASTER_PID,
    MASTER_TID,
    chrome_trace,
    write_chrome_trace,
)
from repro.observability.tracing import TRACER, TraceContext, Tracer


def _events(doc, ph="X"):
    return [e for e in doc["traceEvents"] if e["ph"] == ph]


def _worker_batch(parent, worker_pid: int, lo: int, hi: int) -> list:
    """Replay the procpool worker protocol: the task carries a child
    :class:`TraceContext` under the master's reduce span and a disjoint
    id block; the worker seeds its *own* tracer from the block, measures
    its spans under the reduce span (with the pid attribute the worker
    task stamps) and exports them, and the master adopts them."""
    ctx = TraceContext.new().child(
        parent.span_id, id_base=TRACER.allocate_block()
    )
    worker_tracer = Tracer()
    worker_tracer.seed(ctx.id_base)
    with worker_tracer.span(
        "procpool.worker", parent_id=ctx.span_id, pid=worker_pid,
        lo=lo, hi=hi, n=hi - lo, trace=ctx.trace_id,
    ):
        with worker_tracer.span("smallacc.scatter", n=hi - lo):
            pass
    return TRACER.adopt(Tracer.import_spans(worker_tracer.export()))


class TestMasterTrack:
    def test_plain_spans_on_master_track(self):
        tracing.enable()
        with TRACER.span("global_sum", substrate="serial"):
            with TRACER.span("smallacc.scatter"):
                pass
        doc = chrome_trace()
        events = _events(doc)
        assert len(events) == 2
        assert all(e["pid"] == MASTER_PID for e in events)
        assert all(e["tid"] == MASTER_TID for e in events)

    def test_event_shape(self):
        tracing.enable()
        with TRACER.span("simmpi.reduce", algo="binomial"):
            pass
        (event,) = _events(chrome_trace())
        assert event["ph"] == "X"
        assert event["name"] == "simmpi.reduce"
        assert event["cat"] == "simmpi"
        assert event["args"]["algo"] == "binomial"
        assert event["ts"] > 0  # wall clock in microseconds
        assert event["dur"] >= 0

    def test_error_spans_carry_error_arg(self):
        tracing.enable()
        with pytest.raises(RuntimeError):
            with TRACER.span("boom"):
                raise RuntimeError("kaput")
        (event,) = _events(chrome_trace())
        assert "RuntimeError" in event["args"]["error"]

    def test_unfinished_spans_excluded(self):
        tracing.enable()
        ctx = TRACER.span("open.region")
        ctx.__enter__()
        assert _events(chrome_trace()) == []

    def test_master_metadata_names(self):
        tracing.enable()
        with TRACER.span("x"):
            pass
        doc = chrome_trace(process_name="repro-test")
        meta = {e["name"]: e for e in _events(doc, ph="M")}
        assert meta["process_name"]["args"]["name"] == "repro-test"
        assert meta["thread_name"]["args"]["name"] == "main"


class TestWorkerTracks:
    def test_worker_spans_on_distinct_tracks(self):
        """Two workers' spans must land on two separate pid/tid lanes,
        distinct from the master lane."""
        tracing.enable()
        with TRACER.span("procpool.reduce", pes=2) as parent:
            pass
        _worker_batch(parent, 1001, 0, 50)
        _worker_batch(parent, 1002, 50, 100)

        events = _events(chrome_trace())
        tracks = {e["name"]: (e["pid"], e["tid"]) for e in events
                  if e["name"] == "procpool.reduce"}
        worker_tracks = {
            (e["pid"], e["tid"]) for e in events
            if e["name"] == "procpool.worker"
        }
        assert tracks["procpool.reduce"] == (MASTER_PID, MASTER_TID)
        assert worker_tracks == {(1001, 1001), (1002, 1002)}

    def test_nested_worker_spans_inherit_worker_track(self):
        """A worker's inner engine span has no pid attribute of its own;
        after adopt it must follow its parent onto the worker
        lane instead of polluting the master lane."""
        tracing.enable()
        with TRACER.span("procpool.reduce") as parent:
            pass
        _worker_batch(parent, 4242, 0, 10)

        events = {e["name"]: e for e in _events(chrome_trace())}
        worker = events["procpool.worker"]
        inner = events["smallacc.scatter"]
        assert (worker["pid"], worker["tid"]) == (4242, 4242)
        assert (inner["pid"], inner["tid"]) == (4242, 4242)

    def test_nesting_preserved_after_adopt(self):
        """adopt keeps the ids the worker drew from its block, so the
        worker span still parents its child and hangs under the reduce
        span — the nesting Perfetto renders."""
        tracing.enable()
        with TRACER.span("procpool.reduce") as parent:
            pass
        spans = _worker_batch(parent, 7, 0, 10)
        by_name = {s.name: s for s in spans}
        worker, inner = by_name["procpool.worker"], by_name["smallacc.scatter"]
        assert inner.parent_id == worker.span_id
        assert worker.parent_id == parent.span_id
        assert min(s.span_id for s in spans) >= tracing.ID_BLOCK

    def test_worker_metadata_tracks(self):
        tracing.enable()
        with TRACER.span("procpool.reduce") as parent:
            pass
        _worker_batch(parent, 31, 0, 5)
        doc = chrome_trace()
        thread_names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in _events(doc, ph="M") if e["name"] == "thread_name"
        }
        assert thread_names[(MASTER_PID, MASTER_TID)] == "main"
        assert thread_names[(31, 31)] == "worker pid=31"

    def test_real_procs_reduction_spans_multiple_tracks(self):
        """End to end: a real process-pool reduction exports at least one
        non-master worker lane."""
        np = pytest.importorskip("numpy")
        from repro.parallel.drivers import global_sum

        tracing.enable()
        rng = np.random.default_rng(5)
        global_sum(rng.uniform(-1, 1, 4000), method="hp-small",
                   substrate="procs", pes=2)
        doc = chrome_trace()
        pids = {e["pid"] for e in _events(doc)}
        assert MASTER_PID in pids
        assert len(pids) >= 2  # at least one real worker lane


class TestWriteChromeTrace:
    def test_written_document_is_json_loadable(self, tmp_path):
        tracing.enable()
        with TRACER.span("a"):
            pass
        path = tmp_path / "trace.json"
        doc = write_chrome_trace(str(path))
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(doc))
        assert on_disk["displayTimeUnit"] == "ms"
