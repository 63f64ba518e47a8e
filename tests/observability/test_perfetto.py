"""Chrome trace-event / Perfetto export: track assignment for master and
procpool-worker spans, nesting after ``record_imported``, metadata."""

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
from repro.observability.tracing import TRACER, Tracer


def _events(doc, ph="X"):
    return [e for e in doc["traceEvents"] if e["ph"] == ph]


def _worker_batch(worker_pid: int, lo: int, hi: int) -> list:
    """Replay the procpool worker protocol: a worker measures spans in
    its *own* tracer (with the pid attribute the worker task stamps),
    exports them, and the master re-homes them via record_imported."""
    worker_tracer = Tracer()
    with worker_tracer.span(
        "procpool.worker", pid=worker_pid, lo=lo, hi=hi, n=hi - lo
    ):
        with worker_tracer.span("smallacc.absorb", chunk=hi - lo):
            pass
    return Tracer.import_spans(worker_tracer.export())


class TestMasterTrack:
    def test_plain_spans_on_master_track(self):
        tracing.enable()
        with TRACER.span("global_sum", substrate="serial"):
            with TRACER.span("smallacc.absorb"):
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
        TRACER.record_imported(_worker_batch(1001, 0, 50), parent=parent)
        TRACER.record_imported(_worker_batch(1002, 50, 100), parent=parent)

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
        after record_imported it must follow its parent onto the worker
        lane instead of polluting the master lane."""
        tracing.enable()
        with TRACER.span("procpool.reduce") as parent:
            pass
        TRACER.record_imported(_worker_batch(4242, 0, 10), parent=parent)

        events = {e["name"]: e for e in _events(chrome_trace())}
        worker = events["procpool.worker"]
        inner = events["smallacc.absorb"]
        assert (worker["pid"], worker["tid"]) == (4242, 4242)
        assert (inner["pid"], inner["tid"]) == (4242, 4242)

    def test_nesting_preserved_after_record_imported(self):
        """record_imported remaps ids; the exported parent/child timing
        containment is what Perfetto renders, so the worker span must
        still enclose its child."""
        tracing.enable()
        with TRACER.span("procpool.reduce") as parent:
            pass
        spans = TRACER.record_imported(
            _worker_batch(7, 0, 10), parent=parent
        )
        by_name = {s.name: s for s in spans}
        worker, inner = by_name["procpool.worker"], by_name["smallacc.absorb"]
        assert inner.parent_id == worker.span_id
        assert worker.parent_id == parent.span_id

    def test_worker_metadata_tracks(self):
        tracing.enable()
        with TRACER.span("procpool.reduce") as parent:
            pass
        TRACER.record_imported(_worker_batch(31, 0, 5), parent=parent)
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
