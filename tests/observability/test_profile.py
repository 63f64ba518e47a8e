"""The profiling layer: phase markers, the cost table, the sampling
profiler, and the flamegraph/speedscope/Perfetto/Prometheus exports.

The synthetic-span tests build :class:`Span` trees via ``from_dict``
with hand-picked durations so self/cumulative arithmetic is asserted
exactly; the end-to-end tests drive real reductions (including a real
``procs`` pool) and assert the structural invariants instead.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.observability import metrics, profile, tracing
from repro.observability.export import parse_prometheus_text, prometheus_text
from repro.observability.metrics import REGISTRY
from repro.observability.profile import (
    MASTER_WORKER,
    PHASE_PREFIX,
    RUN_SPAN,
    ProfileReport,
    SamplingProfiler,
    chrome_trace_with_phases,
    parse_collapsed,
    phase,
    phase_counter_events,
    profiled,
    speedscope_document,
    validate_speedscope,
)
from repro.observability.tracing import TRACER, Span


def _span(name, span_id, parent_id=None, duration=0.0, start=0.0, **attrs):
    return Span.from_dict({
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "attrs": attrs,
        "start_unix": start,
        "duration_s": duration,
        "error": None,
    })


class TestPhaseGate:
    def test_disabled_returns_shared_noop(self):
        # One singleton, not a fresh object per call: the disabled cost
        # at a hot call site is a global load and a falsy test.
        assert phase("smallacc.scatter") is phase("smallacc.propagate")

    def test_disabled_records_nothing_even_with_tracing_on(self):
        tracing.enable()
        metrics.enable()
        with phase("smallacc.scatter"):
            pass
        assert TRACER.spans() == []
        assert REGISTRY.collect("profile.") == []

    def test_enabled_records_span_and_metrics(self):
        metrics.enable()
        profile.enable()
        with phase("smallacc.scatter", chunk=4):
            pass
        (sp,) = TRACER.spans()
        assert sp.name == PHASE_PREFIX + "smallacc.scatter"
        assert sp.attrs["chunk"] == 4
        assert sp.finished
        assert REGISTRY.value(
            "profile.phase_calls", phase="smallacc.scatter"
        ) == 1
        assert REGISTRY.value(
            "profile.phase_seconds", phase="smallacc.scatter"
        ) >= 0.0
        hist = REGISTRY.get(
            "profile.phase_call_seconds", phase="smallacc.scatter"
        )
        assert hist is not None and hist.count == 1

    def test_enable_arms_tracing_too(self):
        profile.enable()
        assert tracing.ENABLED

    def test_phase_without_metrics_records_span_only(self):
        profile.enable()
        with phase("hp.round"):
            pass
        assert len(TRACER.spans()) == 1
        assert REGISTRY.collect("profile.") == []

    def test_profiled_restores_all_gates(self):
        assert not (profile.ENABLED or tracing.ENABLED or metrics.ENABLED)
        with profiled():
            assert profile.ENABLED and tracing.ENABLED and metrics.ENABLED
        assert not (profile.ENABLED or tracing.ENABLED or metrics.ENABLED)

    def test_profiled_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with profiled():
                raise RuntimeError("boom")
        assert not profile.ENABLED


class TestProfileReport:
    def test_self_time_subtracts_nested_phases(self):
        spans = [
            _span(RUN_SPAN, 1, duration=1.0),
            _span(PHASE_PREFIX + "outer", 2, parent_id=1, duration=0.6),
            # A non-phase span between the two phases: the walk must
            # attribute 'inner' to 'outer' straight through it.
            _span("intermediate", 3, parent_id=2, duration=0.5),
            _span(PHASE_PREFIX + "inner", 4, parent_id=3, duration=0.2),
        ]
        report = ProfileReport.from_spans(spans)
        rows = {r.phase: r for r in report.rows}
        assert report.wall_s == pytest.approx(1.0)
        assert rows["outer"].cum_s == pytest.approx(0.6)
        assert rows["outer"].self_s == pytest.approx(0.4)
        assert rows["inner"].self_s == pytest.approx(0.2)
        assert report.attributed_s == pytest.approx(0.6)
        assert report.attributed_fraction == pytest.approx(0.6)

    def test_rows_aggregate_calls_and_sort_by_self_time(self):
        spans = [
            _span(PHASE_PREFIX + "a", 1, duration=0.1, start=10.0),
            _span(PHASE_PREFIX + "a", 2, duration=0.2, start=10.1),
            _span(PHASE_PREFIX + "b", 3, duration=0.5, start=10.3),
        ]
        report = ProfileReport.from_spans(spans)
        assert [r.phase for r in report.rows] == ["b", "a"]
        a = report.rows[1]
        assert a.calls == 2 and a.cum_s == pytest.approx(0.3)
        # No RUN_SPAN: wall is the time range the phases cover.
        assert report.wall_s == pytest.approx(0.8)

    def test_worker_attribution_via_pid_ancestor(self):
        spans = [
            _span(RUN_SPAN, 1, duration=1.0),
            _span("procpool.worker", 2, parent_id=1, duration=0.9, pid=7),
            _span(PHASE_PREFIX + "procs.compute", 3, parent_id=2,
                  duration=0.8),
            _span(PHASE_PREFIX + "procs.combine", 4, parent_id=1,
                  duration=0.05),
        ]
        report = ProfileReport.from_spans(spans)
        by_phase = {r.phase: r for r in report.rows}
        assert by_phase["procs.compute"].worker == "pid=7"
        assert by_phase["procs.combine"].worker == MASTER_WORKER
        # Worker self-time must not inflate the master-clock fraction.
        assert report.attributed_s == pytest.approx(0.05)
        assert report.workers() == ["pid=7", MASTER_WORKER]
        totals = report.phase_totals()
        assert totals["procs.compute"] == pytest.approx(0.8)

    def test_unfinished_spans_are_ignored(self):
        open_span = _span(PHASE_PREFIX + "x", 1, duration=0.0)
        open_span.duration_s = None
        report = ProfileReport.from_spans([open_span])
        assert report.rows == [] and report.wall_s == 0.0
        assert report.attributed_fraction == 0.0

    def test_to_dict_and_render(self):
        spans = [
            _span(RUN_SPAN, 1, duration=0.5),
            _span(PHASE_PREFIX + "fold", 2, parent_id=1, duration=0.25),
        ]
        report = ProfileReport.from_spans(spans)
        doc = report.to_dict()
        assert doc["kind"] == "profile" and doc["schema_version"] == 1
        assert doc["phases"][0] == {
            "phase": "fold", "worker": MASTER_WORKER, "calls": 1,
            "cum_s": pytest.approx(0.25), "self_s": pytest.approx(0.25),
        }
        text = report.render()
        assert "fold" in text and "% wall" in text
        assert "50.0% of wall" in text

    def test_from_tracer_end_to_end(self):
        with profiled():
            with TRACER.span(RUN_SPAN):
                with phase("outer"):
                    with phase("inner"):
                        time.sleep(0.01)
        report = ProfileReport.from_tracer()
        rows = {r.phase: r for r in report.rows}
        assert set(rows) == {"outer", "inner"}
        assert rows["inner"].cum_s >= 0.01
        assert 0.0 < report.attributed_fraction <= 1.0


class TestSamplingProfiler:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval_s=0.0)

    def test_rejects_double_start(self):
        p = SamplingProfiler(interval_s=0.01)
        with p:
            with pytest.raises(RuntimeError):
                p.start()

    def test_samples_a_busy_main_thread(self):
        with SamplingProfiler(interval_s=0.002) as p:
            deadline = time.perf_counter() + 0.15
            while time.perf_counter() < deadline:
                sum(range(1000))
        assert p.samples > 0
        stacks = p.merged()
        assert sum(stacks.values()) == p.samples
        for stack in stacks:
            assert stack  # never an empty tuple
            assert all(";" not in frame for frame in stack)

    def test_collapsed_round_trips_exact_weights(self):
        p = SamplingProfiler(interval_s=0.002)
        p.stacks = {("mod:main", "mod:inner"): 5, ("mod:main",): 2}
        p.samples = 7
        text = p.collapsed()
        assert text.endswith("\n")
        assert "mod:main;mod:inner 5" in text
        assert parse_collapsed(text) == p.stacks

    def test_parse_collapsed_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_collapsed("no-trailing-count\n")
        with pytest.raises(ValueError):
            parse_collapsed("a;;b 3\n")

    def test_records_sample_counter_when_metrics_on(self):
        metrics.enable()
        with SamplingProfiler(interval_s=0.002):
            time.sleep(0.05)
        assert REGISTRY.value("profile.samples") > 0


class TestSpeedscope:
    STACKS = {("a", "b"): 4, ("a", "c"): 1}

    def test_document_validates_and_dedups_frames(self):
        doc = speedscope_document(self.STACKS, interval_s=0.01)
        assert validate_speedscope(doc) == []
        names = [f["name"] for f in doc["shared"]["frames"]]
        assert sorted(names) == ["a", "b", "c"]  # 'a' deduplicated
        prof = doc["profiles"][0]
        assert prof["unit"] == "seconds"
        assert sum(prof["weights"]) == pytest.approx(0.05)
        assert prof["endValue"] == pytest.approx(0.05)
        # Parallel arrays, indices resolve to the right labels.
        for stack, indexed in zip(sorted(self.STACKS), prof["samples"]):
            assert tuple(names[i] for i in indexed) == stack

    def test_document_survives_json_round_trip(self):
        doc = json.loads(json.dumps(speedscope_document(self.STACKS)))
        assert validate_speedscope(doc) == []

    def test_validate_flags_corruption(self):
        doc = speedscope_document(self.STACKS)
        assert validate_speedscope({"$schema": "nope"}) != []
        broken = json.loads(json.dumps(doc))
        broken["profiles"][0]["weights"] = [1.0]
        assert any("samples" in p for p in validate_speedscope(broken))
        broken = json.loads(json.dumps(doc))
        broken["profiles"][0]["samples"][0] = [999]
        assert any("out-of-range" in p for p in validate_speedscope(broken))


class TestPrometheusRoundTrip:
    def test_profile_metrics_survive_exposition(self):
        with profiled():
            with phase("smallacc.scatter"):
                time.sleep(0.001)
            with phase("smallacc.scatter"):
                pass
            with phase("hp.round"):
                pass
        text = prometheus_text(REGISTRY)
        assert "# TYPE profile_phase_calls counter" in text
        assert "# TYPE profile_phase_call_seconds histogram" in text
        parsed = parse_prometheus_text(text)
        calls = parsed["profile_phase_calls"]
        assert calls["type"] == "counter"
        values = {
            labels["phase"]: value
            for _, labels, value in calls["samples"]
        }
        assert values["smallacc.scatter"] == 2
        assert values["hp.round"] == 1
        hist = parsed["profile_phase_call_seconds"]
        assert hist["type"] == "histogram"
        counts = {
            labels["phase"]: value
            for name, labels, value in hist["samples"]
            if name.endswith("_count")
        }
        assert counts["smallacc.scatter"] == 2


class TestPerfettoCounters:
    def test_counter_events_are_cumulative_per_phase(self):
        with profiled():
            for _ in range(3):
                with phase("fold"):
                    pass
        events = phase_counter_events()
        assert len(events) == 3
        seen = 0.0
        for ev in events:
            assert ev["ph"] == "C"
            assert ev["name"] == "phase_seconds.fold"
            assert ev["args"]["seconds"] >= seen
            seen = ev["args"]["seconds"]
        stamps = [ev["ts"] for ev in events]
        assert stamps == sorted(stamps)

    def test_chrome_trace_with_phases_merges_both_kinds(self):
        with profiled():
            with TRACER.span(RUN_SPAN):
                with phase("fold"):
                    pass
        doc = chrome_trace_with_phases()
        kinds = {ev["ph"] for ev in doc["traceEvents"]}
        assert {"X", "C"} <= kinds
        json.dumps(doc)  # must be serializable as-is


class TestProcsRehoming:
    def test_worker_phases_rehome_under_master_trace(self):
        # A real process pool: worker-side phase spans travel back in
        # the result meta and must land on pid= rows of the report.
        from repro.parallel.drivers import make_method
        from repro.parallel.procpool import procpool_reduce

        xs = np.linspace(-1.0, 1.0, 20_000)
        with profiled():
            with TRACER.span(RUN_SPAN, substrate="procs"):
                result = procpool_reduce(xs, make_method("hp-small"), 2)
        assert result.pes == 2
        report = ProfileReport.from_tracer()
        workers = {
            r.worker for r in report.rows if r.phase == "procs.compute"
        }
        assert len(workers) == 2
        assert all(w.startswith("pid=") for w in workers)
        master_phases = {
            r.phase for r in report.rows if r.worker == MASTER_WORKER
        }
        assert {"procs.partition", "procs.dispatch",
                "procs.combine"} <= master_phases
        # Worker scatter phases re-homed with their procpool ancestry.
        assert any(
            r.phase == "smallacc.scatter" and r.worker.startswith("pid=")
            for r in report.rows
        )
        assert 0.0 < report.attributed_fraction <= 1.0
