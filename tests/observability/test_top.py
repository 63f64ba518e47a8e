"""The ``repro top`` dashboard: pure rendering plus the poll loop
against a real MetricsServer."""

from __future__ import annotations

import io

from repro.observability.metrics import MetricsRegistry
from repro.observability.monitor import ULP_BUCKETS
from repro.observability.server import MetricsServer, SnapshotRing
from repro.observability.top import fetch_snapshot, render_top, run_top


def _payload():
    """A /snapshot payload with every section populated, built from a
    real ring over a real registry."""
    reg = MetricsRegistry()
    ring = SnapshotRing(reg, capacity=4)
    ring.sample()
    reg.counter("global_sum.summands", substrate="procs").inc(1_000_000)
    reg.counter("procpool.reduces").inc(3)
    reg.histogram("drift.ulp_error", buckets=ULP_BUCKETS,
                  path="hp-small").observe(0)
    reg.histogram("drift.ulp_error", buckets=ULP_BUCKETS,
                  path="float64").observe(120)
    reg.counter("drift.order_invariance_violations", path="float64").inc(2)
    reg.histogram("procpool.task_seconds", buckets=(0.01, 0.1),
                  method="hp-small").observe(0.004)
    reg.histogram("profile.phase_call_seconds", buckets=(0.01, 0.1),
                  phase="smallacc.scatter").observe(0.02)
    import time

    time.sleep(0.01)  # nonzero window so rates are well-defined
    ring.sample()
    return ring.payload()


class TestRenderTop:
    def test_all_sections_render(self):
        frame = render_top(_payload(), url="http://127.0.0.1:9")
        assert "repro top — http://127.0.0.1:9" in frame
        assert "global_sum.summands{substrate=procs}" in frame
        assert "path=hp-small" in frame
        assert "path=float64" in frame
        assert "order-invariance violations: 2 (float64=2)" in frame
        assert "procpool.reduces" in frame
        assert "procpool task seconds:" in frame
        assert "method=hp-small" in frame
        assert "profiled phases (per-call latency):" in frame
        assert "smallacc.scatter" in frame

    def test_rates_section_scales_units(self):
        frame = render_top(_payload())
        # 1M summands over a ~10ms window: rendered with an M or G suffix
        assert "M/s" in frame or "G/s" in frame

    def test_empty_payload_renders_placeholders(self):
        frame = render_top({"latest": None, "rates": [], "samples": 0,
                            "window_s": 0.0, "interval_s": 1.0})
        assert "(need two ring samples" in frame
        assert "(drift monitor idle" in frame
        assert "(none yet)" in frame


class TestRunTop:
    def test_run_top_against_live_server(self):
        reg = MetricsRegistry()
        reg.counter("procpool.reduces").inc()
        with MetricsServer(port=0, registry=reg, interval=0.05) as server:
            payload = fetch_snapshot(server.url)
            assert payload["kind"] == "live_snapshot"
            out = io.StringIO()
            status = run_top(server.url, interval=0.01, iterations=2,
                             clear=False, out=out)
        assert status == 0
        assert out.getvalue().count("repro top —") == 2
        assert "\x1b[" not in out.getvalue()  # clear=False: no ANSI

    def test_clear_writes_ansi_home(self):
        with MetricsServer(port=0, registry=MetricsRegistry()) as server:
            out = io.StringIO()
            run_top(server.url, interval=0.01, iterations=1, clear=True,
                    out=out)
        assert out.getvalue().startswith("\x1b[H\x1b[J")

    def test_unreachable_server_exits_nonzero(self, capsys):
        status = run_top("http://127.0.0.1:9", interval=0.01, iterations=1,
                         clear=False, out=io.StringIO())
        assert status == 1
        assert "cannot fetch" in capsys.readouterr().err


class TestSparseSnapshots:
    """Satellite: the dashboard must degrade gracefully when fed a
    sparse or partially-populated snapshot (older server, forensics
    bundle, registry that never saw a subsystem) instead of stack-
    tracing."""

    def test_missing_top_level_keys(self):
        frame = render_top({})
        assert "repro top" in frame
        assert "(need two ring samples" in frame
        assert "(drift monitor idle" in frame
        assert "(none yet)" in frame

    def test_latest_without_metrics_key(self):
        frame = render_top({"latest": {}, "samples": 1, "window_s": 0.5,
                            "interval_s": 1.0})
        assert "(none yet)" in frame

    def test_non_dict_entries_are_skipped(self):
        payload = {
            "latest": {"metrics": ["garbage", None, 42,
                                   {"name": "procpool.reduces",
                                    "type": "counter", "value": 3}]},
            "rates": ["also-garbage", {"name": "x"}],
            "samples": 2, "window_s": 1.0, "interval_s": 1.0,
        }
        frame = render_top(payload)
        assert "procpool.reduces" in frame

    def test_metrics_missing_numeric_fields(self):
        payload = {
            "latest": {"metrics": [
                {"name": "drift.ulp_error", "type": "histogram",
                 "labels": {"path": "hp"}},  # no count/sum/max
                {"name": "planner.bound_margin", "type": "histogram"},
                {"name": "procpool.task_seconds", "type": "histogram"},
                {"name": "profile.phase_call_seconds", "type": "histogram"},
                {"name": "global_sum.calls", "type": "counter"},
            ]},
            "rates": [{"name": "global_sum.calls"}],  # no per_second
            "samples": 2, "window_s": 1.0, "interval_s": 1.0,
        }
        frame = render_top(payload)
        assert "path=hp" in frame
        assert "engine=?" in frame

    def test_labels_of_wrong_type_are_tolerated(self):
        payload = {
            "latest": {"metrics": [
                {"name": "drift.order_invariance_violations",
                 "type": "counter", "value": 1, "labels": "not-a-dict"},
                {"name": "drift.ulp_error", "type": "histogram",
                 "count": 1, "sum": 0.0, "max": 0.0, "labels": None},
            ]},
            "samples": 2, "window_s": 1.0, "interval_s": 1.0,
        }
        frame = render_top(payload)
        assert "path=?" in frame
        assert "?=1" in frame


class TestSloPanel:
    @staticmethod
    def _gauges(objective, target, compliance, burn, good, total):
        def g(name, value, **labels):
            return {"name": name, "type": "gauge", "value": value,
                    "labels": {"objective": objective, **labels}}

        return [
            g("slo.target", target),
            g("slo.compliance", compliance),
            g("slo.burn_rate", burn),
            g("slo.events", good, status="good"),
            g("slo.events", total, status="total"),
        ]

    def _frame(self, gauges):
        return render_top({"latest": {"metrics": gauges}, "samples": 2,
                           "window_s": 1.0, "interval_s": 1.0})

    def test_absent_gauges_hide_the_panel(self):
        assert "service-level objectives" not in render_top({})

    def test_healthy_objective_reads_ok(self):
        frame = self._frame(
            self._gauges("accuracy", 0.999, 1.0, 0.0, 10, 10)
        )
        assert "service-level objectives:" in frame
        assert "accuracy" in frame
        assert "good/total=10/10" in frame
        assert "[OK]" in frame

    def test_breached_objective_reads_breached(self):
        frame = self._frame(
            self._gauges("accuracy", 0.999, 0.9, 100.0, 9, 10)
        )
        assert "[BREACHED]" in frame
        assert "burn=100.00x" in frame

    def test_infinite_burn_sentinel_renders_inf(self):
        frame = self._frame(
            self._gauges("exactness", 1.0, 0.5, -1.0, 1, 2)
        )
        assert "burn=   inf" in frame

    def test_no_events_standing(self):
        frame = self._frame(
            self._gauges("latency", 0.95, 1.0, 0.0, 0, 0)
        )
        assert "[no events]" in frame
