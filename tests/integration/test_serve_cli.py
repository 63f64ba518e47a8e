"""Integration tests for the live-telemetry CLI surface.

Covers the ``serve-metrics`` daemon (subprocess: real HTTP scrape of a
real workload, the CI live-telemetry job's recipe), the
``--serve-metrics`` flag on compute subcommands, the ``--prom-out`` /
``--perfetto-out`` file exporters, and ``repro top``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.observability import metrics, tracing
from repro.observability.export import parse_prometheus_text
from repro.observability.metrics import REGISTRY
from repro.observability.monitor import MONITOR
from repro.observability.tracing import TRACER

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def clean_observability():
    """The CLI enables the global gates; leave no state behind."""
    yield
    metrics.disable()
    tracing.disable()
    MONITOR.disarm()
    MONITOR.reset()
    REGISTRY.clear()
    TRACER.reset()


def _spawn(args: list[str]) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )


def _read_url(proc: subprocess.Popen, timeout: float = 30.0) -> str:
    """The serve paths print exactly one ``serving telemetry on <url>``
    line on stdout; parse the URL from it."""
    line = proc.stdout.readline()
    assert "serving telemetry on http://" in line, (
        f"unexpected first line: {line!r} "
        f"(stderr: {proc.stderr.read() if proc.poll() is not None else ''!r})"
    )
    return line.strip().rsplit(" ", 1)[-1]


def _scrape(url: str, timeout: float = 5.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read()


def _wait_for(predicate, deadline_s: float = 60.0, what: str = "condition"):
    deadline = time.time() + deadline_s
    while time.time() < deadline:
        value = predicate()
        if value is not None:
            return value
        time.sleep(0.2)
    raise AssertionError(f"timed out waiting for {what}")


def _terminate(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=15)
    proc.stdout.close()
    proc.stderr.close()


class TestServeMetricsDaemon:
    def test_daemon_serves_workload_telemetry(self):
        """The acceptance-criterion scrape: a procs workload behind
        ``serve-metrics`` exposes valid Prometheus text with procpool.*
        and drift.* families, and the HP path shows zero ULP drift."""
        proc = _spawn([
            "serve-metrics", "--port", "0", "--workload", "20000",
            "--substrate", "procs", "--pes", "2", "--method", "hp-small",
            "--interval", "0.2",
        ])
        try:
            url = _read_url(proc)

            health = json.loads(_scrape(url + "/healthz"))
            assert health["status"] == "ok"

            def drift_visible():
                text = _scrape(url + "/metrics").decode()
                return text if "drift_ulp_error_count" in text else None

            text = _wait_for(drift_visible, what="drift metrics in scrape")
            families = parse_prometheus_text(text)

            assert families["global_sum_calls"]["type"] == "counter"
            assert families["procpool_reduces"]["type"] == "counter"
            assert families["procpool_tasks"]["type"] == "counter"

            drift = families["drift_ulp_error"]
            assert drift["type"] == "histogram"
            paths = {l.get("path") for _, l, _ in drift["samples"]}
            assert {"float64", "hp-small"} <= paths
            # The delivered HP value never drifts: its ULP histogram sum
            # stays exactly zero no matter how many samples landed.
            hp_sum = next(
                v for n, l, v in drift["samples"]
                if n.endswith("_sum") and l.get("path") == "hp-small"
            )
            assert hp_sum == 0
            violations = [
                v for n, l, v in families.get(
                    "drift_order_invariance_violations",
                    {"samples": []},
                )["samples"]
                if l.get("path") == "hp-small"
            ]
            assert all(v == 0 for v in violations)

            snapshot = json.loads(_scrape(url + "/snapshot"))
            assert snapshot["kind"] == "live_snapshot"
            assert snapshot["samples"] >= 1
        finally:
            _terminate(proc)

    def test_404_and_request_accounting(self):
        proc = _spawn(["serve-metrics", "--port", "0"])
        try:
            url = _read_url(proc)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _scrape(url + "/favicon.ico")
            assert excinfo.value.code == 404
            _scrape(url + "/metrics")
            health = json.loads(_scrape(url + "/healthz"))
            assert health["requests"] >= 1
        finally:
            _terminate(proc)


class TestServeMetricsFlag:
    def test_sum_exposes_metrics_while_running(self, tmp_path):
        """``repro sum --substrate procs --serve-metrics PORT`` is
        scrapeable during the run (the linger keeps the endpoint up)."""
        data = tmp_path / "data.npy"
        rng = np.random.default_rng(23)
        np.save(data, rng.uniform(-1, 1, 50_000))
        proc = _spawn([
            "sum", str(data), "--substrate", "procs", "--pes", "2",
            "--serve-metrics", "0", "--serve-linger", "30",
        ])
        try:
            url = _read_url(proc)

            def families_ready():
                text = _scrape(url + "/metrics").decode()
                if "procpool_reduces" in text and "drift_ulp_error" in text:
                    return parse_prometheus_text(text)
                return None

            families = _wait_for(families_ready, what="sum-run families")
            assert families["procpool_reduces"]["samples"][0][2] >= 1
            last_ulp = {
                l["path"]: v
                for _, l, v in families["drift_last_ulp_error"]["samples"]
            }
            assert last_ulp["hp-small"] == 0
        finally:
            _terminate(proc)


class TestFileExporters:
    def test_prom_out_and_perfetto_out(self, tmp_path):
        data = tmp_path / "data.npy"
        rng = np.random.default_rng(29)
        np.save(data, rng.uniform(-1, 1, 20_000))
        prom = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.perfetto.json"
        code = main([
            "sum", str(data), "--substrate", "threads", "--pes", "2",
            "--prom-out", str(prom), "--perfetto-out", str(trace),
        ])
        assert code == 0

        families = parse_prometheus_text(prom.read_text())
        assert families["global_sum_calls"]["type"] == "counter"
        assert families["global_sum_summands"]["samples"][0][2] == 20_000

        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "global_sum" in names

    def test_prom_out_procs_includes_worker_tracks(self, tmp_path):
        data = tmp_path / "data.npy"
        rng = np.random.default_rng(31)
        np.save(data, rng.uniform(-1, 1, 20_000))
        trace = tmp_path / "trace.json"
        code = main([
            "sum", str(data), "--substrate", "procs", "--pes", "2",
            "--perfetto-out", str(trace),
        ])
        assert code == 0
        doc = json.loads(trace.read_text())
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert len(pids) >= 2  # master lane + >= 1 worker lane


class TestTopCommand:
    def test_top_renders_one_frame_from_live_server(self, capsys):
        from repro.observability.server import MetricsServer

        REGISTRY.counter("global_sum.calls", substrate="serial").inc()
        with MetricsServer(port=0, interval=0.05) as server:
            code = main([
                "top", "--url", server.url, "--iterations", "1",
                "--interval", "0.01", "--no-clear",
            ])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro top —" in out
        assert "global_sum.calls" in out

    def test_top_unreachable_exits_nonzero(self, capsys):
        code = main([
            "top", "--url", "http://127.0.0.1:9", "--iterations", "1",
            "--interval", "0.01", "--no-clear",
        ])
        assert code == 1
