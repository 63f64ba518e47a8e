"""Integration tests for the flight-recorder CLI surface.

Covers ``--journal-out`` / ``--forensics-out`` on compute subcommands,
the ``repro events`` inspector (tail/filter/stats/validate and the
``--trace`` cross-process reassembly), and the subprocess kill-mid-run
path that must leave a schema-valid forensics bundle behind.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.observability import journal, metrics, tracing
from repro.observability.journal import JOURNAL
from repro.observability.metrics import REGISTRY
from repro.observability.monitor import MONITOR
from repro.observability.recorder import RECORDER
from repro.observability.schema import (
    validate_document,
    validate_forensics_doc,
    validate_jsonl_file,
)
from repro.observability.tracing import TRACER

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def clean_observability():
    """The CLI enables the global gates; leave no state behind."""
    yield
    metrics.disable()
    tracing.disable()
    journal.disable()
    MONITOR.disarm()
    MONITOR.reset()
    REGISTRY.clear()
    TRACER.reset()
    JOURNAL.reset()
    RECORDER.uninstall()


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def data_file(tmp_path, rng):
    f = tmp_path / "values.npy"
    np.save(f, rng.uniform(-1.0, 1.0, 4096))
    return str(f)


class TestJournalOut:
    def test_sum_spills_request_events(self, tmp_path, capsys, data_file):
        spill = tmp_path / "journal.jsonl"
        code, out, _ = run_cli(
            capsys, "sum", data_file, "--substrate", "serial",
            "--journal-out", str(spill),
        )
        assert code == 0
        checked, problems = validate_jsonl_file(str(spill))
        assert problems == []
        events = [json.loads(line) for line in
                  spill.read_text().splitlines()]
        names = [e["event"] for e in events]
        assert "request.start" in names
        assert "request.finish" in names

    def test_procs_spill_tells_the_cross_process_story(
        self, tmp_path, capsys, data_file
    ):
        spill = tmp_path / "journal.jsonl"
        code, _, _ = run_cli(
            capsys, "sum", data_file, "--substrate", "procs", "--pes", "2",
            "--journal-out", str(spill),
        )
        assert code == 0
        events = [json.loads(line) for line in
                  spill.read_text().splitlines()]
        pids = {e["pid"] for e in events}
        assert len(pids) > 1, "worker events missing from the spill"
        trace_ids = {e.get("trace_id") for e in events} - {None}
        assert len(trace_ids) == 1, "expected one causal trace"

    def test_planned_sum_journals_the_verdict(
        self, tmp_path, capsys, data_file
    ):
        spill = tmp_path / "journal.jsonl"
        code, _, _ = run_cli(
            capsys, "sum", data_file, "--target-accuracy", "0",
            "--journal-out", str(spill),
        )
        assert code == 0
        events = [json.loads(line) for line in
                  spill.read_text().splitlines()]
        decisions = [e for e in events if e["event"] == "plan.decision"]
        assert len(decisions) == 1
        assert decisions[0]["engine"]
        assert "coefficient" in decisions[0]  # the promised bound term
        assert "verdicts" in decisions[0]

    def test_planned_substrate_run_audits_under_one_trace(
        self, tmp_path, capsys, data_file
    ):
        """The acceptance story: a planned procs run journals the chosen
        engine, the promised bound, AND the measured margin — all under
        a single trace_id, workers included."""
        spill = tmp_path / "journal.jsonl"
        code, _, _ = run_cli(
            capsys, "sum", data_file, "--substrate", "procs", "--pes", "2",
            "--target-accuracy", "1e-12", "--journal-out", str(spill),
        )
        assert code == 0
        events = [json.loads(line) for line in
                  spill.read_text().splitlines()]
        names = {e["event"] for e in events}
        assert {"plan.decision", "request.start", "worker.task", "merge",
                "request.finish", "bound.check"} <= names
        # One trace covers the plan, the cross-process execution, and
        # the bound audit — nothing is orphaned.
        assert len({e.get("trace_id") for e in events}) == 1
        (decision,) = [e for e in events if e["event"] == "plan.decision"]
        (audit,) = [e for e in events if e["event"] == "bound.check"]
        assert audit["engine"] == decision["engine"]
        assert audit["bound"] >= 0.0 and audit["error"] >= 0.0
        assert audit["margin"] <= 1.0 and audit["breached"] is False


class TestForensicsOut:
    def test_clean_exit_writes_bundle(self, tmp_path, capsys, data_file):
        bundle = tmp_path / "forensics.json"
        code, _, _ = run_cli(
            capsys, "sum", data_file, "--substrate", "serial",
            "--forensics-out", str(bundle),
        )
        assert code == 0
        doc = json.loads(bundle.read_text())
        assert validate_document(doc) == ("forensics_bundle", [])
        assert doc["reason"] == "exit"
        names = [e["event"] for e in doc["journal"]["events"]]
        assert "request.finish" in names

    def test_sigterm_writes_bundle_naming_the_signal(self, tmp_path, rng):
        """SIGTERM a live run; the recorder must leave a schema-valid
        bundle naming the signal, and the process must still die with
        the signal's exit status."""
        bundle = tmp_path / "forensics.json"
        values = tmp_path / "values.npy"
        np.save(values, rng.uniform(-1, 1, 100_000))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        # --serve-linger keeps the armed process alive after the procs
        # reduce so the kill lands deterministically mid-task.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sum", str(values),
             "--substrate", "procs", "--pes", "2",
             "--forensics-out", str(bundle),
             "--serve-metrics", "0", "--serve-linger", "120"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=str(REPO_ROOT),
        )
        try:
            assert "serving telemetry on" in proc.stdout.readline()
            deadline = time.time() + 60
            # The reduce is done once the journal has a finish event in
            # the bundle-to-be; just give the short sum time to finish.
            time.sleep(5.0)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)
        finally:
            proc.kill()
        deadline = time.time() + 10
        while not bundle.exists() and time.time() < deadline:
            time.sleep(0.1)
        assert bundle.exists(), "no forensics bundle after SIGTERM"
        doc = json.loads(bundle.read_text())
        assert validate_forensics_doc(doc) == []
        assert doc["reason"] == "signal: SIGTERM"
        assert proc.returncode == -signal.SIGTERM


class TestEventsCommand:
    @pytest.fixture
    def spill(self, tmp_path, capsys, data_file):
        path = tmp_path / "journal.jsonl"
        run_cli(capsys, "sum", data_file, "--substrate", "procs",
                "--pes", "2", "--journal-out", str(path))
        return str(path)

    def test_plain_listing(self, capsys, spill):
        code, out, _ = run_cli(capsys, "events", spill)
        assert code == 0
        assert "request.start" in out
        assert "request.finish" in out

    def test_tail_limits_output(self, capsys, spill):
        code, out, _ = run_cli(capsys, "events", spill, "--tail", "1")
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_event_prefix_filter(self, capsys, spill):
        code, out, _ = run_cli(
            capsys, "events", spill, "--event", "worker."
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines
        assert all("worker." in line for line in lines)

    def test_stats(self, capsys, spill):
        code, out, _ = run_cli(capsys, "events", spill, "--stats")
        assert code == 0
        assert "request.start" in out
        assert "total" in out

    def test_json_output_is_jsonl(self, capsys, spill):
        code, out, _ = run_cli(capsys, "events", spill, "--json")
        assert code == 0
        for line in out.strip().splitlines():
            json.loads(line)

    def test_validate(self, capsys, spill):
        code, out, _ = run_cli(capsys, "events", spill, "--validate")
        assert code == 0
        assert "conform to the journal_event schema" in out

    def test_trace_reassembly(self, capsys, spill):
        events = [json.loads(line) for line in
                  Path(spill).read_text().splitlines()]
        trace_id = next(e["trace_id"] for e in events
                        if e.get("trace_id"))
        code, out, _ = run_cli(
            capsys, "events", spill, "--trace", trace_id
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith(f"trace {trace_id}:")
        assert "process(es)" in header
        # More than one pid participates in a procs trace.
        n_procs = int(header.split("across")[1].split("process")[0])
        assert n_procs > 1

    def test_unknown_trace_fails(self, capsys, spill):
        code, _, err = run_cli(
            capsys, "events", spill, "--trace", "deadbeefdeadbeef"
        )
        assert code == 1
        assert "no events" in err

    def test_missing_file_fails(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "events", str(tmp_path / "nope.jsonl")
        )
        assert code == 2
        assert err

    def test_not_a_journal_fails(self, capsys, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "metrics"}))
        code, _, err = run_cli(capsys, "events", str(path))
        assert code == 2
        assert "journal" in err

    def test_reads_forensics_bundle(self, capsys, tmp_path, data_file):
        bundle = tmp_path / "forensics.json"
        run_cli(capsys, "sum", data_file, "--substrate", "serial",
                "--forensics-out", str(bundle))
        code, out, _ = run_cli(capsys, "events", str(bundle), "--stats")
        assert code == 0
        assert "request.finish" in out

    def test_corrupt_line_fails_with_location(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "a", "kind": "journal_event"}\nnot json\n')
        code, _, err = run_cli(capsys, "events", str(path))
        assert code == 2
        assert "2" in err  # names the offending line
