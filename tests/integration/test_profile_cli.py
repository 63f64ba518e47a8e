"""End-to-end tests for ``repro profile``: the cost table, the export
artifacts, and the measured-anchor calibration feedback."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.observability.profile import parse_collapsed, validate_speedscope
from repro.perfmodel.calibration import MEASURED_SCHEMA


@pytest.fixture(autouse=True)
def clean_gates():
    from repro.observability import metrics, profile, tracing
    from repro.observability.metrics import REGISTRY
    from repro.observability.tracing import TRACER

    yield
    metrics.disable()
    tracing.disable()
    profile.disable()
    REGISTRY.clear()
    TRACER.reset()


class TestProfileCommand:
    def test_serial_small_renders_cost_table(self, capsys):
        status = main(["profile", "--engine", "hp-small",
                       "--n", "50000", "--no-sample"])
        assert status == 0
        out = capsys.readouterr().out
        assert "smallacc.scatter" in out
        assert "% wall" in out
        assert "of wall, master self-time" in out

    def test_json_output_attributes_most_of_the_wall(self, capsys):
        status = main(["profile", "--engine", "hp-small",
                       "--n", "200000", "--no-sample", "--json"])
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "profile"
        names = {row["phase"] for row in doc["phases"]}
        assert {"smallacc.scatter", "hp.round", "hp.finalize"} <= names
        # The acceptance bar: named phases explain >= 90% of the run.
        assert doc["attributed_fraction"] >= 0.9

    def test_artifacts_are_written_and_valid(self, tmp_path, capsys):
        fg = tmp_path / "profile.collapsed"
        ss = tmp_path / "profile.speedscope.json"
        pf = tmp_path / "profile.perfetto.json"
        # The sampler needs a run several intervals long (2 ms at
        # 500 Hz); the small engine finishes 3e5 summands in about one,
        # the words engine in ~100 ms.
        status = main(["profile", "--engine", "hp-words",
                       "--n", "300000", "--sample-hz", "500",
                       "--flamegraph", str(fg), "--speedscope", str(ss),
                       "--perfetto", str(pf)])
        assert status == 0
        stacks = parse_collapsed(fg.read_text())
        assert stacks and sum(stacks.values()) > 0
        doc = json.loads(ss.read_text())
        assert validate_speedscope(doc) == []
        trace = json.loads(pf.read_text())
        kinds = {ev["ph"] for ev in trace["traceEvents"]}
        assert {"X", "C"} <= kinds

    def test_double_and_hallberg_engines(self, capsys):
        assert main(["profile", "--engine", "double", "--n", "10000",
                     "--no-sample"]) == 0
        assert main(["profile", "--engine", "hallberg", "--n", "10000",
                     "--no-sample"]) == 0
        out = capsys.readouterr().out
        assert "hallberg.convert" in out

    def test_threads_substrate(self, capsys):
        status = main(["profile", "--engine", "hp-small",
                       "--n", "50000", "--substrate", "threads",
                       "--pes", "2", "--no-sample", "--json"])
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        names = {row["phase"] for row in doc["phases"]}
        assert {"threads.partition", "threads.compute",
                "threads.combine"} <= names

    def test_procs_substrate_has_worker_rows(self, capsys):
        status = main(["profile", "--engine", "hp-small",
                       "--n", "50000", "--substrate", "procs",
                       "--pes", "2", "--no-sample", "--json"])
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        workers = {row["worker"] for row in doc["phases"]}
        assert sum(1 for w in workers if w.startswith("pid=")) == 2

    def test_prom_out_carries_profile_metrics(self, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        status = main(["profile", "--engine", "hp-small",
                       "--n", "20000", "--no-sample",
                       "--prom-out", str(prom)])
        assert status == 0
        text = prom.read_text()
        assert "profile_phase_seconds" in text
        assert 'phase="smallacc.scatter"' in text


class TestProfileCalibrate:
    def test_residual_table_and_cost_file(self, tmp_path, capsys):
        out = tmp_path / "measured.json"
        status = main(["profile", "--calibrate", "--n", "20000",
                       "--repeats", "1", "--calibrate-out", str(out)])
        assert status == 0
        text = capsys.readouterr().out
        assert "measured/model" in text
        assert "small / double ratio" in text
        doc = json.loads(out.read_text())
        assert doc["schema"] == MEASURED_SCHEMA
        assert set(doc["measured"]) == {"double", "hp-small", "hallberg"}
        assert all(v > 0 for v in doc["measured"].values())

    def test_measured_file_feeds_measured_anchors(self, tmp_path, capsys):
        out = tmp_path / "measured.json"
        main(["profile", "--calibrate", "--n", "20000", "--repeats", "1",
              "--calibrate-out", str(out)])
        from repro.perfmodel.calibration import measured_anchors

        doc = json.loads(out.read_text())
        anchors = measured_anchors(doc["measured"], n=doc["n"])
        assert len(anchors) == 3
        assert all(a.residual > 0 for a in anchors)
