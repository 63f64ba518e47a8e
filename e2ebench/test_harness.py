"""Self-tests of the benchmark, at tiny sizes.

Run with: python -m pytest e2ebench/
"""

from __future__ import annotations

import dataclasses
import json
import math
import time

import pytest

import checkout
import compare
import run  # bootstraps the checkout's src/ onto sys.path
import layers
import workloads
from repro.parallel.methods import HPMethod

BENCHMARK = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
# Requests of a few ms: long enough that the serial layers add up to the
# real request well inside the 10% closure tolerance.
TINY = {
    name: dataclasses.replace(
        w, n=min(w.n, 1 << 16), vectors=min(w.vectors, 4)
    )
    for name, w in workloads.WORKLOADS.items()
}


class PlusOneUlp(HPMethod):
    """The exact HP adapter, except that it returns one ulp too much."""

    def finalize(self, partial):
        return math.nextafter(super().finalize(partial), math.inf)


class SlowRequests(workloads.Workload):
    """A workload whose real requests do 5 ms of work that the traced
    re-enactment of their layers does not."""

    def call(self, req, x):
        if req.kind == "main":
            time.sleep(0.005)
        return super().call(req, x)


def run_tiny(capsys, monkeypatch, catalog, *args):
    """``run.main`` on ``catalog`` for 0.2 s per workload; returns the
    exit code, the printed lines and the parsed JSON result lines."""
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    code = run.main(["--seconds", "0.2", *args], catalog=catalog)
    lines = capsys.readouterr().out.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    return code, lines, results


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS
    )


@pytest.mark.parametrize(
    "trace, section", [(0, "end_to_end"), (1, "per_layer")]
)
def test_every_metric_is_printed_with_its_unit(
    capsys, monkeypatch, trace, section
):
    # At these sizes a one-shot procs request is mostly fork time, whose
    # jitter exceeds the closure tolerance; the check has its own test.
    monkeypatch.setattr(layers, "CLOSURE_TOLERANCE", math.inf)
    code, lines, results = run_tiny(
        capsys, monkeypatch, TINY, "--trace", str(trace)
    )
    assert code == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert len(results) == len(TINY)
    for name, result in zip(TINY, results):
        assert result["correct"]
        assert result["attempted"] > 0 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(
            math.isfinite(v["value"]) for v in result["metrics"].values()
        )
        printed = {
            tuple(line.split()[:2]): line.split()[3]
            for line in lines if line.startswith(name)
        }
        for metric, unit in expected.items():
            assert printed[name, metric] == unit


@pytest.mark.parametrize("name", list(TINY))
def test_one_seed_yields_identical_inputs(name):
    workload = TINY[name]
    first, again, other = (workload.inputs(s) for s in (7, 7, 8))
    assert [x.tobytes() for x in first] == [x.tobytes() for x in again]
    assert [x.tobytes() for x in first] != [x.tobytes() for x in other]


def test_oracle_fails_a_result_one_ulp_off(capsys, monkeypatch):
    broken = dataclasses.replace(
        TINY["bulk-serial"], method=PlusOneUlp(workloads.HP)
    )
    code, lines, results = run_tiny(
        capsys, monkeypatch, {"bulk-serial": broken}
    )
    assert code != 0
    (result,) = results
    assert not result["correct"]
    assert result["failed"] > 0
    (error_rate,) = [line for line in lines if "error_rate" in line]
    assert float(error_rate.split()[2]) > 0


def test_closure_check_fails_a_request_that_does_more_than_its_layers(
    capsys, monkeypatch
):
    slow = SlowRequests(**vars(TINY["bulk-serial"]))
    code, lines, results = run_tiny(
        capsys, monkeypatch, {"bulk-serial": slow}, "--trace", "1"
    )
    assert code != 0
    (result,) = results
    assert not result["correct"] and result["failed"] == 0


def test_compare_judges_every_bounded_metric_on_its_spread():
    steady = compare.summary([1.0, 1.0, 1.01, 1.01])
    noisy = compare.summary([1.0, 1.0, 1.5, 1.5])
    assert compare.status([noisy, steady], 0.25) == "unresolved"
    assert compare.status([steady, steady], 0.25) == "wide"
    assert compare.status([steady, steady], 0.10) == "ok"
    assert compare.status([steady, compare.summary([2.0, 2.0])], 0.25) == (
        "DIFFERS"
    )
    assert compare.status([steady], None) == "info"
