"""The strong-scaling benchmark behind ``repro bench --scaling``.

This is the repo's first *real wall-clock* reproduction of the paper's
amortization claim (Figs. 5-8): the HP method costs a constant factor
over plain double summation, and strong scaling over real cores absorbs
that factor.  Every other substrate simulates its parallelism; the
``procs`` substrate (:mod:`repro.parallel.procpool`) runs worker
*processes* on real cores, so these timings are genuine.

What it measures
----------------
For each method in ``double`` / ``hp`` / ``hp-small``
the harness times

* one serial reduction (the method adapter's ``local_reduce`` +
  ``finalize`` on the master process — the baseline ``T_1``), and
* one process-pool reduction per PE count ``p`` (default 1, 2, 4, 8)
  over the *same* summands, with the shared segment pre-loaded and the
  workers pre-warmed, so the timed region is the reduction itself —
  scheduling, local reduces, partial transport, combine, finalize.

Warm-up is **excluded from the timed region by contract**: every
``(p, method)`` case performs ``pool.warmup()`` plus one full untimed
reduction before ``_time_best`` starts, so worker spawn, shared-segment
mapping, import costs, and first-call allocation never pollute a timed
repeat.  (BENCH_4's ``double`` p=1 speedup of 0.64 was *not* warm-up
leakage — it is the irreducible per-task IPC of shipping a reduction
through a worker process when the serial workload is ~1.5 ms; the
explicit contract plus the ``tasks == pes`` assertion below make that
diagnosis checkable in every future report.)

Timing is best-of-``repeats`` wall time (the scheduler-noise-resistant
observation, same policy as :mod:`repro.bench.regress`).  Reported per
case: ``speedup = T_serial / T_p`` and ``efficiency = speedup / p``.

What it checks
--------------
* **bit-identity** — every exact procs reduction must produce the same
  HP words as the serial word-matrix reference engine, at every PE
  count;
* **task placement** — every case must have scheduled exactly ``pes``
  tasks (``tasks == pes``), recorded per case and as a global check, so
  a speedup row can never silently describe a different decomposition
  than its label claims;
* **real speedup** — the ``hp-small`` case at the gate PE count
  (4 when present) must beat serial by ``min_speedup``.  The default
  gate adapts to the machine: 2.0x with >= 4 usable cores, 1.2x with
  2-3, and *waived* on a single-core machine, where a real speedup is
  physically impossible and only the bit-identity half is enforceable.
  The report always records ``cpu_count`` and whether the gate was
  waived, so a single-core ``BENCH_4.json`` is honest rather than
  vacuous.

The report is schema-versioned (``repro.bench.scaling/3``);
``BENCH_4.json`` at the repo root is PR 4's trajectory point.
"""

from __future__ import annotations

import os
import platform
from typing import Sequence

from repro.bench.regress import _make_summands, _time_best

SCALING_SCHEMA = "repro.bench.scaling/3"

#: Prior schema versions still accepted by the validator: /2 only added
#: the optional ``phases`` block; /3 only added the ``hp-small`` method
#: rows and the per-case/global ``tasks == pes`` assertion keys.
ACCEPTED_SCALING_SCHEMAS = (
    "repro.bench.scaling/1",
    "repro.bench.scaling/2",
    SCALING_SCHEMA,
)

#: >= 4M summands — the scale where the paper's amortization argument
#: starts to hold and per-reduction overheads are noise.
DEFAULT_SCALING_N = 4 << 20

DEFAULT_PES = (1, 2, 4, 8)
DEFAULT_METHODS = ("double", "hp", "hp-small")
DEFAULT_SCALING_REPEATS = 3
DEFAULT_SCALING_SEED = 20160523
#: PE count the speedup gate reads (first choice; falls back to max).
GATE_PES = 4


def usable_cpu_count() -> int:
    """Cores this process may schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity (macOS)
        return os.cpu_count() or 1


def auto_min_speedup(cpu_count: int) -> float:
    """The strictest honest gate for a machine: 2x needs >= 4 real
    cores; 2-3 cores can still show > 1x; one core cannot show any
    (0.0 = gate waived, bit-identity still enforced)."""
    if cpu_count >= 4:
        return 2.0
    if cpu_count >= 2:
        return 1.2
    return 0.0


def _serial_case(method_name: str, xs, repeats: int) -> dict:
    """Baseline: the adapter's own serial engine on the master process."""
    from repro.parallel.drivers import make_method

    adapter = make_method(method_name)
    partial = adapter.local_reduce(xs)
    value = adapter.finalize(partial)
    seconds = _time_best(
        lambda: adapter.finalize(adapter.local_reduce(xs)), repeats
    )
    return {"method": method_name, "seconds": seconds, "value": value}


def run_scaling(
    n: int = DEFAULT_SCALING_N,
    pes_list: Sequence[int] = DEFAULT_PES,
    methods: Sequence[str] = DEFAULT_METHODS,
    repeats: int = DEFAULT_SCALING_REPEATS,
    seed: int = DEFAULT_SCALING_SEED,
    min_speedup: float | None = None,
    start_method: str | None = None,
    pr: int | None = None,
    drift: bool = False,
    profile: bool = False,
) -> dict:
    """Run the strong-scaling matrix; return the schema-versioned report.

    ``min_speedup=None`` selects :func:`auto_min_speedup` for the current
    machine; pass an explicit value (0 waives) to pin the gate.
    ``drift`` arms the accuracy-drift monitor: the procs substrate's own
    hook then shadow-sums the (untimed) first reduction of every case
    and the monitor digest lands in the report under ``"drift"``.
    ``profile`` runs one phase-attributed ``hp-small`` procs
    reduction at the gate PE count after the timed matrix (per-worker
    rows included) and embeds the cost table under ``"phases"``.
    """
    import numpy as np

    from repro.core.vectorized import batch_sum_doubles
    from repro.parallel.drivers import make_method
    from repro.parallel.methods import HPSmallaccMethod
    from repro.parallel.procpool import ProcPool, default_start_method

    drift_monitor = None
    if drift:
        from repro import observability as _observability
        from repro.observability import monitor as _monitor

        _observability.enable(enable_tracing=False)
        drift_monitor = _monitor.MONITOR

    pes_list = sorted(set(int(p) for p in pes_list))
    if not pes_list:
        raise ValueError("need at least one PE count")
    cpu_count = usable_cpu_count()
    if min_speedup is None:
        min_speedup = auto_min_speedup(cpu_count)
    start = start_method or default_start_method()

    xs = _make_summands(n, seed)

    serial = {m: _serial_case(m, xs, repeats) for m in methods}

    # Exact-words reference: the serial word-matrix engine, in the
    # default HP format every exact case below runs in.
    reference_words = tuple(
        batch_sum_doubles(xs, make_method("hp").params, method="words")
    )

    def _case_words(adapter, partial):
        if isinstance(adapter, HPSmallaccMethod):
            return tuple(adapter.words(partial))
        if adapter.name == "hp":
            return tuple(partial)
        return None

    cases = []
    bit_identical_all = True
    tasks_match_all = True
    for pes in pes_list:
        with ProcPool(data=xs, pes=pes, start_method=start) as pool:
            pool.warmup()
            for method_name in methods:
                adapter = make_method(method_name)
                if drift_monitor is not None:
                    # Armed for the untimed reduction only: the procs
                    # hook shadow-sums it, and the timed repeats below
                    # run with the monitor disarmed so the gate numbers
                    # stay clean.
                    drift_monitor.arm()
                # Warm-up exclusion contract: this reduction (plus the
                # pool.warmup() above) runs BEFORE _time_best, so spawn,
                # shared-memory mapping, and first-call costs never land
                # in a timed repeat.
                result = pool.reduce(adapter)
                if drift_monitor is not None:
                    drift_monitor.disarm()
                seconds = _time_best(
                    lambda a=adapter: pool.reduce(a), repeats
                )
                words = _case_words(adapter, result.partial)
                bit_identical = None
                if words is not None:
                    bit_identical = words == reference_words
                    bit_identical_all = bit_identical_all and bit_identical
                tasks_match = result.tasks == pes
                tasks_match_all = tasks_match_all and tasks_match
                serial_s = serial[method_name]["seconds"]
                speedup = serial_s / seconds if seconds > 0 else None
                cases.append(
                    {
                        "method": method_name,
                        "pes": pes,
                        "tasks": result.tasks,
                        "tasks_match_pes": bool(tasks_match),
                        "seconds": seconds,
                        "speedup_vs_serial": speedup,
                        "efficiency": (
                            speedup / pes if speedup is not None else None
                        ),
                        "bit_identical": bit_identical,
                        "value": result.value,
                    }
                )

    gate_pes = GATE_PES if GATE_PES in pes_list else max(pes_list)
    gate_case = next(
        (
            c
            for c in cases
            if c["method"] == "hp-small" and c["pes"] == gate_pes
        ),
        None,
    )
    gate_speedup = gate_case["speedup_vs_serial"] if gate_case else None
    waived = min_speedup <= 0.0
    speedup_ok = waived or (
        gate_speedup is not None and gate_speedup >= min_speedup
    )
    checks = {
        "bit_identical_all": bool(bit_identical_all),
        "tasks_match_pes": bool(tasks_match_all),
        "gate_pes": gate_pes,
        "speedup_gate": gate_speedup,
        "min_speedup": min_speedup,
        "speedup_gate_waived": bool(waived),
        "cpu_count": cpu_count,
        "passed": bool(
            bit_identical_all and tasks_match_all and speedup_ok
        ),
    }

    doc = {
        "schema": SCALING_SCHEMA,
        "pr": pr,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": cpu_count,
            "start_method": start,
        },
        "config": {
            "n": n,
            "pes_list": pes_list,
            "methods": list(methods),
            "repeats": repeats,
            "seed": seed,
        },
        "serial": serial,
        "cases": cases,
        "checks": checks,
    }
    if drift_monitor is not None:
        doc["drift"] = drift_monitor.summary()
    if profile:
        doc["phases"] = _profile_scaling_pass(xs, gate_pes, start)
    return doc


def _profile_scaling_pass(xs, pes: int, start: str) -> dict:
    """One instrumented procs reduction after the timed matrix: worker
    phases ship back with the partials and re-home under the master
    trace, so the embedded cost table carries per-worker rows."""
    from repro.observability import profile as _prof
    from repro.observability import tracing as _tracing
    from repro.parallel.drivers import make_method
    from repro.parallel.procpool import ProcPool

    prior_spans = _tracing.TRACER.export()["spans"]
    _tracing.TRACER.reset()
    try:
        with _prof.profiled():
            with _tracing.TRACER.span(_prof.RUN_SPAN, substrate="procs",
                                      pes=pes):
                with ProcPool(data=xs, pes=pes, start_method=start) as pool:
                    pool.warmup()
                    pool.reduce(make_method("hp-small"))
        report = _prof.ProfileReport.from_tracer()
    finally:
        _tracing.TRACER.reset()
        if prior_spans:
            _tracing.TRACER.import_spans({"spans": prior_spans})
    doc = report.to_dict()
    doc["substrate"] = "procs"
    doc["pes"] = pes
    doc["method"] = "hp-small"
    return doc


_REQUIRED_TOP = ("schema", "environment", "config", "serial", "cases",
                 "checks")
_REQUIRED_CASE = ("method", "pes", "seconds", "speedup_vs_serial",
                  "efficiency", "bit_identical")
_REQUIRED_CHECKS = ("bit_identical_all", "gate_pes", "speedup_gate",
                    "min_speedup", "speedup_gate_waived", "cpu_count",
                    "passed")

#: Additional keys required from /3 reports (tasks==pes assertion).
_REQUIRED_CASE_V3 = ("tasks", "tasks_match_pes")
_REQUIRED_CHECKS_V3 = ("tasks_match_pes",)


def validate_scaling_report(doc: dict) -> list[str]:
    """Structural validation; empty list means the document conforms to
    :data:`SCALING_SCHEMA`."""
    problems = []
    if not isinstance(doc, dict):
        return ["report is not a JSON object"]
    if doc.get("schema") not in ACCEPTED_SCALING_SCHEMAS:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected one of "
            f"{ACCEPTED_SCALING_SCHEMAS!r}"
        )
    phases = doc.get("phases")
    if phases is not None and (
        not isinstance(phases, dict) or "phases" not in phases
    ):
        problems.append("phases block present but not a profile dict")
    for key in _REQUIRED_TOP:
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    is_v3 = doc.get("schema") == SCALING_SCHEMA
    case_keys = _REQUIRED_CASE + (_REQUIRED_CASE_V3 if is_v3 else ())
    check_keys = _REQUIRED_CHECKS + (_REQUIRED_CHECKS_V3 if is_v3 else ())
    for i, case in enumerate(doc.get("cases", [])):
        for key in case_keys:
            if key not in case:
                problems.append(f"cases[{i}] missing key {key!r}")
    checks = doc.get("checks", {})
    if isinstance(checks, dict):
        for key in check_keys:
            if key not in checks:
                problems.append(f"checks missing key {key!r}")
    env = doc.get("environment", {})
    if isinstance(env, dict) and "cpu_count" not in env:
        problems.append("environment missing key 'cpu_count'")
    return problems


def format_scaling_summary(doc: dict) -> str:
    """Human-readable strong-scaling table for one report."""
    env = doc["environment"]
    lines = [
        f"bench scaling (schema {doc['schema']}): n={doc['config']['n']}, "
        f"{env['cpu_count']} cores, start={env['start_method']}"
    ]
    for name, row in doc["serial"].items():
        lines.append(
            f"  serial {name:<12} {row['seconds'] * 1e3:9.1f} ms"
        )
    for case in doc["cases"]:
        eq = {None: "", True: "  bit-identical", False: "  MISMATCH"}[
            case["bit_identical"]
        ]
        lines.append(
            "  procs  {m:<12} p={p:<2d} {s:9.1f} ms  speedup {x:5.2f}x  "
            "eff {e:4.0%}{eq}".format(
                m=case["method"],
                p=case["pes"],
                s=case["seconds"] * 1e3,
                x=case["speedup_vs_serial"] or 0.0,
                e=case["efficiency"] or 0.0,
                eq=eq,
            )
        )
    checks = doc["checks"]
    gate = (
        "waived (single core)"
        if checks["speedup_gate_waived"]
        else "{x:.2f}x (min {m:.2f}x) at p={p}".format(
            x=checks["speedup_gate"] or 0.0,
            m=checks["min_speedup"],
            p=checks["gate_pes"],
        )
    )
    lines.append(
        f"  gate: {gate} -> {'PASS' if checks['passed'] else 'FAIL'}"
    )
    return "\n".join(lines)
