"""Benchmark harnesses: engine regression and strong scaling.

``repro bench --regress`` runs a pinned benchmark matrix comparing the
word-matrix reference path against Neal's small accumulator
(:mod:`repro.core.smallacc`) and writes a schema-versioned JSON report
(``BENCH_<pr>.json``).  CI replays the matrix and fails when the small
engine stops being faster than the words path at the headline
configuration (N=8 words, one million summands) or when either engine
stops being bit-identical to the scalar accumulator oracle.

``repro bench --scaling`` measures *real wall-clock* strong scaling of
the ``procs`` substrate (:mod:`repro.parallel.procpool`) for double /
hp / hp-small at >= 4M summands over p in {1, 2, 4, 8}, reports
parallel efficiency, and gates on bit-identity plus a machine-aware
minimum speedup (schema ``repro.bench.scaling/2``).

Both harnesses accept ``profile=True`` (CLI ``--profile``), which runs
one phase-attributed pass after the timed sections and embeds the
per-phase cost table in the report under ``"phases"`` (the additive
/1 -> /2 schema bump; validators accept both).
"""

from repro.bench.regress import (
    ACCEPTED_SCHEMAS,
    SCHEMA,
    default_report_name,
    run_regress,
    validate_report,
)
from repro.bench.scaling import (
    ACCEPTED_SCALING_SCHEMAS,
    SCALING_SCHEMA,
    auto_min_speedup,
    format_scaling_summary,
    run_scaling,
    usable_cpu_count,
    validate_scaling_report,
)

__all__ = [
    "ACCEPTED_SCHEMAS",
    "ACCEPTED_SCALING_SCHEMAS",
    "SCHEMA",
    "SCALING_SCHEMA",
    "auto_min_speedup",
    "default_report_name",
    "format_scaling_summary",
    "run_regress",
    "run_scaling",
    "usable_cpu_count",
    "validate_report",
    "validate_scaling_report",
]
