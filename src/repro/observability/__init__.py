"""Instrumentation subsystem: metrics, tracing spans, run reports.

The measurement substrate behind the paper's performance story (Figs
5-8): carry-propagation counts, CAS attempts/failures under contention,
simulated-MPI message traffic, and per-stage timings all flow through
this package when observability is enabled.

Three layers:

* :mod:`repro.observability.metrics` — a thread-safe registry of labeled
  counters / gauges / histograms behind a zero-overhead-when-disabled
  module gate;
* :mod:`repro.observability.tracing` — nested spans (context manager and
  decorator) with wall + monotonic clocks and JSON export;
* :mod:`repro.observability.report` + :mod:`~repro.observability.schema`
  — structured run reports (JSON-lines events + summary) and validators
  for every emitted document.

Typical use::

    from repro import observability as obs

    with obs.observed():                  # enable for one region
        result = global_sum(data, "hp", "threads", pes=8)
        obs.write_metrics("metrics.json")
        obs.write_trace("trace.json")

or from the CLI: ``repro stats``, and ``--metrics-out`` /
``--trace-out`` on every compute subcommand.  The catalog of built-in
metric and span names lives in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.observability import journal, metrics, monitor, profile, tracing
from repro.observability.export import (
    chrome_trace,
    parse_prometheus_text,
    prometheus_text,
    write_chrome_trace,
    write_prometheus,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)
from repro.observability.monitor import MONITOR, DriftMonitor, monitoring
from repro.observability.profile import (
    ProfileReport,
    chrome_trace_with_phases,
    format_collapsed,
    parse_collapsed,
    phase,
    profiled,
    speedscope_document,
    validate_speedscope,
)
from repro.observability.journal import JOURNAL, EventJournal
from repro.observability.recorder import RECORDER, FlightRecorder
from repro.observability.report import RunReport, write_metrics, write_trace
from repro.observability.schema import (
    validate_document,
    validate_file,
    validate_forensics_doc,
    validate_journal_doc,
    validate_journal_event,
    validate_jsonl_file,
    validate_metrics_doc,
    validate_run_report_doc,
    validate_slo_doc,
    validate_trace_doc,
)
from repro.observability.slo import SloStatus, compute_slos, slo_report
from repro.observability.tracing import (
    Span,
    TRACER,
    TraceContext,
    Tracer,
    activate_context,
    current_context,
    span,
    traced,
)

__all__ = [
    "enable",
    "disable",
    "is_enabled",
    "observed",
    "reset",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    # tracing
    "Span",
    "Tracer",
    "TRACER",
    "TraceContext",
    "activate_context",
    "current_context",
    "span",
    "traced",
    # journal + flight recorder + SLOs
    "EventJournal",
    "JOURNAL",
    "FlightRecorder",
    "RECORDER",
    "SloStatus",
    "compute_slos",
    "slo_report",
    # live telemetry: exporters, server, drift monitor
    "prometheus_text",
    "parse_prometheus_text",
    "chrome_trace",
    "write_prometheus",
    "write_chrome_trace",
    "MetricsServer",
    "SnapshotRing",
    "serve_metrics",
    "DriftMonitor",
    "MONITOR",
    "monitoring",
    # profiling
    "phase",
    "profiled",
    "ProfileReport",
    "format_collapsed",
    "parse_collapsed",
    "speedscope_document",
    "validate_speedscope",
    "chrome_trace_with_phases",
    # reports + schemas
    "RunReport",
    "write_metrics",
    "write_trace",
    "validate_document",
    "validate_file",
    "validate_jsonl_file",
    "validate_metrics_doc",
    "validate_trace_doc",
    "validate_run_report_doc",
    "validate_journal_doc",
    "validate_journal_event",
    "validate_slo_doc",
    "validate_forensics_doc",
]


def enable(
    enable_metrics: bool = True,
    enable_tracing: bool = True,
    enable_journal: bool = False,
) -> None:
    """Turn instrumentation on (metrics + tracing by default)."""
    if enable_metrics:
        metrics.enable()
    if enable_tracing:
        tracing.enable()
    if enable_journal:
        journal.enable()


def disable() -> None:
    """Turn all layers off; collected data is retained."""
    metrics.disable()
    tracing.disable()
    journal.disable()


def __getattr__(name: str):
    # The telemetry server is imported on first use: its http.server and
    # ssl imports add ~3.5 MiB of RSS to every process that never serves.
    if name in ("MetricsServer", "SnapshotRing", "serve_metrics"):
        from repro.observability import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def is_enabled() -> bool:
    """True when any layer's gate is on."""
    return metrics.ENABLED or tracing.ENABLED or journal.ENABLED


def reset() -> None:
    """Zero metrics, drop collected spans and journal events, and clear
    the drift monitor's tallies (gates and the monitor's armed state are
    untouched)."""
    REGISTRY.reset()
    TRACER.reset()
    MONITOR.reset()
    JOURNAL.reset()


@contextmanager
def observed(enable_metrics: bool = True, enable_tracing: bool = True,
             enable_journal: bool = False):
    """Enable instrumentation for one region, restoring prior gates::

        with observed():
            run_benchmark()
    """
    prior = (metrics.ENABLED, tracing.ENABLED, journal.ENABLED)
    enable(enable_metrics, enable_tracing, enable_journal)
    try:
        yield
    finally:
        metrics.ENABLED, tracing.ENABLED, journal.ENABLED = prior
