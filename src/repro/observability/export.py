"""Wire-format exporters: Prometheus text exposition and Chrome/Perfetto
trace events.

Until this module, instrumentation only materialized as the repo's own
JSON documents after a run.  These two exporters put the same data on
the formats the outside world scrapes and renders:

* :func:`prometheus_text` — the full :class:`MetricsRegistry` in the
  Prometheus text exposition format (version 0.0.4): ``# HELP`` /
  ``# TYPE`` per family, deterministic series ordering, label-value
  escaping per the spec, and histograms rendered as *cumulative*
  ``_bucket{le=...}`` series ending in ``le="+Inf"`` plus ``_sum`` and
  ``_count`` — the registry stores per-bucket counts, so the
  accumulation happens here, from one lock-consistent snapshot per
  histogram.
* :func:`chrome_trace` — every finished :class:`Tracer` span as a
  Chrome trace-event ``"X"`` (complete) event, loadable in
  ``chrome://tracing`` and Perfetto.  Spans measured inside procpool
  workers (adopted by :meth:`Tracer.adopt`, carrying a ``pid``
  attribute) are placed on their own pid/tid track, and spans
  nested under a worker span inherit that track, so one document shows
  the master timeline and each worker's timeline side by side.

:func:`parse_prometheus_text` is the inverse of :func:`prometheus_text`
for our own output — the test suite round-trips through it and the CI
live-telemetry job uses it to validate a real scrape.
"""

from __future__ import annotations

import json
import math
import re

from repro.observability.metrics import REGISTRY, MetricsRegistry
from repro.observability.tracing import Span, TRACER, Tracer

__all__ = [
    "sanitize_metric_name",
    "escape_label_value",
    "prometheus_text",
    "parse_prometheus_text",
    "chrome_trace",
    "write_prometheus",
    "write_chrome_trace",
    "HELP_TEXT",
]

#: ``# HELP`` strings for the built-in metric families (sanitized
#: names).  Every family the repo emits must be catalogued here —
#: ``tests/observability/test_export.py`` walks the source tree for
#: metric registrations and fails on any uncatalogued family, so an
#: instrumented scrape never ships an undocumented series.
HELP_TEXT = {
    "hp_carry_words": "Word positions that received a carry-in during an add.",
    "hp_overflows": "Overflow detections raised as AdditionOverflowError.",
    "hp_overflow_checks": "Sign-rule overflow checks performed on adds.",
    "hp_scalar_adds": "Scalar double-to-words additions performed.",
    "hp_accumulator_adds": "HPAccumulator add operations performed.",
    "smallacc_backend":
        "Resolved smallacc kernel backend (labelled gauge, value 1).",
    "smallacc_scatter_bytes": "Bytes scattered into small-accumulator chunks.",
    "atomic_cas_retries": "Failed CAS attempts (attempts minus successes).",
    "atomic_cas_attempts_per_add": "CAS attempts per successful word add.",
    "atomic_word_adds": "Word adds committed through the CAS protocol.",
    "simmpi_messages": "Point-to-point sends through SimComm.",
    "simmpi_bytes": "Payload bytes sent through SimComm point-to-point.",
    "simmpi_rounds": "Communication rounds completed (barrier_round marks).",
    "simmpi_reduce_depth": "Tree depth of the last simmpi reduction.",
    "gpu_steps": "Simulated GPU kernel scheduler steps.",
    "gpu_loads": "Simulated GPU global-memory loads.",
    "gpu_stores": "Simulated GPU global-memory stores.",
    "gpu_cas_attempts": "Simulated GPU CAS attempts.",
    "gpu_cas_failures": "Simulated GPU CAS failures (retried).",
    "gpu_cas_retries": "Simulated GPU CAS retries.",
    "gpu_cas_attempts_per_word_add":
        "Simulated GPU CAS attempts per committed word add.",
    "global_sum_calls": "global_sum invocations.",
    "global_sum_summands": "Summands processed by global_sum.",
    "procpool_reduces": "Process-pool reductions completed.",
    "procpool_tasks": "Chunk tasks dispatched to pool workers.",
    "procpool_task_seconds": "Per-task worker wall time (seconds).",
    "procpool_partial_bytes": "Partial-result bytes returned by workers.",
    "procpool_workers_spawned": "Worker processes started by ProcPool.",
    "procpool_ooc_spill_bytes":
        "Bytes spilled to temporary .npy files for out-of-core streaming.",
    "drift_ulp_error": "Shadow-sum ULP distance from the exact reference.",
    "drift_relative_error": "Shadow-sum relative error vs the exact reference.",
    "drift_last_ulp_error": "Most recent ULP distance per path (gauge).",
    "drift_order_invariance_violations":
        "Permutation probes whose re-sum changed the result bits.",
    "drift_samples": "Traffic batches shadow-summed by the drift monitor.",
    "drift_shadow_summands": "Summands re-summed by the shadow paths.",
    "drift_permutation_probes": "Permutation re-sum probes executed.",
    "drift_threshold_breaches": "Drift observations beyond a threshold.",
    "planner_plans": "Engine-selection plans computed.",
    "planner_decisions": "Plans per chosen engine and bound mode.",
    "planner_escalations": "Bound breaches reported against an engine.",
    "planner_validations": "Planner-routed sums validated by the monitor.",
    "planner_bound_margin":
        "Fraction of the promised error budget consumed per validated sum.",
    "planner_bound_breaches":
        "Validated sums whose measured error exceeded the promised bound.",
    "slo_target": "Configured target compliance ratio per objective.",
    "slo_compliance": "Good/total event ratio per objective (1 = no events).",
    "slo_burn_rate":
        "Error rate over error budget per objective (-1 = infinite).",
    "slo_events": "Good and total event counts per objective.",
    "obsserver_requests": "HTTP requests served by the metrics endpoint.",
    "profile_phase_calls": "Times each named phase region was entered.",
    "profile_phase_seconds":
        "Wall seconds spent inside each named phase region.",
    "profile_phase_call_seconds":
        "Per-entry phase latency (seconds) as a histogram.",
    "analysis_files_indexed": "Files indexed by the whole-program analyzer.",
    "analysis_files_parsed": "Files parsed (cache misses) by the analyzer.",
    "analysis_cache_hits": "Analyzer per-file summaries served from cache.",
    "analysis_findings": "Findings produced by analyzer rule passes.",
    "sanitizer_snapshot_retries":
        "Torn-read snapshot retries by the runtime sanitizer.",
    "sanitizer_overflow_wraps":
        "Silent two's-complement wraps caught by the shadow accumulator.",
    "sanitizer_shadow_divergences":
        "Accumulator divergences from the exact integer shadow.",
    "sanitizer_unlocked_writes":
        "Writes that bypassed the CAS protocol (non-atomic store races).",
    "sanitizer_torn_reads": "Snapshots that raced live adders.",
    "sanitizer_undelivered_messages":
        "Messages posted but never received at quiescence checks.",
}

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Map a registry metric name onto the Prometheus grammar
    (``hp.carry_words`` -> ``hp_carry_words``)."""
    out = _NAME_BAD_CHARS.sub("_", name)
    if not out or not _NAME_OK.match(out):
        out = "_" + out
    return out


_LABEL_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def _sanitize_label_name(name: str) -> str:
    out = _LABEL_BAD_CHARS.sub("_", name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition spec: backslash, double
    quote, and line feed."""
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")
    )


def _unescape_label_value(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        c = value[i]
        if c == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ("\\", '"'):
                out.append(nxt)
            else:  # unknown escape: keep verbatim
                out.append(c + nxt)
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _format_value(value: float) -> str:
    """Sample values: integral floats render without the trailing
    ``.0`` (Prometheus parses either; the short form diffs cleanly)."""
    if isinstance(value, int):
        return str(value)
    f = float(value)
    if math.isinf(f):
        return "+Inf" if f > 0 else "-Inf"
    if math.isnan(f):
        return "NaN"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _format_le(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(float(bound))


def _label_block(labels: dict[str, str], extra: tuple[tuple[str, str], ...] = ()) -> str:
    """Render ``{a="x",b="y"}`` with deterministic (sorted) ordering;
    empty string when there are no labels."""
    pairs = [
        (_sanitize_label_name(k), escape_label_value(str(v)))
        for k, v in sorted(labels.items())
    ]
    pairs.extend((k, escape_label_value(v)) for k, v in extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def prometheus_text(registry: MetricsRegistry = REGISTRY) -> str:
    """The whole registry in Prometheus text exposition format 0.0.4.

    Families are emitted in sorted (sanitized-name) order, each with one
    ``# HELP`` and ``# TYPE`` header; series within a family follow the
    registry's (name, labels) sort, so two scrapes of the same state are
    byte-identical.  Histograms are exposed cumulatively with a closing
    ``+Inf`` bucket whose count equals ``_count``.
    """
    families: dict[str, list[dict]] = {}
    order: list[str] = []
    for m in registry.collect():
        name = sanitize_metric_name(m["name"])
        if name not in families:
            families[name] = []
            order.append(name)
        families[name].append(m)

    lines: list[str] = []
    for name in sorted(order):
        series = families[name]
        kind = series[0]["type"]
        help_text = HELP_TEXT.get(
            name, f"repro metric {series[0]['name']} ({kind})."
        )
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for m in series:
            labels = m["labels"]
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{name}{_label_block(labels)} "
                    f"{_format_value(m['value'])}"
                )
                continue
            # histogram: storage is per-bucket; accumulate here.
            running = 0
            for b in m["buckets"]:
                running += b["count"]
                le = "+Inf" if b["le"] is None else _format_le(b["le"])
                lines.append(
                    f"{name}_bucket"
                    f"{_label_block(labels, extra=(('le', le),))} {running}"
                )
            lines.append(
                f"{name}_sum{_label_block(labels)} "
                f"{_format_value(m['sum'])}"
            )
            lines.append(
                f"{name}_count{_label_block(labels)} {m['count']}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# parser (round-trip validation of our own exposition)
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<ts>-?\d+))?$"
)


def _parse_labels(block: str) -> dict[str, str]:
    """Parse the inside of a ``{...}`` label block, honouring escapes."""
    labels: dict[str, str] = {}
    i = 0
    n = len(block)
    while i < n:
        while i < n and block[i] in ", ":
            i += 1
        if i >= n:
            break
        eq = block.index("=", i)
        key = block[i:eq].strip()
        i = eq + 1
        if i >= n or block[i] != '"':
            raise ValueError(f"label value for {key!r} is not quoted")
        i += 1
        raw = []
        while i < n:
            c = block[i]
            if c == "\\" and i + 1 < n:
                raw.append(block[i:i + 2])
                i += 2
                continue
            if c == '"':
                break
            raw.append(c)
            i += 1
        if i >= n:
            raise ValueError(f"unterminated label value for {key!r}")
        i += 1  # closing quote
        labels[key] = _unescape_label_value("".join(raw))
    return labels


def _parse_value(token: str) -> float:
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token == "NaN":
        return math.nan
    return float(token)


def parse_prometheus_text(text: str) -> dict[str, dict]:
    """Parse a text exposition into families.

    Returns ``{family_name: {"type": str, "help": str, "samples":
    [(sample_name, labels_dict, value), ...]}}`` where histogram
    ``_bucket`` / ``_sum`` / ``_count`` samples are attached to their
    family.  Raises :class:`ValueError` on any malformed line — the CI
    job leans on that strictness.
    """
    families: dict[str, dict] = {}

    def family_for(sample_name: str) -> dict:
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = sample_name[: -len(suffix)]
            if sample_name.endswith(suffix) and trimmed in families \
                    and families[trimmed]["type"] == "histogram":
                base = trimmed
                break
        return families.setdefault(
            base, {"type": "untyped", "help": "", "samples": []}
        )

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []}
            )["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                raise ValueError(f"line {lineno}: unknown type {kind!r}")
            families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []}
            )["type"] = kind
            continue
        if line.startswith("#"):
            continue  # plain comment
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: unparseable sample {line!r}")
        labels = _parse_labels(m.group("labels") or "")
        family = family_for(m.group("name"))
        family["samples"].append(
            (m.group("name"), labels, _parse_value(m.group("value")))
        )
    return families


# ---------------------------------------------------------------------------
# Chrome trace events / Perfetto
# ---------------------------------------------------------------------------

#: pid used for the master process's track in the exported document.
#: Chrome trace pids are display identifiers, not OS pids; a fixed
#: value keeps the export deterministic across runs.
MASTER_PID = 1
MASTER_TID = 1


def chrome_trace(
    tracer: Tracer = TRACER,
    process_name: str = "repro",
) -> dict:
    """Export finished spans as a Chrome trace-event document.

    Every span becomes one complete (``"ph": "X"``) event with
    microsecond ``ts``/``dur`` on the wall clock.  Track assignment:

    * spans carrying a ``pid`` attribute — procpool worker spans, after
      :meth:`Tracer.adopt` — open a track ``(pid, pid)``;
    * spans whose nearest recorded ancestor sits on a worker track
      inherit it (a worker's nested engine spans land beside it);
    * everything else renders on the master track ``(MASTER_PID,
      MASTER_TID)``.

    ``metadata`` (``"ph": "M"``) events name each track so Perfetto and
    ``chrome://tracing`` show ``repro`` and ``worker pid=N`` lanes.

    Parent→child links that *cross tracks* (the master's reduce span to
    a worker's span, stitched by trace-context propagation) additionally
    emit a flow-event pair (``"ph": "s"`` on the parent slice,
    ``"ph": "f"`` on the child slice), so Perfetto draws the causal
    arrows between process lanes.
    """
    spans = [s for s in tracer.spans() if s.finished]
    spans.sort(key=lambda s: s.span_id or 0)
    by_id: dict[int, Span] = {
        s.span_id: s for s in spans if s.span_id is not None
    }

    track_cache: dict[int, tuple[int, int]] = {}

    def track(sp: Span) -> tuple[int, int]:
        if sp.span_id is not None and sp.span_id in track_cache:
            return track_cache[sp.span_id]
        pid_attr = sp.attrs.get("pid")
        if isinstance(pid_attr, int) and pid_attr > 0:
            t = (int(pid_attr), int(pid_attr))
        elif sp.parent_id in by_id:
            t = track(by_id[sp.parent_id])
        else:
            t = (MASTER_PID, MASTER_TID)
        if sp.span_id is not None:
            track_cache[sp.span_id] = t
        return t

    events: list[dict] = []
    tracks_seen: set[tuple[int, int]] = set()
    for sp in spans:
        pid, tid = track(sp)
        tracks_seen.add((pid, tid))
        events.append({
            "ph": "X",
            "name": sp.name,
            "cat": sp.name.split(".", 1)[0],
            "ts": sp.start_unix * 1e6,
            "dur": (sp.duration_s or 0.0) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": dict(sp.attrs) | (
                {"error": sp.error} if sp.error else {}
            ),
        })
        # Cross-track parent link → flow arrow between the lanes.
        parent = by_id.get(sp.parent_id) if sp.parent_id is not None else None
        if parent is not None:
            ppid, ptid = track(parent)
            if (ppid, ptid) != (pid, tid):
                flow_name = str(sp.attrs.get("trace", "trace"))
                # The start step must sit inside the parent slice; the
                # child may begin before the parent's clock says so
                # (separate processes), so clamp into the slice.
                parent_t0 = parent.start_unix * 1e6
                parent_t1 = parent_t0 + (parent.duration_s or 0.0) * 1e6
                ts_s = min(max(sp.start_unix * 1e6, parent_t0), parent_t1)
                events.append({
                    "ph": "s", "id": sp.span_id, "name": flow_name,
                    "cat": "flow", "ts": ts_s, "pid": ppid, "tid": ptid,
                })
                events.append({
                    "ph": "f", "bp": "e", "id": sp.span_id,
                    "name": flow_name, "cat": "flow",
                    "ts": sp.start_unix * 1e6, "pid": pid, "tid": tid,
                })

    meta: list[dict] = []
    for pid, tid in sorted(tracks_seen):
        if pid == MASTER_PID:
            pname, tname = process_name, "main"
        else:
            pname = tname = f"worker pid={pid}"
        meta.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": tid,
            "args": {"name": pname},
        })
        meta.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": tname},
        })
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_prometheus(path: str, registry: MetricsRegistry = REGISTRY) -> str:
    """Write the exposition to ``path``; returns the text."""
    text = prometheus_text(registry)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def write_chrome_trace(path: str, tracer: Tracer = TRACER) -> dict:
    """Write the Chrome trace-event document to ``path``; returns it."""
    doc = chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc
