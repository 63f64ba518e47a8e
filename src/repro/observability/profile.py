"""Phase-level profiling: cost attribution and exports.

PR 5 gave the repo metrics, traces, and drift; this module adds the
fourth observability pillar — *profiling* — so the exactness tax the
benchmarks quantify (the HP cost factor over a naive float64 sum) can
be attributed to named phases of the algorithm instead of one opaque
total.  Two layers:

* **Phase markers** — :func:`phase` opens a span named ``phase.<name>``
  on the default tracer.  Like the metrics/tracing gates, the module
  has an :data:`ENABLED` flag; while it is off, :func:`phase` returns a
  shared no-op context manager, so the disabled cost at a call site is
  one global load, a falsy test, and two trivial method calls — far
  below the per-chunk work it brackets (the benchmark gate in CI pins
  the end-to-end overhead).  When metrics are also enabled, every phase
  exit records ``profile.phase_seconds`` / ``profile.phase_calls``
  counters and a ``profile.phase_call_seconds`` latency histogram, all
  labeled by phase, which flow through the existing Prometheus
  exposition and ``/metrics`` endpoint unchanged.
* **Phase tree** — :class:`ProfileReport` aggregates the recorded
  ``phase.*`` spans into self-time / cumulative / percent rows, with
  per-worker attribution: spans measured inside procpool workers arrive
  through :meth:`repro.observability.tracing.Tracer.adopt`, nested under
  a span carrying ``pid`` and ``pe`` attributes, and native-thread PEs
  run under a ``threads.worker`` span of engine ``native``; the report
  walks each phase span's ancestry to place it on that worker's row,
  one per PE even when one process ran several PEs' tasks.  The same
  walk yields the flame graph: one stack per phase path weighted by its
  self time in microseconds, exported as collapsed-stack text
  (:func:`format_collapsed`, with :func:`parse_collapsed` its strict
  inverse) or speedscope JSON.

``repro profile`` drives both from the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observability import metrics as _metrics
from repro.observability import tracing as _tracing
from repro.observability.tracing import Span, TRACER, Tracer

__all__ = [
    "ENABLED",
    "enable",
    "disable",
    "profiled",
    "phase",
    "PHASE_PREFIX",
    "RUN_SPAN",
    "PROFILE_SCHEMA_VERSION",
    "PhaseRow",
    "ProfileReport",
    "format_collapsed",
    "parse_collapsed",
    "speedscope_document",
    "validate_speedscope",
    "phase_counter_events",
    "chrome_trace_with_phases",
]

#: Hot-path gate.  Mutate only through :func:`enable` / :func:`disable`.
ENABLED = False

#: Span-name prefix that marks a span as a phase marker.
PHASE_PREFIX = "phase."

#: Span name the CLI opens around a profiled workload; the report uses
#: its duration as the wall-clock denominator when present.
RUN_SPAN = "profile.run"

#: Version stamped into every exported profile document.
PROFILE_SCHEMA_VERSION = 1

#: Latency buckets (seconds) for the per-call phase histogram — a
#: 1-2-5 ladder from 10 us to 30 s, sized for chunk-granular phases.
PHASE_SECONDS_BUCKETS = (
    1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3,
    0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0,
)


class _NullPhase:
    """Shared no-op context manager returned while profiling is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_PHASE = _NullPhase()


class _PhaseContext(_tracing._SpanContext):
    """Span-backed phase region; records metrics on exit when armed."""

    __slots__ = ("_name",)

    def __init__(self, name: str, attrs: dict) -> None:
        # Built directly rather than through TRACER.span() and a nested
        # context: whatever runs between two phases is wall time that no
        # phase explains.
        _tracing._SpanContext.__init__(
            self, TRACER, Span(PHASE_PREFIX + name, attrs)
        )
        self._name = name

    def __exit__(self, exc_type, exc, tb) -> None:
        _tracing._SpanContext.__exit__(self, exc_type, exc, tb)
        if _metrics.ENABLED:
            seconds = self._span.duration_s or 0.0
            reg = _metrics.REGISTRY
            reg.counter("profile.phase_calls", phase=self._name).inc()
            reg.counter("profile.phase_seconds", phase=self._name).inc(
                seconds
            )
            reg.histogram(
                "profile.phase_call_seconds",
                buckets=PHASE_SECONDS_BUCKETS,
                phase=self._name,
            ).observe(seconds)


def phase(name: str, **attrs: object):
    """Mark a named phase of a reduction::

        with phase("smallacc.scatter"):
            _scatter_chunk(piece, params, chunks)

    Returns the shared no-op while :data:`ENABLED` is off; otherwise a
    span named ``phase.<name>`` opens on the default tracer (nesting
    under whatever span is current, including procpool worker spans) and
    the ``profile.*`` metrics are recorded on exit.
    """
    if not ENABLED:
        return _NULL_PHASE
    return _PhaseContext(name, attrs)


def enable() -> None:
    """Arm the phase markers.  Tracing is enabled too — phases are
    span-backed, so marks could not record anywhere without it."""
    global ENABLED
    ENABLED = True
    _tracing.enable()


def disable() -> None:
    """Disarm the phase markers (the tracing gate is left as-is)."""
    global ENABLED
    ENABLED = False


class profiled:
    """Context manager arming phases + tracing + metrics for one region,
    restoring every prior gate on exit::

        with profiled():
            batch_sum_doubles(xs, params)
        report = ProfileReport.from_tracer()

    The report is built from spans alone; ``metrics=False`` leaves the
    metrics gate as it was, so the ``profile.*`` series are recorded
    only where something already collects metrics.
    """

    def __init__(self, metrics: bool = True) -> None:
        self._metrics = metrics

    def __enter__(self) -> None:
        self._prior = (ENABLED, _tracing.ENABLED, _metrics.ENABLED)
        enable()
        if self._metrics:
            _metrics.enable()
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        global ENABLED
        ENABLED, _tracing.ENABLED, _metrics.ENABLED = self._prior


# ---------------------------------------------------------------------------
# cost table
# ---------------------------------------------------------------------------

#: Worker key for phases measured on the master process.
MASTER_WORKER = "master"

#: Flame-graph frame for the master's wall time that no phase covers.
UNATTRIBUTED = "(unattributed)"


@dataclass
class PhaseRow:
    """Aggregated cost of one (phase, worker) pair."""

    phase: str
    worker: str = MASTER_WORKER
    calls: int = 0
    cum_s: float = 0.0   # wall time inside the phase, children included
    self_s: float = 0.0  # cum_s minus time in nested phases

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "worker": self.worker,
            "calls": self.calls,
            "cum_s": self.cum_s,
            "self_s": self.self_s,
        }


def _worker_label(sp: Span) -> str | None:
    """The worker ``sp`` marks, if any: a procpool task span carries a
    ``pid`` (and its ``pe``, since one process may run several PEs'
    tasks); a native-thread PE runs under ``threads.worker`` with
    engine ``native``."""
    attrs = sp.attrs
    pid = attrs.get("pid")
    if isinstance(pid, int) and pid > 0:
        pe = attrs.get("pe")
        return f"pid={pid}" if pe is None else f"pid={pid} pe={pe}"
    if sp.name == "threads.worker" and attrs.get("engine") == "native":
        return f"thread rank={attrs.get('rank')}"
    return None


def _place(
    sp: Span, by_id: dict[int, Span]
) -> tuple[str, tuple[str, ...], Span | None]:
    """Walk a phase span's ancestry up to its worker boundary: returns
    the worker it ran on, the phase names from the outermost enclosing
    phase down to ``sp``, and the nearest enclosing phase span (through
    any non-phase spans between).  A worker's phases never nest under a
    master phase: they run concurrently with it."""
    path = [sp.name[len(PHASE_PREFIX):]]
    nearest: Span | None = None
    cur: Span | None = sp
    while cur is not None:
        label = _worker_label(cur)
        if label is not None:
            return label, tuple(reversed(path)), nearest
        cur = by_id.get(cur.parent_id) if cur.parent_id is not None else None
        if cur is not None and cur.name.startswith(PHASE_PREFIX):
            path.append(cur.name[len(PHASE_PREFIX):])
            nearest = nearest or cur
    return MASTER_WORKER, tuple(reversed(path)), nearest


@dataclass
class ProfileReport:
    """Per-phase cost table built from a tracer's ``phase.*`` spans.

    ``wall_s`` is the duration of the :data:`RUN_SPAN` span when one was
    recorded, else the span of wall-clock time the phase spans cover.
    ``attributed_fraction`` is the master-side self-time total over the
    wall clock — the share of the run the phase catalog explains (worker
    self-time runs concurrently with the master clock, so it reports
    separately rather than inflating the fraction past 1).

    ``stacks`` is the same phase tree as a flame graph: one key per
    phase path (worker label first, off the master), weighted by self
    time in whole microseconds.  The master's time no phase covers is
    the :data:`UNATTRIBUTED` stack, so the master's weights add up to
    the wall.
    """

    wall_s: float = 0.0
    rows: list[PhaseRow] = field(default_factory=list)
    stacks: dict[tuple[str, ...], int] = field(default_factory=dict)

    @classmethod
    def from_spans(cls, spans: list[Span]) -> "ProfileReport":
        done = [s for s in spans if s.finished]
        by_id = {s.span_id: s for s in done if s.span_id is not None}
        phases = [s for s in done if s.name.startswith(PHASE_PREFIX)]
        placed = [(sp, *_place(sp, by_id)) for sp in phases]

        # Self time: subtract each phase's duration from its nearest
        # enclosing phase on the same worker.
        child_s: dict[int, float] = {}
        for sp, _worker, _path, anc in placed:
            if anc is not None and anc.span_id is not None:
                child_s[anc.span_id] = (
                    child_s.get(anc.span_id, 0.0) + (sp.duration_s or 0.0)
                )

        rows: dict[tuple[str, str], PhaseRow] = {}
        stacks: dict[tuple[str, ...], int] = {}
        master_us = 0
        for sp, worker, path, _anc in placed:
            name = path[-1]
            row = rows.get((name, worker))
            if row is None:
                row = rows[(name, worker)] = PhaseRow(name, worker)
            duration = sp.duration_s or 0.0
            nested = child_s.get(sp.span_id, 0.0) if sp.span_id else 0.0
            self_s = max(0.0, duration - nested)
            row.calls += 1
            row.cum_s += duration
            row.self_s += self_s
            weight = round(self_s * 1e6)
            if worker == MASTER_WORKER:
                master_us += weight
            else:
                path = (worker,) + path
            stacks[path] = stacks.get(path, 0) + weight

        run = [s for s in done if s.name == RUN_SPAN]
        if run:
            wall = max(s.duration_s or 0.0 for s in run)
        elif phases:
            start = min(s.start_unix for s in phases)
            end = max(s.start_unix + (s.duration_s or 0.0) for s in phases)
            wall = end - start
        else:
            wall = 0.0
        unattributed_us = round(wall * 1e6) - master_us
        if unattributed_us > 0:
            stacks[(UNATTRIBUTED,)] = unattributed_us
        ordered = sorted(
            rows.values(), key=lambda r: (-r.self_s, r.phase, r.worker)
        )
        return cls(wall_s=wall, rows=ordered, stacks=stacks)

    @classmethod
    def from_tracer(cls, tracer: Tracer = TRACER) -> "ProfileReport":
        return cls.from_spans(tracer.spans())

    # -- aggregates ---------------------------------------------------------

    @property
    def attributed_s(self) -> float:
        """Master-side self-time total (worker phases run on other cores
        concurrently with the master clock, so they are excluded)."""
        return sum(r.self_s for r in self.rows if r.worker == MASTER_WORKER)

    @property
    def attributed_fraction(self) -> float:
        return self.attributed_s / self.wall_s if self.wall_s > 0 else 0.0

    def workers(self) -> list[str]:
        seen: list[str] = []
        for r in self.rows:
            if r.worker not in seen:
                seen.append(r.worker)
        return seen

    def phase_totals(self) -> dict[str, float]:
        """Self-seconds per phase name, summed over workers."""
        totals: dict[str, float] = {}
        for r in self.rows:
            totals[r.phase] = totals.get(r.phase, 0.0) + r.self_s
        return totals

    # -- output -------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "kind": "profile",
            "schema_version": PROFILE_SCHEMA_VERSION,
            "wall_s": self.wall_s,
            "attributed_s": self.attributed_s,
            "attributed_fraction": self.attributed_fraction,
            "phases": [r.to_dict() for r in self.rows],
        }

    def render(self) -> str:
        """The cost table: phase, worker, calls, self, cumulative, %."""
        from repro.util.tables import render_table

        wall = self.wall_s
        body = [
            (
                r.phase,
                r.worker,
                r.calls,
                r.self_s * 1e3,
                r.cum_s * 1e3,
                (100.0 * r.self_s / wall) if wall > 0 else 0.0,
            )
            for r in self.rows
        ]
        table = render_table(
            ["phase", "worker", "calls", "self ms", "cum ms", "% wall"],
            body,
            precision=2,
        )
        footer = (
            f"wall {wall * 1e3:.2f} ms, attributed "
            f"{self.attributed_s * 1e3:.2f} ms "
            f"({self.attributed_fraction:.1%} of wall, master self-time)"
        )
        return table + "\n" + footer


# ---------------------------------------------------------------------------
# flame-graph exports
# ---------------------------------------------------------------------------


def format_collapsed(stacks: dict[tuple[str, ...], int]) -> str:
    """Flamegraph collapsed-stack text: ``root;...;leaf weight``."""
    lines = [
        ";".join(stack) + f" {weight}"
        for stack, weight in sorted(stacks.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_collapsed(text: str) -> dict[tuple[str, ...], int]:
    """Strict inverse of :func:`format_collapsed`."""
    stacks: dict[tuple[str, ...], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        stack_part, sep, count_part = line.rpartition(" ")
        if not sep or not count_part.isdigit():
            raise ValueError(f"line {lineno}: no trailing count in {line!r}")
        frames = tuple(stack_part.split(";"))
        if not all(frames):
            raise ValueError(f"line {lineno}: empty frame in {line!r}")
        stacks[frames] = stacks.get(frames, 0) + int(count_part)
    return stacks


_SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def speedscope_document(
    stacks: dict[tuple[str, ...], int],
    name: str = "repro profile",
    interval_s: float = 0.005,
) -> dict:
    """Merged stacks as a speedscope ``sampled`` profile.

    Weights are seconds (stack weight x ``interval_s``; the phase
    tree's weights are microseconds, so it passes ``1e-6``); frames are
    deduplicated into the shared frame table as the format requires.
    """
    frame_index: dict[str, int] = {}
    frames: list[dict] = []
    samples: list[list[int]] = []
    weights: list[float] = []
    for stack, count in sorted(stacks.items()):
        indexed = []
        for label in stack:
            idx = frame_index.get(label)
            if idx is None:
                idx = frame_index[label] = len(frames)
                frames.append({"name": label})
            indexed.append(idx)
        samples.append(indexed)
        weights.append(count * interval_s)
    total = sum(weights)
    return {
        "$schema": _SPEEDSCOPE_SCHEMA,
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro.observability.profile",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
    }


def validate_speedscope(doc: dict) -> list[str]:
    """Structural validation against the speedscope file format; returns
    problems (empty list = conforms).  Mirrors the invariants of the
    published JSON schema that matter for rendering: the shared frame
    table, parallel samples/weights arrays, and in-range frame indices.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("$schema") != _SPEEDSCOPE_SCHEMA:
        problems.append(f"$schema is {doc.get('$schema')!r}")
    frames = (doc.get("shared") or {}).get("frames")
    if not isinstance(frames, list):
        problems.append("shared.frames missing or not a list")
        frames = []
    for i, f in enumerate(frames):
        if not isinstance(f, dict) or not isinstance(f.get("name"), str):
            problems.append(f"shared.frames[{i}] has no string name")
    profiles = doc.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        problems.append("profiles missing or empty")
        profiles = []
    for i, prof in enumerate(profiles):
        if prof.get("type") != "sampled":
            problems.append(f"profiles[{i}].type is {prof.get('type')!r}")
            continue
        samples = prof.get("samples")
        weights = prof.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            problems.append(f"profiles[{i}] samples/weights not lists")
            continue
        if len(samples) != len(weights):
            problems.append(
                f"profiles[{i}]: {len(samples)} samples vs "
                f"{len(weights)} weights"
            )
        for j, stack in enumerate(samples):
            if not all(
                isinstance(k, int) and 0 <= k < len(frames) for k in stack
            ):
                problems.append(
                    f"profiles[{i}].samples[{j}] has out-of-range frame "
                    "indices"
                )
                break
        if "unit" not in prof or "startValue" not in prof \
                or "endValue" not in prof:
            problems.append(f"profiles[{i}] missing unit/startValue/endValue")
    return problems


# ---------------------------------------------------------------------------
# Perfetto counter tracks
# ---------------------------------------------------------------------------


def phase_counter_events(tracer: Tracer = TRACER) -> list[dict]:
    """Chrome trace ``"C"`` (counter) events: one per phase-span end,
    carrying that phase's cumulative seconds so far.  Loaded next to the
    ``"X"`` span events of :func:`repro.observability.export.chrome_trace`
    these render as per-phase counter tracks in Perfetto."""
    from repro.observability.export import MASTER_PID

    ends = []
    for sp in tracer.spans():
        if sp.finished and sp.name.startswith(PHASE_PREFIX):
            end_unix = sp.start_unix + (sp.duration_s or 0.0)
            ends.append((end_unix, sp.name[len(PHASE_PREFIX):],
                         sp.duration_s or 0.0))
    ends.sort()
    events: list[dict] = []
    running: dict[str, float] = {}
    for end_unix, name, duration in ends:
        running[name] = running.get(name, 0.0) + duration
        events.append({
            "ph": "C",
            "name": f"phase_seconds.{name}",
            "pid": MASTER_PID,
            "tid": 0,
            "ts": end_unix * 1e6,
            "args": {"seconds": running[name]},
        })
    return events


def chrome_trace_with_phases(tracer: Tracer = TRACER) -> dict:
    """The Chrome/Perfetto trace document plus phase counter tracks."""
    from repro.observability.export import chrome_trace

    doc = chrome_trace(tracer)
    doc["traceEvents"].extend(phase_counter_events(tracer))
    return doc
