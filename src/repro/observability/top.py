"""``repro top``: a curses-free terminal dashboard over ``/snapshot``.

Polls a :class:`~repro.observability.server.MetricsServer`'s
``/snapshot`` endpoint and renders the hot metrics in place using plain
ANSI home/clear escapes — no curses, no dependencies, works over ssh.
The renderer (:func:`render_top`) is a pure function of the snapshot
payload, so tests drive it without a terminal or a server.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.request
from typing import IO

__all__ = ["fetch_snapshot", "render_top", "run_top"]

#: ANSI: cursor home + erase to end of screen (repaint without flicker).
_CLEAR = "\x1b[H\x1b[J"

#: Counter-name prefixes surfaced in the "hot counters" section, in
#: display order.
_HOT_PREFIXES = (
    "global_sum.", "procpool.", "smallacc.", "atomic.", "simmpi.", "gpu.",
    "hp.", "obsserver.", "profile.", "planner.",
)


def fetch_snapshot(url: str, timeout: float = 5.0) -> dict:
    """GET ``<url>/snapshot`` and decode the JSON payload."""
    target = url.rstrip("/") + "/snapshot"
    with urllib.request.urlopen(target, timeout=timeout) as resp:
        return json.load(resp)


def _fmt_rate(value: float) -> str:
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= scale:
            return f"{value / scale:8.2f}{suffix}/s"
        # fallthrough to the plain form
    return f"{value:8.1f}/s "


def _fmt_count(value: float) -> str:
    for scale, suffix in ((1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= scale:
            return f"{value / scale:.2f}{suffix}"
    if value == int(value):
        return str(int(value))
    return f"{value:.3g}"


def _label_str(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _labels(m: dict) -> dict:
    """Label dict of a snapshot metric, tolerating sparse entries."""
    labels = m.get("labels")
    return labels if isinstance(labels, dict) else {}


def _num(m: dict, key: str, default: float = 0.0) -> float:
    """Numeric field of a snapshot metric, tolerating missing/None.

    Snapshots can be *sparse* — produced by an older server, a partial
    forensics bundle, or a registry that never saw a given subsystem —
    so the renderer never assumes a field is present.
    """
    value = m.get(key)
    return value if isinstance(value, (int, float)) else default


def render_top(payload: dict, url: str = "") -> str:
    """Render one dashboard frame from a ``/snapshot`` payload."""
    lines: list[str] = []
    latest = payload.get("latest") or {"metrics": []}
    raw = latest.get("metrics", []) if isinstance(latest, dict) else []
    metrics = [m for m in raw if isinstance(m, dict)]
    samples = payload.get("samples", 0)
    window = payload.get("window_s", 0.0)
    lines.append(
        f"repro top — {url or 'local snapshot'} — "
        f"{samples} samples over {window:.1f}s "
        f"(every {payload.get('interval_s', 0):.2g}s)"
    )
    lines.append("")

    rates = sorted(
        (r for r in payload.get("rates", []) if isinstance(r, dict)),
        key=lambda r: -_num(r, "per_second"),
    )
    lines.append("rates (window delta / window seconds):")
    if rates:
        for r in rates[:10]:
            lines.append(
                f"  {_fmt_rate(_num(r, 'per_second'))}  "
                f"{r.get('name', '?')}{_label_str(_labels(r))}"
            )
    else:
        lines.append("  (need two ring samples with counter movement)")
    lines.append("")

    # Accuracy drift: the paper's invariant, live.
    drift_hists = [
        m for m in metrics
        if m.get("name") == "drift.ulp_error"
        and m.get("type") == "histogram"
    ]
    violations = [
        m for m in metrics
        if m.get("name") == "drift.order_invariance_violations"
    ]
    lines.append("accuracy drift (ULP distance from exact reference):")
    if drift_hists:
        for m in drift_hists:
            path = _labels(m).get("path", "?")
            count = int(_num(m, "count"))
            mean = _num(m, "sum") / count if count else 0.0
            lines.append(
                f"  path={path:12s} samples={count:<7d} "
                f"mean={mean:10.2f}  max={_num(m, 'max'):g}"
            )
        total_viol = sum(_num(m, "value") for m in violations)
        by_path = ", ".join(
            f"{_labels(m).get('path', '?')}={_num(m, 'value'):g}"
            for m in violations
        ) or "none recorded"
        lines.append(
            f"  order-invariance violations: {int(total_viol)} ({by_path})"
        )
    else:
        lines.append("  (drift monitor idle — no samples yet)")
    lines.append("")

    # Planner bound validation: promised error budget actually consumed.
    margins = [
        m for m in metrics
        if m.get("name") == "planner.bound_margin"
        and m.get("type") == "histogram"
    ]
    if margins:
        breaches = {
            _labels(m).get("engine", "?"): _num(m, "value")
            for m in metrics
            if m.get("name") == "planner.bound_breaches"
        }
        lines.append("planner bound margin (fraction of promised budget):")
        for m in margins:
            engine = _labels(m).get("engine", "?")
            count = int(_num(m, "count"))
            mean = _num(m, "sum") / count if count else 0.0
            lines.append(
                f"  engine={engine:14s} validated={count:<7d} "
                f"mean={mean:8.3g}  max={_num(m, 'max'):g}  "
                f"breaches={int(breaches.get(engine, 0))}"
            )
        lines.append("")

    # Service-level objectives (slo.* gauges published by the SLO engine).
    slo_lines = _render_slo(metrics)
    if slo_lines:
        lines.extend(slo_lines)
        lines.append("")

    # Hot counters, aggregated over labels per name.
    totals: dict[str, float] = {}
    for m in metrics:
        if m.get("type") != "counter":
            continue
        name = m.get("name", "")
        if any(name.startswith(p) for p in _HOT_PREFIXES):
            totals[name] = totals.get(name, 0) + _num(m, "value")
    lines.append("hot counters (summed over labels):")
    if totals:
        for name in sorted(totals, key=lambda k: -totals[k])[:12]:
            lines.append(f"  {name:36s} {_fmt_count(totals[name]):>10s}")
    else:
        lines.append("  (none yet)")

    histo = [
        m for m in metrics
        if m.get("type") == "histogram"
        and m.get("name") == "procpool.task_seconds"
    ]
    if histo:
        lines.append("")
        lines.append("procpool task seconds:")
        for m in histo:
            count = int(_num(m, "count"))
            mean = _num(m, "sum") / count if count else 0.0
            lines.append(
                f"  method={_labels(m).get('method', '?'):12s} "
                f"tasks={count:<7d} mean={mean * 1e3:8.2f} ms  "
                f"max={_num(m, 'max') * 1e3:8.2f} ms"
            )

    # Phase cost table from the profiling layer's latency histograms.
    phases = [
        m for m in metrics
        if m.get("type") == "histogram"
        and m.get("name") == "profile.phase_call_seconds"
    ]
    if phases:
        lines.append("")
        lines.append("profiled phases (per-call latency):")
        phases.sort(key=lambda m: -_num(m, "sum"))
        for m in phases:
            count = int(_num(m, "count"))
            mean = _num(m, "sum") / count if count else 0.0
            lines.append(
                f"  {_labels(m).get('phase', '?'):24s} "
                f"calls={count:<7d} total={_num(m, 'sum') * 1e3:9.2f} ms  "
                f"mean={mean * 1e3:8.2f} ms  "
                f"max={_num(m, 'max') * 1e3:8.2f} ms"
            )
    return "\n".join(lines) + "\n"


def _render_slo(metrics: list[dict]) -> list[str]:
    """SLO panel lines, or ``[]`` when no ``slo.*`` gauges are present."""
    by_objective: dict[str, dict[str, float]] = {}
    for m in metrics:
        name = m.get("name", "")
        if not name.startswith("slo."):
            continue
        labels = _labels(m)
        row = by_objective.setdefault(labels.get("objective", "?"), {})
        if name == "slo.events":
            row[f"events_{labels.get('status', '?')}"] = _num(m, "value")
        else:
            row[name.rsplit(".", 1)[-1]] = _num(m, "value")
    if not by_objective:
        return []
    lines = ["service-level objectives:"]
    for objective in sorted(by_objective):
        row = by_objective[objective]
        target = row.get("target", 0.0)
        compliance = row.get("compliance")
        burn = row.get("burn_rate")
        total = int(row.get("events_total", 0))
        good = int(row.get("events_good", 0))
        if total == 0:
            standing = "no events"
        elif compliance is not None and compliance >= target:
            standing = "OK"
        else:
            standing = "BREACHED"
        burn_str = (
            "inf" if burn is not None and burn < 0
            else f"{burn:.2f}x" if burn is not None else "?"
        )
        compliance_str = (
            f"{compliance:.5f}" if compliance is not None else "?"
        )
        lines.append(
            f"  {objective:10s} target={target:<8g} "
            f"compliance={compliance_str:>8s} burn={burn_str:>6s} "
            f"good/total={good}/{total}  [{standing}]"
        )
    return lines


def run_top(
    url: str,
    interval: float = 1.0,
    iterations: int = 0,
    clear: bool = True,
    out: IO[str] | None = None,
) -> int:
    """Poll-and-render loop.  ``iterations=0`` runs until interrupted;
    a positive count renders that many frames (tests, one-shot looks).
    Returns a process exit status."""
    out = out if out is not None else sys.stdout
    frame = 0
    while True:
        try:
            payload = fetch_snapshot(url, timeout=max(interval, 5.0))
        except (OSError, ValueError) as exc:
            print(f"error: cannot fetch {url}/snapshot: {exc}",
                  file=sys.stderr)
            return 1
        if clear:
            out.write(_CLEAR)
        out.write(render_top(payload, url=url))
        out.flush()
        frame += 1
        if iterations and frame >= iterations:
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
