"""Error-bound-driven engine selection: the accuracy/cost planner.

Given a request's summand count and accuracy target, pick the cheapest
registered engine whose a-priori forward-error bound
(:mod:`repro.core.bounds`, after Hallman & Ipsen 2021) meets the
target — falling back to an exact HP engine only when required.  This
is the economics layer the ROADMAP's adaptive-selection item calls for:
most traffic tolerates a known error, and a bound that is known *before
summing* lets the service route it off the expensive exact tiers.

Target semantics
----------------
``target`` is a **mass-relative** error budget: the promise is

    |computed - exact| <= target * sum|x_i| .

An engine is eligible when its bound coefficient ``c(n) <= target``.
Exact HP engines have ``c(n) = 0`` (they return the correctly rounded
sum), so ``target = 0`` provably selects an exact engine; no admissible
target can go unserved.  Mass-relative (rather than relative to the
result) is the honest contract for summation — for cancelling inputs no
inexact method can promise a result-relative error, which is exactly
when the planner escalates to exact HP.

Cost model
----------
Eligible engines rank by ``unit_cost * n`` with per-summand unit costs
from :data:`repro.perfmodel.costs.PLANNER_UNIT_COSTS`, optionally refit
from a ``repro profile --calibrate`` measurement (PR 6) via
:func:`repro.perfmodel.costs.planner_unit_costs`.

Escalation
----------
The drift monitor validates planner choices against their promised
bounds in production (:meth:`DriftMonitor.observe_planned`).  A breach
calls :func:`record_breach`: the offending inexact engine is distrusted
— subsequent plans skip it (automatic escalation toward exact HP) until
:func:`reset_escalations`.  Exact engines are never escalated away; a
"breach" there is a production-severity bug counted separately.

Metrics (gated on the observability registry): ``planner.plans``,
``planner.decisions{engine=}``, ``planner.escalations{engine=}``; the
bound-margin histogram is published by the monitor at validation time.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.core import bounds as _bounds
from repro.core import engines as _engines
from repro.errors import ConversionOverflowError
from repro.observability import journal as _journal
from repro.observability import metrics as _obs

__all__ = [
    "Candidate",
    "EnginePlan",
    "PlannedSum",
    "escalated_engines",
    "plan",
    "planned_sum",
    "record_breach",
    "reset_escalations",
]

_LOCK = threading.Lock()
#: engine name -> breach count; escalated engines are skipped by plan().
_ESCALATED: dict[str, int] = {}


@dataclass(frozen=True)
class Candidate:
    """One engine's row in a plan: bound, cost, and the verdict."""

    engine: str
    bound_model: str
    coefficient: float
    predicted_cost: float
    exact: bool
    eligible: bool
    escalated: bool
    chosen: bool

    @property
    def verdict(self) -> str:
        if self.chosen:
            return "CHOSEN"
        if self.escalated:
            return "escalated away"
        if not self.eligible:
            return "bound exceeds target"
        return "eligible, costlier"


@dataclass(frozen=True)
class EnginePlan:
    """The planner's decision for one request."""

    n: int
    target: float
    mode: str
    engine: str
    bound: _bounds.ErrorBound
    predicted_cost: float
    exact: bool
    candidates: tuple = field(default_factory=tuple)
    escalated_from: tuple = field(default_factory=tuple)

    def absolute_bound(self, mass: float) -> float:
        """The promised absolute error limit given the mass
        ``sum|x_i|`` (or its streaming bound ``n * max|x_i|``)."""
        return self.bound.absolute(mass)

    def explain(self) -> str:
        """Human-readable decision table for ``--explain-plan`` output."""
        from repro.util.tables import render_table

        rows = [
            (
                c.engine,
                c.bound_model,
                c.coefficient,
                c.predicted_cost,
                c.verdict,
            )
            for c in self.candidates
        ]
        header = (
            f"plan(n={self.n}, target={self.target:g}, mode={self.mode}): "
            f"engine={self.engine}"
        )
        if self.escalated_from:
            header += (
                f"  [escalated: {', '.join(self.escalated_from)} distrusted]"
            )
        return header + "\n" + render_table(
            ["engine", "bound model", "coefficient", "cost", "verdict"],
            rows,
            precision=3,
        )


def record_breach(engine: str) -> None:
    """Distrust an inexact engine after a validated bound breach.

    Called by the drift monitor; subsequent :func:`plan` calls skip the
    engine (escalating the traffic toward exact HP).  Exact engines are
    counted but never escalated away — they are the fallback.
    """
    spec = _engines.get(engine)
    if _obs.ENABLED:
        _obs.REGISTRY.counter(
            "planner.escalations", engine=spec.name
        ).inc()
    _journal.emit("plan.escalation", engine=spec.name, exact=spec.exact)
    if spec.exact:
        return
    with _LOCK:
        _ESCALATED[spec.name] = _ESCALATED.get(spec.name, 0) + 1


def escalated_engines() -> dict[str, int]:
    """Currently distrusted engines and their breach counts."""
    with _LOCK:
        return dict(_ESCALATED)


def reset_escalations() -> None:
    with _LOCK:
        _ESCALATED.clear()


def plan(
    n: int,
    target: float,
    mode: str = "deterministic",
    failure_prob: float = 1e-9,
    costs: Mapping[str, float] | None = None,
    measured: Mapping[str, float] | None = None,
) -> EnginePlan:
    """Rank eligible engines by predicted cost; return the decision.

    ``target`` is the mass-relative budget (see the module docstring);
    ``target = 0`` demands exactness.  ``costs`` overrides the
    per-summand unit-cost table; ``measured`` refits it from a
    ``repro profile --calibrate`` mapping instead.
    """
    if not (target >= 0.0):  # also rejects NaN
        raise ValueError(
            f"target accuracy must be non-negative, got {target!r}"
        )
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if costs is None:
        from repro.perfmodel.costs import planner_unit_costs

        costs = planner_unit_costs(measured)
    distrusted = escalated_engines()

    rows = []
    for spec in _engines.specs():
        coeff = _bounds.coefficient(
            spec.bound_model, n, mode=mode, failure_prob=failure_prob
        )
        unit = costs.get(spec.name)
        if unit is None:
            continue  # engine opted out of planning (no cost entry)
        rows.append(
            {
                "spec": spec,
                "coefficient": coeff,
                "cost": unit * max(n, 1),
                "escalated": spec.name in distrusted,
                "eligible": coeff <= target and spec.name not in distrusted,
            }
        )
    eligible = [r for r in rows if r["eligible"]]
    if not eligible:
        raise RuntimeError(
            "no engine satisfies the target — exact engines must always "
            "be registered and are never escalated away"
        )
    best = min(eligible, key=lambda r: (r["cost"], r["coefficient"]))

    rows.sort(key=lambda r: (r["cost"], r["coefficient"]))
    candidates = tuple(
        Candidate(
            engine=r["spec"].name,
            bound_model=r["spec"].bound_model,
            coefficient=r["coefficient"],
            predicted_cost=r["cost"],
            exact=r["spec"].exact,
            eligible=r["eligible"],
            escalated=r["escalated"],
            chosen=r is best,
        )
        for r in rows
    )
    spec = best["spec"]
    if _obs.ENABLED:
        _obs.REGISTRY.counter("planner.plans").inc()
        _obs.REGISTRY.counter(
            "planner.decisions", engine=spec.name, mode=mode
        ).inc()
    if _journal.ENABLED:
        _journal.emit(
            "plan.decision", n=n, target=target, mode=mode,
            engine=spec.name,
            exact=spec.exact, coefficient=best["coefficient"],
            predicted_cost=best["cost"],
            escalated_from=sorted(distrusted),
            verdicts=[
                {
                    "engine": r["spec"].name,
                    "coefficient": r["coefficient"],
                    "verdict": (
                        "CHOSEN" if r is best
                        else "escalated away" if r["escalated"]
                        else "bound exceeds target" if not r["eligible"]
                        else "eligible, costlier"
                    ),
                }
                for r in rows
            ],
        )
    return EnginePlan(
        n=n,
        target=target,
        mode=mode,
        engine=spec.name,
        bound=_bounds.ErrorBound(
            model=spec.bound_model,
            mode=mode,
            n=n,
            coefficient=best["coefficient"],
        ),
        predicted_cost=best["cost"],
        exact=spec.exact,
        candidates=candidates,
        escalated_from=tuple(sorted(distrusted)),
    )


@dataclass(frozen=True)
class PlannedSum:
    """Outcome of a planner-routed summation."""

    value: float
    plan: EnginePlan
    #: exact HP words when an exact engine served the request, else None
    words: tuple | None
    params: object | None


def _suggest_params(xs: np.ndarray):
    """Streaming-estimable HP parameters: the mass upper bound
    ``n * max|x|`` sizes the whole words, the smallest nonzero magnitude
    sizes the fraction — no summation needed to pick the format."""
    from repro.core.params import HPParams, suggest_params

    nonzero = np.abs(xs[xs != 0.0])
    if not nonzero.size:
        return HPParams(2, 1)
    top = float(nonzero.max())
    if not math.isfinite(top):
        # NaN propagates through max(): one test covers NaN and inf.
        raise ConversionOverflowError("input contains NaN or infinity")
    return suggest_params(
        _bounds.mass_upper_bound(xs.size, top), float(nonzero.min())
    )


def planned_sum(
    xs: np.ndarray,
    target: float,
    mode: str = "deterministic",
    failure_prob: float = 1e-9,
    params=None,
    chunk: int = 1 << 20,
    costs: Mapping[str, float] | None = None,
    measured: Mapping[str, float] | None = None,
) -> PlannedSum:
    """Plan and execute one summation under an accuracy target.

    Exact-engine plans return the HP words alongside the value; inexact
    plans return the compensated value (``words=None``).  When the drift
    monitor is armed, the delivered value is validated against the
    plan's promised bound (:meth:`DriftMonitor.observe_planned`) — a
    breach alarms and escalates the engine for subsequent plans.
    """
    from repro.observability import monitor as _drift

    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.ndim != 1:
        raise ValueError(f"expected 1-D input, got shape {xs.shape}")
    decision = plan(
        xs.size, target, mode=mode, failure_prob=failure_prob,
        costs=costs, measured=measured,
    )
    spec = _engines.get(decision.engine)
    recompute: Callable[[np.ndarray], float]
    if spec.exact:
        from repro.core.scalar import to_double
        from repro.core.vectorized import batch_sum_doubles

        if params is None:
            params = _suggest_params(xs)
        words = tuple(
            batch_sum_doubles(xs, params, chunk=chunk, method=spec.name)
        )
        value = to_double(words, params)

        def recompute(sample, _p=params, _m=spec.name):
            return to_double(
                batch_sum_doubles(sample, _p, chunk=chunk, method=_m), _p
            )

    else:
        words = None
        value = spec.float_total(xs, chunk)

        def recompute(sample, _m=spec.name):
            return _engines.get(_m).float_total(sample, chunk)

    # The monitor gates internally: fully armed publishes planner.*
    # metrics and escalates on breach; journal-only still lands the
    # bound.check promise-vs-measurement row.
    _drift.MONITOR.observe_planned(xs, value, decision, recompute)
    return PlannedSum(
        value=value, plan=decision, words=words,
        params=params if spec.exact else None,
    )


def validate_routed(
    xs: np.ndarray,
    value: float,
    decision,
    params=None,
    chunk: int = 1 << 20,
) -> None:
    """Audit a planner-routed sum that was executed elsewhere.

    The substrate path (``repro sum --target-accuracy --substrate ...``)
    plans here but executes in the parallel layer, so :func:`planned_sum`
    never sees the delivered value.  This re-attaches it to the plan's
    promise via :meth:`DriftMonitor.observe_planned` — the same
    ``bound.check`` journal row, ``planner.*`` metrics, and breach
    escalation the serial path gets.
    """
    from repro.observability import journal as _journal
    from repro.observability import monitor as _drift

    if not (_drift.MONITOR.armed or _journal.ENABLED):
        return
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    spec = _engines.get(decision.engine)
    recompute: Callable[[np.ndarray], float]
    if spec.exact:
        from repro.core.scalar import to_double
        from repro.core.vectorized import batch_sum_doubles

        if params is None:
            params = _suggest_params(xs)

        def recompute(sample, _p=params, _m=spec.name):
            return to_double(
                batch_sum_doubles(sample, _p, chunk=chunk, method=_m), _p
            )

    else:
        def recompute(sample, _m=spec.name):
            return _engines.get(_m).float_total(sample, chunk)

    _drift.MONITOR.observe_planned(xs, value, decision, recompute)
