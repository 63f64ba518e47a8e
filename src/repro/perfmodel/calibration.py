"""Calibration transparency: what is fitted, what is predicted.

The performance model pins a small set of *anchors* to the paper's
reported numbers; everything else the model outputs is then a structural
prediction.  This module states the anchors explicitly, recomputes the
model's value for each, and renders the comparison — so a reader can
audit exactly how much freedom the model had.

Anchors (all single-PE / single-point quantities):

1. X5650 double-precision loop: 32M summands in ~47 ms (Fig. 5 level).
2. X5650 HP(6,3)/double ratio: 37-38x (stated in Sec. IV.B).
3. X5650 Hallberg(10,38) slightly above HP (Fig. 5 curves).
4. K20m plateau level for double (~0.09 s) and the ≤5.6x HP band.
5. Phi single-thread double ~1.4 s (vectorized) and the >10x HP gap.

Everything in Figs. 4-8 that is *not* in this list — crossover
locations, efficiency collapses, plateau onsets, convergence to the
transfer floor — emerges from the model structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.perfmodel.machines import TESLA_K20M, XEON_PHI_5110P, XEON_X5650
from repro.perfmodel.scaling import cuda_time, openmp_time, phi_time, standard_specs
from repro.util.tables import render_table

__all__ = [
    "Anchor",
    "MeasuredAnchor",
    "MEASURED_SCHEMA",
    "calibration_anchors",
    "measured_anchors",
    "render_calibration",
    "render_measured",
]

N = 1 << 25

#: Schema tag of the cost file ``repro profile --calibrate`` emits; /2
#: keys the exact engine's time as ``hp-small``.
MEASURED_SCHEMA = "repro.profile.calibration/2"


@dataclass(frozen=True)
class Anchor:
    """One calibration target and the model's value for it."""

    name: str
    paper_low: float
    paper_high: float
    model_value: float

    @property
    def within_band(self) -> bool:
        return self.paper_low <= self.model_value <= self.paper_high


def calibration_anchors() -> list[Anchor]:
    """Recompute every anchor from the current machine descriptions."""
    specs = {s.name: s for s in standard_specs()}
    anchors = []
    t_dbl = openmp_time(N, 1, specs["double"])
    anchors.append(Anchor("X5650 double, 32M, 1 thread (s)",
                          0.04, 0.06, t_dbl))
    t_hp = openmp_time(N, 1, specs["hp"])
    anchors.append(Anchor("X5650 HP(6,3)/double ratio", 37.0, 38.0,
                          t_hp / t_dbl))
    t_hb = openmp_time(N, 1, specs["hallberg"])
    anchors.append(Anchor("X5650 Hallberg(10,38)/HP ratio", 1.0, 1.3,
                          t_hb / t_hp))
    plateau_dbl = cuda_time(N, 32768, specs["double"])
    anchors.append(Anchor("K20m double plateau (s)", 0.05, 0.15,
                          plateau_dbl))
    ratio_256 = cuda_time(N, 256, specs["hp"]) / cuda_time(
        N, 256, specs["double"]
    )
    anchors.append(Anchor("K20m HP/double at 256 threads", 4.3, 5.6,
                          ratio_256))
    phi_dbl = phi_time(N, 1, specs["double"])
    anchors.append(Anchor("Phi double, 32M, 1 thread (s)", 1.0, 2.0,
                          phi_dbl))
    phi_gap = phi_time(N, 1, specs["hp"]) / phi_dbl
    anchors.append(Anchor("Phi HP/double at 1 thread", 10.0, 20.0, phi_gap))
    return anchors


@dataclass(frozen=True)
class MeasuredAnchor:
    """One quantity pinned twice: by the model and by this machine.

    Unlike :class:`Anchor`, whose reference is a band read off the
    paper's figures, the reference here is a wall-clock measurement from
    ``repro profile --calibrate`` on the host running the model — so the
    residual says how far the X5650-anchored structural model is from
    *this* hardware, which is exactly the correction a measured-cost
    refit would absorb.
    """

    name: str
    model_value: float
    measured_value: float

    @property
    def residual(self) -> float:
        """measured / model — 1.0 means the model nailed it here."""
        if self.model_value == 0.0:
            return float("inf")
        return self.measured_value / self.model_value


def measured_anchors(measured: Mapping[str, float],
                     n: int = N) -> list[MeasuredAnchor]:
    """Pair machine measurements with the model's single-thread values.

    ``measured`` maps engine keys to best-of wall seconds for an
    ``n``-summand batch sum, as emitted by ``repro profile --calibrate``:
    ``double`` (naive ``np.sum``), ``hp-small``
    (:func:`~repro.core.vectorized.batch_sum_doubles`) and ``hallberg``
    (:func:`~repro.hallberg.vectorized.hb_batch_sum_doubles`).  Ratio
    anchors are preferred over absolute ones where possible — they
    cancel the host's absolute clock rate, isolating the *structural*
    per-method cost the model actually predicts.
    """
    specs = {s.name: s for s in standard_specs()}
    t_dbl = openmp_time(n, 1, specs["double"])
    t_hp = openmp_time(n, 1, specs["hp"])
    t_hb = openmp_time(n, 1, specs["hallberg"])
    out: list[MeasuredAnchor] = []
    if "double" in measured:
        out.append(MeasuredAnchor(
            f"double, {n} summands, 1 thread (s)",
            t_dbl, measured["double"],
        ))
    if "double" in measured and "hp-small" in measured:
        out.append(MeasuredAnchor(
            "HP(6,3) small / double ratio",
            t_hp / t_dbl, measured["hp-small"] / measured["double"],
        ))
    if "hp-small" in measured and "hallberg" in measured:
        out.append(MeasuredAnchor(
            "Hallberg(10,38) / HP small ratio",
            t_hb / t_hp, measured["hallberg"] / measured["hp-small"],
        ))
    return out


def render_measured(measured: Mapping[str, float], n: int = N) -> str:
    """The residual table: anchor, model, this machine, measured/model."""
    anchors = measured_anchors(measured, n)
    if not anchors:
        return "no measured anchors (need double/hp-small/hallberg keys)"
    rows = [
        (a.name, a.model_value, a.measured_value, a.residual)
        for a in anchors
    ]
    header = (
        f"paper anchors: {XEON_X5650.name}; measured: this machine, "
        f"n={n}\n"
    )
    return header + render_table(
        ["anchor", "model", "measured", "measured/model"], rows,
        precision=3,
    )


def render_calibration() -> str:
    """The audit table: anchor, paper band, model value, verdict."""
    rows = [
        (a.name, f"[{a.paper_low:g}, {a.paper_high:g}]", a.model_value,
         "ok" if a.within_band else "OUT OF BAND")
        for a in calibration_anchors()
    ]
    header = (
        f"machines: {XEON_X5650.name} | {TESLA_K20M.name} | "
        f"{XEON_PHI_5110P.name}\n"
    )
    return header + render_table(
        ["anchor", "paper band", "model", "status"], rows, precision=3
    )
