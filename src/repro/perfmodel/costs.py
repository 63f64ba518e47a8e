"""Per-summand operation counts (paper Sec. IV.A).

The paper compares the methods by raw operation counts before showing why
those counts alone mispredict performance.  These are the counts it
states:

* Hallberg: ``2N`` FP multiplications + ``N`` FP additions to convert,
  ``N`` integer additions to accumulate.
* HP: ``N`` FP multiplications + ``N`` FP additions to convert (one
  multiply factored out of the Listing 1 loop), plus ``3N`` ALU ops in
  the worst (negative) case, and ``4(N-1)`` ALU ops to accumulate
  (Listing 2).
* double: one FP addition.

Memory traffic per accumulate (the Fig. 7 GPU analysis): a method whose
partial occupies ``W`` words reads ``1 + W`` words (summand + partial)
and writes ``W``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.params import HPParams
from repro.hallberg.params import HallbergParams

__all__ = ["OpCounts", "MemTraffic", "hp_ops", "hallberg_ops", "double_ops",
           "hp_mem", "hallberg_mem", "double_mem",
           "PLANNER_UNIT_COSTS", "planner_unit_costs"]


@dataclass(frozen=True)
class OpCounts:
    """Arithmetic operations to convert and accumulate one summand."""

    fp_mul: int
    fp_add: int
    alu: int

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            self.fp_mul + other.fp_mul,
            self.fp_add + other.fp_add,
            self.alu + other.alu,
        )


@dataclass(frozen=True)
class MemTraffic:
    """64-bit global-memory words touched per accumulate."""

    reads: int
    writes: int

    @property
    def total(self) -> int:
        return self.reads + self.writes


def hp_ops(params: HPParams) -> OpCounts:
    """HP per-summand ops: convert (N mul + N add + 3N ALU worst case)
    plus accumulate (4(N-1) ALU)."""
    n = params.n
    return OpCounts(fp_mul=n, fp_add=n, alu=3 * n + 4 * (n - 1))


def hallberg_ops(params: HallbergParams) -> OpCounts:
    """Hallberg per-summand ops: convert (2N mul + N add) plus
    accumulate (N integer adds)."""
    n = params.n
    return OpCounts(fp_mul=2 * n, fp_add=n, alu=n)


def double_ops() -> OpCounts:
    """Plain double accumulation: one FP add."""
    return OpCounts(fp_mul=0, fp_add=1, alu=0)


def hp_mem(params: HPParams) -> MemTraffic:
    """E.g. N=6: 7 reads (summand + six partial words), 6 writes —
    the exact minimums quoted in Sec. IV.B."""
    return MemTraffic(reads=1 + params.n, writes=params.n)


def hallberg_mem(params: HallbergParams) -> MemTraffic:
    """E.g. N=10: 11 reads, 10 writes."""
    return MemTraffic(reads=1 + params.n, writes=params.n)


def double_mem() -> MemTraffic:
    """2 reads (summand + partial), 1 write."""
    return MemTraffic(reads=2, writes=1)


#: Per-summand engine costs in "double-add units" (a naive ``np.sum``
#: pass = 1.0), the static prior the accuracy planner ranks engines by.
#: The compensated tiers are structural estimates from their vector-op
#: counts (pairwise is one reduce pass; Kahan ~6 vector ops per lane
#: row; Neumaier ~9 with the dominance branch); the exact-engine entries
#: reflect the measured serial ratios in the BENCH_* trajectory on this
#: repo's pure/compiled backends.  :func:`planner_unit_costs` refits the
#: exact entries from a ``repro profile --calibrate`` measurement when
#: one is supplied.
PLANNER_UNIT_COSTS: Mapping[str, float] = {
    "comp-pairwise": 1.0,
    "comp-kahan": 7.0,
    "comp-neumaier": 10.0,
    "small": 45.0,
    "words": 260.0,
}


def planner_unit_costs(
    measured: Mapping[str, float] | None = None,
) -> dict[str, float]:
    """The planner's per-summand cost table, optionally refit.

    ``measured`` is the mapping a ``repro profile --calibrate`` document
    carries (engine key -> best-of wall seconds; see
    :data:`repro.perfmodel.calibration.MEASURED_SCHEMA`).  When it holds
    both ``double`` and ``hp-small``, the measured ratio re-anchors
    the exact-engine entries — the correction PR 6's measured-anchor
    residuals exist to absorb — while the compensated tiers stay pinned
    to the double pass they are structurally multiples of.
    """
    costs = dict(PLANNER_UNIT_COSTS)
    if not measured:
        return costs
    t_dbl = measured.get("double")
    t_hp = measured.get("hp-small")
    if not t_dbl or not t_hp or t_dbl <= 0 or t_hp <= 0:
        return costs
    scale = (t_hp / t_dbl) / PLANNER_UNIT_COSTS["small"]
    for name in ("small", "words"):
        costs[name] = PLANNER_UNIT_COSTS[name] * scale
    return costs
