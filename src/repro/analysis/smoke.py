"""Sanitizer smoke workload: drive every shared-memory primitive the
sanitizer watches through one small, fully deterministic run.

This is the runtime half of the CI gate (the static half is ``repro
lint src/``).  It exercises:

* an :class:`~repro.core.atomic.AtomicHPCell` hammered by a real
  ``ThreadPoolExecutor`` (native threads, genuine CAS contention), read
  back through the version-validated consistent snapshot;
* an :class:`~repro.core.accumulator.HPAccumulator` shadowed by exact
  big-int arithmetic over the same data;
* a simulated-MPI binomial reduction watched for message quiescence.

All three must agree with each other bit-for-bit (the order-invariance
contract) and with ``math.fsum`` to within one conversion truncation per
summand; the sanitizer must see zero violations.  Any fault injected
into the primitives — an unlocked store, a lost message, a dropped
carry — turns the smoke run red.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

from repro.analysis.sanitizer import SanitizerContext, sanitize
from repro.core.accumulator import HPAccumulator
from repro.core.params import HPParams
from repro.core.scalar import to_double
from repro.util.rng import default_rng

__all__ = ["run_smoke", "SMOKE_DEFAULT_N"]

SMOKE_DEFAULT_N = 20_000


def run_smoke(
    n: int = SMOKE_DEFAULT_N,
    pes: int = 4,
    seed: int = 0,
    params: HPParams | None = None,
    strict: bool = True,
) -> dict:
    """Run the sanitized smoke workload; returns a report dict.

    Raises :class:`~repro.analysis.sanitizer.SanitizerViolation` in
    strict mode if any detector fires; in non-strict mode the report's
    ``violations`` list carries what was found (for the CLI to render).
    """
    params = params or HPParams(3, 2)
    data = default_rng(seed).uniform(-1.0, 1.0, n)
    report: dict = {"n": int(n), "pes": int(pes), "params": str(params)}

    with sanitize(strict=strict) as ctx:
        # Stage 1: shared atomic cell under real threads.  The cell is
        # constructed inside the block, so its words are sanitized.
        from repro.core.atomic import AtomicHPCell

        cell = AtomicHPCell(params)
        chunks = [data[i::pes] for i in range(pes)]
        with ThreadPoolExecutor(max_workers=pes) as pool:
            list(
                pool.map(
                    lambda chunk: [
                        cell.atomic_add_double(float(x)) for x in chunk
                    ],
                    chunks,
                )
            )
        snap = ctx.consistent_snapshot(cell)
        atomic_value = to_double(snap, params)
        attempts, failures = cell.cas_stats()
        report["atomic"] = {
            "value": atomic_value,
            "cas_attempts": attempts,
            "cas_failures": failures,
        }

        # Stage 2: sequential accumulator with the exact shadow.
        shadow = ctx.shadow(HPAccumulator(params))
        shadow.extend(data)
        report["accumulator"] = {
            "value": shadow.to_double(),
            "exact": str(shadow.exact_value),
        }

        # Stage 3: simulated-MPI binomial reduce, watched for quiescence.
        from repro.parallel.drivers import make_method
        from repro.parallel.simmpi.comm import SimComm
        from repro.parallel.simmpi.reduce import mpi_reduce_partials
        from repro.parallel.partition import block_ranges

        method = make_method("hp", params)
        comm = SimComm(pes)
        ctx.watch_comm(comm)
        partials = [
            method.local_reduce(data[lo:hi])
            for lo, hi in block_ranges(len(data), pes)
        ]
        total = mpi_reduce_partials(comm, partials, method)
        mpi_value = method.finalize(total)
        report["simmpi"] = {
            "value": mpi_value,
            "messages": comm.stats.messages,
            "rounds": comm.stats.rounds,
        }

        # Cross-checks: all three exact paths must agree bit-for-bit
        # (order invariance), and with fsum up to conversion truncation.
        mismatches = []
        if snap != tuple(shadow.acc.words):
            mismatches.append("atomic words != accumulator words")
        if tuple(total) != tuple(shadow.acc.words):
            mismatches.append("simmpi words != accumulator words")
        exact_vs_fsum = abs(atomic_value - math.fsum(data))
        # Each summand truncates at most 2**-frac_bits on conversion.
        if exact_vs_fsum > n * 2.0 ** (-params.frac_bits) + 1e-12:
            mismatches.append(
                f"exact value differs from fsum by {exact_vs_fsum:g}"
            )
        report["cross_check_mismatches"] = mismatches
        if mismatches and strict:
            raise AssertionError(
                "smoke cross-check failed: " + "; ".join(mismatches)
            )

    report["sanitizer"] = ctx.report()
    report["ok"] = not mismatches and not ctx.violations
    return report
