"""Parallel substrates for the four Sec. IV.B environments.

Each substrate runs the same global-summation skeleton (local reductions
+ global combine) with interchangeable methods (double / HP / Hallberg):

* :mod:`repro.parallel.threads` — OpenMP analog (fork/join team, Fig. 5)
* :mod:`repro.parallel.procpool` — true multicore (shared-memory
  process pool with out-of-core streaming; the repo's real wall-clock
  strong-scaling substrate)
* :mod:`repro.parallel.simmpi` — MPI analog (binomial reduce over byte
  channels; each method adapter packs its own partials, Fig. 6)
* :mod:`repro.parallel.gpu` — CUDA analog (atomic 256-partial kernel on
  a simulated device, Fig. 7)
* :mod:`repro.parallel.phi` — Xeon Phi analog (offload model, Fig. 8)

The library-level theorem the tests establish: for HP (and in-budget
Hallberg), **all substrates at all PE counts return bit-identical
words** — the paper's order- and architecture-invariance claim.
"""

from repro.parallel.drivers import GlobalSumResult, SUBSTRATES, global_sum, make_method
from repro.parallel.methods import (
    DoubleMethod,
    HallbergMethod,
    HPMethod,
    ReductionMethod,
    standard_methods,
)
from repro.parallel.partition import block_ranges, block_slices, round_robin_indices
from repro.parallel.procpool import ProcPool, ProcReduceResult, procpool_reduce
from repro.parallel.schedule import (
    Schedule,
    assign_blocks,
    chunk_ranges,
    scheduled_partial,
    scheduled_reduce,
)
from repro.parallel.threads import ThreadReduceResult, thread_reduce

__all__ = [
    "global_sum",
    "GlobalSumResult",
    "SUBSTRATES",
    "make_method",
    "Schedule",
    "assign_blocks",
    "chunk_ranges",
    "scheduled_partial",
    "scheduled_reduce",
    "ProcPool",
    "ProcReduceResult",
    "procpool_reduce",
    "ReductionMethod",
    "DoubleMethod",
    "HPMethod",
    "HallbergMethod",
    "standard_methods",
    "block_ranges",
    "block_slices",
    "round_robin_indices",
    "thread_reduce",
    "ThreadReduceResult",
]
