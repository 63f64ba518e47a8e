"""The invariance matrix: one dataset, every execution strategy.

The paper's central claim is a universally quantified statement — the HP
sum is invariant to *any* order on *any* architecture.  This driver
executes one dataset through every execution strategy the library has:

* scalar accumulation (exact-int and Listing-1 conversion paths);
* the vectorized engine at several chunkings and permutations;
* thread teams of several sizes, under every scheduling policy;
* simulated-MPI reductions (pre-placed and scatter-based) at several
  communicator sizes and roots;
* both simulated-GPU kernels (atomic and block-tree), including
  adversarial random schedules;
* the offload substrate;
* the multi-accumulator bank (scatter + grand total) and the adaptive
  accumulator's snapshot.

It returns every strategy's words so the bench can assert they are all
one bit pattern — a single counterexample anywhere fails the claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.accumulator import HPAccumulator
from repro.core.params import HPParams
from repro.core.scalar import add_words
from repro.core.streaming import AdaptiveAccumulator
from repro.core.vectorized import batch_sum_doubles
from repro.core.multi import HPMultiAccumulator
from repro.parallel.gpu import gpu_sum
from repro.parallel.gpu.block_reduce import gpu_block_sum
from repro.parallel.methods import HPMethod
from repro.parallel.phi import offload_reduce
from repro.parallel.schedule import Schedule, assign_blocks
from repro.parallel.simmpi import distributed_sum, mpi_reduce
from repro.parallel.threads import thread_reduce
from repro.util.rng import default_rng

__all__ = ["InvarianceMatrix", "run_invariance_matrix"]


@dataclass
class InvarianceMatrix:
    """Words produced by every strategy, keyed by a description."""

    params: HPParams
    words: dict[str, tuple] = field(default_factory=dict)

    @property
    def all_identical(self) -> bool:
        values = list(self.words.values())
        return all(w == values[0] for w in values)

    def distinct(self) -> int:
        return len(set(self.words.values()))

    def report(self) -> str:
        reference = next(iter(self.words.values()))
        lines = [
            f"invariance matrix: {len(self.words)} strategies, "
            f"{self.distinct()} distinct word pattern(s)"
        ]
        for name, words in self.words.items():
            status = "ok" if words == reference else "DIVERGED"
            lines.append(f"  [{status:8s}] {name}")
        return "\n".join(lines)


def run_invariance_matrix(
    n: int = 1 << 11,
    params: HPParams = HPParams(6, 3),
    seed: int | None = None,
) -> InvarianceMatrix:
    """Execute the full strategy matrix on one random dataset."""
    rng = default_rng(seed)
    data = rng.uniform(-0.5, 0.5, n)
    method = HPMethod(params)
    out = InvarianceMatrix(params=params)

    # -- scalar paths -----------------------------------------------------
    acc = HPAccumulator(params)
    acc.extend(data.tolist())
    out.words["scalar exact-int conversion"] = acc.words
    acc2 = HPAccumulator(params)
    for x in data:
        acc2.add_listing1(float(x))
    out.words["scalar Listing-1 conversion"] = acc2.words

    # -- vectorized engine ---------------------------------------------------
    for chunk in (64, 999, 1 << 20):
        out.words[f"vectorized chunk={chunk}"] = batch_sum_doubles(
            data, params, chunk=chunk
        )
    out.words["vectorized reversed"] = batch_sum_doubles(data[::-1], params)
    out.words["vectorized shuffled"] = batch_sum_doubles(
        rng.permutation(data), params
    )

    # -- thread teams under every schedule ------------------------------------
    for p in (3, 8):
        out.words[f"threads p={p}"] = thread_reduce(data, method, p).partial
    for schedule in (Schedule("static", 7), Schedule("dynamic", 5),
                     Schedule("guided", 2)):
        total = method.identity()
        for blocks in assign_blocks(n, 4, schedule):
            partial = method.identity()
            for lo, hi in blocks:
                partial = method.combine(
                    partial, method.local_reduce(data[lo:hi])
                )
            total = method.combine(total, partial)
        out.words[f"threads schedule={schedule}"] = total

    # -- message passing --------------------------------------------------------
    for p in (4, 13):
        out.words[f"mpi p={p}"] = mpi_reduce(data, method, p).partial
    out.words["mpi scatter-based p=6 root=2"] = distributed_sum(
        data, method, 6, root=2
    )[1]

    # -- simulated GPU ------------------------------------------------------------
    small = data[: min(n, 512)]
    small_ref = batch_sum_doubles(small, params)

    g = gpu_sum(small, "hp", num_threads=64, params=params,
                max_concurrent_threads=16, num_partials=8)
    out.words["gpu atomic kernel (small slice)"] = _lift(
        g.total, small_ref, out, data, params
    )
    g = gpu_sum(small, "hp", num_threads=64, params=params,
                max_concurrent_threads=16, num_partials=8, schedule_seed=3)
    out.words["gpu atomic adversarial (small slice)"] = _lift(
        g.total, small_ref, out, data, params
    )
    b = gpu_block_sum(small, "hp", num_blocks=4, block_size=8, params=params)
    out.words["gpu block tree (small slice)"] = _lift(
        b.global_words, small_ref, out, data, params
    )

    # -- offload -------------------------------------------------------------------
    out.words["phi offload t=60"] = offload_reduce(data, method, 60).partial

    # -- banks and adaptive -----------------------------------------------------------
    bank = HPMultiAccumulator(16, params)
    bank.add_at(np.arange(n) % 16, data)
    out.words["multi-bank scatter + total"] = bank.total_words()
    adaptive = AdaptiveAccumulator()
    adaptive.extend(data.tolist())
    out.words["adaptive snapshot"] = adaptive.snapshot(params).words

    return out


def _lift(small_words, small_ref, out, data, params):
    """GPU runs use a small slice (the stepped simulator is O(steps));
    lift them to the full dataset by replacing the slice's contribution:
    full = small_result + (full_ref - small_ref).  Exact integer algebra,
    so a correct small result lifts to the full reference and a wrong one
    cannot."""
    from repro.core.scalar import negate_words

    full_ref = batch_sum_doubles(data, params)
    delta = add_words(full_ref, negate_words(small_ref))
    return add_words(small_words, delta)
