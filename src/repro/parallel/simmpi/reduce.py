"""MPI-style collective reductions over :class:`SimComm`.

``mpi_reduce`` implements the recursive-halving binomial tree that
``MPI_Reduce`` uses for short messages: in round ``r``, every rank whose
``r`` low bits are zero and whose ``r``-th bit is one sends its partial
to the rank ``2**r`` below it, which combines.  ``log2(p)`` rounds reach
the root.  With an exact method (HP / Hallberg) the root's words are
bit-identical to any other combine order; with doubles they are not —
run the Fig. 6 experiment with different ``p`` to watch the value drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, TypeVar

import numpy as np

from repro.observability import metrics as _obs
from repro.observability import tracing as _trace
from repro.observability.profile import phase as _phase
from repro.parallel.methods import ReductionMethod
from repro.parallel.partition import block_ranges
from repro.parallel.simmpi.comm import SimComm, TrafficStats

P = TypeVar("P")

__all__ = ["MPIReduceResult", "mpi_reduce_partials", "mpi_reduce",
           "mpi_allreduce_partials", "mpi_allreduce_recursive_doubling"]


@dataclass
class MPIReduceResult(Generic[P]):
    """Outcome of a distributed reduction."""

    value: float
    partial: P
    size: int
    traffic: TrafficStats


def mpi_reduce_partials(
    comm: SimComm,
    partials: list[P],
    method: ReductionMethod[P],
    root: int = 0,
) -> P:
    """Binomial-tree reduce of per-rank partials to ``root``.

    ``partials[r]`` is rank ``r``'s local value; the combined partial is
    returned (only meaningful at the root, as with ``MPI_Reduce``).
    Every transfer is packed to bytes by ``method.pack`` and unpacked on
    arrival by ``method.unpack``: the adapter is the custom datatype and
    ``method.combine`` the ``MPI_Op``.
    """
    if len(partials) != comm.size:
        raise ValueError(
            f"got {len(partials)} partials for a size-{comm.size} communicator"
        )
    comm._check_rank(root, "root")
    # Work in virtual rank space so the tree roots at `root`, as MPI
    # implementations do internally.
    virt_to_real = [(v + root) % comm.size for v in range(comm.size)]
    with _trace.span("simmpi.reduce", algo="binomial", size=comm.size,
                     method=method.name), _phase("simmpi.tree_reduce"):
        acc: list[P] = [partials[r] for r in virt_to_real]
        mask = 1
        depth = 0
        while mask < comm.size:
            for virt in range(0, comm.size, mask * 2):
                partner = virt + mask
                if partner >= comm.size:
                    continue
                src, dst = virt_to_real[partner], virt_to_real[virt]
                comm.send(src, dst, method.pack(acc[partner]))
                received = method.unpack(comm.recv(dst, src))
                acc[virt] = method.combine(acc[virt], received)
            comm.barrier_round()
            depth += 1
            mask *= 2
        if _obs.ENABLED:
            _obs.REGISTRY.gauge(
                "simmpi.reduce_depth", algo="binomial", size=comm.size
            ).set(depth)
    return acc[0]


def mpi_allreduce_partials(
    comm: SimComm,
    partials: list[P],
    method: ReductionMethod[P],
) -> list[P]:
    """Reduce-then-broadcast allreduce; every rank ends with the root's
    exact bytes, so exact methods are bit-identical everywhere."""
    with _trace.span("simmpi.allreduce", algo="reduce_bcast",
                     size=comm.size, method=method.name):
        total = mpi_reduce_partials(comm, partials, method, root=0)
        # Binomial broadcast from rank 0.
        have = [True] + [False] * (comm.size - 1)
        results: list[P | None] = [total] + [None] * (comm.size - 1)
        mask = 1
        while mask < comm.size:
            for r in range(comm.size):
                partner = r + mask
                if have[r] and partner < comm.size and not have[partner]:
                    comm.send(r, partner, method.pack(results[r]))
                    results[partner] = method.unpack(comm.recv(partner, r))
                    have[partner] = True
            comm.barrier_round()
            mask *= 2
    return [p for p in results if p is not None]


def mpi_reduce(
    data: np.ndarray,
    method: ReductionMethod[P],
    size: int,
    root: int = 0,
) -> MPIReduceResult[P]:
    """End-to-end Fig. 6 skeleton: block-distribute ``data`` over
    ``size`` ranks, local-reduce each block, binomial-reduce to root."""
    data = np.ascontiguousarray(data, dtype=np.float64)
    comm = SimComm(size)
    partials = [
        method.local_reduce(data[lo:hi]) for lo, hi in block_ranges(len(data), size)
    ]
    total = mpi_reduce_partials(comm, partials, method, root=root)
    if comm.pending():
        raise RuntimeError(f"{comm.pending()} undelivered messages after reduce")
    return MPIReduceResult(
        value=method.finalize(total),
        partial=total,
        size=size,
        traffic=comm.stats,
    )


def mpi_allreduce_recursive_doubling(
    comm: SimComm,
    partials: list[P],
    method: ReductionMethod[P],
) -> list[P]:
    """Recursive-doubling allreduce — MPI's large-communicator algorithm.

    Each round ``r``, rank ``i`` exchanges with ``i XOR 2**r`` and both
    combine; after ``log2(p)`` rounds every rank holds the total.
    Non-power-of-two sizes fold the excess ranks into the leading
    power-of-two block first (the standard pre/post step).

    A completely different communication pattern from reduce+bcast — and
    with an exact method it must (and does) produce byte-identical
    results on every rank, which the tests pin against the tree version.
    """
    if len(partials) != comm.size:
        raise ValueError(
            f"got {len(partials)} partials for a size-{comm.size} communicator"
        )
    size = comm.size
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    with _trace.span("simmpi.allreduce", algo="recursive_doubling",
                     size=size, method=method.name):
        acc: list[P] = list(partials)

        # Pre-step: ranks [pof2, size) send their partials down to
        # [0, rem), which absorb them and act for both.
        for extra in range(rem):
            src, dst = pof2 + extra, extra
            comm.send(src, dst, method.pack(acc[src]))
            acc[dst] = method.combine(
                acc[dst], method.unpack(comm.recv(dst, src))
            )
        if rem:
            comm.barrier_round()

        mask = 1
        depth = 0
        while mask < pof2:
            for rank in range(pof2):
                partner = rank ^ mask
                if rank < partner:  # one send per unordered pair per round
                    comm.send(rank, partner, method.pack(acc[rank]))
                    comm.send(partner, rank, method.pack(acc[partner]))
            for rank in range(pof2):
                partner = rank ^ mask
                if rank < partner:
                    from_partner = method.unpack(comm.recv(rank, partner))
                    from_rank = method.unpack(comm.recv(partner, rank))
                    acc[rank] = method.combine(acc[rank], from_partner)
                    acc[partner] = method.combine(acc[partner], from_rank)
            comm.barrier_round()
            depth += 1
            mask *= 2
        if _obs.ENABLED:
            _obs.REGISTRY.gauge(
                "simmpi.reduce_depth", algo="recursive_doubling", size=size
            ).set(depth)

        # Post-step: the absorbed ranks get the total back.
        for extra in range(rem):
            src, dst = extra, pof2 + extra
            comm.send(src, dst, method.pack(acc[src]))
            acc[dst] = method.unpack(comm.recv(dst, src))
        if rem:
            comm.barrier_round()
    return acc
