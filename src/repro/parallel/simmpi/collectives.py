"""Scatter/gather/broadcast collectives and the full SPMD driver.

``mpi_reduce`` (in :mod:`.reduce`) assumes per-rank data is already in
place, as the paper's benchmark does.  Production reductions often start
with the array on one rank; these collectives complete the MPI surface:

* :func:`scatterv` — root deals variable-size byte slices down a
  recursive-halving tree (each byte travels at most ``log2 p`` hops);
* :func:`gatherv` — the inverse;
* :func:`bcast` — binomial broadcast of one payload;
* :func:`distributed_sum` — the end-to-end driver: root holds the
  doubles, scatters the block decomposition, every rank local-reduces
  its slice, and a binomial reduce returns the exact partial to root.
  Only bytes ever cross rank boundaries.
"""

from __future__ import annotations

from typing import TypeVar

import numpy as np

from repro.observability import tracing as _trace
from repro.parallel.methods import ReductionMethod
from repro.parallel.partition import block_ranges
from repro.parallel.simmpi.comm import SimComm
from repro.parallel.simmpi.reduce import mpi_reduce_partials

P = TypeVar("P")

__all__ = ["scatterv", "gatherv", "bcast", "distributed_sum"]


def _pack_bundle(bundle: list[tuple[int, bytes]]) -> bytes:
    return b"".join(
        v.to_bytes(8, "little") + len(b).to_bytes(8, "little") + b
        for v, b in bundle
    )


def _unpack_bundle(data: bytes) -> list[tuple[int, bytes]]:
    out = []
    offset = 0
    while offset < len(data):
        v = int.from_bytes(data[offset:offset + 8], "little")
        length = int.from_bytes(data[offset + 8:offset + 16], "little")
        out.append((v, data[offset + 16:offset + 16 + length]))
        offset += 16 + length
    return out


def scatterv(
    comm: SimComm, payloads: list[bytes], root: int = 0
) -> list[bytes]:
    """Scatter per-rank byte payloads from ``root``.

    Recursive halving: the holder of virtual range ``[lo, hi)`` sends
    the upper half's payloads to the range's midpoint, then both halves
    recurse.  Returns the payload each rank ends up holding.
    """
    if len(payloads) != comm.size:
        raise ValueError(f"root must supply {comm.size} payloads")
    comm._check_rank(root, "root")
    with _trace.span("simmpi.scatterv", size=comm.size):
        virt_to_real = [(v + root) % comm.size for v in range(comm.size)]
        received: list[bytes] = [b""] * comm.size
        # BFS so each tree depth is one communication round.
        level = [(0, comm.size, [(v, payloads[virt_to_real[v]])
                                 for v in range(comm.size)])]
        while level:
            next_level = []
            for lo, hi, bundle in level:
                if hi - lo <= 1:
                    received[virt_to_real[lo]] = bundle[0][1]
                    continue
                mid = (lo + hi + 1) // 2
                keep = [(v, b) for v, b in bundle if v < mid]
                send = [(v, b) for v, b in bundle if v >= mid]
                comm.send(virt_to_real[lo], virt_to_real[mid],
                          _pack_bundle(send))
                got = _unpack_bundle(
                    comm.recv(virt_to_real[mid], virt_to_real[lo])
                )
                next_level.append((lo, mid, keep))
                next_level.append((mid, hi, got))
            if next_level:
                comm.barrier_round()
            level = next_level
        return received


def gatherv(comm: SimComm, payloads: list[bytes], root: int = 0) -> list[bytes]:
    """Gather per-rank payloads to ``root`` (the scatter tree, reversed)."""
    if len(payloads) != comm.size:
        raise ValueError(f"need one payload per rank, got {len(payloads)}")
    comm._check_rank(root, "root")
    virt_to_real = [(v + root) % comm.size for v in range(comm.size)]

    # Build the same recursive-halving ranges, then merge bottom-up.
    def ranges(lo: int, hi: int, depth: int, out: list) -> None:
        if hi - lo <= 1:
            return
        mid = (lo + hi + 1) // 2
        out.append((depth, lo, mid))
        ranges(lo, mid, depth + 1, out)
        ranges(mid, hi, depth + 1, out)

    merges: list[tuple[int, int, int]] = []
    ranges(0, comm.size, 0, merges)
    with _trace.span("simmpi.gatherv", size=comm.size):
        holding: dict[int, list[tuple[int, bytes]]] = {
            v: [(v, payloads[virt_to_real[v]])] for v in range(comm.size)
        }
        for depth in sorted({d for d, _, _ in merges}, reverse=True):
            for d, lo, mid in merges:
                if d != depth:
                    continue
                bundle = holding.pop(mid)
                comm.send(virt_to_real[mid], virt_to_real[lo],
                          _pack_bundle(bundle))
                holding[lo].extend(
                    _unpack_bundle(
                        comm.recv(virt_to_real[lo], virt_to_real[mid])
                    )
                )
            comm.barrier_round()
        result = [b""] * comm.size
        for v, b in holding[0]:
            result[virt_to_real[v]] = b
        return result


def bcast(comm: SimComm, payload: bytes, root: int = 0) -> list[bytes]:
    """Binomial broadcast of one payload from ``root``; returns what
    every rank holds (bit-identical bytes everywhere)."""
    comm._check_rank(root, "root")
    with _trace.span("simmpi.bcast", size=comm.size):
        virt_to_real = [(v + root) % comm.size for v in range(comm.size)]
        have: dict[int, bytes] = {0: payload}
        mask = 1
        while mask < comm.size:
            for virt in list(have):
                child = virt + mask
                if child < comm.size and child not in have:
                    comm.send(virt_to_real[virt], virt_to_real[child],
                              have[virt])
                    have[child] = comm.recv(
                        virt_to_real[child], virt_to_real[virt]
                    )
            comm.barrier_round()
            mask *= 2
        out = [b""] * comm.size
        for virt, b in have.items():
            out[virt_to_real[virt]] = b
        return out


def distributed_sum(
    data: np.ndarray,
    method: ReductionMethod[P],
    size: int,
    root: int = 0,
) -> tuple[float, P, SimComm]:
    """End-to-end SPMD global sum: scatter -> local reduce -> reduce.

    The root rank holds the full array; block slices travel to each rank
    as little-endian bytes; every rank reduces its slice with ``method``;
    a binomial reduce returns the total to root.  Returns
    ``(value, partial, comm)`` — the comm carries full traffic stats.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    comm = SimComm(size)
    with _trace.span("simmpi.distributed_sum", size=size,
                     method=method.name, n=len(data)):
        slices = [
            data[lo:hi].astype("<f8").tobytes()
            for lo, hi in block_ranges(len(data), size)
        ]
        received = scatterv(comm, slices, root=root)
        partials = [
            method.local_reduce(np.frombuffer(buf, dtype="<f8"))
            for buf in received
        ]
        total = mpi_reduce_partials(comm, partials, method, root=root)
        if comm.pending():
            raise RuntimeError(f"{comm.pending()} undelivered messages")
        return method.finalize(total), total, comm
