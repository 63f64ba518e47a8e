"""Block-structured GPU reduction (the canonical CUDA pattern).

The paper's Fig. 7 kernel uses pure atomics into 256 partials; the other
standard CUDA reduction is block-structured: each thread block reduces
its slice through a shared-memory binary tree with ``__syncthreads()``
barriers, and each block's leader merges one block partial into the
global result.  The two kernels walk completely different combine trees
— which is exactly why double-precision GPU sums differ between kernel
choices, and why HP words must not (verified in the tests).

This module adds the missing device machinery — block-granular residency
(a real GPU schedules whole thread blocks, so barriers cannot deadlock
against the residency ceiling) and a spin barrier — plus the
block-reduction kernel for every method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.core.params import HPParams
from repro.core.scalar import add_words, from_double as hp_from_double
from repro.core.scalar import to_double as hp_to_double
from repro.core.smallacc import (
    bin_count,
    bins_from_int,
    fold_bins,
    scatter_one,
)
from repro.core.vectorized import _finalize_total
from repro.hallberg.params import HallbergParams
from repro.hallberg.scalar import hb_add, hb_from_double, hb_to_double
from repro.observability.profile import phase as _phase
from repro.parallel.gpu.device import SimDevice
from repro.parallel.gpu.kernels import _b2f, _f2b, _atomic_add_word
from repro.util.bits import MASK64, WORD_MOD

__all__ = ["SpinBarrier", "launch_blocks", "gpu_block_sum", "BlockSumResult"]

Kernel = Generator[None, None, None]


class SpinBarrier:
    """A ``__syncthreads()`` analogue for generator threads.

    Every party calls :meth:`arrive` and then yields until the
    generation advances.  All parties of a block must hit every barrier
    the same number of times (the CUDA rule); the device's block-granular
    scheduling guarantees all parties keep being stepped.
    """

    def __init__(self, parties: int) -> None:
        if parties < 1:
            raise ValueError(f"need >= 1 party, got {parties}")
        self.parties = parties
        self._count = 0
        self._generation = 0

    def arrive(self) -> int:
        """Register arrival; returns the generation to wait out."""
        generation = self._generation
        self._count += 1
        if self._count == self.parties:
            self._count = 0
            self._generation += 1
        return generation

    def passed(self, generation: int) -> bool:
        return self._generation > generation


def _sync(barrier: SpinBarrier) -> Generator[None, None, None]:
    generation = barrier.arrive()
    while not barrier.passed(generation):
        yield


def launch_blocks(
    device: SimDevice, blocks: list[list[Kernel]]
) -> int:
    """Run thread blocks to completion with block-granular residency.

    A block's threads become resident together and hold their slots
    until the whole block retires — the scheduling contract that makes
    intra-block barriers safe on real hardware.  Honours the device's
    adversarial random-schedule mode (``schedule_seed``): block service
    order and intra-block thread order are then shuffled every step.
    Returns total steps.
    """
    pending = list(blocks)
    live: list[list[Kernel]] = []
    steps = 0
    rotation = 0
    rng = getattr(device, "_rng", None)
    while pending or live:
        while pending:
            width = len(pending[0])
            occupied = sum(len(b) for b in live)
            if occupied + width > device.max_concurrent_threads and live:
                break
            block = pending.pop(0)
            live.append(list(block))
        if rng is not None:
            order = [live[i] for i in rng.permutation(len(live))]
        else:
            order = live[rotation % len(live):] + live[:rotation % len(live)]
            rotation += 1
        for block in order:
            threads = (
                [block[i] for i in rng.permutation(len(block))]
                if rng is not None else list(block)
            )
            finished = []
            for thread in threads:
                try:
                    next(thread)
                    steps += 1
                except StopIteration:
                    finished.append(thread)
            for thread in finished:
                block.remove(thread)
        live = [b for b in live if b]
    return steps


@dataclass
class BlockSumResult:
    value: float
    global_words: tuple  # raw combined words (HP words / signed digits / bits)
    block_partials: list
    steps: int
    num_blocks: int
    block_size: int


def _decode_signed(words):
    """Reinterpret raw uint64 memory words as signed int64 digits."""
    half = 1 << 63
    return tuple((w - WORD_MOD) if w >= half else w for w in words)


def _method_ops(method_name: str, params):
    """(identity, convert, combine, finalize, decode, words_per_value,
    elementwise_merge) for the shared-memory tree.  ``decode`` maps raw
    memory words back to the method's working representation (Hallberg
    digits and hp-small chunks are signed; HP words and double bits are
    unsigned).  ``elementwise_merge`` marks representations whose words
    are independent signed lanes: the leader's global merge must be one
    atomic add per word with NO inter-word carry, because a wrap of a
    signed lane (e.g. a negative chunk crossing zero) is not a carry."""
    if method_name == "double":
        return (
            (0,),
            lambda x: (_f2b(x),),
            lambda a, b: (_f2b(_b2f(a[0]) + _b2f(b[0])),),
            lambda w: _b2f(w[0]),
            lambda w: w,
            1,
            False,
        )
    if method_name == "hp":
        if not isinstance(params, HPParams):
            raise TypeError("hp kernel requires HPParams")
        return (
            (0,) * params.n,
            lambda x: hp_from_double(x, params),
            add_words,
            lambda w: hp_to_double(w, params),
            lambda w: w,
            params.n,
            False,
        )
    if method_name == "hp-small":
        if not isinstance(params, HPParams):
            raise TypeError("hp-small kernel requires HPParams")
        nchunks = bin_count(params)
        # Thread and tree combines canonicalize, so every stored lane is
        # a 32-bit window (or the small signed top) and the leaders'
        # lane-wise atomic adds keep far inside a 64-bit memory word.
        return (
            (0,) * nchunks,
            lambda x: scatter_one(x, params, nchunks),
            lambda a, b: bins_from_int(
                fold_bins(a) + fold_bins(b), nchunks
            ),
            lambda chunks: hp_to_double(
                _finalize_total(fold_bins(chunks), params), params
            ),
            _decode_signed,
            nchunks,
            True,
        )
    if method_name == "hallberg":
        if not isinstance(params, HallbergParams):
            raise TypeError("hallberg kernel requires HallbergParams")
        zero = (0,) * params.n
        return (
            zero,
            lambda x: hb_from_double(x, params),
            lambda a, b: hb_add(a, b, params),
            lambda w: hb_to_double(w, params),
            _decode_signed,
            params.n,
            False,
        )
    raise ValueError(f"unknown method {method_name!r}")


def gpu_block_sum(
    data: np.ndarray,
    method_name: str,
    num_blocks: int,
    block_size: int,
    params: HPParams | HallbergParams | None = None,
    max_concurrent_threads: int | None = None,
    schedule_seed: int | None = None,
) -> BlockSumResult:
    """Two-phase GPU reduction: shared-memory block trees + global merge.

    Grid-stride loop over the input; within each block a binary tree in
    shared memory (``log2(block_size)`` barrier rounds); block leaders
    CAS-merge their partial into the global accumulator at word 0..N-1
    of a dedicated region.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    n = len(data)
    if num_blocks < 1 or block_size < 1 or block_size & (block_size - 1):
        raise ValueError("need >= 1 block and a power-of-two block size")
    (
        identity,
        convert,
        combine,
        finalize,
        decode,
        words_per,
        elementwise_merge,
    ) = _method_ops(method_name, params)

    total_threads = num_blocks * block_size
    # Memory map: [data n][global partial words_per][shared: per block,
    # block_size * words_per].
    shared_base = n + words_per
    mem_words = shared_base + num_blocks * block_size * words_per
    kwargs = {}
    if max_concurrent_threads is not None:
        kwargs["max_concurrent_threads"] = max_concurrent_threads
    if schedule_seed is not None:
        kwargs["schedule_seed"] = schedule_seed
    device = SimDevice(memory_words=mem_words, **kwargs)
    mem = device.memory
    for i, x in enumerate(data):
        mem._cells[i] = _f2b(float(x))

    barriers = [SpinBarrier(block_size) for _ in range(num_blocks)]

    def slot_addr(block: int, tid: int) -> int:
        return shared_base + (block * block_size + tid) * words_per

    def store_words(addr: int, words) -> None:
        for j, w in enumerate(words):
            mem.store(addr + j, w & MASK64)

    def load_words(addr: int):
        return tuple(mem.load(addr + j) for j in range(words_per))

    def kernel(block: int, tid: int) -> Kernel:
        gid = block * block_size + tid
        partial = identity
        for i in range(gid, n, total_threads):  # grid-stride loop
            x = _b2f(mem.load(i))
            yield
            partial = combine(partial, convert(x))
        store_words(slot_addr(block, tid), partial)
        yield
        yield from _sync(barriers[block])
        stride = block_size // 2
        while stride >= 1:
            if tid < stride:
                mine = decode(load_words(slot_addr(block, tid)))
                theirs = decode(load_words(slot_addr(block, tid + stride)))
                yield
                store_words(slot_addr(block, tid), combine(mine, theirs))
                yield
            yield from _sync(barriers[block])
            stride //= 2
        if tid == 0:  # leader merges the block partial globally
            words = decode(load_words(slot_addr(block, 0)))
            yield
            if method_name == "double":
                old = mem.load(n)
                yield
                while True:
                    new_bits = _f2b(_b2f(old) + _b2f(words[0]))
                    ok, observed = mem.cas(n, old, new_bits)
                    yield
                    if ok:
                        break
                    old = observed
            elif elementwise_merge:
                # Signed independent lanes (hp-small chunks): one atomic
                # add per word, two's-complement wrap is the signed add.
                for w in range(words_per - 1, -1, -1):
                    addend = words[w] & MASK64
                    if addend == 0:
                        continue
                    yield from _atomic_add_word(mem, n + w)(addend)
            else:
                carry = 0
                for w in range(words_per - 1, -1, -1):
                    raw = words[w] + carry
                    addend = raw & MASK64
                    if addend == 0:
                        carry = raw >> 64
                        continue
                    old = yield from _atomic_add_word(mem, n + w)(addend)
                    carry = 1 if (old + addend) & MASK64 < old else 0

    blocks = [
        [kernel(b, t) for t in range(block_size)] for b in range(num_blocks)
    ]
    with _phase("gpu.block_kernel", method=method_name):
        steps = launch_blocks(device, blocks)

    raw = mem.dump(n, words_per)
    signed_repr = method_name in ("hallberg", "hp-small")
    global_words = decode(tuple(raw)) if signed_repr else tuple(raw)
    partials = [
        finalize(decode(load_words(slot_addr(b, 0))))
        for b in range(num_blocks)
    ]
    return BlockSumResult(
        value=finalize(global_words),
        global_words=global_words,
        block_partials=partials,
        steps=steps,
        num_blocks=num_blocks,
        block_size=block_size,
    )
