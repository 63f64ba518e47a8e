"""Summation kernels for the simulated GPU (the Fig. 7 workload).

The paper's CUDA benchmark: all ``T`` launched threads stride over the
input (thread ``t`` handles elements ``i ≡ t mod T``) and atomically fold
each element into one of 256 shared partial sums, selected by
``t mod 256``; the 256 partials are then copied to the host and reduced
there.  Three kernels implement that contract:

* :func:`hp_kernel` — thread-local Listing-1 conversion, then the
  CAS-only atomic word adds of Sec. III.B.2.  Minimum traffic per add:
  ``1 + N`` reads, ``N`` writes.
* :func:`double_kernel` — the classic CAS emulation of atomic double
  add.  Minimum: 2 reads, 1 write.
* :func:`hallberg_kernel` — carry-free atomic add per digit word.
  Minimum: ``1 + N`` reads, ``N`` writes (N is larger at equal precision).

Each ``yield`` is one device step; the scheduler interleaves threads
between a thread's read of a cell and its CAS, so retries happen exactly
where they would on hardware.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

from repro.core.params import HPParams
from repro.core.scalar import from_double as hp_from_double
from repro.core.scalar import to_double as hp_to_double
from repro.hallberg.params import HallbergParams
from repro.hallberg.scalar import hb_from_double, hb_to_double
from repro.observability import metrics as _obs
from repro.observability import tracing as _trace
from repro.parallel.gpu.device import KernelRun, SimDevice
from repro.parallel.gpu.memory import DeviceMemory
from repro.util.bits import MASK64, WORD_MOD

__all__ = [
    "GPUSumResult",
    "NUM_PARTIALS",
    "gpu_sum",
    "gpu_sum_fast",
    "double_kernel",
    "hp_kernel",
    "hallberg_kernel",
]

#: The paper's fixed partial-sum count ("256 partial sums ... where the
#: partial result used by each thread t is selected by (t modulus 256)").
NUM_PARTIALS = 256


def _f2b(x: float) -> int:
    """Reinterpret a double's bits as uint64 (device word format)."""
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _b2f(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & MASK64))[0]


def _atomic_add_word(
    mem: DeviceMemory, addr: int
) -> Callable[[int], Generator[None, None, int]]:
    """Build a CAS-loop fetch-and-add on one cell; returns the old value.

    One plain load, then CAS retries that reuse the observed value — the
    minimal-traffic pattern the paper's analysis assumes.
    """

    def add(addend: int) -> Generator[None, None, int]:
        old = mem.load(addr)
        yield
        retries = 0
        while True:
            new = (old + addend) & MASK64
            ok, observed = mem.cas(addr, old, new)
            yield
            if ok:
                if _obs.ENABLED:
                    reg = _obs.REGISTRY
                    reg.histogram("gpu.cas_attempts_per_word_add").observe(
                        retries + 1
                    )
                    if retries:
                        reg.counter("gpu.cas_retries").inc(retries)
                return old
            retries += 1
            old = observed

    return add


def double_kernel(
    mem: DeviceMemory,
    tid: int,
    nthreads: int,
    data_base: int,
    n_data: int,
    partials_base: int,
    num_partials: int = NUM_PARTIALS,
) -> Generator[None, None, None]:
    """Atomic double-precision accumulation via the CUDA CAS idiom."""
    addr = partials_base + (tid % num_partials)
    for i in range(tid, n_data, nthreads):
        x = _b2f(mem.load(data_base + i))
        yield
        old_bits = mem.load(addr)
        yield
        while True:
            new_bits = _f2b(_b2f(old_bits) + x)
            ok, observed = mem.cas(addr, old_bits, new_bits)
            yield
            if ok:
                break
            old_bits = observed


def hp_kernel(
    mem: DeviceMemory,
    tid: int,
    nthreads: int,
    data_base: int,
    n_data: int,
    partials_base: int,
    params: HPParams,
    num_partials: int = NUM_PARTIALS,
) -> Generator[None, None, None]:
    """HP accumulation: thread-local conversion + CAS-only word adds.

    Note the concurrency property the paper highlights: the N word cells
    of one partial are independent atomics, so N threads can be committing
    to the same HP partial simultaneously — the contention relief that
    makes HP beat its raw 4.3x memory-op bound at high thread counts.
    """
    slot = tid % num_partials
    base = partials_base + slot * params.n
    for i in range(tid, n_data, nthreads):
        x = _b2f(mem.load(data_base + i))
        yield
        words = hp_from_double(x, params)  # registers: no memory traffic
        carry = 0
        for w in range(params.n - 1, -1, -1):
            raw = words[w] + carry
            addend = raw & MASK64
            if addend == 0:
                # Either nothing to add, or an all-ones word absorbed the
                # carry-in and wrapped — the carry rides through untouched.
                carry = raw >> 64
                continue
            old = yield from _atomic_add_word(mem, base + w)(addend)
            new = (old + addend) & MASK64
            carry = 1 if new < old else 0


def hallberg_kernel(
    mem: DeviceMemory,
    tid: int,
    nthreads: int,
    data_base: int,
    n_data: int,
    partials_base: int,
    params: HallbergParams,
    num_partials: int = NUM_PARTIALS,
) -> Generator[None, None, None]:
    """Hallberg accumulation: one atomic add per digit word, no carries.

    Digits are signed; two's-complement uint64 addition implements the
    signed add exactly (budget guaranteed by the launch)."""
    slot = tid % num_partials
    base = partials_base + slot * params.n
    for i in range(tid, n_data, nthreads):
        x = _b2f(mem.load(data_base + i))
        yield
        digits = hb_from_double(x, params)
        for w in range(params.n):
            addend = digits[w] & MASK64
            if addend == 0:
                continue
            yield from _atomic_add_word(mem, base + w)(addend)


@dataclass
class GPUSumResult:
    """Outcome of a simulated-GPU global summation."""

    value: float
    partials: list
    #: the partials folded in slot order, in the method's partial shape
    #: (a double, HP words, or Hallberg ``(digits, n)``)
    total: object
    run: KernelRun
    num_threads: int
    method_name: str


def gpu_sum(
    data: np.ndarray,
    method_name: str,
    num_threads: int,
    params: HPParams | HallbergParams | None = None,
    max_concurrent_threads: int | None = None,
    num_partials: int = NUM_PARTIALS,
    schedule_seed: int | None = None,
) -> GPUSumResult:
    """Run the Fig. 7 workload end-to-end on the simulated device.

    ``method_name`` is ``"double"``, ``"hp"`` or ``"hallberg"``; the
    fixed-point methods require ``params``.  The input array is staged
    into device memory, the kernel grid is launched, and the
    ``num_partials`` partials are copied back and reduced on the host in
    slot order.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    n = len(data)
    if num_threads <= 0:
        raise ValueError(f"need >= 1 thread, got {num_threads}")

    if method_name == "double":
        words_per_partial = 1
    elif method_name == "hp":
        if not isinstance(params, HPParams):
            raise TypeError("hp kernel requires HPParams")
        words_per_partial = params.n
    elif method_name == "hallberg":
        if not isinstance(params, HallbergParams):
            raise TypeError("hallberg kernel requires HallbergParams")
        words_per_partial = params.n
    else:
        raise ValueError(f"unknown method {method_name!r}")

    partials_words = num_partials * words_per_partial
    kwargs = {}
    if max_concurrent_threads is not None:
        kwargs["max_concurrent_threads"] = max_concurrent_threads
    if schedule_seed is not None:
        kwargs["schedule_seed"] = schedule_seed
    device = SimDevice(memory_words=n + partials_words, **kwargs)
    mem = device.memory

    for i, x in enumerate(data):  # host-to-device staging (uncounted)
        mem._cells[i] = _f2b(float(x))

    def make_kernel(tid: int):
        if method_name == "double":
            return double_kernel(mem, tid, num_threads, 0, n, n, num_partials)
        if method_name == "hp":
            return hp_kernel(mem, tid, num_threads, 0, n, n, params, num_partials)
        return hallberg_kernel(mem, tid, num_threads, 0, n, n, params, num_partials)

    with _trace.span("gpu.kernel_launch", method=method_name,
                     threads=num_threads, n=n):
        run = device.launch(make_kernel(t) for t in range(num_threads))
    if _obs.ENABLED:
        reg = _obs.REGISTRY
        labels = {"method": method_name}
        reg.counter("gpu.steps", **labels).inc(run.steps)
        reg.counter("gpu.loads", **labels).inc(run.memory.loads)
        reg.counter("gpu.stores", **labels).inc(run.memory.stores)
        reg.counter("gpu.cas_attempts", **labels).inc(run.memory.cas_attempts)
        reg.counter("gpu.cas_failures", **labels).inc(run.memory.cas_failures)

    raw = mem.dump(n, partials_words)  # device-to-host copy-back
    if method_name == "double":
        partials = [_b2f(w) for w in raw]
        value = 0.0
        for p in partials:
            value += p
        total = value
    elif method_name == "hp":
        partials = [
            tuple(raw[s * params.n : (s + 1) * params.n])
            for s in range(num_partials)
        ]
        from repro.core.scalar import add_words

        total = (0,) * params.n
        for p in partials:
            total = add_words(total, p)
        value = hp_to_double(total, params)
    else:
        half = 1 << 63
        partials = [
            tuple(
                (w - WORD_MOD) if w >= half else w
                for w in raw[s * params.n : (s + 1) * params.n]
            )
            for s in range(num_partials)
        ]
        digits = [0] * params.n
        for p in partials:
            for i, d in enumerate(p):
                digits[i] += d
        total = (tuple(digits), n)
        value = hb_to_double(digits, params)

    return GPUSumResult(
        value=value,
        partials=partials,
        total=total,
        run=run,
        num_threads=num_threads,
        method_name=method_name,
    )


def gpu_sum_fast(
    data: np.ndarray,
    method,
    num_threads: int,
    num_partials: int = NUM_PARTIALS,
) -> float:
    """Functional model of :func:`gpu_sum` for large inputs.

    Computes each slot's partial with the vectorized engine (elements
    whose thread ``i mod T`` maps to the slot), then combines slots in
    order.  For exact methods this equals the stepped simulation
    bit-for-bit regardless of scheduling — the order-invariance claim —
    which the integration tests verify at small sizes.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    n = len(data)
    idx = np.arange(n)
    slot_of_element = (idx % num_threads) % num_partials
    total = method.identity()
    for s in range(num_partials):
        members = data[slot_of_element == s]
        if len(members) == 0:
            continue
        total = method.combine(total, method.local_reduce(members))
    return method.finalize(total)
