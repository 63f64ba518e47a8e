"""Partial-transport correctness: what actually crosses a process
boundary.

The procs substrate ships partials by pickle and input by shared
memory; the simulated-MPI substrate ships partials as the bytes of the
adapter's own codec (``pack``/``unpack``).  These tests pin that every
transport round-trip is value-preserving — a partial that crosses a
boundary combines to the same words as one that never left the process
— and hold the codec table: each adapter's wire bytes, pinned as hex.
"""

from __future__ import annotations

import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.params import HPParams
from repro.hallberg.params import HallbergParams
from repro.parallel.methods import (
    CompensatedMethod,
    DoubleMethod,
    HallbergMethod,
    HPMethod,
    HPSmallaccMethod,
)

PARAMS = HPParams(6, 3)

METHODS = [
    DoubleMethod(),
    HPMethod(PARAMS),
    HPSmallaccMethod(PARAMS),
    HallbergMethod(HallbergParams(10, 38)),
]

#: One PE's slice for the codec table: a negative total, so every
#: signed field of every layout is exercised.
LEAF = np.array([0.1, -3.75, 2.0**-30, 1e3, -1234.5678, 7.0e-3])

#: The codec table: each adapter and the hex of its leaf partial of
#: :data:`LEAF`, pinned so that no layout changes unnoticed (double;
#: total/err/count/max_abs; N uint64 words; 16-byte signed chunk slots;
#: N int64 digits and the count).
HP32 = HPParams(3, 2)
CODECS = [
    pytest.param(DoubleMethod(), "e6bfa3dfbec66dc0", id="double"),
    pytest.param(
        # kahan, not neumaier: neumaier's compiled kernel may split a
        # leaf between total and err differently from the NumPy one.
        CompensatedMethod("kahan"),
        "e6bfa3dfbec66dc000000000000000000600000000000000adfa5c6d454a9340",
        id="comp-kahan",
    ),
    pytest.param(
        HPMethod(HP32),
        "11ffffffffffffff9031c800e20209ca0000000000000000",
        id="hp",
    ),
    pytest.param(
        HPSmallaccMethod(HP32),
        "00000000000000000000000000000000"
        "00000000000000000000000000000000"
        "9031c800000000000000000000000000"
        "e20209ca000000000000000000000000"
        "11ffffff000000000000000000000000"
        "ffffffff000000000000000000000000"
        "ffffffffffffffffffffffffffffffff",
        id="hp-small",
    ),
    pytest.param(
        HallbergMethod(HallbergParams(4, 38)),
        "000019830c00000080b84082b2ffffff13ffffffffffffff"
        "00000000000000000600000000000000",
        id="hallberg",
    ),
]


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    rng = np.random.default_rng(4242)
    return rng.uniform(-1.0, 1.0, 2000) * np.exp2(
        rng.uniform(-20.0, 20.0, 2000)
    )


class TestPickleRoundTrip:
    """multiprocessing moves partials (and the method objects) by
    pickle; both must survive unchanged."""

    @pytest.mark.parametrize("method", METHODS, ids=lambda m: m.name)
    def test_partial_survives_pickle(self, method, data):
        part = method.local_reduce(data)
        assert pickle.loads(pickle.dumps(part)) == part

    @pytest.mark.parametrize("method", METHODS, ids=lambda m: m.name)
    def test_combine_of_pickled_partials(self, method, data):
        a = pickle.loads(pickle.dumps(method.local_reduce(data[:1000])))
        b = pickle.loads(pickle.dumps(method.local_reduce(data[1000:])))
        direct = method.combine(
            method.local_reduce(data[:1000]), method.local_reduce(data[1000:])
        )
        assert method.combine(a, b) == direct

    @pytest.mark.parametrize("method", METHODS, ids=lambda m: m.name)
    def test_method_object_survives_pickle(self, method, data):
        clone = pickle.loads(pickle.dumps(method))
        assert clone.local_reduce(data) == method.local_reduce(data)


class TestWireRoundTrip:
    """The codec table: every adapter's ``pack``/``unpack`` against its
    pinned bytes, its one size, and its inverse."""

    @pytest.mark.parametrize("method,golden", CODECS)
    def test_leaf_bytes_are_pinned(self, method, golden):
        assert method.pack(method.local_reduce(LEAF)).hex() == golden

    @pytest.mark.parametrize("method,golden", CODECS)
    def test_nbytes_consistency(self, method, golden):
        for part in (method.identity(), method.local_reduce(LEAF)):
            assert len(method.pack(part)) == method.partial_nbytes()

    @pytest.mark.parametrize("method,golden", CODECS)
    def test_pack_unpack_identity(self, method, golden, data):
        leaf = method.local_reduce(LEAF)
        combined = method.combine(method.local_reduce(data), leaf)
        for part in (method.identity(), leaf, combined):
            echoed = method.unpack(method.pack(part))
            assert echoed == part
            assert type(echoed) is type(part)
        assert method.unpack(bytes.fromhex(golden)) == leaf

    @pytest.mark.parametrize("method,golden", CODECS)
    def test_one_byte_short_is_rejected(self, method, golden):
        with pytest.raises(ValueError):
            method.unpack(bytes.fromhex(golden)[:-1])
        with pytest.raises(ValueError):
            method.unpack(bytes.fromhex(golden) + b"\x00")

    @pytest.mark.parametrize("top", [1 << 70, -(1 << 70) + 12345])
    def test_small_wide_top_slot_round_trips(self, top):
        """A combine tree can widen a total past 64 bits above the top
        slot's weight; the 16-byte slot still carries it."""
        m = HPSmallaccMethod(HP32)
        shift = 32 * (m.nchunks - 1)
        part = m.combine(top << shift, m.local_reduce(LEAF))
        buf = m.pack(part)
        top_slot = int.from_bytes(buf[-16:], "little", signed=True)
        assert top_slot == part >> shift
        assert top_slot.bit_length() > 64
        assert m.unpack(buf) == part

    def test_small_chunks_survive_negative_values(self):
        """Chunk slots are signed; a negative total must round-trip."""
        m = HPSmallaccMethod(PARAMS)
        xs = -np.abs(np.random.default_rng(7).uniform(0.5, 1.0, 500))
        part = m.local_reduce(xs)
        assert part < 0
        assert m.unpack(m.pack(part)) == part

    def test_small_chunks_reject_wrong_arity(self):
        m = HPSmallaccMethod(PARAMS)
        with pytest.raises(ValueError):
            m.unpack(bytes(16 * 3))


class TestSharedMemoryRoundTrip:
    """A packed partial written into a shared_memory segment and read
    back must decode to the identical partial — the byte path a
    shared-memory result mailbox would take."""

    @pytest.mark.parametrize("method", METHODS, ids=lambda m: m.name)
    def test_partial_bytes_through_shm(self, method, data):
        part = method.local_reduce(data)
        buf = method.pack(part)
        seg = shared_memory.SharedMemory(create=True, size=len(buf))
        try:
            seg.buf[: len(buf)] = buf
            echoed = method.unpack(bytes(seg.buf[: len(buf)]))
        finally:
            seg.close()
            seg.unlink()
        assert echoed == part
        assert method.finalize(echoed) == method.finalize(part)

    def test_summands_through_shm_are_bitwise(self, data):
        """The input-side transport: a float64 view over a shared
        segment reduces to the same words as the original array."""
        seg = shared_memory.SharedMemory(create=True, size=data.nbytes)
        try:
            view = np.ndarray(data.shape, dtype=np.float64, buffer=seg.buf)
            view[:] = data
            m = HPSmallaccMethod(PARAMS)
            assert m.local_reduce(view) == m.local_reduce(data)
        finally:
            del view
            seg.close()
            seg.unlink()
