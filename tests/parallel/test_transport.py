"""Partial-transport correctness: what actually crosses a process
boundary.

The procs substrate ships partials by pickle and input by shared
memory; the simulated-MPI substrate ships partials as packed bytes.
These tests pin that every transport round-trip is value-preserving —
a partial that crosses a boundary combines to the same words as one
that never left the process.
"""

from __future__ import annotations

import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.params import HPParams
from repro.hallberg.params import HallbergParams
from repro.parallel.methods import (
    DoubleMethod,
    HallbergMethod,
    HPMethod,
    HPSmallaccMethod,
)
from repro.parallel.simmpi.datatypes import (
    SmallaccChunksType,
    datatype_for_method,
)

PARAMS = HPParams(6, 3)

METHODS = [
    DoubleMethod(),
    HPMethod(PARAMS),
    HPSmallaccMethod(PARAMS),
    HallbergMethod(HallbergParams(10, 38)),
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
    """The byte codecs must agree with the adapters on size and value —
    the wire is an alternative transport for the same partials."""

    @pytest.mark.parametrize("method", METHODS, ids=lambda m: m.name)
    def test_nbytes_consistency(self, method):
        assert datatype_for_method(method).nbytes == method.partial_nbytes()

    @pytest.mark.parametrize("method", METHODS, ids=lambda m: m.name)
    def test_pack_unpack_identity(self, method, data):
        dt = datatype_for_method(method)
        part = method.local_reduce(data)
        buf = dt.pack(part)
        assert len(buf) == dt.nbytes
        assert dt.unpack(buf) == part

    def test_small_chunks_survive_negative_values(self):
        """Chunk partials are signed; negative-heavy data must
        round-trip."""
        m = HPSmallaccMethod(PARAMS)
        xs = -np.abs(np.random.default_rng(7).uniform(0.5, 1.0, 500))
        part = m.local_reduce(xs)
        assert any(b < 0 for b in part)
        dt = SmallaccChunksType(PARAMS)
        assert dt.unpack(dt.pack(part)) == part

    def test_small_chunks_reject_wrong_arity(self):
        dt = SmallaccChunksType(PARAMS)
        with pytest.raises(ValueError):
            dt.pack((1, 2, 3))


class TestSharedMemoryRoundTrip:
    """A packed partial written into a shared_memory segment and read
    back must decode to the identical partial — the byte path a
    shared-memory result mailbox would take."""

    @pytest.mark.parametrize("method", METHODS, ids=lambda m: m.name)
    def test_partial_bytes_through_shm(self, method, data):
        dt = datatype_for_method(method)
        part = method.local_reduce(data)
        buf = dt.pack(part)
        seg = shared_memory.SharedMemory(create=True, size=len(buf))
        try:
            seg.buf[: len(buf)] = buf
            echoed = dt.unpack(bytes(seg.buf[: len(buf)]))
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
