"""Unit tests for the simulated MPI substrate."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.params import HPParams
from repro.hallberg.params import HallbergParams
from repro.parallel.methods import DoubleMethod, HallbergMethod, HPMethod
from repro.parallel.simmpi import (
    SimComm,
    mpi_allreduce_partials,
    mpi_reduce,
    mpi_reduce_partials,
)

HP = HPMethod(HPParams(6, 3))


class TestSimComm:
    def test_fifo_per_channel(self):
        comm = SimComm(3)
        comm.send(0, 1, b"first")
        comm.send(0, 1, b"second")
        assert comm.recv(1, 0) == b"first"
        assert comm.recv(1, 0) == b"second"

    def test_recv_without_message_deadlocks(self):
        comm = SimComm(2)
        with pytest.raises(RuntimeError, match="deadlock"):
            comm.recv(0, 1)

    def test_rejects_self_send(self):
        comm = SimComm(2)
        with pytest.raises(ValueError):
            comm.send(1, 1, b"loop")

    def test_rank_bounds(self):
        comm = SimComm(2)
        with pytest.raises(ValueError):
            comm.send(0, 2, b"x")

    def test_only_bytes_travel(self):
        comm = SimComm(2)
        with pytest.raises(TypeError):
            comm.send(0, 1, (1, 2, 3))  # type: ignore[arg-type]

    def test_traffic_accounting(self):
        comm = SimComm(2)
        comm.send(0, 1, b"12345")
        assert comm.stats.messages == 1 and comm.stats.bytes == 5
        assert comm.pending() == 1
        comm.recv(1, 0)
        assert comm.pending() == 0


class TestDatatypes:
    """Edge values through the adapters' codecs (the MPI datatypes); the
    pinned bytes of every adapter are in test_transport.py."""

    def test_double_roundtrip(self):
        m = DoubleMethod()
        assert m.unpack(m.pack(3.14159)) == 3.14159

    def test_hp_words_roundtrip(self):
        m = HPMethod(HPParams(3, 2))
        words = (2**64 - 1, 5, 1 << 63)
        assert m.unpack(m.pack(words)) == words
        assert m.partial_nbytes() == 24

    def test_hallberg_partial_roundtrip(self):
        m = HallbergMethod(HallbergParams(10, 38))
        partial = (tuple(range(-5, 5)), 42)
        assert m.unpack(m.pack(partial)) == partial
        assert m.partial_nbytes() == 88

    def test_size_check(self):
        with pytest.raises(ValueError):
            DoubleMethod().unpack(b"123")


class TestReduce:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 16, 33])
    def test_invariant_across_communicator_sizes(self, rng, size):
        data = rng.uniform(-0.5, 0.5, 999)
        assert mpi_reduce(data, HP, size).partial == mpi_reduce(
            data, HP, 1
        ).partial

    def test_value_exact(self, rng):
        data = rng.uniform(-0.5, 0.5, 512)
        assert mpi_reduce(data, HP, 8).value == math.fsum(data)

    def test_binomial_message_count(self, rng):
        data = rng.uniform(-0.5, 0.5, 256)
        result = mpi_reduce(data, HP, 16)
        assert result.traffic.messages == 15
        assert result.traffic.rounds == 4

    def test_nonroot_reduction(self, rng):
        data = rng.uniform(-0.5, 0.5, 100)
        comm = SimComm(5)
        from repro.parallel.partition import block_ranges

        partials = [
            HP.local_reduce(data[lo:hi]) for lo, hi in block_ranges(100, 5)
        ]
        at3 = mpi_reduce_partials(comm, partials, HP, root=3)
        assert at3 == mpi_reduce(data, HP, 5).partial

    def test_hallberg_budget_travels(self):
        tight = HallbergParams(2, 61)  # budget 3
        method = HallbergMethod(tight)
        data = np.full(4, 0.25)
        from repro.errors import SummandLimitError

        with pytest.raises(SummandLimitError):
            mpi_reduce(data, method, 2)

    def test_partial_count_mismatch(self):
        comm = SimComm(3)
        with pytest.raises(ValueError):
            mpi_reduce_partials(comm, [HP.identity()] * 2, HP)


class TestAllreduce:
    def test_every_rank_gets_identical_bytes(self, rng):
        data = rng.uniform(-0.5, 0.5, 128)
        comm = SimComm(8)
        from repro.parallel.partition import block_ranges

        partials = [
            HP.local_reduce(data[lo:hi]) for lo, hi in block_ranges(128, 8)
        ]
        results = mpi_allreduce_partials(comm, partials, HP)
        assert len(results) == 8
        assert all(r == results[0] for r in results)
        assert HP.finalize(results[0]) == math.fsum(data)

    def test_single_rank(self):
        comm = SimComm(1)
        out = mpi_allreduce_partials(comm, [HP.identity()], HP)
        assert out == [HP.identity()]


class TestRecursiveDoubling:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 11, 16, 21])
    def test_matches_tree_allreduce(self, rng, size):
        from repro.parallel.simmpi import mpi_allreduce_recursive_doubling

        data = rng.uniform(-0.5, 0.5, 300)
        from repro.parallel.partition import block_ranges

        partials = [
            HP.local_reduce(data[lo:hi])
            for lo, hi in block_ranges(300, size)
        ]
        tree = mpi_allreduce_partials(SimComm(size), list(partials), HP)
        doubling = mpi_allreduce_recursive_doubling(
            SimComm(size), list(partials), HP
        )
        assert len(doubling) == size
        assert all(r == tree[0] for r in doubling)

    def test_hallberg_counts_travel(self, rng):
        from repro.hallberg.params import HallbergParams
        from repro.parallel.methods import HallbergMethod
        from repro.parallel.partition import block_ranges
        from repro.parallel.simmpi import mpi_allreduce_recursive_doubling

        method = HallbergMethod(HallbergParams(10, 38))
        data = rng.uniform(-0.5, 0.5, 120)
        partials = [
            method.local_reduce(data[lo:hi])
            for lo, hi in block_ranges(120, 6)
        ]
        out = mpi_allreduce_recursive_doubling(SimComm(6), partials, method)
        assert all(part[1] == 120 for part in out)  # full count everywhere

    def test_quiescent(self, rng):
        from repro.parallel.partition import block_ranges
        from repro.parallel.simmpi import mpi_allreduce_recursive_doubling

        comm = SimComm(7)
        data = rng.uniform(-0.5, 0.5, 70)
        partials = [
            HP.local_reduce(data[lo:hi]) for lo, hi in block_ranges(70, 7)
        ]
        mpi_allreduce_recursive_doubling(comm, partials, HP)
        assert comm.pending() == 0

    def test_partial_count_check(self):
        from repro.parallel.simmpi import mpi_allreduce_recursive_doubling

        with pytest.raises(ValueError):
            mpi_allreduce_recursive_doubling(
                SimComm(3), [HP.identity()] * 2, HP
            )
