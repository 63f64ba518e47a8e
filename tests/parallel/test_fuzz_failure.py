"""Adversarial-schedule fuzzing and failure injection.

Two families of robustness tests:

* **Scheduler fuzzing** — the simulated GPU's adversarial mode services
  threads in a fresh random order every step; exact kernels must return
  bit-identical results for every seed (the strongest executable form of
  the paper's atomicity claim, Sec. III.B.2).
* **Failure injection** — corrupted/truncated wire bytes and protocol
  misuse in the MPI substrate must fail loudly, never return a wrong
  sum silently.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import HPParams
from repro.hallberg.params import HallbergParams
from repro.parallel.gpu import gpu_sum
from repro.parallel.methods import HPMethod
from repro.parallel.simmpi import SimComm, mpi_reduce_partials

HP = HPParams(3, 2)
HB = HallbergParams(10, 38)


class TestScheduleFuzzing:
    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(42).uniform(-0.5, 0.5, 250)

    @pytest.fixture(scope="class")
    def expected(self, data):
        return math.fsum(data)

    @pytest.mark.parametrize("seed", range(8))
    def test_hp_atomic_kernel_under_random_schedules(self, data, expected,
                                                     seed):
        g = gpu_sum(
            data, "hp", num_threads=48, params=HP,
            max_concurrent_threads=12, num_partials=4, schedule_seed=seed,
        )
        assert g.value == expected
        # The adversarial schedule must actually provoke contention,
        # otherwise the test proves nothing.
        assert g.run.memory.cas_failures > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_hallberg_kernel_under_random_schedules(self, data, expected,
                                                    seed):
        g = gpu_sum(
            data, "hallberg", num_threads=48, params=HB,
            max_concurrent_threads=12, num_partials=4, schedule_seed=seed,
        )
        assert g.value == expected

    def test_double_kernel_schedule_sensitive(self, data):
        """The contrast: atomic double results depend on commit order."""
        values = {
            gpu_sum(
                data, "double", num_threads=48,
                max_concurrent_threads=12, num_partials=4,
                schedule_seed=seed,
            ).value
            for seed in range(10)
        }
        assert len(values) > 1

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_property_any_seed_exact(self, seed):
        data = np.random.default_rng(7).uniform(-0.5, 0.5, 120)
        g = gpu_sum(
            data, "hp", num_threads=24, params=HP,
            max_concurrent_threads=6, num_partials=2, schedule_seed=seed,
        )
        assert g.value == math.fsum(data)


class TestWireFailureInjection:
    def _partials(self, comm_size):
        rng = np.random.default_rng(1)
        method = HPMethod(HP)
        return method, [
            method.local_reduce(rng.uniform(-0.5, 0.5, 50))
            for _ in range(comm_size)
        ]

    def test_truncated_message_detected(self):
        """A short read must raise, not decode to a wrong partial."""
        method = HPMethod(HP)
        blob = method.pack((1, 2, 3))
        with pytest.raises(ValueError):
            method.unpack(blob[:-1])

    def test_corrupted_bytes_change_value_loudly_or_exactly(self):
        """Bit corruption cannot be *silently absorbed*: the decoded
        partial differs from the original in exactly the flipped bits,
        so end-to-end checksums (the count fields) or value checks can
        catch it.  This pins the codec as deterministic and injective."""
        method = HPMethod(HP)
        original = (7, 8, 9)
        blob = bytearray(method.pack(original))
        blob[0] ^= 0x01
        decoded = method.unpack(bytes(blob))
        assert decoded != original
        assert decoded == (6, 8, 9)  # precisely the flipped low bit of word 0

    def test_wrong_size_comm_partials(self):
        method, partials = self._partials(4)
        comm = SimComm(4)
        with pytest.raises(ValueError):
            mpi_reduce_partials(comm, partials[:3], method)

    def test_recv_from_silent_rank_deadlocks_loudly(self):
        comm = SimComm(3)
        with pytest.raises(RuntimeError, match="deadlock"):
            comm.recv(0, 2)

    def test_reduce_leaves_no_stray_messages(self):
        method, partials = self._partials(8)
        comm = SimComm(8)
        mpi_reduce_partials(comm, partials, method)
        assert comm.pending() == 0

    def test_mixed_format_partial_rejected_by_op(self):
        """A partial from a different format fails in the combine, not
        silently merged."""
        from repro.errors import MixedParameterError

        method, partials = self._partials(2)
        bad = (0,) * 6  # wrong word count for HP(3,2)
        comm = SimComm(2)
        with pytest.raises((MixedParameterError, ValueError,
                            Exception)):
            mpi_reduce_partials(comm, [partials[0], bad], method)
