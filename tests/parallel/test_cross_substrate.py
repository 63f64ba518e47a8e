"""Integration: the architecture-invariance theorem across substrates.

The paper's core claim (Sec. III.B.3): the HP sum is invariant "both with
respect to the order of the summation and to the architecture on which
the addition is performed".  These tests drive the *same* dataset through
every substrate — serial, threads, simulated MPI, the stepped GPU device,
and the offload model — at several PE counts each, and require a single
set of HP words from all of them.  Hallberg (within budget) must satisfy
the same property; double precision must not (that contrast is asserted
too, on cancellation-heavy data).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.params import HPParams
from repro.experiments.datasets import zero_sum_set
from repro.hallberg.params import HallbergParams
from repro.parallel.gpu import gpu_sum
from repro.parallel.methods import DoubleMethod, HallbergMethod, HPMethod
from repro.parallel.phi import offload_reduce
from repro.parallel.simmpi import mpi_reduce
from repro.parallel.threads import thread_reduce
from repro.util.rng import default_rng

HP_PARAMS = HPParams(6, 3)
HB_PARAMS = HallbergParams(10, 38)
N = 600


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    return default_rng(99).uniform(-0.5, 0.5, N)


def _all_substrate_words(data: np.ndarray) -> dict[str, tuple]:
    """Collect HP words from every substrate/topology combination."""
    method = HPMethod(HP_PARAMS)
    out: dict[str, tuple] = {}
    out["serial"] = thread_reduce(data, method, 1).partial
    for p in (3, 8):
        out[f"threads p={p}"] = thread_reduce(data, method, p).partial
    for p in (4, 11):
        out[f"mpi p={p}"] = mpi_reduce(data, method, p).partial
    g = gpu_sum(data, "hp", num_threads=64, params=HP_PARAMS,
                max_concurrent_threads=32)
    out["gpu t=64"] = g.total
    out["phi t=60"] = offload_reduce(data, method, 60).partial
    return out


class TestArchitectureInvariance:
    def test_hp_words_identical_everywhere(self, data):
        words = _all_substrate_words(data)
        reference = words["serial"]
        for name, w in words.items():
            assert w == reference, f"{name} diverged"

    def test_value_is_the_exact_sum(self, data):
        method = HPMethod(HP_PARAMS)
        assert thread_reduce(data, method, 5).value == math.fsum(data)

    def test_hallberg_invariant_within_budget(self, data):
        method = HallbergMethod(HB_PARAMS)
        digits = {
            thread_reduce(data, method, p).partial[0] for p in (1, 4, 9)
        } | {mpi_reduce(data, method, p).partial[0] for p in (2, 8)}
        assert len(digits) == 1

    def test_double_not_invariant_on_cancellation_data(self):
        """The contrast claim: on zero-sum data the double result depends
        on the reduction topology."""
        values = zero_sum_set(4096, default_rng(5))
        method = DoubleMethod(strict_serial=True)
        results = {thread_reduce(values, method, p).value for p in
                   (1, 2, 3, 5, 8, 13, 21, 34)}
        assert len(results) > 1

    def test_hp_exact_zero_on_cancellation_data(self):
        values = zero_sum_set(4096, default_rng(5))
        method = HPMethod(HPParams(3, 2))
        for p in (1, 7, 32):
            assert thread_reduce(values, method, p).value == 0.0
