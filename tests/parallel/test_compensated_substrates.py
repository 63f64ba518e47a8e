"""Compensated tiers across the parallel substrates.

The merge algebra travels: ``CompPartial`` pickles through the procs
pool, packs through the adapter's wire codec, and rank-order-combines on
threads — and on every substrate the global result stays inside the
tier's advertised bound with run-to-run determinism for a fixed
partition.  Bit-identity across *different* substrates or PE counts is
deliberately NOT asserted (the tiers carry no such contract).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import bounds
from repro.core import compensated as comp
from repro.parallel.drivers import global_sum, make_method
from repro.parallel.methods import CompensatedMethod

MODELS = {
    "comp-pairwise": "pairwise",
    "comp-kahan": "compensated",
    "comp-neumaier": "compensated",
}

SUBSTRATES = ("serial", "threads", "procs", "mpi", "mpi-scatter", "phi")


def make_data(n: int = 60_000, seed: int = 9) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * np.exp(rng.uniform(-25, 25, size=n))


class TestAdapter:
    def test_make_method_resolves_registry_names(self):
        for name in MODELS:
            adapter = make_method(name)
            assert isinstance(adapter, CompensatedMethod)
            assert adapter.name == name
            assert not adapter.is_exact()
            assert adapter.partial_nbytes() == 32

    def test_alias_resolution_through_registry(self):
        # make_method takes adapter names; aliases resolve through the
        # registry (the CLI maps --engine pairwise -> adapter_name).
        from repro.core import engines

        for alias, canonical in (
            ("pairwise", "comp-pairwise"),
            ("neumaier", "comp-neumaier"),
        ):
            assert engines.get(alias).adapter_name == canonical
            assert make_method(canonical).name == canonical

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown compensated kernel"):
            CompensatedMethod(kernel="magic")

    def test_combine_rewraps_plain_tuples(self):
        # Wire partials may arrive as bare tuples; combine must accept
        # them and still run the two_sum merge.
        m = CompensatedMethod()
        a = (1e16, 0.0, 1, 1e16)
        b = (1.0, 0.0, 1, 1.0)
        merged = m.combine(a, b)
        assert merged == comp.CompPartial(1e16, 1.0, 2, 1e16)
        assert m.finalize(tuple(merged)) == 1e16 + 1.0


class TestGlobalSum:
    @pytest.mark.parametrize("method", sorted(MODELS))
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_within_bound_everywhere(self, method, substrate):
        xs = make_data()
        result = global_sum(xs, method=method, substrate=substrate, pes=4)
        assert result.words is None  # inexact: no bit pattern to carry
        reference = math.fsum(xs)
        mass = math.fsum(np.abs(xs))
        limit = bounds.coefficient(MODELS[method], len(xs)) * mass
        assert abs(result.value - reference) <= limit

    @pytest.mark.parametrize("substrate", ("threads", "mpi", "procs"))
    def test_fixed_partition_determinism(self, substrate):
        xs = make_data(40_000, seed=10)
        a = global_sum(xs, method="comp-neumaier", substrate=substrate,
                       pes=4)
        b = global_sum(xs, method="comp-neumaier", substrate=substrate,
                       pes=4)
        assert a.value == b.value  # bit-identical, run to run

    def test_gpu_refuses_compensated(self):
        with pytest.raises(ValueError, match="substrate 'gpu' has no"):
            global_sum(make_data(256), method="comp-neumaier",
                       substrate="gpu", pes=4)


class TestWireCodec:
    def test_roundtrip_is_exact(self):
        m = CompensatedMethod()
        assert m.partial_nbytes() == 32
        partial = comp.CompPartial(-1.5e300, 7.25e-300, 123456789, 2.5e300)
        buf = m.pack(partial)
        assert len(buf) == 32
        out = m.unpack(buf)
        assert isinstance(out, comp.CompPartial)
        assert out == partial

    def test_roundtrip_accepts_plain_tuple(self):
        m = CompensatedMethod()
        assert m.unpack(m.pack((0.5, -0.25, 7, 0.5))) == comp.CompPartial(
            0.5, -0.25, 7, 0.5
        )

    def test_size_check(self):
        with pytest.raises(ValueError, match="32 bytes"):
            CompensatedMethod().unpack(b"\x00" * 31)
