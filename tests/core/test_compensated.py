"""Compensated-tier contracts (:mod:`repro.core.compensated`).

Every kernel is pinned against ``math.fsum`` within its *advertised*
bound (:mod:`repro.core.bounds`) — on well-behaved data, ill-conditioned
cancellation, denormals, and million-element permutations — and the
partial-merge algebra is pinned as the substrate adapters rely on it:
identity, commutativity, partition consistency, and run-to-run
determinism for a fixed order.  Compiled and pure Neumaier backends are
both held to the same bound (they carry no bit-identity contract).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import bounds
from repro.core import compensated as comp
from repro.core import engines, native, planner
from repro.experiments.datasets import wide_range_uniform

#: kernel name -> bound model the engine registry advertises for it
MODELS = {
    "pairwise": "pairwise",
    "kahan": "compensated",
    "neumaier": "compensated",
}


def assert_within_bound(kernel: str, xs: np.ndarray) -> comp.CompPartial:
    """The tier's whole contract in one helper: the finalized value is
    within ``c(n) * sum|x|`` of ``math.fsum``, and the partial's count
    and ``max_abs`` are exact."""
    partial = comp.KERNELS[kernel](np.asarray(xs, dtype=np.float64))
    value = comp.finalize_partial(partial)
    reference = math.fsum(xs)
    mass = math.fsum(np.abs(np.asarray(xs, dtype=np.float64)))
    limit = bounds.coefficient(MODELS[kernel], len(xs)) * mass
    assert abs(value - reference) <= limit, (
        f"{kernel}: |{value} - {reference}| > {limit}"
    )
    assert partial.count == len(xs)
    expected_max = float(np.max(np.abs(xs))) if len(xs) else 0.0
    assert partial.max_abs == expected_max
    return partial


KERNELS = sorted(comp.KERNELS)


class TestKernelAccuracy:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_random_batch(self, kernel):
        rng = np.random.default_rng(11)
        assert_within_bound(kernel, rng.standard_normal(100_003))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_wide_dynamic_range(self, kernel):
        rng = np.random.default_rng(12)
        xs = rng.standard_normal(40_001) * np.exp(
            rng.uniform(-40, 40, size=40_001)
        )
        assert_within_bound(kernel, xs)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_ill_conditioned_cancellation(self, kernel):
        # Massive cancellation: pairs (+v, -v) at magnitude 1e100 plus a
        # tiny residual signal.  The mass-relative bound is the honest
        # contract here — it stays huge while the true sum is tiny.
        rng = np.random.default_rng(13)
        big = rng.standard_normal(5_000) * 1e100
        xs = np.concatenate([big, -big, rng.standard_normal(101)])
        rng.shuffle(xs)
        assert_within_bound(kernel, xs)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_denormals(self, kernel):
        rng = np.random.default_rng(14)
        xs = rng.integers(-1000, 1000, size=9_001).astype(np.float64)
        xs *= 5e-324  # pure denormal magnitudes
        assert_within_bound(kernel, xs)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_million_element_permutations(self, kernel):
        rng = np.random.default_rng(15)
        xs = rng.standard_normal(1_000_000) * np.exp(
            rng.uniform(-20, 20, size=1_000_000)
        )
        for _ in range(3):
            assert_within_bound(kernel, xs)
            xs = rng.permutation(xs)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_empty_and_singleton_and_tail_only(self, kernel):
        assert comp.KERNELS[kernel](np.array([])) == comp.IDENTITY
        one = comp.KERNELS[kernel](np.array([3.5]))
        assert comp.finalize_partial(one) == 3.5
        # Fewer elements than one lane: the scalar-tail path alone.
        tail = np.linspace(-1.0, 1.0, comp.LANES - 1)
        assert_within_bound(kernel, tail)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fixed_order_determinism(self, kernel):
        rng = np.random.default_rng(16)
        xs = rng.standard_normal(50_000)
        a = comp.KERNELS[kernel](xs)
        b = comp.KERNELS[kernel](xs.copy())
        assert a == b  # bit-identical partials, run to run

    def test_rejects_bad_shapes_and_chunks(self):
        with pytest.raises(ValueError, match="1-D"):
            comp.pairwise_partial(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="chunk"):
            comp.pairwise_partial(np.zeros(4), chunk=0)

    def test_compensated_sum_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown compensated kernel"):
            comp.compensated_sum(np.zeros(4), kernel="magic")


class TestMergeAlgebra:
    def make(self, seed: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.standard_normal(n) * np.exp(rng.uniform(-30, 30, size=n))

    def test_identity_is_neutral(self):
        p = comp.neumaier_partial(self.make(21, 10_000))
        assert comp.merge_partials(p, comp.IDENTITY) == p
        assert comp.merge_partials(comp.IDENTITY, p) == p

    def test_commutative_bitwise(self):
        a = comp.neumaier_partial(self.make(22, 7_000))
        b = comp.neumaier_partial(self.make(23, 9_000))
        assert comp.merge_partials(a, b) == comp.merge_partials(b, a)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_partition_consistency_within_bound(self, kernel):
        # Splitting the batch across "PEs" and merging must stay inside
        # the advertised bound of the whole batch (the substrate
        # contract); bit-identity across partitions is NOT promised.
        xs = self.make(24, 120_007)
        reference = math.fsum(xs)
        mass = math.fsum(np.abs(xs))
        limit = bounds.coefficient(MODELS[kernel], len(xs)) * mass
        for pieces in (2, 3, 8):
            parts = [
                comp.KERNELS[kernel](piece)
                for piece in np.array_split(xs, pieces)
            ]
            merged = parts[0]
            for p in parts[1:]:
                merged = comp.merge_partials(merged, p)
            assert merged.count == len(xs)
            value = comp.finalize_partial(merged)
            assert abs(value - reference) <= limit

    def test_merge_keeps_exact_rounding_error(self):
        # two_sum recovers what the total addition dropped: merging
        # (1e16, 0) with (1.0, 0) keeps the 1.0 in err exactly.
        a = comp.CompPartial(1e16, 0.0, 1, 1e16)
        b = comp.CompPartial(1.0, 0.0, 1, 1.0)
        m = comp.merge_partials(a, b)
        assert m.total + m.err == 1e16 + 1.0 or (m.total, m.err) == (
            1e16,
            1.0,
        )
        assert m.total == 1e16
        assert m.err == 1.0
        assert m.max_abs == 1e16


class TestNeumaierBackends:
    def test_pure_pin_matches_lane_layout(self, monkeypatch):
        # backend="pure" must never consult the native ladder.
        xs = np.random.default_rng(31).standard_normal(30_000)
        monkeypatch.setattr(
            native, "resolve", lambda *a, **k: pytest.fail(
                "pure pin consulted the native ladder"
            )
        )
        p = comp.neumaier_partial(xs, backend="pure")
        assert p.count == xs.size

    def test_compiled_and_pure_both_within_bound(self):
        kern = native.resolve("auto")
        if kern.neumaier_partial is None:
            pytest.skip("no compiled neumaier kernel in this environment")
        rng = np.random.default_rng(32)
        xs = rng.standard_normal(200_001) * np.exp(
            rng.uniform(-30, 30, size=200_001)
        )
        reference = math.fsum(xs)
        mass = math.fsum(np.abs(xs))
        limit = bounds.coefficient("compensated", xs.size) * mass
        compiled = comp.finalize_partial(comp.neumaier_partial(xs))
        pure = comp.finalize_partial(
            comp.neumaier_partial(xs, backend="pure")
        )
        assert abs(compiled - reference) <= limit
        assert abs(pure - reference) <= limit

    def test_compiled_reports_exact_count_and_max(self):
        kern = native.resolve("auto")
        if kern.neumaier_partial is None:
            pytest.skip("no compiled neumaier kernel in this environment")
        xs = np.array([1.0, -8.25, 0.5, 3.0])
        p = comp.neumaier_partial(xs)
        assert p.count == 4
        assert p.max_abs == 8.25
        assert comp.finalize_partial(p) == math.fsum(xs)


#: Registry names of the compensated tiers the planner routes onto.
TIERS = ("comp-pairwise", "comp-kahan", "comp-neumaier")


class TestRegistryTiers:
    """The tiers as the planner runs them: through the engine registry,
    merging several ``1 << 16`` chunks, on sign-mixed magnitudes
    2**-30 .. 2**30."""

    @pytest.mark.parametrize("name", TIERS)
    def test_within_bound_and_deterministic(self, name):
        spec = engines.get(name)
        xs = wide_range_uniform(
            1 << 18, np.random.default_rng(20160523), (-30, 30)
        )
        value = spec.float_total(xs, 1 << 16)
        mass = math.fsum(np.abs(xs))
        limit = bounds.coefficient(spec.bound_model, xs.size) * mass
        assert abs(value - math.fsum(xs)) <= limit
        assert spec.float_total(xs, 1 << 16) == value  # fixed order

    def test_target_routes_onto_a_tier(self):
        assert planner.plan(1 << 18, 1e-12).engine in TIERS
