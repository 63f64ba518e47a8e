"""Unit tests for the ReductionMethod adapters."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.params import HPParams
from repro.errors import SummandLimitError
from repro.hallberg.params import HallbergParams
from repro.parallel.methods import (
    DoubleMethod,
    HallbergMethod,
    HPMethod,
    HPSmallaccMethod,
    standard_methods,
)

ALL_ADAPTERS = standard_methods() + [
    HPSmallaccMethod(HPParams(6, 3)),
    DoubleMethod(strict_serial=True),
    HPMethod(HPParams(3, 2), vectorized=False),
    HallbergMethod(HallbergParams(10, 38), vectorized=False),
]


class TestDoubleMethod:
    def test_local_reduce(self, rng):
        xs = rng.uniform(-1.0, 1.0, 100)
        m = DoubleMethod()
        assert m.local_reduce(xs) == pytest.approx(math.fsum(xs), abs=1e-12)

    def test_strict_serial_semantics(self):
        xs = np.array([1e16] + [1.0] * 64)
        assert DoubleMethod(strict_serial=True).local_reduce(xs) == 1e16

    def test_not_exact(self):
        assert not DoubleMethod().is_exact()

    def test_wire_size(self):
        assert DoubleMethod().partial_nbytes() == 8


class TestHPMethod:
    def test_scalar_and_vectorized_paths_agree(self, rng):
        xs = rng.uniform(-1.0, 1.0, 200)
        p = HPParams(3, 2)
        assert HPMethod(p).local_reduce(xs) == HPMethod(
            p, vectorized=False
        ).local_reduce(xs)

    def test_combine_is_exact_addition(self, rng):
        xs = rng.uniform(-1.0, 1.0, 100)
        p = HPParams(3, 2)
        m = HPMethod(p)
        combined = m.combine(m.local_reduce(xs[:50]), m.local_reduce(xs[50:]))
        assert combined == m.local_reduce(xs)

    def test_finalize(self, rng):
        xs = rng.uniform(-1.0, 1.0, 100)
        m = HPMethod(HPParams(3, 2))
        assert m.finalize(m.local_reduce(xs)) == math.fsum(xs)

    def test_identity_is_neutral(self, rng):
        m = HPMethod(HPParams(3, 2))
        part = m.local_reduce(rng.uniform(-1.0, 1.0, 10))
        assert m.combine(m.identity(), part) == part

    def test_wire_size(self):
        assert HPMethod(HPParams(6, 3)).partial_nbytes() == 48


class TestHallbergMethod:
    def test_partial_carries_count(self, rng):
        xs = rng.uniform(-1.0, 1.0, 64)
        m = HallbergMethod(HallbergParams(10, 38))
        digits, count = m.local_reduce(xs)
        assert count == 64 and len(digits) == 10

    def test_combine_tracks_budget(self):
        tight = HallbergParams(2, 61)  # budget 3
        m = HallbergMethod(tight)
        a = m.local_reduce(np.array([0.5, 0.5]))
        b = m.local_reduce(np.array([0.5, 0.5]))
        with pytest.raises(SummandLimitError):
            m.combine(a, b)

    def test_scalar_and_vectorized_paths_agree(self, rng):
        xs = rng.uniform(-1.0, 1.0, 200)
        p = HallbergParams(10, 38)
        assert HallbergMethod(p).local_reduce(xs) == HallbergMethod(
            p, vectorized=False
        ).local_reduce(xs)

    def test_wire_size_includes_count(self):
        assert HallbergMethod(HallbergParams(10, 38)).partial_nbytes() == 88


class TestEmptyBlockIdentity:
    """p > n partitions hand some PEs zero-length slices; every adapter
    must treat one as the neutral element, or empty blocks would shift
    the answer."""

    @pytest.mark.parametrize(
        "method", ALL_ADAPTERS,
        ids=lambda m: f"{m.name}-{type(m).__name__}",
    )
    def test_empty_slice_is_identity(self, method):
        assert method.local_reduce(np.empty(0, dtype=np.float64)) == (
            method.identity()
        )

    @pytest.mark.parametrize(
        "method", ALL_ADAPTERS,
        ids=lambda m: f"{m.name}-{type(m).__name__}",
    )
    def test_identity_is_neutral_in_combine(self, method, rng):
        part = method.local_reduce(rng.uniform(-1.0, 1.0, 50))
        assert method.combine(method.identity(), part) == part
        assert method.combine(part, method.identity()) == part

    @pytest.mark.parametrize(
        "method", ALL_ADAPTERS,
        ids=lambda m: f"{m.name}-{type(m).__name__}",
    )
    def test_finalize_of_identity_is_zero(self, method):
        assert method.finalize(method.identity()) == 0.0


class TestStandardMethods:
    def test_paper_defaults(self):
        methods = standard_methods()
        assert [m.name for m in methods] == ["double", "hp", "hallberg"]
        assert methods[1].params == HPParams(6, 3)
        assert methods[2].params == HallbergParams(10, 38)

    def test_all_agree_on_friendly_data(self, rng):
        xs = rng.uniform(-0.5, 0.5, 500)
        results = {
            m.name: m.finalize(m.local_reduce(xs)) for m in standard_methods()
        }
        assert results["hp"] == results["hallberg"] == math.fsum(xs)
        assert results["double"] == pytest.approx(results["hp"], abs=1e-12)
