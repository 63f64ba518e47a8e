"""Property tests pinning the default exact path to the word-matrix path.

Every exact entry point defaults to Neal's small accumulator
(:func:`repro.core.smallacc.smallacc_total`) on the resolved backend —
compiled where the environment allows it.  These tests call the
defaults (no ``method=`` / ``backend=`` arguments), so they pin what
callers actually get; ``test_smallacc.py`` pins the pure-NumPy piece
loop.  This module keeps the name of the binned engine whose contract
it first pinned, so its test IDs stay stable; every check runs on the
small engine.  Each assertion is *bit identity* with the words path or
the scalar accumulator — never closeness — over adversarial inputs
(subnormals, signed zeros, range-edge magnitudes, mass cancellation) and
under every reordering a parallel schedule could produce (permutation,
chunking, split and sum).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accumulator import HPAccumulator
from repro.core.native import SMALL_PROPAGATE_LIMIT
from repro.core.params import HPParams
from repro.core.scalar import from_double, to_double
from repro.core.smallacc import (
    BIN_BITS,
    bin_count,
    bins_from_int,
    fold_bins,
    scatter_one,
    smallacc_total,
)
from repro.core.vectorized import batch_sum_doubles
from repro.errors import AdditionOverflowError, ConversionOverflowError

from tests.core.test_smallacc import adversarial_pool, trunc_scaled, words

P = HPParams(3, 2)


class TestScatterHeadroom:
    def test_bin_count_positive(self, hp_params):
        assert bin_count(hp_params) >= 3

    def test_fold_roundtrip(self, rng, hp_params):
        nbins = bin_count(hp_params)
        limbs = [int(v) for v in rng.integers(-(2**40), 2**40, nbins)]
        value = fold_bins(limbs)
        assert fold_bins(bins_from_int(value, nbins)) == value

    def test_fold_limit_leaves_headroom(self):
        # The compiled two-limb loop adds at most one addend below 2**52
        # per chunk per summand and propagates every
        # SMALL_PROPAGATE_LIMIT adds, starting from a residue below
        # 2**33: no chunk may reach the int64 edge in between.
        assert (1 << 33) + SMALL_PROPAGATE_LIMIT * (1 << 52) < (1 << 63)
        assert BIN_BITS == 32


class TestScalarMirror:
    def test_scatter_double_matches_from_double(self, rng, hp_params):
        """fold(scatter_one(x)) is exactly trunc(x * 2**frac_bits)."""
        for x in adversarial_pool(hp_params, rng, 200):
            scaled = fold_bins(scatter_one(float(x), hp_params))
            assert scaled == trunc_scaled(float(x), hp_params), repr(float(x))

    def test_scatter_double_rejects_nonfinite(self, hp_params):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConversionOverflowError):
                batch_sum_doubles(np.array([1.0, bad]), hp_params)
            with pytest.raises(ConversionOverflowError):
                smallacc_total(np.array([bad, 2.0]), hp_params)

    def test_single_value_matches_from_double(self, hp_params):
        for x in (1.5, -2.25, 0.0, -0.0, 2.0**-40, 5e-324):
            acc = HPAccumulator(hp_params)
            acc.add(x)
            assert acc.words == from_double(x, hp_params)
            assert batch_sum_doubles(np.array([x]), hp_params) == acc.words


class TestBitIdentity:
    def test_matches_words_engine(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng)
        assert batch_sum_doubles(xs, hp_params) == words(xs, hp_params)

    def test_matches_scalar_accumulator(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 500)
        acc = HPAccumulator(hp_params, check_overflow=False)
        for x in xs:
            acc.add(float(x))
        assert batch_sum_doubles(xs, hp_params) == acc.words

    def test_chunk_invariant(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 701)
        reference = words(xs, hp_params)
        for chunk in (1, 3, 64, 1 << 20):
            assert batch_sum_doubles(xs, hp_params, chunk=chunk) == reference

    def test_permutation_invariant(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 800)
        reference = words(xs, hp_params)
        for _ in range(3):
            assert batch_sum_doubles(rng.permutation(xs), hp_params) == (
                reference
            )

    def test_split_merge_invariant(self, rng, hp_params):
        """Partition into unequal PE slices and add their totals as
        integers — the ``hp-small`` adapter's combine — against the
        one-shot total."""
        xs = adversarial_pool(hp_params, rng, 900)
        one = smallacc_total(xs, hp_params)
        for pieces in (2, 3, 7):
            parts = np.array_split(xs, pieces)
            assert sum(smallacc_total(p, hp_params) for p in parts) == one

    def test_mass_cancellation_is_exact_zero(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 600)
        both = rng.permutation(np.concatenate([xs, -xs]))
        assert smallacc_total(both, hp_params) == 0
        assert to_double(batch_sum_doubles(both, hp_params), hp_params) == 0.0

    def test_fold_trigger_preserves_identity(self):
        """Many small calls with a tiny chunk, their totals summed: the
        carry handling of every call must stay exact."""
        params = HPParams(2, 1)
        rng = np.random.default_rng(7)
        xs = rng.uniform(-1.0, 1.0, 4096)
        total = sum(
            smallacc_total(xs[i : i + 17], params, chunk=5)
            for i in range(0, len(xs), 17)
        )
        assert total == smallacc_total(xs, params)
        assert batch_sum_doubles(xs, params, chunk=5) == words(xs, params)


class TestEngineContract:
    def test_unknown_method_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown summation method"):
            batch_sum_doubles(rng.uniform(size=4), P, method="exact")

    def test_range_overflow_raises(self):
        params = HPParams(2, 1)
        xs = np.full(4, 2.0**62)
        with pytest.raises(AdditionOverflowError):
            batch_sum_doubles(xs, params)

    def test_overflow_check_disabled_wraps_identically(self):
        params = HPParams(2, 1)
        xs = np.full(2, 2.0**62)
        assert batch_sum_doubles(xs, params, check_overflow=False) == (
            batch_sum_doubles(xs, params, check_overflow=False, method="words")
        )

    def test_out_of_range_element_rejected(self):
        with pytest.raises(ConversionOverflowError, match="element 1"):
            batch_sum_doubles(np.array([0.0, 1e30, 0.0]), HPParams(2, 1))

    def test_nan_rejected(self):
        with pytest.raises(ConversionOverflowError):
            batch_sum_doubles(np.array([1.0, float("nan")]), P)

    def test_bins_property_elementwise_mergeable(self, rng, hp_params):
        """The canonical chunk tuples of two halves' totals, added
        elementwise, fold to the whole's total."""
        xs = adversarial_pool(hp_params, rng, 400)
        nbins = bin_count(hp_params)
        halves = [
            bins_from_int(smallacc_total(half, hp_params), nbins)
            for half in np.array_split(xs, 2)
        ]
        merged = tuple(x + y for x, y in zip(*halves))
        assert fold_bins(merged) == smallacc_total(xs, hp_params)

    def test_empty_absorb(self):
        empty = np.array([], dtype=np.float64)
        assert smallacc_total(empty, P) == 0
        assert batch_sum_doubles(empty, P) == (0,) * P.n

    def test_accumulator_add_doubles_matches_extend(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 300)
        a = HPAccumulator(hp_params, check_overflow=False)
        a.extend(xs.tolist())
        b = HPAccumulator(hp_params, check_overflow=False)
        b.add_doubles(xs)
        assert a.words == b.words
        assert a.count == b.count
