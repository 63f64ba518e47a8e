"""Property tests pinning the default exact path to the word-matrix path.

Every exact entry point defaults to Neal's small accumulator
(:mod:`repro.core.smallacc`) on the resolved backend — compiled where
the environment allows it.  These tests call the defaults (no
``method=`` / ``backend=`` arguments), so they pin what callers
actually get; ``test_smallacc.py`` pins the pure-NumPy carry machinery.
This module keeps the name of the binned engine whose contract it first
pinned, so its test IDs stay stable; every check now runs on the small
engine.  Each assertion is *bit identity* with the words path or the
scalar accumulator — never closeness — over adversarial inputs
(subnormals, signed zeros, range-edge magnitudes, mass cancellation) and
under every reordering a parallel schedule could produce (permutation,
chunking, split/merge).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accumulator import HPAccumulator
from repro.core.native import SMALL_PROPAGATE_LIMIT
from repro.core.params import HPParams
from repro.core.scalar import from_double
from repro.core.smallacc import (
    BIN_BITS,
    SmallAccumulator,
    bin_count,
    bins_from_int,
    fold_bins,
    scatter_one,
)
from repro.core.vectorized import batch_sum_doubles
from repro.errors import (
    AdditionOverflowError,
    ConversionOverflowError,
    MixedParameterError,
)

P = HPParams(3, 2)


def adversarial_pool(params: HPParams, rng, n: int = 2000) -> np.ndarray:
    """Sign-mixed values spanning subnormals to the format's range edge."""
    edge = 2.0 ** min(params.whole_bits - 2, 1021)
    specials = [
        0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022),
        1.0, -1.0, edge, -edge, edge / 3.0, -edge / 3.0,
    ]
    exps = rng.uniform(-60.0, min(params.whole_bits - 4, 60), n - len(specials))
    bulk = rng.choice([-1.0, 1.0], n - len(specials)) * np.exp2(exps)
    xs = np.concatenate([np.array(specials), bulk])
    return rng.permutation(xs)


def words(xs: np.ndarray, params: HPParams) -> tuple:
    """The reference: the paper's word-matrix engine."""
    return batch_sum_doubles(xs, params, method="words")


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
        from fractions import Fraction

        xs = adversarial_pool(hp_params, rng, 200)
        frac = hp_params.frac_bits
        for x in xs:
            scaled = fold_bins(scatter_one(float(x), hp_params))
            ref = Fraction(float(x)) * (1 << frac)
            ref = int(ref) if ref >= 0 else -int(-ref)  # trunc toward zero
            assert scaled == ref, repr(float(x))

    def test_scatter_double_rejects_nonfinite(self, hp_params):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConversionOverflowError):
                batch_sum_doubles(np.array([1.0, bad]), hp_params)
            engine = SmallAccumulator(hp_params)
            with pytest.raises(ConversionOverflowError):
                engine.absorb(np.array([bad, 2.0]))
            assert engine.total() == 0

    def test_single_value_matches_from_double(self, hp_params):
        for x in (1.5, -2.25, 0.0, -0.0, 2.0**-40, 5e-324):
            acc = HPAccumulator(hp_params)
            acc.add(x)
            assert acc.words == from_double(x, hp_params)
            engine = SmallAccumulator(hp_params)
            engine.absorb(np.array([x]))
            assert engine.to_words() == acc.words


class TestBitIdentity:
    def test_matches_words_engine(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng)
        assert batch_sum_doubles(xs, hp_params) == words(xs, hp_params)

    def test_matches_scalar_accumulator(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 500)
        acc = HPAccumulator(hp_params, check_overflow=False)
        for x in xs:
            acc.add(float(x))
        engine = SmallAccumulator(hp_params)
        engine.absorb(xs)
        assert engine.to_words() == acc.words

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
        """Partition into unequal PE slices, merge engines — the threads
        substrate's algebra — and compare against one-shot absorption."""
        xs = adversarial_pool(hp_params, rng, 900)
        one = SmallAccumulator(hp_params)
        one.absorb(xs)
        for pieces in (2, 3, 7):
            merged = SmallAccumulator(hp_params)
            for part in np.array_split(xs, pieces):
                local = SmallAccumulator(hp_params)
                local.absorb(part)
                merged.merge(local)
            assert merged.to_words() == one.to_words()

    def test_mass_cancellation_is_exact_zero(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 600)
        both = np.concatenate([xs, -xs])
        engine = SmallAccumulator(hp_params)
        engine.absorb(rng.permutation(both))
        assert engine.total() == 0
        assert engine.to_double() == 0.0

    def test_fold_trigger_preserves_identity(self):
        """Many small absorbs, each ending in a carry propagation, plus a
        tiny chunk: the deferred-carry bookkeeping must stay exact."""
        params = HPParams(2, 1)
        rng = np.random.default_rng(7)
        xs = rng.uniform(-1.0, 1.0, 4096)
        engine = SmallAccumulator(params, chunk=5)
        for i in range(0, len(xs), 17):
            engine.absorb(xs[i : i + 17])
        assert engine.to_words() == words(xs, params)


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

    def test_mixed_params_merge_rejected(self):
        a = SmallAccumulator(HPParams(2, 1))
        b = SmallAccumulator(HPParams(3, 2))
        with pytest.raises(MixedParameterError):
            a.merge(b)

    def test_bins_property_elementwise_mergeable(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 400)
        parts = []
        for half in np.array_split(xs, 2):
            e = SmallAccumulator(hp_params)
            e.absorb(half)
            parts.append(e)
        merged = tuple(x + y for x, y in zip(parts[0].chunks, parts[1].chunks))
        whole = SmallAccumulator(hp_params)
        whole.absorb(xs)
        assert fold_bins(merged) == whole.total()

    def test_reset(self, rng):
        engine = SmallAccumulator(P)
        engine.absorb(rng.uniform(-1, 1, 100))
        engine.reset()
        assert engine.total() == 0
        assert engine.count == 0

    def test_empty_absorb(self):
        engine = SmallAccumulator(P)
        engine.absorb(np.array([], dtype=np.float64))
        assert engine.to_words() == (0,) * P.n

    def test_accumulator_add_doubles_matches_extend(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 300)
        a = HPAccumulator(hp_params, check_overflow=False)
        a.extend(xs.tolist())
        b = HPAccumulator(hp_params, check_overflow=False)
        b.add_doubles(xs)
        assert a.words == b.words
        assert a.count == b.count
