"""Property tests pinning the small accumulator to the word path.

The small engine (:mod:`repro.core.smallacc`) keeps its whole state in
one int64 chunk array with in-place deferred carry propagation; every
assertion here is *bit identity* — with the words engine, the scalar
oracle (:func:`scatter_one`), and across merges — never closeness.  The
carry machinery gets targeted stress via a tiny ``propagate_limit`` and
the canonical-form sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import native
from repro.core.accumulator import HPAccumulator
from repro.core.params import TABLE1_CONFIGS, HPParams
from repro.core.smallacc import (
    PROPAGATE_LIMIT,
    SmallAccumulator,
    bin_count,
    bins_from_int,
    fold_bins,
    scatter_one,
    smallacc_total,
)
from repro.core.vectorized import batch_sum_doubles, words_scaled_total
from repro.errors import (
    AdditionOverflowError,
    ConversionOverflowError,
    MixedParameterError,
)
from repro.experiments.datasets import wide_range_uniform

from tests.core.test_superacc import adversarial_pool

P = HPParams(3, 2)


class TestDeferredCarryBound:
    def test_propagate_limit_leaves_headroom(self):
        # One unit bounds a chunk by 2**33; merging may add one more
        # residue unit past the limit, so the worst case is
        # (PROPAGATE_LIMIT + 1) units — still inside int64.
        assert (PROPAGATE_LIMIT + 1) * (1 << 33) < (1 << 63)

    def test_chunk_count_matches_bins(self, hp_params):
        assert bin_count(hp_params) >= 3

    def test_propagate_limit_validation(self):
        with pytest.raises(ValueError):
            SmallAccumulator(P, propagate_limit=0)
        with pytest.raises(ValueError):
            SmallAccumulator(P, propagate_limit=PROPAGATE_LIMIT + 1)

    def test_carry_boundary_at_deferred_limit(self, rng):
        """Force a propagation on every chunk boundary with the smallest
        legal limits and confirm exactness is untouched."""
        xs = adversarial_pool(P, rng, 512)
        reference = words_scaled_total(xs, P)
        for limit in (1, 2, 3, 7):
            engine = SmallAccumulator(
                P, chunk=5, backend="pure", propagate_limit=limit
            )
            for i in range(0, len(xs), 13):
                engine.absorb(xs[i : i + 13])
            assert engine.total() == reference

    def test_interleaved_propagate_calls_are_neutral(self, rng):
        xs = adversarial_pool(P, rng, 300)
        engine = SmallAccumulator(P, backend="pure")
        for i in range(0, len(xs), 50):
            engine.absorb(xs[i : i + 50])
            engine.propagate()
        assert engine.total() == words_scaled_total(xs, P)


class TestScalarOracle:
    def test_scatter_one_elementwise_sum_matches_engine(self, rng, hp_params):
        """Summing per-value chunk tuples elementwise reproduces the
        engine's canonical chunk state exactly — the regress anchor."""
        xs = adversarial_pool(hp_params, rng, 400)
        nchunks = bin_count(hp_params)
        acc = [0] * nchunks
        for x in xs:
            for i, limb in enumerate(scatter_one(float(x), hp_params)):
                acc[i] += limb
        engine = SmallAccumulator(hp_params, backend="pure")
        engine.absorb(xs)
        engine.propagate()
        assert engine.chunks == bins_from_int(fold_bins(acc), nchunks)
        assert fold_bins(acc) == engine.total()

    def test_scatter_one_rejects_nonfinite(self, hp_params):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConversionOverflowError):
                scatter_one(bad, hp_params)

    def test_scatter_one_denormals(self, hp_params):
        """The smallest subnormals must decompose exactly (they may
        truncate to zero when below the format's resolution)."""
        from fractions import Fraction

        frac = hp_params.frac_bits
        for x in (5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 2.0**-1040):
            got = fold_bins(scatter_one(x, hp_params))
            ref = Fraction(x) * (1 << frac)
            ref = int(ref) if ref >= 0 else -int(-ref)  # trunc toward zero
            assert got == ref, repr(x)

    def test_single_value_matches_scalar_accumulator(self, hp_params):
        for x in (1.5, -2.25, 0.0, -0.0, 2.0**-40, 5e-324):
            acc = HPAccumulator(hp_params)
            acc.add(x)
            engine = SmallAccumulator(hp_params, backend="pure")
            engine.absorb(np.array([x]))
            assert engine.to_words() == acc.words


def wide_summands(n: int, seed: int) -> np.ndarray:
    """Sign-mixed magnitudes 2**-30 .. 2**30: every bin of every Table-1
    format takes part."""
    return wide_range_uniform(n, np.random.default_rng(seed), (-30, 30))


class TestEngineGates:
    """The engine's release gates: small == words on every Table-1
    format, and small == the scalar accumulator under any summation
    order, on the compiled backend (``auto``, where one builds) and on
    pure NumPy."""

    @pytest.mark.parametrize("backend", ["auto", "pure"])
    @pytest.mark.parametrize(
        "config", TABLE1_CONFIGS, ids=lambda c: f"N{c[0]}k{c[1]}"
    )
    def test_small_matches_words_every_table1_format(self, config, backend):
        params = HPParams(*config)
        xs = wide_summands(1 << 17, 20160523)
        engine = SmallAccumulator(params, backend=backend)
        engine.absorb(xs)
        assert engine.to_words() == tuple(
            batch_sum_doubles(xs, params, method="words")
        )

    @pytest.mark.parametrize("backend", ["auto", "pure"])
    def test_small_matches_scalar_oracle_any_order(self, backend):
        """3 permutations x 2 chunk sizes below n, at the widest format,
        against one summand at a time through :class:`HPAccumulator`."""
        params = HPParams(8, 4)
        n = 1 << 17
        xs = wide_summands(n, 20160523)
        oracle = HPAccumulator(params, check_overflow=False)
        for x in xs:
            oracle.add(float(x))
        rng = np.random.default_rng(20160524)
        for _ in range(3):
            permuted = xs[rng.permutation(n)]
            for chunk in (1 << 12, 1 << 16):
                engine = SmallAccumulator(params, chunk=chunk, backend=backend)
                assert engine.backend == native.resolve(backend).name
                engine.absorb(permuted)
                assert engine.to_words() == oracle.words, (chunk, backend)


class TestBitIdentity:
    def test_matches_words_engine(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng)
        assert batch_sum_doubles(xs, hp_params, method="small") == (
            batch_sum_doubles(xs, hp_params, method="words")
        )

    def test_matches_words_total(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 900)
        assert smallacc_total(xs, hp_params, backend="pure") == (
            words_scaled_total(xs, hp_params)
        )

    def test_permutation_invariant(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 800)
        reference = smallacc_total(xs, hp_params)
        for _ in range(3):
            assert smallacc_total(rng.permutation(xs), hp_params) == reference

    def test_chunk_invariant(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 701)
        reference = smallacc_total(xs, hp_params)
        for chunk in (1, 3, 64, 1 << 20):
            assert smallacc_total(xs, hp_params, chunk=chunk) == reference

    def test_alternating_sign_cancellation_is_exact_zero(self, rng, hp_params):
        """x, -x interleaved (the adversarial ordering for float sums)
        must land on exactly zero chunks, not just a zero double."""
        xs = adversarial_pool(hp_params, rng, 600)
        paired = np.empty(2 * len(xs))
        paired[0::2] = xs
        paired[1::2] = -xs
        engine = SmallAccumulator(hp_params, backend="pure")
        engine.absorb(paired)
        assert engine.total() == 0
        assert engine.to_double() == 0.0
        engine.propagate()
        assert engine.chunks == (0,) * bin_count(hp_params)

    def test_nonfinite_rejection_parity_with_words(self, hp_params):
        """inf/NaN raise the same error type in both exact engines, and
        a partial batch leaves no residue."""
        for bad in (float("nan"), float("inf"), float("-inf")):
            xs = np.array([1.0, bad, 2.0])
            with pytest.raises(ConversionOverflowError):
                smallacc_total(xs, hp_params)
            with pytest.raises(ConversionOverflowError):
                words_scaled_total(xs, hp_params)
            engine = SmallAccumulator(hp_params, backend="pure")
            with pytest.raises(ConversionOverflowError):
                engine.absorb(xs)
            assert engine.total() == 0

    def test_out_of_range_element_rejected(self):
        with pytest.raises(ConversionOverflowError, match="element 1"):
            smallacc_total(np.array([0.0, 1e30, 0.0]), HPParams(2, 1))

    def test_range_overflow_raises(self):
        params = HPParams(2, 1)
        xs = np.full(4, 2.0**62)
        with pytest.raises(AdditionOverflowError):
            batch_sum_doubles(xs, params, method="small")


class TestMergeAlgebra:
    def test_merge_associativity(self, rng, hp_params):
        """(a + b) + c == a + (b + c) at the chunk level."""
        xs = adversarial_pool(hp_params, rng, 900)
        parts = np.array_split(xs, 3)

        def eng(data):
            e = SmallAccumulator(hp_params, backend="pure")
            e.absorb(data)
            return e

        left = eng(parts[0])
        left.merge(eng(parts[1]))
        left.merge(eng(parts[2]))

        bc = eng(parts[1])
        bc.merge(eng(parts[2]))
        right = eng(parts[0])
        right.merge(bc)

        left.propagate()
        right.propagate()
        assert left.chunks == right.chunks
        assert left.count == right.count == len(xs)

    def test_split_merge_matches_one_shot(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 800)
        one = SmallAccumulator(hp_params, backend="pure")
        one.absorb(xs)
        for pieces in (2, 5, 7):
            merged = SmallAccumulator(hp_params, backend="pure")
            for part in np.array_split(xs, pieces):
                local = SmallAccumulator(hp_params, backend="pure")
                local.absorb(part)
                merged.merge(local)
            assert merged.to_words() == one.to_words()

    def test_merge_chunks_roundtrip(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 300)
        src = SmallAccumulator(hp_params, backend="pure")
        src.absorb(xs)
        src.propagate()
        dst = SmallAccumulator(hp_params, backend="pure")
        dst.merge_chunks(src.chunks, count=src.count)
        assert dst.total() == src.total()
        assert dst.count == src.count

    def test_merge_chunks_rejects_wrong_arity(self):
        engine = SmallAccumulator(P)
        with pytest.raises(ValueError):
            engine.merge_chunks((1, 2, 3) * 99)

    def test_merge_identity_is_neutral(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 200)
        engine = SmallAccumulator(hp_params, backend="pure")
        engine.absorb(xs)
        before = engine.total()
        engine.merge(SmallAccumulator(hp_params, backend="pure"))
        assert engine.total() == before

    def test_mixed_params_merge_rejected(self):
        a = SmallAccumulator(HPParams(2, 1))
        b = SmallAccumulator(HPParams(3, 2))
        with pytest.raises(MixedParameterError):
            a.merge(b)

    def test_merge_propagates_at_unit_budget(self, rng):
        """A merge whose combined unit account exceeds the limit must
        propagate first, not overflow; exercised with a tiny limit."""
        xs = adversarial_pool(P, rng, 400)
        a = SmallAccumulator(P, backend="pure", propagate_limit=4)
        b = SmallAccumulator(P, backend="pure", propagate_limit=4)
        a.absorb(xs[:200])
        b.absorb(xs[200:])
        a.merge(b)
        assert a.total() == words_scaled_total(xs, P)


class TestCanonicalForm:
    def test_propagate_yields_bins_from_int(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 500)
        engine = SmallAccumulator(hp_params, backend="pure")
        engine.absorb(xs)
        engine.propagate()
        assert engine.chunks == bins_from_int(
            engine.total(), bin_count(hp_params)
        )

    def test_canonical_chunks_roundtrip(self, rng, hp_params):
        nchunks = bin_count(hp_params)
        for _ in range(20):
            value = int(rng.integers(-(2**40), 2**40))
            assert fold_bins(bins_from_int(value, nchunks)) == value

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

    def test_repr_names_backend(self):
        engine = SmallAccumulator(P, backend="pure")
        assert "backend='pure'" in repr(engine)
