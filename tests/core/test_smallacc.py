"""Property tests pinning the small engine's pure-NumPy path to the word path.

:func:`repro.core.smallacc.smallacc_total` is the whole small engine:
one function from an array of doubles to the exact signed scaled
integer.  These cases run its pure branch (``backend="pure"``: one
validation, then each piece scattered into zeroed chunks and folded);
``test_superacc.py`` runs the same properties through the defaults,
which resolve to the compiled backend where one builds, and
:class:`TestEngineGates` runs both.  Every assertion is *bit identity*
— with the words engine, the scalar accumulator and the scalar oracle
(:func:`scatter_one`) — never closeness.  The pure path's piece cap
gets targeted stress via a monkeypatched :data:`PROPAGATE_LIMIT`.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.core import smallacc
from repro.core.accumulator import HPAccumulator
from repro.core.params import TABLE1_CONFIGS, HPParams
from repro.core.scalar import to_double
from repro.core.smallacc import (
    PROPAGATE_LIMIT,
    bin_count,
    bins_from_int,
    fold_bins,
    scatter_one,
    smallacc_total,
)
from repro.core.vectorized import (
    _finalize_total,
    batch_sum_doubles,
    words_scaled_total,
)
from repro.errors import AdditionOverflowError, ConversionOverflowError
from repro.experiments.datasets import wide_range_uniform

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


def small_words(xs, params, backend="pure", chunk=1 << 20, check_overflow=True):
    return _finalize_total(
        smallacc_total(xs, params, chunk, backend), params, check_overflow
    )


def trunc_scaled(x: float, params: HPParams) -> int:
    """``trunc(x * 2**frac_bits)``, the HP conversion rule, exactly."""
    ref = Fraction(x) * (1 << params.frac_bits)
    return int(ref) if ref >= 0 else -int(-ref)


class TestDeferredCarryBound:
    def test_propagate_limit_leaves_headroom(self):
        # The pure path scatters at most PROPAGATE_LIMIT summands into a
        # zeroed array, each adding one addend below 2**33 to a chunk.
        assert PROPAGATE_LIMIT * (1 << 33) < (1 << 63)

    def test_chunk_count_matches_bins(self, hp_params):
        assert bin_count(hp_params) >= 3

    def test_carry_boundary_at_deferred_limit(self, rng, monkeypatch):
        """A piece cap of a few summands splits the pure scatter into
        many zeroed arrays; the total must not move."""
        xs = adversarial_pool(P, rng, 512)
        reference = words_scaled_total(xs, P)
        for limit in (1, 2, 3, 7):
            monkeypatch.setattr(smallacc, "PROPAGATE_LIMIT", limit)
            assert smallacc_total(xs, P, backend="pure") == reference

    def test_piece_boundaries_match_one_shot(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 300)
        reference = smallacc_total(xs, hp_params, backend="pure")
        for chunk in (1, 7):
            assert smallacc_total(xs, hp_params, chunk, "pure") == reference

    def test_nonpositive_chunk_rejected(self):
        for chunk in (0, -5):
            with pytest.raises(ValueError, match="chunk"):
                smallacc_total(np.ones(4), P, chunk, "pure")


class TestScalarOracle:
    def test_scatter_one_elementwise_sum_matches_engine(self, rng, hp_params):
        """Summing per-value chunk tuples elementwise folds to the
        engine's total exactly — the regress anchor."""
        xs = adversarial_pool(hp_params, rng, 400)
        acc = [0] * bin_count(hp_params)
        for x in xs:
            for i, limb in enumerate(scatter_one(float(x), hp_params)):
                acc[i] += limb
        assert fold_bins(acc) == smallacc_total(xs, hp_params, backend="pure")

    def test_scatter_one_rejects_nonfinite(self, hp_params):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConversionOverflowError):
                scatter_one(bad, hp_params)

    def test_scatter_one_denormals(self, hp_params):
        """The smallest subnormals must decompose exactly (they may
        truncate to zero when below the format's resolution)."""
        for x in (5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 2.0**-1040):
            got = fold_bins(scatter_one(x, hp_params))
            assert got == trunc_scaled(x, hp_params), repr(x)

    def test_single_value_matches_scalar_accumulator(self, hp_params):
        for x in (1.5, -2.25, 0.0, -0.0, 2.0**-40, 5e-324):
            acc = HPAccumulator(hp_params)
            acc.add(x)
            assert small_words(np.array([x]), hp_params) == acc.words


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
        assert small_words(xs, params, backend) == words(xs, params)

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
                got = small_words(permuted, params, backend, chunk)
                assert got == oracle.words, (chunk, backend)


class TestBitIdentity:
    def test_matches_words_engine(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng)
        assert small_words(xs, hp_params) == words(xs, hp_params)

    def test_matches_words_total(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 900)
        assert smallacc_total(xs, hp_params, backend="pure") == (
            words_scaled_total(xs, hp_params)
        )

    def test_permutation_invariant(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 800)
        reference = words_scaled_total(xs, hp_params)
        for _ in range(3):
            permuted = rng.permutation(xs)
            assert smallacc_total(permuted, hp_params, backend="pure") == (
                reference
            )

    def test_chunk_invariant(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 701)
        reference = words_scaled_total(xs, hp_params)
        for chunk in (1, 3, 64, 1 << 20):
            assert smallacc_total(xs, hp_params, chunk, "pure") == reference

    def test_alternating_sign_cancellation_is_exact_zero(self, rng, hp_params):
        """x, -x interleaved (the adversarial ordering for float sums)
        and shuffled must cancel to exactly zero, not just a zero
        double."""
        xs = adversarial_pool(hp_params, rng, 600)
        paired = np.empty(2 * len(xs))
        paired[0::2] = xs
        paired[1::2] = -xs
        for order in (paired, rng.permutation(paired)):
            assert smallacc_total(order, hp_params, backend="pure") == 0
        assert to_double(small_words(paired, hp_params), hp_params) == 0.0

    def test_nonfinite_rejection_parity_with_words(self, hp_params):
        """NaN and ±inf raise the same error type in both exact engines,
        wherever they sit."""
        for bad in (float("nan"), float("inf"), float("-inf")):
            for xs in (np.array([1.0, bad, 2.0]), np.array([bad, 2.0])):
                with pytest.raises(ConversionOverflowError):
                    smallacc_total(xs, hp_params, backend="pure")
                with pytest.raises(ConversionOverflowError):
                    words_scaled_total(xs, hp_params)

    def test_out_of_range_element_rejected(self):
        xs = np.array([0.0, 1e30, 0.0])
        with pytest.raises(ConversionOverflowError, match="element 1"):
            smallacc_total(xs, HPParams(2, 1), backend="pure")

    def test_range_overflow_raises(self):
        with pytest.raises(AdditionOverflowError):
            small_words(np.full(4, 2.0**62), HPParams(2, 1))

    def test_overflow_check_disabled_wraps_identically(self):
        params = HPParams(2, 1)
        xs = np.full(2, 2.0**62)
        assert small_words(xs, params, check_overflow=False) == (
            batch_sum_doubles(xs, params, check_overflow=False, method="words")
        )


class TestMergeAlgebra:
    def test_split_merge_matches_one_shot(self, rng, hp_params):
        """Unequal PE slices' totals, added as integers (the ``hp-small``
        adapter's combine), give the one-shot total."""
        xs = adversarial_pool(hp_params, rng, 800)
        one = smallacc_total(xs, hp_params, backend="pure")
        for pieces in (2, 5, 7):
            merged = sum(
                smallacc_total(part, hp_params, backend="pure")
                for part in np.array_split(xs, pieces)
            )
            assert merged == one


class TestCanonicalForm:
    def test_canonical_chunks_roundtrip(self, rng, hp_params):
        nchunks = bin_count(hp_params)
        for _ in range(20):
            value = int(rng.integers(-(2**40), 2**40))
            assert fold_bins(bins_from_int(value, nchunks)) == value

    def test_empty_absorb(self):
        empty = np.array([], dtype=np.float64)
        assert smallacc_total(empty, P, backend="pure") == 0
        assert small_words(empty, P) == (0,) * P.n
