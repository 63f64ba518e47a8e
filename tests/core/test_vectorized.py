"""Unit tests for the vectorized NumPy batch engine."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.accumulator import HPAccumulator
from repro.core.params import HPParams
from repro.core.scalar import from_double, to_double
from repro.core.vectorized import (
    batch_from_double,
    batch_sum_doubles,
    batch_sum_words,
    batch_to_double,
    column_sums_int,
)
from repro.errors import AdditionOverflowError, ConversionOverflowError

P = HPParams(3, 2)


class TestBatchFromDouble:
    def test_matches_scalar(self, rng, hp_params):
        xs = rng.uniform(-100.0, 100.0, 300)
        words = batch_from_double(xs, hp_params)
        for i in range(len(xs)):
            assert tuple(int(w) for w in words[i]) == from_double(
                float(xs[i]), hp_params
            ), f"element {i}: {xs[i]!r}"

    def test_special_values(self):
        xs = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0**-128,
                       -(2.0**-128), 5e-324, -5e-324])
        words = batch_from_double(xs, P)
        for i, x in enumerate(xs):
            assert tuple(int(w) for w in words[i]) == from_double(float(x), P)

    def test_wide_exponent_range(self, rng):
        p = HPParams(8, 4)
        exps = rng.uniform(-223, 191, 200)
        xs = rng.choice([-1.0, 1.0], 200) * np.exp2(exps)
        words = batch_from_double(xs, p)
        for i, x in enumerate(xs):
            assert tuple(int(w) for w in words[i]) == from_double(float(x), p)

    def test_rejects_nan(self):
        with pytest.raises(ConversionOverflowError):
            batch_from_double(np.array([1.0, float("nan")]), P)

    def test_rejects_out_of_range_with_index(self):
        with pytest.raises(ConversionOverflowError, match="element 1"):
            batch_from_double(np.array([0.0, 1e30, 0.0]), HPParams(2, 1))

    def test_negative_boundary_admitted(self):
        p = HPParams(2, 1)
        words = batch_from_double(np.array([-(2.0**63)]), p)
        assert tuple(int(w) for w in words[0]) == (1 << 63, 0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            batch_from_double(np.zeros((2, 2)), P)

    def test_empty_input(self):
        words = batch_from_double(np.array([], dtype=np.float64), P)
        assert words.shape == (0, 3)


class TestBatchSum:
    def test_empty_sum_is_zero(self):
        assert batch_sum_doubles(np.array([], dtype=np.float64), P) == (0, 0, 0)

    def test_matches_scalar_accumulator(self, rng):
        xs = rng.uniform(-0.5, 0.5, 5000)
        acc = HPAccumulator(P)
        acc.extend(xs.tolist())
        assert batch_sum_doubles(xs, P) == acc.words

    def test_matches_fsum(self, rng):
        xs = rng.uniform(-1.0, 1.0, 4000)
        words = batch_sum_doubles(xs, P)
        assert to_double(words, P) == math.fsum(xs)

    def test_chunking_invariant(self, rng):
        xs = rng.uniform(-0.5, 0.5, 3001)
        assert (
            batch_sum_doubles(xs, P, chunk=100)
            == batch_sum_doubles(xs, P, chunk=7)
            == batch_sum_doubles(xs, P, chunk=10**6)
        )

    def test_permutation_invariant(self, rng):
        xs = rng.uniform(-0.5, 0.5, 2000)
        assert batch_sum_doubles(xs, P) == batch_sum_doubles(
            rng.permutation(xs), P
        )

    def test_overflow_detected(self):
        p = HPParams(2, 1)
        xs = np.full(4, 2.0**62)
        with pytest.raises(AdditionOverflowError):
            batch_sum_doubles(xs, p)

    def test_overflow_check_disabled_wraps(self):
        p = HPParams(2, 1)
        xs = np.full(2, 2.0**62)
        words = batch_sum_doubles(xs, p, check_overflow=False)
        assert to_double(words, p) == -(2.0**63)

    def test_transient_cancellation_accepted(self):
        """The true sum is in range even though some orders would wrap
        intermediates; the batch path accepts it (and the scalar path
        accepts it in the non-wrapping orders)."""
        p = HPParams(2, 1)
        xs = np.array([2.0**62, 2.0**62, -(2.0**62)])
        assert to_double(batch_sum_doubles(xs, p), p) == 2.0**62

    def test_bad_chunk(self, rng):
        with pytest.raises(ValueError):
            batch_sum_doubles(rng.uniform(size=4), P, chunk=0)


class TestBatchSumWords:
    def test_sums_rows(self, rng):
        xs = rng.uniform(-2.0, 2.0, 500)
        words = batch_from_double(xs, P)
        total = batch_sum_words(words, P)
        assert to_double(total, P) == math.fsum(xs)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            batch_sum_words(np.zeros((4, 2), dtype=np.uint64), P)

    def test_column_sums_exact(self):
        rows = np.array(
            [[(1 << 64) - 1, 5], [(1 << 64) - 1, 7]], dtype=np.uint64
        )
        total = column_sums_int(rows)
        assert total == 2 * (((1 << 64) - 1) << 64) + 12


class TestBatchToDouble:
    def test_roundtrip(self, rng):
        xs = rng.uniform(-10.0, 10.0, 100)
        words = batch_from_double(xs, P)
        back = batch_to_double(words, P)
        assert np.array_equal(back, xs)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            batch_to_double(np.zeros((2, 5), dtype=np.uint64), P)

    def test_vectorized_matches_scalar_oracle(self, rng, hp_params):
        """The NumPy decode against the scalar to_double loop, over rows
        biased toward rounding hazards: long runs of ones/zeros below
        the round bit (tie and sticky cases), negatives, and tiny
        magnitudes."""
        n = hp_params.n
        rows = rng.integers(0, 1 << 64, (1500, n), dtype=np.uint64)
        # bias: zero out low words to hit exact ties, saturate others to
        # hit all-ones sticky runs, clear high words for subnormal-ish
        # magnitudes
        rows[::3, n // 2:] = 0
        rows[1::3, n // 2:] = np.uint64(0xFFFFFFFFFFFFFFFF)
        rows[2::3, : max(n - 1, 1)] = 0
        signs = rng.integers(0, 2, 1500, dtype=np.uint64)
        rows[signs == 1, 0] |= np.uint64(1) << np.uint64(63)
        fast = batch_to_double(rows, hp_params)
        oracle = batch_to_double(rows, hp_params, method="scalar")
        assert np.array_equal(fast, oracle)

    def test_signed_zero_free(self):
        """Word rows equal to zero decode to +0.0, matching to_double."""
        rows = np.zeros((4, P.n), dtype=np.uint64)
        out = batch_to_double(rows, P)
        assert np.array_equal(out, np.zeros(4))
        assert not np.signbit(out).any()

    def test_negative_roundtrip(self, rng, hp_params):
        xs = -np.abs(rng.uniform(0.001, 50.0, 200))
        words = batch_from_double(xs, hp_params)
        assert np.array_equal(batch_to_double(words, hp_params), xs)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            batch_to_double(np.zeros((1, P.n), dtype=np.uint64), P,
                            method="fast")


class TestEngineParity:
    """batch_sum_doubles(method=...) is a pure engine switch."""

    def test_default_is_small(self, rng):
        import inspect

        xs = rng.uniform(-1.0, 1.0, 1000)
        default = inspect.signature(batch_sum_doubles).parameters["method"]
        assert default.default == "small"
        assert batch_sum_doubles(xs, P) == batch_sum_doubles(
            xs, P, method="small"
        )

    def test_words_engine_matches(self, rng, hp_params):
        xs = rng.choice([-1.0, 1.0], 2000) * np.exp2(
            rng.uniform(-40, 40, 2000)
        )
        assert batch_sum_doubles(xs, hp_params, method="words") == (
            batch_sum_doubles(xs, hp_params, method="small")
        )
