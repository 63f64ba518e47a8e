"""Unit/property tests for exact HP dot products."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dot import (
    dot_params,
    hp_dot,
    hp_dot_words,
    split_products,
    two_product,
)
from repro.core.params import HPParams
from repro.errors import ParameterError

# Magnitudes whose products neither overflow nor fall into the
# subnormal range (where the Dekker EFT's exactness precondition fails).
moderate = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-100, max_value=1e12, allow_nan=False),
    st.floats(min_value=1e-100, max_value=1e12, allow_nan=False).map(
        lambda x: -x
    ),
)


class TestTwoProduct:
    @given(moderate, moderate)
    def test_error_free(self, a, b):
        p, e = two_product(a, b)
        assert Fraction(a) * Fraction(b) == Fraction(p) + Fraction(e)

    def test_known_case(self):
        p, e = two_product(0.1, 0.1)
        assert p == 0.1 * 0.1
        assert e != 0.0  # 0.01 is not exactly representable

    def test_exact_products_have_zero_error(self):
        assert two_product(0.5, 0.25) == (0.125, 0.0)
        assert two_product(3.0, 4.0) == (12.0, 0.0)


class TestSplitProducts:
    def test_matches_scalar(self, rng):
        xs = rng.uniform(-100, 100, 200)
        ys = rng.uniform(-100, 100, 200)
        p, e = split_products(xs, ys)
        for i in range(200):
            sp, se = two_product(float(xs[i]), float(ys[i]))
            assert (p[i], e[i]) == (sp, se)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            split_products(np.zeros(3), np.zeros(4))


class TestDotParams:
    def test_sufficient_for_unit_vectors(self):
        params = dot_params(1.0, 1.0, 1000)
        assert params.max_value > 1000.0
        assert params.smallest < 2.0**-210  # covers error-term tails

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            dot_params(0.0, 1.0, 10)
        with pytest.raises(ParameterError):
            dot_params(1.0, 1.0, 0)

    def test_tiny_magnitudes_do_not_underflow(self):
        params = dot_params(1e-300, 1e-300, 10)
        assert params.k >= 1


class TestHpDot:
    def test_exact_against_rationals(self, rng):
        xs = rng.uniform(-1.0, 1.0, 500)
        ys = rng.uniform(-1.0, 1.0, 500)
        exact = sum(
            (Fraction(a) * Fraction(b) for a, b in zip(xs, ys)), Fraction(0)
        )
        assert hp_dot(xs, ys) == float(exact)

    def test_order_invariant(self, rng):
        xs = rng.uniform(-1.0, 1.0, 300)
        ys = rng.uniform(-1.0, 1.0, 300)
        params = dot_params(1.0, 1.0, 300)
        words = hp_dot_words(xs, ys, params)
        perm = rng.permutation(300)
        assert hp_dot_words(xs[perm], ys[perm], params) == words

    def test_chunking_invariant(self, rng):
        xs = rng.uniform(-1.0, 1.0, 257)
        ys = rng.uniform(-1.0, 1.0, 257)
        params = dot_params(1.0, 1.0, 257)
        assert hp_dot_words(xs, ys, params, chunk=16) == hp_dot_words(
            xs, ys, params, chunk=10**6
        )

    def test_cancellation_exact(self):
        # x·y + (-x)·y = 0 exactly, where naive FP dot may not be.
        xs = np.array([0.1, -0.1, 0.3, -0.3])
        ys = np.array([0.7, 0.7, 0.9, 0.9])
        assert hp_dot(xs, ys) == 0.0

    def test_ill_conditioned_dot(self):
        """A classic stress case: naive dot loses everything."""
        xs = np.array([1e10, 1.0, -1e10])
        ys = np.array([1e10, 1.0, 1e10])
        assert hp_dot(xs, ys) == 1.0
        assert float(np.dot(xs, ys)) != 1.0 or True  # numpy may get lucky

    def test_empty(self):
        assert hp_dot(np.array([]), np.array([])) == 0.0

    def test_shape_check(self, rng):
        with pytest.raises(ValueError):
            hp_dot_words(rng.uniform(size=3), rng.uniform(size=4),
                         HPParams(4, 2))

    def test_every_exact_engine_gives_the_same_words(self, rng):
        xs = rng.uniform(-1.0, 1.0, 301)
        ys = rng.uniform(-1.0, 1.0, 301)
        params = dot_params(1.0, 1.0, 301)
        small = hp_dot_words(xs, ys, params, chunk=64)
        assert hp_dot_words(xs, ys, params, chunk=64, method="words") == small

    @pytest.mark.parametrize("method", ["exact", "comp-kahan"])
    def test_unknown_or_inexact_method_rejected(self, rng, method):
        # Checked before the first piece, so empty input raises too.
        for n in (0, 4):
            with pytest.raises(ValueError):
                hp_dot_words(rng.uniform(size=n), rng.uniform(size=n),
                             HPParams(4, 2), method=method)

    @given(st.lists(st.tuples(moderate, moderate), min_size=0, max_size=30))
    @settings(max_examples=40)
    def test_property_exact(self, pairs):
        xs = np.array([p[0] for p in pairs], dtype=np.float64)
        ys = np.array([p[1] for p in pairs], dtype=np.float64)
        exact = sum(
            (Fraction(float(a)) * Fraction(float(b)) for a, b in zip(xs, ys)),
            Fraction(0),
        )
        assert hp_dot(xs, ys) == float(exact)
