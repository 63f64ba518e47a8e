"""Tests for the summation error-theory module, validated against the
actual Fig. 1 measurements."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments.datasets import zero_sum_set
from repro.summation.naive import naive_sum, pairwise_sum
from repro.summation.compensated import kahan_sum
from repro.summation.stats import residual_stats, shuffled_trials
from repro.summation.theory import (
    compensated_error_bound,
    condition_number,
    expected_stdev_fixed_sum,
    expected_stdev_random_walk,
    expected_stdev_zero_sum,
    pairwise_error_bound,
    recursive_error_bound,
)
from repro.util.rng import default_rng


class TestExpectedStdev:
    def test_matches_measured_fig1(self):
        """The Brownian-bridge model predicts the measured Fig. 1 sigma
        within a factor of 2 at every set size."""
        rng = default_rng(31)
        for n in (128, 512, 1024):
            values = zero_sum_set(n, rng)
            measured = residual_stats(
                shuffled_trials(values, naive_sum, 400, rng)
            ).stdev
            predicted = expected_stdev_zero_sum(n, 1e-3)
            assert predicted / 2 < measured < predicted * 2, (n, measured,
                                                              predicted)

    def test_linear_growth(self):
        """The model explains the paper's linear (not sqrt) growth."""
        s1 = expected_stdev_zero_sum(256, 1e-3)
        s4 = expected_stdev_zero_sum(1024, 1e-3)
        assert 3.0 < s4 / s1 < 5.0  # ~4x for 4x the summands

    def test_sqrt_model_contrast(self):
        """The fixed-sum (sqrt) model under-predicts the measured growth
        — the paper's point about the pairing bias."""
        f1 = expected_stdev_fixed_sum(256, 1e-3)
        f4 = expected_stdev_fixed_sum(1024, 1e-3)
        assert f4 / f1 == pytest.approx(2.0)

    def test_random_walk_also_linear(self):
        w1 = expected_stdev_random_walk(256, 1e-3)
        w4 = expected_stdev_random_walk(1024, 1e-3)
        assert w4 / w1 > 3.0

    def test_degenerate_sizes(self):
        assert expected_stdev_zero_sum(1, 1.0) == 0.0
        assert expected_stdev_random_walk(0, 1.0) == 0.0


class TestConditionNumber:
    def test_benign_sum(self):
        assert condition_number([1.0, 2.0, 3.0]) == 1.0

    def test_cancellation_raises_condition(self):
        assert condition_number([1.0, -0.999999]) > 1e5

    def test_exact_zero_sum_is_infinite(self):
        assert condition_number([0.5, -0.5]) == math.inf

    def test_all_zero(self):
        assert condition_number([0.0, 0.0]) == 1.0


class TestDeterministicBounds:
    @pytest.fixture
    def values(self, rng):
        return rng.uniform(-1.0, 1.0, 2000).tolist()

    def test_recursive_bound_holds(self, values):
        err = abs(naive_sum(values) - math.fsum(values))
        assert err <= recursive_error_bound(values)

    def test_pairwise_bound_holds_and_is_tighter(self, values):
        err = abs(pairwise_sum(values) - math.fsum(values))
        bound = pairwise_error_bound(values)
        assert err <= bound
        assert bound < recursive_error_bound(values)

    def test_compensated_bound_holds(self, values):
        err = abs(kahan_sum(values) - math.fsum(values))
        bound = compensated_error_bound(values)
        assert err <= bound
        assert bound < pairwise_error_bound(values)

    def test_bounds_zero_for_trivial_inputs(self):
        assert recursive_error_bound([1.0]) == 0.0
        assert pairwise_error_bound([]) == 0.0

    def test_gamma_divergence_guard(self):
        from repro.core.bounds import gamma

        with pytest.raises(ValueError):
            gamma(2**53)  # k*u >= 1: the bound is meaningless
