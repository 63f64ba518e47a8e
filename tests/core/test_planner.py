"""Planner contracts (:mod:`repro.core.planner`).

The two acceptance properties of the PR pinned as unit tests: a
tolerant target (1e-12 at 4M summands) routes onto a cheap compensated
tier, and ``target = 0`` *provably* selects an exact HP engine whose
words are bit-identical across summand permutations.  Plus the
escalation protocol (breach -> distrust -> reroute -> reset) and
conformance of the decision under both native backends.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import bounds, native, planner
from repro.core import engines
from repro.perfmodel.costs import PLANNER_UNIT_COSTS, planner_unit_costs

N_ACCEPT = 4 * 1024 * 1024


@pytest.fixture(autouse=True)
def clean_escalations():
    planner.reset_escalations()
    yield
    planner.reset_escalations()


class TestPlan:
    def test_tolerant_target_picks_compensated_tier(self):
        decision = planner.plan(N_ACCEPT, 1e-12)
        spec = engines.get(decision.engine)
        assert not spec.exact
        assert decision.engine.startswith("comp-")
        assert decision.bound.coefficient <= 1e-12
        assert not decision.exact

    def test_zero_target_provably_exact(self):
        decision = planner.plan(N_ACCEPT, 0.0)
        assert decision.exact
        assert engines.get(decision.engine).exact
        assert decision.bound.coefficient == 0.0

    def test_sub_roundoff_target_forces_exact(self):
        # No inexact tier can promise below its own coefficient.
        decision = planner.plan(N_ACCEPT, 1e-16)
        assert decision.exact

    def test_cheapest_eligible_wins(self):
        decision = planner.plan(N_ACCEPT, 1e-12)
        eligible = [c for c in decision.candidates if c.eligible]
        assert min(eligible, key=lambda c: c.predicted_cost).chosen

    def test_candidates_cover_all_costed_engines(self):
        decision = planner.plan(1000, 1e-12)
        names = {c.engine for c in decision.candidates}
        assert names == set(PLANNER_UNIT_COSTS)

    def test_explain_mentions_choice(self):
        decision = planner.plan(1000, 1e-12)
        text = decision.explain()
        assert "CHOSEN" in text
        assert decision.engine in text

    def test_invalid_targets_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            planner.plan(10, -1e-9)
        with pytest.raises(ValueError, match="non-negative"):
            planner.plan(10, float("nan"))
        with pytest.raises(ValueError, match="n must be"):
            planner.plan(-1, 1e-12)

    def test_costs_override_changes_ranking(self):
        costs = dict(PLANNER_UNIT_COSTS)
        costs["comp-pairwise"] = 1e9  # make the usual winner exorbitant
        decision = planner.plan(N_ACCEPT, 1e-12, costs=costs)
        assert decision.engine != "comp-pairwise"

    def test_measured_refit_scales_exact_tiers(self):
        # A calibration where hp-small is only 2x the double baseline
        # shrinks the exact engines' unit costs proportionally.
        costs = planner_unit_costs({"double": 1.0, "hp-small": 2.0})
        assert costs["small"] == pytest.approx(2.0)
        assert costs["words"] == pytest.approx(
            2.0 * PLANNER_UNIT_COSTS["words"] / PLANNER_UNIT_COSTS["small"]
        )
        # Inexact tiers are not refit by the HP calibration pair.
        assert costs["comp-pairwise"] == PLANNER_UNIT_COSTS["comp-pairwise"]


class TestEscalation:
    def test_breach_distrusts_engine_and_reroutes(self):
        first = planner.plan(N_ACCEPT, 1e-12)
        planner.record_breach(first.engine)
        assert planner.escalated_engines() == {first.engine: 1}
        second = planner.plan(N_ACCEPT, 1e-12)
        assert second.engine != first.engine
        assert first.engine in second.escalated_from
        row = {c.engine: c for c in second.candidates}[first.engine]
        assert row.escalated and not row.eligible
        assert row.verdict == "escalated away"

    def test_escalating_everything_falls_back_to_exact(self):
        for name in ("comp-pairwise", "comp-kahan", "comp-neumaier"):
            planner.record_breach(name)
        decision = planner.plan(N_ACCEPT, 1e-12)
        assert decision.exact

    def test_exact_engines_never_escalated(self):
        planner.record_breach("small")
        assert planner.escalated_engines() == {}
        assert planner.plan(10, 0.0).engine  # still servable

    def test_reset_restores_trust(self):
        planner.record_breach("comp-pairwise")
        planner.reset_escalations()
        assert planner.escalated_engines() == {}
        assert planner.plan(N_ACCEPT, 1e-12).engine == "comp-pairwise"

    def test_alias_breach_counts_canonical(self):
        planner.record_breach("pairwise")  # registry alias
        assert planner.escalated_engines() == {"comp-pairwise": 1}


class TestPlannedSum:
    def make(self, n: int = 100_000, seed: int = 5) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.standard_normal(n) * np.exp(
            rng.uniform(-25, 25, size=n)
        )

    def test_inexact_within_promised_bound(self):
        xs = self.make()
        result = planner.planned_sum(xs, 1e-12)
        assert not result.plan.exact
        assert result.words is None and result.params is None
        mass = math.fsum(np.abs(xs))
        assert abs(result.value - math.fsum(xs)) <= (
            result.plan.absolute_bound(mass)
        )

    def test_exact_bit_identical_across_permutations(self):
        xs = self.make(50_000)
        rng = np.random.default_rng(6)
        results = []
        for _ in range(3):
            r = planner.planned_sum(xs, 0.0)
            assert r.plan.exact and r.words is not None
            results.append(r)
            xs = rng.permutation(xs)
        # Same suggested params, same words, same value — order-invariant.
        assert len({r.params for r in results}) == 1
        assert len({r.words for r in results}) == 1
        assert len({r.value for r in results}) == 1

    def test_exact_matches_scalar_oracle(self):
        from repro.core.accumulator import HPAccumulator

        xs = self.make(3_000, seed=7)
        r = planner.planned_sum(xs, 0.0)
        acc = HPAccumulator(r.params)
        for x in xs:
            acc.add(float(x))
        assert tuple(acc.words) == r.words

    def test_all_zero_batch(self):
        r = planner.planned_sum(np.zeros(100), 0.0)
        assert r.value == 0.0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="1-D"):
            planner.planned_sum(np.zeros((2, 2)), 1e-12)


class TestBackendConformance:
    """The decision and its bound hold under compiled AND pure stacks."""

    @pytest.fixture()
    def pure_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PURE", "1")
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        native._reset_for_tests()
        yield
        native._reset_for_tests()

    def test_plan_identical_under_pure(self, pure_env):
        # Bounds are backend-independent by design: the compensated
        # coefficient covers both the lane-vectorized and the compiled
        # scalar kernel, so the decision cannot flip with the backend.
        pure = planner.plan(N_ACCEPT, 1e-12)
        assert pure.engine == "comp-pairwise"
        assert [c.engine for c in pure.candidates] == [
            c.engine for c in planner.plan(N_ACCEPT, 1e-12).candidates
        ]

    def test_planned_sum_within_bound_under_pure(self, pure_env):
        rng = np.random.default_rng(8)
        xs = rng.standard_normal(80_000) * np.exp(
            rng.uniform(-20, 20, size=80_000)
        )
        for target in (1e-12, 2.5e-15, 0.0):
            result = planner.planned_sum(xs, target)
            mass = math.fsum(np.abs(xs))
            err = abs(result.value - math.fsum(xs))
            if result.plan.exact:
                assert err == 0.0
            else:
                assert err <= result.plan.absolute_bound(mass)
