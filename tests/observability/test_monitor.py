"""DriftMonitor: shadow sums, ULP drift, permutation probes, thresholds.

The acceptance-criteria tests live here: the HP path must show zero ULP
error and zero order-invariance violations, while the float64 shadow
must show nonzero drift at n >= 1M summands.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.observability import metrics
from repro.observability import monitor as monitor_mod
from repro.observability.metrics import REGISTRY
from repro.observability.monitor import (
    MONITOR,
    DriftMonitor,
    monitoring,
)
from repro.parallel.drivers import make_method


@pytest.fixture
def armed():
    metrics.enable()
    mon = DriftMonitor(seed=7)
    mon.arm()
    return mon


def _spread(rng, n):
    """Exponent-spread workload: float64 naive summation visibly drifts."""
    return rng.uniform(-1.0, 1.0, n) * np.exp2(rng.uniform(-30, 30, n))


class TestGating:
    def test_disarmed_is_noop(self):
        metrics.enable()
        mon = DriftMonitor()
        assert mon.observe(np.ones(4), 4.0, make_method("double"), "s") is None
        assert len(REGISTRY) == 0

    def test_metrics_gate_off_is_noop(self):
        mon = DriftMonitor()
        mon.arm()
        assert mon.observe(np.ones(4), 4.0, make_method("double"), "s") is None
        assert len(REGISTRY) == 0

    def test_empty_batch_skipped(self, armed):
        assert armed.observe(
            np.empty(0), 0.0, make_method("double"), "s"
        ) is None

    def test_sample_period(self, armed):
        armed.sample_period = 3
        method = make_method("double")
        seen = [
            armed.observe(np.ones(2), 2.0, method, "s") is not None
            for _ in range(7)
        ]
        assert seen == [True, False, False, True, False, False, True]
        assert armed.summary()["calls"] == 7
        assert armed.summary()["samples"] == 3

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            DriftMonitor(sample_period=0)
        with pytest.raises(ValueError):
            DriftMonitor(sample_limit=0)

    def test_arm_rejects_unknown_setting(self):
        with pytest.raises(AttributeError, match="typo"):
            DriftMonitor().arm(typo=1)


class TestShadowSums:
    def test_cumsum_is_the_naive_left_to_right_sum(self):
        """The monitor's float64 shadow (np.cumsum last element) must be
        bit-identical to the repo's sequential naive_sum — the pinned
        equivalence the monitor's fast path relies on."""
        from repro.summation.naive import naive_sum

        rng = np.random.default_rng(11)
        xs = _spread(rng, 5000)
        assert float(np.cumsum(xs)[-1]) == naive_sum(xs)

    def test_hp_path_zero_ulp(self, armed):
        """Acceptance: the delivered exact value sits 0 ULP from the
        correctly-rounded reference."""
        rng = np.random.default_rng(3)
        xs = _spread(rng, 20_000)
        method = make_method("hp-small")
        value = method.finalize(method.local_reduce(xs))
        record = armed.observe(xs, value, method, "serial")
        assert record["value_ulp"] == 0
        assert REGISTRY.value("drift.last_ulp_error", path="hp-small") == 0
        hist = REGISTRY.get("drift.ulp_error", path="hp-small")
        # every observation landed in the le=0 bucket
        assert hist.cumulative_buckets()[0] == (0.0, hist.count)

    def test_float64_shadow_nonzero_at_one_million(self, armed):
        """Acceptance: at n >= 1M the float64 naive shadow has drifted."""
        rng = np.random.default_rng(20160523)
        xs = rng.uniform(-1.0, 1.0, 1 << 20)
        method = make_method("hp-small")
        value = method.finalize(method.local_reduce(xs))
        record = armed.observe(xs, value, method, "serial")
        assert record["n"] >= 1_000_000
        assert record["float64_ulp"] > 0
        assert record["value_ulp"] == 0  # HP stays exact at the same n
        hist = REGISTRY.get("drift.ulp_error", path="float64")
        assert hist.sum > 0

    def test_relative_error_histogram_published(self, armed):
        rng = np.random.default_rng(4)
        xs = _spread(rng, 4000)
        method = make_method("double")
        value = method.finalize(method.local_reduce(xs))
        armed.observe(xs, value, method, "serial")
        assert REGISTRY.get("drift.relative_error", path="float64").count == 1
        assert REGISTRY.get("drift.relative_error", path="double").count == 1

    def test_sample_limit_skips_delivered_comparison(self, armed):
        armed.sample_limit = 100
        xs = np.ones(500)
        record = armed.observe(xs, 500.0, make_method("double"), "serial")
        assert record["shadowed"] == 100
        assert "value_ulp" not in record
        # the float64 shadow of the prefix is still published
        assert "float64_ulp" in record

    def test_shadow_summand_accounting(self, armed):
        armed.permute_period = 0
        armed.observe(np.ones(64), 64.0, make_method("double"), "s")
        assert REGISTRY.value("drift.shadow_summands") == 64
        assert REGISTRY.value(
            "drift.samples", path="double", substrate="s"
        ) == 1

    def test_nan_traffic_does_not_crash(self, armed):
        xs = np.array([1.0, math.nan, 2.0])
        record = armed.observe(xs, math.nan, make_method("double"), "s")
        assert record is not None  # published into the overflow bucket


class TestPermutationProbe:
    def test_exact_method_is_order_invariant(self, armed):
        """Acceptance: zero order-invariance violations for the HP path,
        probe after probe."""
        armed.permute_period = 1
        rng = np.random.default_rng(9)
        method = make_method("hp-small")
        for _ in range(5):
            xs = _spread(rng, 3000)
            value = method.finalize(method.local_reduce(xs))
            record = armed.observe(xs, value, method, "serial")
            assert record["probe"]["invariant"] is True
        assert REGISTRY.value(
            "drift.permutation_probes", path="hp-small"
        ) == 5
        assert REGISTRY.value(
            "drift.order_invariance_violations", path="hp-small"
        ) == 0
        assert armed.summary()["order_invariance_violations"] == {}

    def test_float64_violates_as_positive_control(self, armed):
        """The double path *should* trip the probe — proving the probe
        can detect reordering at all."""
        armed.permute_period = 1
        rng = np.random.default_rng(10)
        xs = _spread(rng, 50_000)
        method = make_method("double")
        value = method.finalize(method.local_reduce(xs))
        record = armed.observe(xs, value, method, "serial")
        assert record["probe"]["invariant"] is False
        assert REGISTRY.value(
            "drift.order_invariance_violations", path="double"
        ) == 1
        assert armed.summary()["order_invariance_violations"] == {"double": 1}

    def test_probe_period_and_disable(self, armed):
        armed.permute_period = 2
        method = make_method("double")
        records = [
            armed.observe(np.ones(8), 8.0, method, "s") for _ in range(4)
        ]
        assert ["probe" in r for r in records] == [False, True, False, True]
        armed.permute_period = 0
        assert "probe" not in armed.observe(np.ones(8), 8.0, method, "s")

    def test_inexact_violation_does_not_breach(self, armed):
        """Reordering drift on the float64 path is expected behaviour,
        not an alarm."""
        events = []
        armed.on_breach.append(events.append)
        armed.permute_period = 1
        armed.ulp_threshold = None  # isolate the probe from value drift
        rng = np.random.default_rng(12)
        xs = _spread(rng, 50_000)
        method = make_method("double")
        value = method.finalize(method.local_reduce(xs))
        armed.observe(xs, value, method, "serial")
        assert events == []


class TestThresholds:
    def test_delivered_drift_breaches(self, armed):
        """An inexact delivered value past ulp_threshold=0 must fire the
        callback and count the breach."""
        events = []
        armed.on_breach.append(events.append)
        armed.permute_period = 0
        rng = np.random.default_rng(13)
        xs = _spread(rng, 50_000)
        method = make_method("double")
        value = method.finalize(method.local_reduce(xs))
        record = armed.observe(xs, value, method, "serial")
        assert record["value_ulp"] > 0
        (event,) = events
        assert event["kind"] == "accuracy_drift"
        assert event["path"] == "double"
        assert event["ulp"] == record["value_ulp"]
        assert REGISTRY.value(
            "drift.threshold_breaches", path="double", kind="accuracy_drift"
        ) == 1

    def test_exact_value_never_breaches(self, armed):
        events = []
        armed.on_breach.append(events.append)
        rng = np.random.default_rng(14)
        xs = _spread(rng, 10_000)
        method = make_method("hp-small")
        value = method.finalize(method.local_reduce(xs))
        armed.observe(xs, value, method, "serial")
        assert events == []

    def test_thresholds_disabled_with_none(self, armed):
        armed.ulp_threshold = None
        armed.rel_threshold = None
        armed.permute_period = 0
        rng = np.random.default_rng(15)
        xs = _spread(rng, 50_000)
        method = make_method("double")
        value = method.finalize(method.local_reduce(xs))
        armed.observe(xs, value, method, "serial")
        assert REGISTRY.get(
            "drift.threshold_breaches", path="double", kind="accuracy_drift"
        ) is None


class TestLifecycle:
    def test_summary_digest(self, armed):
        armed.permute_period = 0
        method = make_method("double")
        armed.observe(np.ones(4), 4.0, method, "s")
        digest = armed.summary()
        assert digest["calls"] == 1
        assert digest["samples"] == 1
        assert digest["worst_ulp_by_path"] == {"float64": 0, "double": 0}
        assert digest["sample_period"] == armed.sample_period

    def test_reset_clears_tallies(self, armed):
        armed.observe(np.ones(4), 4.0, make_method("double"), "s")
        armed.reset()
        digest = armed.summary()
        assert digest["calls"] == 0 and digest["samples"] == 0
        assert digest["worst_ulp_by_path"] == {}

    def test_module_enable_disable(self):
        metrics.enable()
        monitor_mod.enable(sample_period=5)
        try:
            assert MONITOR.armed and MONITOR.sample_period == 5
        finally:
            monitor_mod.disable()
        assert not MONITOR.armed

    def test_monitoring_context_restores_state(self):
        metrics.enable()
        MONITOR.sample_period = 2
        assert not MONITOR.armed
        with monitoring(sample_period=9) as mon:
            assert mon is MONITOR
            assert MONITOR.armed and MONITOR.sample_period == 9
        assert not MONITOR.armed
        assert MONITOR.sample_period == 2


class TestWiring:
    """The call sites: global_sum, threads, procs — each must observe
    exactly once per reduction."""

    def test_serial_global_sum_observes_once(self):
        from repro.parallel.drivers import global_sum

        metrics.enable()
        MONITOR.arm(permute_period=0)
        rng = np.random.default_rng(16)
        global_sum(rng.uniform(-1, 1, 2000), method="hp-small",
                   substrate="serial", pes=1)
        assert REGISTRY.value(
            "drift.samples", path="hp-small", substrate="serial"
        ) == 1

    def test_threads_substrate_observes_once(self):
        from repro.parallel.drivers import global_sum

        metrics.enable()
        MONITOR.arm(permute_period=0)
        rng = np.random.default_rng(17)
        global_sum(rng.uniform(-1, 1, 2000), method="hp-small",
                   substrate="threads", pes=2)
        assert REGISTRY.value(
            "drift.samples", path="hp-small", substrate="threads"
        ) == 1

    def test_procs_substrate_observes_once_with_zero_ulp(self):
        from repro.parallel.drivers import global_sum

        metrics.enable()
        MONITOR.arm(permute_period=0)
        rng = np.random.default_rng(18)
        global_sum(rng.uniform(-1, 1, 4000), method="hp-small",
                   substrate="procs", pes=2)
        assert REGISTRY.value(
            "drift.samples", path="hp-small", substrate="procs"
        ) == 1
        assert REGISTRY.value(
            "drift.last_ulp_error", path="hp-small"
        ) == 0

    def test_unarmed_global_sum_records_nothing(self):
        from repro.parallel.drivers import global_sum

        metrics.enable()
        rng = np.random.default_rng(19)
        global_sum(rng.uniform(-1, 1, 1000), method="double",
                   substrate="serial", pes=1)
        assert REGISTRY.get("drift.samples", path="double",
                            substrate="serial") is None
