"""Tests for the calibration audit."""

from __future__ import annotations

from repro.perfmodel.calibration import (
    Anchor,
    MeasuredAnchor,
    calibration_anchors,
    measured_anchors,
    render_calibration,
    render_measured,
)


class TestAnchors:
    def test_all_within_paper_bands(self):
        for anchor in calibration_anchors():
            assert anchor.within_band, (
                f"{anchor.name}: model {anchor.model_value} outside "
                f"[{anchor.paper_low}, {anchor.paper_high}]"
            )

    def test_anchor_count_is_small(self):
        """The model's honesty budget: a handful of fitted anchors,
        everything else predicted."""
        assert len(calibration_anchors()) <= 8

    def test_band_logic(self):
        assert Anchor("x", 0.0, 1.0, 0.5).within_band
        assert not Anchor("x", 0.0, 1.0, 1.5).within_band

    def test_render(self):
        text = render_calibration()
        assert "X5650" in text and "K20m" in text
        assert "OUT OF BAND" not in text


class TestMeasuredAnchors:
    MEASURED = {"double": 1e-3, "hp-small": 0.35, "hallberg": 0.4}

    def test_residual_is_measured_over_model(self):
        a = MeasuredAnchor("x", model_value=2.0, measured_value=3.0)
        assert a.residual == 1.5
        assert MeasuredAnchor("x", 0.0, 1.0).residual == float("inf")

    def test_builds_one_anchor_per_measured_quantity(self):
        anchors = measured_anchors(self.MEASURED, n=1 << 20)
        assert len(anchors) == 3
        names = [a.name for a in anchors]
        assert any("double" in n for n in names)
        assert any("small / double" in n for n in names)
        assert any("Hallberg" in n for n in names)

    def test_ratio_anchors_cancel_the_host_clock(self):
        # Same machine measured twice as fast: the absolute anchor's
        # measurement halves, but the ratio anchors must not move.
        fast = {k: v / 2 for k, v in self.MEASURED.items()}
        slow = measured_anchors(self.MEASURED, n=1 << 20)
        quick = measured_anchors(fast, n=1 << 20)
        assert quick[1].measured_value == slow[1].measured_value
        assert quick[2].measured_value == slow[2].measured_value
        assert quick[0].measured_value == slow[0].measured_value / 2

    def test_partial_measurements_build_partial_tables(self):
        anchors = measured_anchors({"double": 1e-3}, n=1 << 20)
        assert len(anchors) == 1
        assert measured_anchors({}, n=1 << 20) == []

    def test_render_measured(self):
        text = render_measured(self.MEASURED, n=1 << 20)
        assert "measured/model" in text
        assert "X5650" in text
        lines = [ln for ln in text.splitlines() if ln.strip()]
        assert len(lines) >= 5  # header + table head + rule + 3 rows
