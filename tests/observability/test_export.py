"""Prometheus text exposition: sanitization, escaping, determinism,
cumulative histograms, and the round-trip through our own parser."""

from __future__ import annotations

import math

import pytest

from repro.observability import metrics
from repro.observability.export import (
    HELP_TEXT,
    escape_label_value,
    parse_prometheus_text,
    prometheus_text,
    sanitize_metric_name,
)
from repro.observability.export import _unescape_label_value
from repro.observability.metrics import REGISTRY, MetricsRegistry


class TestSanitizeMetricName:
    def test_dots_become_underscores(self):
        assert sanitize_metric_name("hp.carry_words") == "hp_carry_words"

    def test_already_valid_unchanged(self):
        assert sanitize_metric_name("global_sum_calls") == "global_sum_calls"
        assert sanitize_metric_name("a:b") == "a:b"  # colons are legal

    def test_leading_digit_gets_underscore(self):
        assert sanitize_metric_name("9lives") == "_9lives"

    def test_arbitrary_punctuation(self):
        assert sanitize_metric_name("drift.ulp-error/2") == "drift_ulp_error_2"

    def test_empty_name(self):
        assert sanitize_metric_name("") == "_"


class TestLabelEscaping:
    @pytest.mark.parametrize(
        "raw,escaped",
        [
            ('say "hi"', r"say \"hi\""),
            ("a\nb", r"a\nb"),
            ("back\\slash", r"back\\slash"),
            ("\\\n\"", r'\\\n\"'),
            ("plain", "plain"),
        ],
    )
    def test_escape(self, raw, escaped):
        assert escape_label_value(raw) == escaped

    @pytest.mark.parametrize(
        "raw", ['say "hi"', "a\nb", "back\\slash", "\\\n\"", "plain", ""]
    )
    def test_escape_round_trip(self, raw):
        assert _unescape_label_value(escape_label_value(raw)) == raw

    def test_unknown_escape_kept_verbatim(self):
        assert _unescape_label_value(r"a\tb") == r"a\tb"


class TestPrometheusText:
    def test_empty_registry_empty_text(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("global_sum.calls", substrate="serial").inc(3)
        reg.gauge("drift.last_ulp_error", path="hp").set(0)
        text = prometheus_text(reg)
        assert "# TYPE global_sum_calls counter" in text
        assert 'global_sum_calls{substrate="serial"} 3' in text
        assert "# TYPE drift_last_ulp_error gauge" in text
        assert 'drift_last_ulp_error{path="hp"} 0' in text

    def test_help_catalog_used_for_known_families(self):
        reg = MetricsRegistry()
        reg.counter("hp.carry_words").inc()
        text = prometheus_text(reg)
        assert f"# HELP hp_carry_words {HELP_TEXT['hp_carry_words']}" in text

    def test_unknown_family_gets_generic_help(self):
        reg = MetricsRegistry()
        reg.counter("made.up").inc()
        assert "# HELP made_up repro metric made.up (counter)." in \
            prometheus_text(reg)

    def test_label_ordering_deterministic(self):
        """Registration order of labels must not leak into the wire
        format: same series, two call orders, byte-identical scrapes."""
        a = MetricsRegistry()
        a.counter("m", zeta="1", alpha="2").inc(5)
        b = MetricsRegistry()
        b.counter("m", alpha="2", zeta="1").inc(5)
        assert prometheus_text(a) == prometheus_text(b)
        assert 'm{alpha="2",zeta="1"} 5' in prometheus_text(a)

    def test_scrapes_of_same_state_are_byte_identical(self):
        reg = MetricsRegistry()
        for substrate in ("threads", "procs", "serial"):
            reg.counter("global_sum.calls", substrate=substrate).inc()
        reg.histogram("h", buckets=(1, 2)).observe(1.5)
        assert prometheus_text(reg) == prometheus_text(reg)

    def test_families_sorted_by_sanitized_name(self):
        reg = MetricsRegistry()
        reg.counter("zz.last").inc()
        reg.counter("aa.first").inc()
        text = prometheus_text(reg)
        assert text.index("aa_first") < text.index("zz_last")

    def test_label_values_escaped_on_the_wire(self):
        reg = MetricsRegistry()
        reg.counter("m", path='quo"te\nnew\\line').inc()
        text = prometheus_text(reg)
        assert r'm{path="quo\"te\nnew\\line"} 1' in text
        # The raw control characters never appear inside the braces.
        sample = [l for l in text.splitlines() if l.startswith("m{")][0]
        assert "\n" not in sample

    def test_histogram_cumulative_with_inf_terminator(self):
        reg = MetricsRegistry()
        h = reg.histogram("drift.ulp_error", buckets=(1, 10, 100), path="f")
        for v in (0, 5, 5, 50, 1e6):
            h.observe(v)
        text = prometheus_text(reg)
        assert 'drift_ulp_error_bucket{path="f",le="1"} 1' in text
        assert 'drift_ulp_error_bucket{path="f",le="10"} 3' in text
        assert 'drift_ulp_error_bucket{path="f",le="100"} 4' in text
        assert 'drift_ulp_error_bucket{path="f",le="+Inf"} 5' in text
        assert 'drift_ulp_error_count{path="f"} 5' in text
        assert "# TYPE drift_ulp_error histogram" in text

    def test_inf_bucket_count_equals_count_sample(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1,))
        for v in (0.5, 2.0, 3.0):
            h.observe(v)
        families = parse_prometheus_text(prometheus_text(reg))
        samples = families["h"]["samples"]
        inf_bucket = next(
            v for n, labels, v in samples
            if n == "h_bucket" and labels["le"] == "+Inf"
        )
        count = next(v for n, _, v in samples if n == "h_count")
        assert inf_bucket == count == 3

    def test_histogram_ladder_monotone(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1, 2, 5, 10))
        for v in (0, 1, 3, 7, 100, 2, 2):
            h.observe(v)
        ladder = [
            v for n, _, v in
            parse_prometheus_text(prometheus_text(reg))["h"]["samples"]
            if n == "h_bucket"
        ]
        assert ladder == sorted(ladder)

    def test_integral_floats_render_short(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(4.0)
        assert "g 4\n" in prometheus_text(reg)

    def test_nonintegral_value_round_trips(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(0.1)
        families = parse_prometheus_text(prometheus_text(reg))
        assert families["g"]["samples"][0][2] == 0.1


class TestParsePrometheusText:
    def test_round_trip_full_registry(self):
        reg = MetricsRegistry()
        reg.counter("global_sum.calls", substrate="procs").inc(7)
        reg.counter("global_sum.calls", substrate="serial").inc(2)
        reg.gauge("drift.last_ulp_error", path="hp-small").set(0)
        h = reg.histogram(
            "drift.ulp_error", buckets=(0, 1, 100), path='we"ird\npath'
        )
        for v in (0, 0, 40, 1e9):
            h.observe(v)
        families = parse_prometheus_text(prometheus_text(reg))

        calls = families["global_sum_calls"]
        assert calls["type"] == "counter"
        assert (
            "global_sum_calls", {"substrate": "procs"}, 7.0
        ) in calls["samples"]
        assert (
            "global_sum_calls", {"substrate": "serial"}, 2.0
        ) in calls["samples"]

        hist = families["drift_ulp_error"]
        assert hist["type"] == "histogram"
        # Escaped label values come back exactly.
        labels = [l for _, l, _ in hist["samples"]]
        assert {"path": 'we"ird\npath', "le": "+Inf"} in labels
        counts = {
            l["le"]: v for n, l, v in hist["samples"] if n.endswith("_bucket")
        }
        assert counts == {"0": 2.0, "1": 2.0, "100": 3.0, "+Inf": 4.0}

    def test_help_and_type_captured(self):
        families = parse_prometheus_text(
            "# HELP m the help text here\n# TYPE m counter\nm 1\n"
        )
        assert families["m"]["help"] == "the help text here"
        assert families["m"]["type"] == "counter"

    def test_special_values(self):
        families = parse_prometheus_text(
            "# TYPE g gauge\ng{k=\"a\"} +Inf\ng{k=\"b\"} -Inf\n"
            "g{k=\"c\"} NaN\n"
        )
        vals = {l["k"]: v for _, l, v in families["g"]["samples"]}
        assert vals["a"] == math.inf
        assert vals["b"] == -math.inf
        assert math.isnan(vals["c"])

    def test_malformed_sample_raises(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_prometheus_text("not a metric line at all {\n")

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError, match="unknown type"):
            parse_prometheus_text("# TYPE m sparkline\n")

    def test_unterminated_label_raises(self):
        with pytest.raises(ValueError):
            parse_prometheus_text('m{k="oops 1\n')

    def test_bucket_samples_attach_to_histogram_family(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1,)).observe(0.5)
        # A *separate* counter whose name merely ends in _count must not
        # be folded into the histogram.
        reg.counter("other_count").inc()
        families = parse_prometheus_text(prometheus_text(reg))
        assert set(families) == {"h", "other_count"}
        names = {n for n, _, _ in families["h"]["samples"]}
        assert names == {"h_bucket", "h_sum", "h_count"}


class TestDefaultRegistryExport:
    def test_module_default_targets_global_registry(self):
        metrics.enable()
        REGISTRY.counter("global_sum.calls", substrate="serial").inc()
        assert 'global_sum_calls{substrate="serial"} 1' in prometheus_text()


class TestHelpCatalogAudit:
    """Satellite contract: every metric family the source tree registers
    has a curated ``# HELP`` entry — an instrumented scrape never ships
    an undocumented series."""

    @staticmethod
    def _registered_families():
        """(static names, dynamic prefix -> suffixes) found by walking
        every ``.counter/.gauge/.histogram`` registration in src."""
        import ast
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        names: set[str] = set()
        dynamic: dict[pathlib.Path, set[str]] = {}
        kwarg_suffixes: dict[pathlib.Path, set[str]] = {}
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                for kw in node.keywords:
                    if (kw.arg == "counter"
                            and isinstance(kw.value, ast.Constant)
                            and isinstance(kw.value.value, str)):
                        kwarg_suffixes.setdefault(path, set()).add(
                            kw.value.value
                        )
                func = node.func
                if not (isinstance(func, ast.Attribute)
                        and func.attr in ("counter", "gauge", "histogram")):
                    continue
                if not node.args:
                    continue
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(
                        arg.value, str):
                    names.add(arg.value)
                elif isinstance(arg, ast.JoinedStr):
                    # f"prefix.{suffix}" — record the constant prefix;
                    # suffixes come from counter= kwargs in the same file.
                    head = arg.values[0] if arg.values else None
                    if isinstance(head, ast.Constant):
                        dynamic.setdefault(path, set()).add(
                            str(head.value)
                        )
        for path, prefixes in dynamic.items():
            for prefix in prefixes:
                for suffix in kwarg_suffixes.get(path, ()):
                    names.add(prefix + suffix)
        return names, dynamic

    def test_every_registered_family_is_cataloged(self):
        names, _ = self._registered_families()
        assert names, "source scan found no metric registrations"
        missing = sorted(
            n for n in names if sanitize_metric_name(n) not in HELP_TEXT
        )
        assert missing == [], (
            f"metric families without a HELP_TEXT entry: {missing}; "
            "add curated help strings in repro.observability.export"
        )

    def test_dynamic_prefixes_have_coverage(self):
        _, dynamic = self._registered_families()
        for path, prefixes in dynamic.items():
            for prefix in prefixes:
                want = sanitize_metric_name(prefix + "x")[:-1]
                assert any(k.startswith(want) for k in HELP_TEXT), (
                    f"{path}: dynamic family prefix {prefix!r} has no "
                    "HELP_TEXT entries"
                )

    def test_scrape_never_emits_generic_fallback(self):
        import numpy as np

        from repro.core.planner import planned_sum
        from repro.observability import journal
        from repro.observability.slo import slo_report
        from repro.parallel.drivers import global_sum

        metrics.enable()
        journal.enable()
        xs = np.linspace(-1.0, 1.0, 512)
        global_sum(xs, "hp", "threads", pes=2)
        planned_sum(xs, 0.0)
        slo_report()
        text = prometheus_text()
        fallback = [
            line for line in text.splitlines()
            if line.startswith("# HELP") and "repro metric " in line
        ]
        assert fallback == [], (
            "scrape produced generic fallback HELP lines (uncatalogued "
            f"families): {fallback}"
        )
