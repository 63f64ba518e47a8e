"""Engine registry: the single dispatch point for summation methods.

The registry replaces the old if/elif ladders in ``batch_sum_doubles``
and ``make_method``; these tests pin its lookup contract (aliases,
historical error wording, adapter mapping) and check that the public
entry points actually route through it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import engines
from repro.core.params import HPParams
from repro.core.vectorized import batch_sum_doubles

P = HPParams(3, 2)


class TestRegistry:
    def test_expected_engines_present(self):
        assert set(engines.names()) >= {"small", "words"}

    def test_small_is_the_gpu_capable_engine(self):
        gpu = [spec.name for spec in engines.specs()
               if "gpu" in spec.capabilities]
        assert gpu == ["small"]

    def test_alias_resolves(self):
        assert engines.get("smallacc") is engines.get("small")

    def test_unknown_name_preserves_historical_wording(self):
        with pytest.raises(ValueError, match="unknown summation method"):
            engines.get("exact")

    def test_spec_shape(self):
        spec = engines.get("small")
        assert spec.name == "small"
        assert spec.adapter_name == "hp-small"
        assert callable(spec.scaled_total)
        assert callable(spec.make_adapter)

    def test_adapter_names_cover_registry(self):
        names = engines.adapter_names()
        assert "hp-small" in names
        assert "hp" in names

    def test_adapter_factory_resolves(self):
        from repro.parallel.methods import HPSmallaccMethod

        factory = engines.adapter_factory("hp-small")
        assert factory is not None
        assert isinstance(factory(P), HPSmallaccMethod)

    def test_adapter_factory_unknown_is_none(self):
        assert engines.adapter_factory("hallberg") is None

    def test_engine_for_adapter_inverts(self):
        assert engines.engine_for_adapter("hp-small") == "small"
        assert engines.engine_for_adapter("hp") == "words"
        assert engines.engine_for_adapter("double") is None


class TestDispatch:
    def test_scaled_total_agrees_across_engines(self, rng):
        xs = rng.uniform(-1.0, 1.0, 500)
        totals = {
            name: engines.scaled_total(xs, P, 1 << 20, name)
            for name in engines.exact_names()
        }
        assert len(set(totals.values())) == 1

    def test_batch_words_routes_small(self, rng):
        xs = rng.uniform(-1.0, 1.0, 500)
        assert engines.batch_words(xs, P, 1 << 20, True, "small") == (
            engines.batch_words(xs, P, 1 << 20, True, "words")
        )

    def test_batch_sum_doubles_accepts_alias(self, rng):
        xs = rng.uniform(-1.0, 1.0, 300)
        assert batch_sum_doubles(xs, P, method="smallacc") == (
            batch_sum_doubles(xs, P, method="small")
        )

    def test_batch_sum_doubles_unknown_method(self, rng):
        with pytest.raises(ValueError, match="unknown summation method"):
            batch_sum_doubles(rng.uniform(size=4), P, method="kahan")

    def test_make_method_lists_registry_adapters(self):
        from repro.parallel.drivers import make_method

        with pytest.raises(ValueError) as exc:
            make_method("nope")
        for name in engines.adapter_names():
            assert name in str(exc.value)
