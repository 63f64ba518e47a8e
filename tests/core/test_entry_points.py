"""Every default exact entry point against the word-matrix oracle.

Each public exact path — the ``hp`` adapter through ``global_sum``,
``batch_sum_doubles``, ``HPAccumulator.add_doubles``,
``AdaptiveAccumulator.extend_array``, ``hp_dot_words``, ``hp_matvec``
and ``exact_sum_abs`` — runs the small engine by default.  Each must
return words (or the correctly rounded double of words) bit-identical
to ``engines.scaled_total(x, p, chunk, "words")``, the paper's
reference engine, on the inputs where engines disagree first: signed
zeros, subnormals, the exact edges of the format's range, and
cancellation.  Every check runs on the compiled backend and again with
``REPRO_FORCE_PURE=1``.

The second half pins the non-finite contract: NaN and ±inf raise
:class:`~repro.errors.ConversionOverflowError` on every registered
engine and through the planner, never a bare error or a NaN result.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import engines, native
from repro.core.accumulator import HPAccumulator
from repro.core.dot import hp_dot_words
from repro.core.matvec import hp_matvec
from repro.core.norms import exact_sum_abs
from repro.core.params import HPParams
from repro.core.planner import planned_sum
from repro.core.scalar import from_int_scaled, to_double
from repro.core.streaming import AdaptiveAccumulator
from repro.core.vectorized import batch_sum_doubles
from repro.errors import ConversionOverflowError
from repro.parallel.drivers import global_sum
from repro.parallel.methods import HPMethod

#: A narrow format: subnormals and tiny values truncate, and the range
#: edges sit at +-2**63.
NARROW = HPParams(3, 2)
#: A format wide enough that every double summand is exact (1088
#: fraction bits) and the range edge is 2**1023.
WIDE = HPParams(33, 17)
#: A format whose range exceeds the double range (1087 whole bits):
#: every finite double is in range, so only the finiteness test rejects.
BEYOND = HPParams(17, 0)
CHUNK = 1 << 16


def edge_inputs(params: HPParams, seed: int = 7) -> np.ndarray:
    """Signed zeros, subnormals, both exact range edges, sub-resolution
    values and cancelling pairs; every PE's partial sum stays in range.

    The asymmetric range admits exactly ``-limit``; the largest double
    below ``+limit`` cancels it down to one ulp.  The two edges lead the
    array, so a contiguous partition keeps them in one slice (the ``hp``
    adapter range-checks every partial); the rest is shuffled.
    """
    limit = 2.0**params.whole_bits
    resolution = 2.0**-params.frac_bits
    rng = np.random.default_rng(seed)
    pairs = rng.uniform(-1.0, 1.0, 40) * np.exp2(rng.integers(-60, 50, 40))
    rest = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022)],
        [resolution, -3.0 * resolution / 2.0, 1.5 * resolution],
        pairs, -pairs,
        [1.0, -1.0, 1.0 / 3.0],
    ])
    edges = [-limit, math.nextafter(limit, 0.0)]
    return np.concatenate([edges, rng.permutation(rest)])


def reference(xs: np.ndarray, params: HPParams) -> tuple:
    return from_int_scaled(
        engines.scaled_total(xs, params, CHUNK, "words"), params
    )


@pytest.fixture(params=["compiled", "pure"])
def backend(request, monkeypatch):
    """Run on the compiled kernel, then with REPRO_FORCE_PURE=1."""
    monkeypatch.delenv("REPRO_FORCE_PURE", raising=False)
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    if request.param == "pure":
        monkeypatch.setenv("REPRO_FORCE_PURE", "1")
    native._reset_for_tests()
    if request.param == "compiled" and not native.resolve("auto").compiled:
        pytest.skip("no compiled backend available in this environment")
    yield request.param
    native._reset_for_tests()


@pytest.mark.parametrize("params", [NARROW, WIDE], ids=["narrow", "wide"])
class TestDefaultEntryPointsMatchWords:
    def test_hp_adapter_through_global_sum(self, backend, params):
        xs = edge_inputs(params)
        assert HPMethod(params).engine == "small"
        for substrate, pes in (("serial", 1), ("threads", 3), ("mpi", 4)):
            r = global_sum(xs, "hp", substrate, pes=pes, params=params)
            assert r.words == reference(xs, params), substrate

    def test_batch_sum_doubles(self, backend, params):
        xs = edge_inputs(params)
        assert batch_sum_doubles(xs, params) == reference(xs, params)

    def test_accumulator_add_doubles(self, backend, params):
        xs = edge_inputs(params)
        acc = HPAccumulator(params)
        acc.add_doubles(xs)
        assert acc.words == reference(xs, params)

    def test_dot_and_matvec(self, backend, params):
        xs = edge_inputs(params)
        if params.whole_bits > 996:
            xs = xs[2:]  # Dekker's product split overflows above 2**996
        ones = np.ones_like(xs)
        # x * 1 is exact, so the dot product's words are the sum's.
        assert hp_dot_words(xs, ones, params) == reference(xs, params)
        rows = np.vstack([xs, xs[::-1], np.roll(xs, 7)])
        out = hp_matvec(rows, ones, params=params)
        expected = [
            to_double(reference(row, params), params) for row in rows
        ]
        assert out.tolist() == expected


class TestAdaptiveEntryPoints:
    """The adaptive paths discover their own format; in the wide format
    no summand truncates, so both sides are the exact sum."""

    def test_streaming_extend_array(self, backend):
        xs = edge_inputs(WIDE)
        acc = AdaptiveAccumulator()
        acc.extend_array(xs)
        assert acc.snapshot(WIDE).words == reference(xs, WIDE)

    def test_exact_sum_abs(self, backend):
        xs = edge_inputs(WIDE)
        mags = np.abs(xs)
        mags = mags[mags < 2.0**WIDE.whole_bits / 4]  # keep the sum in range
        expected = to_double(reference(mags, WIDE), WIDE)
        assert exact_sum_abs(mags) == expected
        assert exact_sum_abs(mags, method="fraction") == expected


NONFINITE = {
    "inf": [1.0, math.inf],
    "-inf": [-math.inf, 1.0],
    "nan": [1.0, math.nan],
    "inf-inf": [math.inf, 2.0, -math.inf],
}


@pytest.mark.parametrize("bad", list(NONFINITE), ids=list(NONFINITE))
class TestNonFiniteInputRaises:
    @pytest.mark.parametrize("engine", engines.names())
    def test_every_engine_serial_and_threads(self, bad, engine):
        xs = np.array(NONFINITE[bad])
        spec = engines.get(engine)
        for substrate in ("serial", "threads"):
            with pytest.raises(ConversionOverflowError):
                global_sum(xs, spec.adapter_name, substrate, pes=2)
        with pytest.raises(ConversionOverflowError):
            batch_sum_doubles(xs, NARROW, method=engine)

    @pytest.mark.parametrize("engine", ["small", "words"])
    def test_format_beyond_double_range(self, bad, engine, backend):
        xs = np.array(NONFINITE[bad])
        with pytest.raises(ConversionOverflowError):
            batch_sum_doubles(xs, BEYOND, method=engine)
        with pytest.raises(ConversionOverflowError):
            global_sum(xs, engines.get(engine).adapter_name, "threads",
                       pes=2, params=BEYOND)
        acc = HPAccumulator(BEYOND)
        with pytest.raises(ConversionOverflowError):
            acc.add_doubles(xs)

    @pytest.mark.parametrize("target", [0.0, 1e-6, 1e-9, 1e-12])
    def test_planned_sum(self, bad, target):
        with pytest.raises(ConversionOverflowError):
            planned_sum(np.array(NONFINITE[bad]), target)


def test_compensated_overflow_of_finite_input_is_typed():
    """A finite input whose float total overflows raises the same typed
    error instead of returning inf or NaN."""
    xs = np.array([1e308, 1e308])
    for engine in ("comp-pairwise", "comp-kahan", "comp-neumaier"):
        with pytest.raises(ConversionOverflowError):
            global_sum(xs, engine)
