"""The serial exact request path: conformance on both backends, and a
gate on its Python-level glue.

``global_sum(x, "hp")`` runs one kernel call and one fold per request,
with no trace context, span or journal event while every observability
gate is off.  These tests pin that the flattened path returns the words
of the paper's word-matrix engine on every substrate and backend, raises
the same error type and message for input the format does not admit,
still records the request when observability is on, and does not grow
its per-request Python call count back.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np
import pytest

from repro.core import engines, native
from repro.core.params import HPParams
from repro.core.scalar import from_int_scaled, to_double
from repro.errors import ConversionOverflowError, ReproError
from repro.observability import journal, tracing
from repro.observability.tracing import TRACER
from repro.parallel.drivers import global_sum, make_method

P = HPParams(8, 4)
LIMIT = 2.0**P.whole_bits
SIZES = (0, 1, 1024, 1 << 20)
#: (substrate, pes, extra global_sum kwargs)
SUBSTRATES = (
    ("serial", 1, {}),
    ("threads", 2, {"engine": "simulated"}),
    ("threads", 2, {"engine": "native"}),
    ("procs", 2, {}),
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


def oracle(xs: np.ndarray) -> tuple:
    return from_int_scaled(engines.scaled_total(xs, P, 1 << 16, "words"), P)


def inputs(n: int) -> np.ndarray:
    return np.random.default_rng(n).uniform(-1.0, 1.0, n)


def rejection(xs: np.ndarray, method: str) -> str:
    with pytest.raises(ConversionOverflowError) as info:
        global_sum(xs, method, params=P)
    return str(info.value)


@pytest.mark.parametrize("method", ["hp", "hp-small"])
class TestWordsMatchTheOracle:
    @pytest.mark.parametrize(
        "substrate,pes,kwargs", SUBSTRATES,
        ids=["serial", "threads-simulated", "threads-native", "procs"],
    )
    def test_every_substrate_and_size(self, backend, method, substrate,
                                      pes, kwargs):
        for n in SIZES:
            xs = inputs(n)
            r = global_sum(xs, method, substrate, pes=pes, params=P,
                           **kwargs)
            want = oracle(xs)
            assert r.words == want, (substrate, n)
            assert r.value == to_double(want, P), (substrate, n)

    def test_negative_range_edge_is_accepted(self, backend, method):
        # The rest is positive, so the sum stays in range.
        rest = np.abs(inputs(1023))
        for xs in (np.array([-LIMIT]), np.concatenate([rest, [-LIMIT]])):
            r = global_sum(xs, method, params=P)
            assert r.words == oracle(xs)


@pytest.mark.parametrize("method", ["hp", "hp-small"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, LIMIT],
                         ids=["nan", "inf", "-inf", "+limit"])
@pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
def test_rejection_is_the_same_on_both_backends(monkeypatch, method, bad,
                                                where):
    xs = inputs(1024)
    xs[where] = bad
    messages = {}
    for name, force in (("compiled", None), ("pure", "1")):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        if force is None:
            monkeypatch.delenv("REPRO_FORCE_PURE", raising=False)
        else:
            monkeypatch.setenv("REPRO_FORCE_PURE", force)
        native._reset_for_tests()
        if name == "compiled" and not native.resolve("auto").compiled:
            continue
        messages[name] = rejection(xs, method)
    native._reset_for_tests()
    assert len(set(messages.values())) == 1, messages


@pytest.mark.parametrize("method", ["hp", "hp-small"])
@pytest.mark.parametrize(
    "substrate,pes,kwargs", SUBSTRATES,
    ids=["serial", "threads-simulated", "threads-native", "procs"],
)
def test_rejection_is_the_same_on_every_substrate(monkeypatch, method,
                                                  substrate, pes, kwargs):
    xs = inputs(4096)
    xs[3000] = np.inf
    errors = set()
    for force in (None, "1"):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        if force is None:
            monkeypatch.delenv("REPRO_FORCE_PURE", raising=False)
        else:
            monkeypatch.setenv("REPRO_FORCE_PURE", force)
        native._reset_for_tests()
        with pytest.raises(ReproError) as info:
            global_sum(xs, method, substrate, pes=pes, params=P, **kwargs)
        errors.add((type(info.value), str(info.value)))
    native._reset_for_tests()
    assert len(errors) == 1, errors


@pytest.mark.parametrize("params,xs", [
    (HPParams(2, 1), np.full(4, 2.0**62)),            # beyond HP(2,1)
    (HPParams(18, 1), np.array([1.7e308, 1.7e308])),  # beyond double
], ids=["addition-overflow", "normalization-overflow"])
def test_serial_errors_are_the_word_paths(backend, params, xs):
    """The serial ``hp`` request takes its value and words from the
    exact total; it raises what ``local_reduce`` then ``result`` do."""
    adapter = make_method("hp", params)
    with pytest.raises(ReproError) as old:
        adapter.result(adapter.local_reduce(xs))
    with pytest.raises(type(old.value)) as new:
        global_sum(xs, "hp", params=params)
    assert str(new.value) == str(old.value)


def _python_calls(fn) -> int:
    """Python-level function calls made by one ``fn()``."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return sum(calls.values())


class TestGlue:
    #: Python-level calls in one serial ``hp`` request of 1,024 summands
    #: with observability off, per backend, plus a margin.  A request
    #: makes 24 on the compiled backend (the driver, the adapter, one
    #: entry-point call that returns the exact ``int``, the words and
    #: the value from that ``int``; 39 through ctypes, 101 before the
    #: path was flattened) and 51 on pure (one validation, one piece
    #: and its ``fold_bins``; 55 when the bound was set).  A layer added
    #: back to the dispatch chain fails it.
    MAX_CALLS = {"cext": 28, "pure": 58}

    def test_serial_hp_request_call_count(self):
        assert not (tracing.ENABLED or journal.ENABLED)
        xs = inputs(1024)
        for _ in range(20):  # resolve, cache and specialize first
            global_sum(xs, "hp", params=P)
        calls = _python_calls(lambda: global_sum(xs, "hp", params=P))
        assert calls <= self.MAX_CALLS[native.backend_name()], calls

    def test_observed_request_keeps_its_trace(self):
        xs = inputs(1024)
        journal.JOURNAL.reset()
        TRACER.reset()
        journal.enable()
        tracing.enable()
        try:
            r = global_sum(xs, "hp", params=P)
        finally:
            journal.disable()
            tracing.disable()
        events = {e["event"]: e for e in journal.JOURNAL.events()}
        start, finish = events["request.start"], events["request.finish"]
        assert start["trace_id"] == finish["trace_id"]
        assert finish["ok"] and finish["value"] == r.value
        (span,) = [s for s in TRACER.spans() if s.name == "global_sum"]
        assert span.attrs["trace"] == start["trace_id"]
        assert finish["span_id"] == span.span_id
        journal.JOURNAL.reset()
        TRACER.reset()
