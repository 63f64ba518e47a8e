"""The default exact adapters across every substrate, against the oracle.

The ``hp`` adapter ships HP words and ``hp-small`` ships signed chunk
partials; both run Neal's small accumulator locally.  These tests pin
the architecture-invariance contract of the default path — the words
must be bit-identical to the paper's word-matrix reference engine on
every substrate (the simulated GPU block kernel included) and at every
PE count — and the chunk wire codec's framing.  This module keeps the
name of the binned engine whose contract it first pinned, so its test
IDs stay stable; ``test_smallacc_substrates.py`` pins the hp-small
adapter's own algebra.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import HPParams
from repro.core.scalar import to_double
from repro.core.vectorized import batch_sum_doubles
from repro.parallel.drivers import global_sum, make_method
from repro.parallel.methods import HPMethod, HPSmallaccMethod
from repro.parallel.simmpi import SmallaccChunksType, datatype_for_method
from repro.util.rng import default_rng

PARAMS = HPParams(6, 3)
N = 700


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    rng = default_rng(424242)
    exps = rng.uniform(-40.0, 40.0, N)
    return rng.choice([-1.0, 1.0], N) * np.exp2(exps)


@pytest.fixture(scope="module")
def hp_words(data) -> tuple:
    """The oracle: the word-matrix reference engine, serially."""
    return batch_sum_doubles(data, PARAMS, method="words")


class TestDriverIntegration:
    def test_make_method_resolves(self):
        m = make_method("hp")
        assert isinstance(m, HPMethod)
        assert m.engine == "small"
        assert m.params == HPParams(6, 3)

    def test_make_method_rejects_wrong_params(self):
        from repro.hallberg.params import HallbergParams

        with pytest.raises(TypeError):
            make_method("hp", HallbergParams(10, 38))

    @pytest.mark.parametrize("substrate,pes", [
        ("serial", 1),
        ("threads", 4),
        ("threads", 7),
        ("mpi", 8),
        ("mpi-scatter", 5),
        ("phi", 6),
    ])
    def test_words_match_hp_everywhere(self, data, hp_words, substrate, pes):
        r = global_sum(
            data, method="hp", substrate=substrate, pes=pes, params=PARAMS,
        )
        assert r.words == hp_words
        assert r.value == to_double(hp_words, PARAMS)

    def test_gpu_block_path(self, data, hp_words):
        r = global_sum(
            data, method="hp-small", substrate="gpu", pes=8, params=PARAMS,
        )
        assert r.words == hp_words
        assert r.pes == 8

    def test_pe_count_invariance(self, data):
        results = {
            global_sum(
                data, method="hp", substrate="threads", pes=p, params=PARAMS,
            ).words
            for p in (1, 2, 3, 5, 8)
        }
        assert len(results) == 1

    def test_bitwise_equal_across_methods(self, data):
        a = global_sum(data, method="hp-small", substrate="gpu", pes=4,
                       params=PARAMS)
        b = global_sum(data, method="hp", substrate="threads", pes=4,
                       params=PARAMS)
        assert a.bitwise_equal(b)


class TestMethodAlgebra:
    def test_identity_is_neutral(self, data):
        m = HPMethod(PARAMS)
        partial = m.local_reduce(data)
        assert m.combine(partial, m.identity()) == partial
        assert m.combine(m.identity(), partial) == partial

    def test_combine_matches_concatenation(self, data):
        m = HPMethod(PARAMS)
        a, b = np.array_split(data, 2)
        combined = m.combine(m.local_reduce(a), m.local_reduce(b))
        assert combined == m.local_reduce(data)

    def test_finalize_matches_hp(self, data):
        m = HPMethod(PARAMS)
        reference = HPMethod(PARAMS, engine="words")
        assert m.local_reduce(data) == reference.local_reduce(data)
        assert m.finalize(m.local_reduce(data)) == reference.finalize(
            reference.local_reduce(data)
        )

    def test_is_exact(self):
        assert HPMethod(PARAMS).is_exact()


class TestWireCodec:
    def test_datatype_dispatch(self):
        dt = datatype_for_method(HPSmallaccMethod(PARAMS))
        assert isinstance(dt, SmallaccChunksType)
        # dispatch must not confuse the word-partial HPMethod codec
        from repro.parallel.simmpi import HPWordsType

        assert isinstance(datatype_for_method(HPMethod(PARAMS)), HPWordsType)

    def test_nbytes_matches_method(self):
        m = HPSmallaccMethod(PARAMS)
        dt = SmallaccChunksType(PARAMS)
        assert dt.nbytes == m.partial_nbytes()

    def test_roundtrip_negative_bins(self, data):
        m = HPSmallaccMethod(PARAMS)
        dt = SmallaccChunksType(PARAMS)
        partial = m.combine(
            m.local_reduce(-np.abs(data)), m.local_reduce(-np.abs(data))
        )
        assert any(v < 0 for v in partial)
        assert dt.unpack(dt.pack(partial)) == partial

    def test_pack_rejects_wrong_arity(self):
        dt = SmallaccChunksType(PARAMS)
        with pytest.raises(ValueError):
            dt.pack((1, 2, 3))

    def test_unpack_rejects_wrong_size(self):
        dt = SmallaccChunksType(PARAMS)
        with pytest.raises(ValueError):
            dt.unpack(b"\x00" * (dt.nbytes - 1))

    def test_cancellation_over_the_wire(self):
        """A zero-sum dataset reduced over MPI must land on exact zero."""
        rng = default_rng(7)
        xs = rng.uniform(-1.0, 1.0, 256)
        both = np.concatenate([xs, -xs])
        r = global_sum(both, method="hp-small", substrate="mpi", pes=8,
                       params=PARAMS)
        assert r.value == 0.0
        assert r.words == (0,) * PARAMS.n
