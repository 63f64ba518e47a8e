"""hp-small across the substrates: flat chunk partials, any schedule.

The small engine's partials are one int64 chunk array — no side carry —
so the combine is plain elementwise addition.  These tests pin the
architecture-invariance contract: words must be bit-identical to the hp
adapter on every substrate and PE count, and the wire codec must
round-trip chunk partials exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import HPParams
from repro.parallel.drivers import global_sum, make_method
from repro.parallel.methods import HPMethod, HPSmallaccMethod
from repro.parallel.simmpi import datatype_for_method
from repro.parallel.simmpi.datatypes import SmallaccChunksType
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
    return global_sum(data, method="hp", params=PARAMS).words


class TestDriverIntegration:
    def test_make_method_resolves(self):
        m = make_method("hp-small")
        assert isinstance(m, HPSmallaccMethod)
        assert m.params == HPParams(6, 3)

    def test_make_method_rejects_wrong_params(self):
        from repro.hallberg.params import HallbergParams

        with pytest.raises(TypeError):
            make_method("hp-small", HallbergParams(10, 38))

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
            data, method="hp-small", substrate=substrate, pes=pes,
            params=PARAMS,
        )
        assert r.words == hp_words
        assert r.value == global_sum(data, method="hp", params=PARAMS).value

    def test_gpu_shuffled_schedule(self, data, hp_words):
        """Block trees and leader merges in a shuffled schedule, on a
        PE count that is not a power of two, still land on hp's words."""
        r = global_sum(
            data, method="hp-small", substrate="gpu", pes=6,
            params=PARAMS, schedule_seed=3,
        )
        assert r.words == hp_words

    def test_pe_count_invariance(self, data):
        results = {
            global_sum(
                data, method="hp-small", substrate="threads", pes=p,
                params=PARAMS,
            ).words
            for p in (1, 2, 3, 5, 8)
        }
        assert len(results) == 1

    def test_bitwise_equal_across_methods(self, data):
        a = global_sum(data, method="hp-small", params=PARAMS)
        b = global_sum(data, method="hp", substrate="threads",
                       pes=4, params=PARAMS)
        assert a.bitwise_equal(b)


class TestMethodAlgebra:
    def test_identity_is_neutral(self, data):
        m = HPSmallaccMethod(PARAMS)
        partial = m.local_reduce(data)
        assert m.combine(partial, m.identity()) == partial
        assert m.combine(m.identity(), partial) == partial

    def test_identity_merge_is_idempotent(self):
        m = HPSmallaccMethod(PARAMS)
        assert m.combine(m.identity(), m.identity()) == m.identity()

    def test_combine_matches_concatenation(self, data):
        m = HPSmallaccMethod(PARAMS)
        a, b = np.array_split(data, 2)
        combined = m.combine(m.local_reduce(a), m.local_reduce(b))
        assert m.words(combined) == m.words(m.local_reduce(data))

    def test_empty_block_is_identity(self):
        m = HPSmallaccMethod(PARAMS)
        assert m.local_reduce(np.array([], dtype=np.float64)) == m.identity()

    def test_finalize_matches_hp(self, data):
        m = HPSmallaccMethod(PARAMS)
        hp = HPMethod(PARAMS)
        assert m.finalize(m.local_reduce(data)) == hp.finalize(
            hp.local_reduce(data)
        )

    def test_partials_are_canonical(self, data):
        """local_reduce ships the canonical (fully propagated) chunk
        form — the transport contract merge_chunks assumes."""
        from repro.core.smallacc import bin_count, bins_from_int, fold_bins

        m = HPSmallaccMethod(PARAMS)
        partial = m.local_reduce(data)
        assert partial == bins_from_int(
            fold_bins(partial), bin_count(PARAMS)
        )

    def test_is_exact(self):
        assert HPSmallaccMethod(PARAMS).is_exact()


class TestWireCodec:
    def test_datatype_dispatch(self):
        dt = datatype_for_method(HPSmallaccMethod(PARAMS))
        assert isinstance(dt, SmallaccChunksType)
        # hp-small must not shadow hp's word codec.
        from repro.parallel.simmpi import HPWordsType

        assert isinstance(datatype_for_method(HPMethod(PARAMS)), HPWordsType)

    def test_nbytes_matches_method(self):
        m = HPSmallaccMethod(PARAMS)
        dt = SmallaccChunksType(PARAMS)
        assert dt.nbytes == m.partial_nbytes()

    def test_roundtrip_negative_chunks(self, data):
        m = HPSmallaccMethod(PARAMS)
        dt = SmallaccChunksType(PARAMS)
        partial = m.local_reduce(-np.abs(data))
        assert any(v != 0 for v in partial)
        assert dt.unpack(dt.pack(partial)) == partial

    def test_wire_slots_are_16_bytes_signed(self):
        """The wire layout: one 16-byte signed little-endian slot per
        chunk, wide enough for chunks a combine tree pushed past 64
        bits."""
        dt = SmallaccChunksType(PARAMS)
        assert dt.nbytes == 16 * dt.nchunks
        partial = (-(1 << 70),) + tuple(range(dt.nchunks - 1))
        buf = dt.pack(partial)
        assert buf[:16] == (-(1 << 70)).to_bytes(16, "little", signed=True)
        assert dt.unpack(buf) == partial

    def test_cancellation_over_the_wire(self):
        rng = default_rng(7)
        xs = rng.uniform(-1.0, 1.0, 256)
        both = np.concatenate([xs, -xs])
        r = global_sum(both, method="hp-small", substrate="mpi", pes=8,
                       params=PARAMS)
        assert r.value == 0.0
        assert r.words == (0,) * PARAMS.n
