"""The default exact adapters across every substrate, against the oracle.

Both run Neal's small accumulator locally.  The ``hp`` adapter ships HP
words and combines them with Listing 2; ``hp-small`` ships the exact
scaled integer, so its combine is integer addition, and the integer
travels over the wire in 16-byte signed chunk slots.  These tests pin
the architecture-invariance contract of the default path — the words
must be bit-identical to the paper's word-matrix reference engine and
to each other on every substrate (the simulated GPU block kernel
included) and at every PE count — plus each adapter's algebra and the
chunk codec's framing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import HPParams
from repro.core.scalar import to_double
from repro.core.smallacc import fold_bins
from repro.core.vectorized import batch_sum_doubles
from repro.parallel.drivers import global_sum, make_method
from repro.parallel.methods import HPMethod, HPSmallaccMethod
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


@pytest.fixture(scope="module")
def oracle_words(data) -> tuple:
    """The oracle: the word-matrix reference engine, serially."""
    return batch_sum_doubles(data, PARAMS, method="words")


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


class TestHPDrivers:
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
    def test_words_match_hp_everywhere(self, data, oracle_words, substrate,
                                       pes):
        r = global_sum(
            data, method="hp", substrate=substrate, pes=pes, params=PARAMS,
        )
        assert r.words == oracle_words
        assert r.value == to_double(oracle_words, PARAMS)

    def test_gpu_block_path(self, data, oracle_words):
        r = global_sum(
            data, method="hp-small", substrate="gpu", pes=8, params=PARAMS,
        )
        assert r.words == oracle_words
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
        assert combined == m.local_reduce(data)
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

    def test_is_exact(self):
        assert HPSmallaccMethod(PARAMS).is_exact()


class TestHPMethodAlgebra:
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
    def test_nbytes_matches_method(self, data):
        m = HPSmallaccMethod(PARAMS)
        assert m.partial_nbytes() == 16 * m.nchunks
        assert len(m.pack(m.local_reduce(data))) == m.partial_nbytes()

    def test_roundtrip_negative_chunks(self, data):
        m = HPSmallaccMethod(PARAMS)
        partial = m.local_reduce(-np.abs(data))
        assert partial < 0
        assert m.unpack(m.pack(partial)) == partial

    def test_roundtrip_negative_bins(self, data):
        m = HPSmallaccMethod(PARAMS)
        partial = m.combine(
            m.local_reduce(-np.abs(data)), m.local_reduce(-np.abs(data))
        )
        assert partial < 0
        assert m.unpack(m.pack(partial)) == partial

    def test_nbytes_fixed_for_combined_partials(self, data):
        """A combine tree widens the integer, never its wire size."""
        m = HPSmallaccMethod(PARAMS)
        leaf = m.local_reduce(data)
        wide = m.combine((1 << 70) << (32 * (m.nchunks - 1)), leaf)
        for part in (m.combine(leaf, leaf), wide):
            assert len(m.pack(part)) == m.partial_nbytes()

    def test_unpack_rejects_wrong_size(self):
        m = HPSmallaccMethod(PARAMS)
        with pytest.raises(ValueError):
            m.unpack(b"\x00" * (m.partial_nbytes() - 1))

    def test_wire_slots_are_16_bytes_signed(self):
        """The wire layout: one 16-byte signed little-endian slot per
        chunk, slot ``i`` weighted ``2**(32*i)``, wide enough for slots
        a combine tree pushed past 64 bits; unpack folds any slots."""
        m = HPSmallaccMethod(PARAMS)
        slots = (-(1 << 70),) + tuple(range(m.nchunks - 1))
        buf = b"".join(s.to_bytes(16, "little", signed=True) for s in slots)
        assert m.unpack(buf) == fold_bins(slots)
        canonical = tuple(range(1, m.nchunks)) + (-(1 << 70),)
        total = fold_bins(canonical)
        assert m.pack(total) == b"".join(
            s.to_bytes(16, "little", signed=True) for s in canonical
        )
        assert m.unpack(m.pack(total)) == total

    def test_cancellation_over_the_wire(self):
        """A zero-sum dataset reduced over MPI must land on exact zero."""
        rng = default_rng(7)
        xs = rng.uniform(-1.0, 1.0, 256)
        both = np.concatenate([xs, -xs])
        r = global_sum(both, method="hp-small", substrate="mpi", pes=8,
                       params=PARAMS)
        assert r.value == 0.0
        assert r.words == (0,) * PARAMS.n

    def test_hp_cancellation_over_the_wire(self):
        """The same zero-sum dataset with HP words as the MPI partial."""
        rng = default_rng(7)
        xs = rng.uniform(-1.0, 1.0, 256)
        both = np.concatenate([xs, -xs])
        r = global_sum(both, method="hp", substrate="mpi", pes=8,
                       params=PARAMS)
        assert r.value == 0.0
        assert r.words == (0,) * PARAMS.n
