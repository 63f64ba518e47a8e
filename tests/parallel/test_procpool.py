"""Tests for the true-multicore process-pool substrate.

The library-level claim under test: a reduction over real worker
*processes* — partials crossing actual process boundaries via pickle,
input crossing via shared memory or memmap — produces HP words
bit-identical to the serial engine, for every PE count, schedule,
chunking, start method, and input permutation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import HPParams
from repro.parallel.drivers import global_sum
from repro.parallel.methods import (
    DoubleMethod,
    HallbergMethod,
    HPMethod,
    HPSmallaccMethod,
)
from repro.parallel.procpool import (
    ProcPool,
    _task_ranges,
    default_start_method,
    procpool_reduce,
)
from repro.parallel.schedule import Schedule

PARAMS = HPParams(6, 3)
N = 5000


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    rng = np.random.default_rng(20160523)
    mantissas = rng.uniform(-1.0, 1.0, N)
    exponents = rng.uniform(-25.0, 25.0, N)
    return mantissas * np.exp2(exponents)


@pytest.fixture(scope="module")
def hp_words(data) -> tuple:
    """Serial words from the word-matrix reference engine."""
    return HPMethod(PARAMS, engine="words").local_reduce(data)


def small_words(partial) -> tuple:
    return tuple(HPSmallaccMethod(PARAMS).words(partial))


class TestTaskRanges:
    def test_static_covers_in_order(self):
        ranges = _task_ranges(100, Schedule("static"), 4, None)
        assert ranges[0][0] == 0 and ranges[-1][1] == 100
        flat = [i for lo, hi in ranges for i in range(lo, hi)]
        assert sorted(flat) == list(range(100))

    def test_chunk_cap_splits(self):
        ranges = _task_ranges(100, Schedule("static"), 2, 7)
        assert all(hi - lo <= 7 for lo, hi in ranges)
        flat = [i for lo, hi in ranges for i in range(lo, hi)]
        assert sorted(flat) == list(range(100))

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            _task_ranges(10, Schedule("static"), 2, 0)


class TestProcsInvariance:
    @pytest.mark.parametrize("pes", [1, 2, 3, 4, 8])
    def test_pe_count_invariance(self, data, hp_words, pes):
        """The headline: bit-identical words at every worker count, with
        one task per worker under the static schedule."""
        r = procpool_reduce(data, HPSmallaccMethod(PARAMS), pes)
        assert small_words(r.partial) == hp_words
        assert r.pes == pes and r.source == "shm"
        assert r.tasks == pes

    @pytest.mark.parametrize("pes", [1, 2, 4, 8])
    def test_hp_pe_count_invariance(self, data, hp_words, pes):
        r = procpool_reduce(data, HPMethod(PARAMS), pes)
        assert tuple(r.partial) == hp_words
        assert r.tasks == pes

    @pytest.mark.parametrize(
        "schedule",
        [Schedule("static"), Schedule("static", 128),
         Schedule("dynamic", 64), Schedule("guided", 16)],
        ids=str,
    )
    def test_schedule_invariance(self, data, hp_words, schedule):
        r = procpool_reduce(
            data, HPSmallaccMethod(PARAMS), 3, schedule=schedule
        )
        assert small_words(r.partial) == hp_words

    def test_chunk_cap_invariance(self, data, hp_words):
        r = procpool_reduce(data, HPSmallaccMethod(PARAMS), 2, chunk=700)
        assert r.tasks >= N // 700
        assert small_words(r.partial) == hp_words

    def test_hp_words_partials_cross_processes(self, data, hp_words):
        """The word-matrix adapter ships N-word tuples instead of bins;
        same words either way."""
        r = procpool_reduce(data, HPMethod(PARAMS), 3)
        assert tuple(r.partial) == hp_words

    def test_permutation_invariance(self, data, hp_words):
        shuffled = np.random.default_rng(99).permutation(data)
        r = procpool_reduce(shuffled, HPSmallaccMethod(PARAMS), 3)
        assert small_words(r.partial) == hp_words

    def test_spawn_matches_fork(self, data, hp_words):
        """Start methods must not leak into the answer (spawn workers
        re-import everything; fork workers inherit pages)."""
        words = {
            small_words(
                procpool_reduce(
                    data, HPSmallaccMethod(PARAMS), 2, start_method=sm
                ).partial
            )
            for sm in ("fork", "spawn")
            if sm == "spawn" or sm == default_start_method()
        }
        assert words == {hp_words}

    def test_small_n_many_workers(self, hp_words):
        """p > n: most workers see empty or tiny slices."""
        xs = np.array([1.5, -0.25, 4096.0])
        serial = HPMethod(PARAMS).local_reduce(xs)
        r = procpool_reduce(xs, HPSmallaccMethod(PARAMS), 8)
        assert small_words(r.partial) == serial

    def test_empty_input(self):
        r = procpool_reduce(np.empty(0), HPSmallaccMethod(PARAMS), 4)
        assert r.value == 0.0 and r.tasks == 0

    def test_hallberg_partials_cross_processes(self, data):
        from repro.hallberg.params import HallbergParams

        m = HallbergMethod(HallbergParams(10, 38))
        r = procpool_reduce(data, m, 3)
        digits, count = r.partial
        assert count == N
        assert r.value == m.finalize(m.local_reduce(data))


class TestDoubleDeterminism:
    def test_fixed_chunking_is_deterministic(self, data):
        """Worker arrival order varies; combine order must not — the
        double result is a function of (n, schedule, chunk)."""
        kwargs = dict(schedule=Schedule("dynamic", 64), chunk=256)
        a = procpool_reduce(data, DoubleMethod(), 4, **kwargs).value
        b = procpool_reduce(data, DoubleMethod(), 4, **kwargs).value
        assert a == b


class TestProcPoolLifecycle:
    def test_rejects_bad_pes(self):
        with pytest.raises(ValueError):
            ProcPool(pes=0)

    def test_rejects_2d_data(self):
        with pytest.raises(ValueError):
            ProcPool(data=np.zeros((2, 2)))

    def test_reduce_without_load(self):
        with ProcPool(pes=1) as pool:
            with pytest.raises(RuntimeError):
                pool.reduce(HPSmallaccMethod(PARAMS))

    def test_pool_reuse_across_methods_and_loads(self, data, hp_words):
        """One persistent pool serves repeated reductions — the
        benchmark usage pattern."""
        with ProcPool(data=data, pes=2) as pool:
            pool.warmup()
            r1 = pool.reduce(HPSmallaccMethod(PARAMS))
            r2 = pool.reduce(HPMethod(PARAMS))
            assert small_words(r1.partial) == hp_words
            assert tuple(r2.partial) == hp_words
            # load() swaps the shared segment and restarts the workers
            pool.load(data[: N // 2])
            r3 = pool.reduce(HPSmallaccMethod(PARAMS))
            assert small_words(r3.partial) == HPMethod(
                PARAMS
            ).local_reduce(data[: N // 2])


class TestOutOfCore:
    def test_memmap_matches_incore(self, tmp_path, data, hp_words):
        path = tmp_path / "summands.npy"
        np.save(path, data)
        with ProcPool(pes=2) as pool:
            r = pool.reduce_memmap(path, HPSmallaccMethod(PARAMS), chunk=700)
        assert r.source == "memmap"
        assert r.tasks >= N // 700
        assert small_words(r.partial) == hp_words

    def test_memmap_rejects_2d(self, tmp_path):
        path = tmp_path / "grid.npy"
        np.save(path, np.zeros((4, 4)))
        with ProcPool(pes=1) as pool:
            with pytest.raises(ValueError):
                pool.reduce_memmap(path, HPSmallaccMethod(PARAMS))

    def test_path_source_routes_to_memmap(self, tmp_path, data, hp_words):
        path = tmp_path / "summands.npy"
        np.save(path, data)
        r = procpool_reduce(str(path), HPSmallaccMethod(PARAMS), 2)
        assert r.source == "memmap"
        assert small_words(r.partial) == hp_words

    def test_ooc_threshold_spills(self, data, hp_words):
        """Arrays above the threshold stream via a temp .npy instead of
        a shared segment — still bit-identical."""
        r = procpool_reduce(
            data, HPSmallaccMethod(PARAMS), 2, ooc_threshold=1024
        )
        assert r.source == "memmap"
        assert small_words(r.partial) == hp_words

    def test_below_threshold_stays_shm(self, data):
        r = procpool_reduce(
            data, HPSmallaccMethod(PARAMS), 2, ooc_threshold=1 << 30
        )
        assert r.source == "shm"


class TestDriverIntegration:
    def test_global_sum_procs_substrate(self, data, hp_words):
        serial = global_sum(data, method="hp-small", substrate="serial")
        r = global_sum(data, method="hp-small", substrate="procs", pes=4)
        assert r.words == serial.words == hp_words
        assert r.value == serial.value

    def test_global_sum_procs_kwargs(self, data, hp_words):
        r = global_sum(
            data, method="hp-small", substrate="procs", pes=2,
            schedule=Schedule("guided", 32), chunk=900,
        )
        assert r.words == hp_words

    def test_substrates_tuple_lists_procs(self):
        from repro.parallel.drivers import SUBSTRATES

        assert "procs" in SUBSTRATES


class TestObservability:
    @pytest.fixture(autouse=True)
    def clean_observability(self):
        from repro.observability import metrics, tracing

        metrics.disable()
        tracing.disable()
        metrics.REGISTRY.clear()
        tracing.TRACER.reset()
        yield
        metrics.disable()
        tracing.disable()
        metrics.REGISTRY.clear()
        tracing.TRACER.reset()

    def test_metrics_and_worker_spans(self, data):
        from repro.observability import metrics, tracing

        metrics.enable()
        tracing.enable()
        r = procpool_reduce(data, HPSmallaccMethod(PARAMS), 2)
        assert r.tasks == 2

        snap = metrics.REGISTRY.snapshot()
        by_name = {}
        for m in snap["metrics"]:
            by_name.setdefault(m["name"], []).append(m)
        assert sum(m["value"] for m in by_name["procpool.reduces"]) == 1
        assert sum(m["value"] for m in by_name["procpool.tasks"]) == 2
        nbytes = HPSmallaccMethod(PARAMS).partial_nbytes()
        assert sum(
            m["value"] for m in by_name["procpool.partial_bytes"]
        ) == 2 * nbytes
        assert sum(
            m["count"] for m in by_name["procpool.task_seconds"]
        ) == 2
        # worker-side engine counters merged into the master registry
        assert "smallacc.scatter_bytes" in by_name

        spans = tracing.TRACER.export()["spans"]
        names = [s["name"] for s in spans]
        assert names.count("procpool.worker") == 2
        reduce_span = next(
            s for s in spans if s["name"] == "procpool.reduce"
        )
        workers = [s for s in spans if s["name"] == "procpool.worker"]
        assert all(
            w["parent_id"] == reduce_span["span_id"] for w in workers
        )
        assert all(w["attrs"]["pid"] != 0 for w in workers)

    def test_disabled_observability_ships_no_meta(self, data):
        from repro.observability import metrics, tracing

        r = procpool_reduce(data, HPSmallaccMethod(PARAMS), 2)
        assert r.value is not None
        assert metrics.REGISTRY.snapshot()["metrics"] == []
        assert tracing.TRACER.export()["spans"] == []
