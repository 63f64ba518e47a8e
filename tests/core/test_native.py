"""Compiled-backend contract: resolution chain, env pins, bit identity,
and a build cache that is never trusted blindly.

The native module promises that every backend computes the *same* exact
integer arithmetic and that resolution degrades gracefully (auto never
raises; an explicit ``cext`` raises
:class:`~repro.core.native.NativeUnavailableError` when missing).  Tests
that need a compiled kernel skip when the environment cannot build one —
the pure leg always runs.  The cache tests run in subprocesses, because
loading a damaged shared object can kill the interpreter with a signal.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import native, planner
from repro.core.params import HPParams
from repro.core.smallacc import bin_count, smallacc_total
from repro.core.vectorized import _finalize_total, batch_sum_doubles
from repro.errors import ConversionOverflowError
from repro.observability import metrics as obs_metrics
from repro.observability.metrics import REGISTRY
from repro.observability.profile import profiled
from repro.observability.tracing import TRACER
from repro.parallel.drivers import global_sum

from tests.core.test_smallacc import adversarial_pool, words

P = HPParams(3, 2)


def _compiled_or_skip() -> native.KernelSet:
    kern = native.resolve("auto")
    if not kern.compiled:
        pytest.skip("no compiled backend available in this environment")
    return kern


@pytest.fixture
def clean_env(monkeypatch):
    """Reset resolution caches and scrub the env knobs around a test."""
    for var in ("REPRO_FORCE_PURE", "REPRO_NATIVE", "REPRO_NATIVE_CACHE"):
        monkeypatch.delenv(var, raising=False)
    native._reset_for_tests()
    yield monkeypatch
    native._reset_for_tests()


class TestResolution:
    def test_pure_always_available(self):
        kern = native.resolve("pure")
        assert kern.name == "pure"
        assert not kern.compiled

    def test_auto_never_raises(self, clean_env):
        kern = native.resolve("auto")
        assert kern.name in ("cext", "pure")

    def test_force_pure_env(self, clean_env):
        clean_env.setenv("REPRO_FORCE_PURE", "1")
        assert native.force_pure()
        assert native.resolve("auto") is native.PURE
        assert native.backend_name() == "pure"

    def test_repro_native_pure_pin(self, clean_env):
        clean_env.setenv("REPRO_NATIVE", "pure")
        assert native.resolve("auto") is native.PURE

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            native.resolve("fortran")

    def test_explicit_numba_raises_when_missing(self, clean_env):
        # The ladder is cext -> pure; numba is not a backend.
        with pytest.raises(ValueError, match="unknown backend"):
            native.resolve("numba")

    def test_backend_info_shape(self, clean_env):
        info = native.backend_info()
        assert set(info) == {
            "backend", "compiled", "force_pure", "build_errors"
        }
        assert isinstance(info["compiled"], bool)

    def test_resolution_is_cached(self, clean_env):
        assert native.resolve("auto") is native.resolve("auto")

    def test_environment_is_read_once_per_reset(self, clean_env):
        first = native.resolve("auto")
        clean_env.setenv("REPRO_FORCE_PURE", "1")
        assert native.resolve("auto") is first
        native._reset_for_tests()
        assert native.resolve("auto") is native.PURE


def compiled_total(kern, xs, params):
    return kern.scatter_total(
        np.ascontiguousarray(xs), params.frac_bits, params.whole_bits,
        bin_count(params),
    )


def pure_total(xs, params):
    return smallacc_total(xs, params, backend="pure")


class TestKernelBitIdentity:
    def test_smallacc_scatter_matches_pure(self, rng, hp_params):
        kern = _compiled_or_skip()
        xs = adversarial_pool(hp_params, rng, 800)
        total = compiled_total(kern, xs, hp_params)
        assert type(total) is int
        assert total == pure_total(xs, hp_params)

    def test_engine_absorb_matches_pure(self, rng, hp_params):
        kern = _compiled_or_skip()
        xs = adversarial_pool(hp_params, rng, 800)
        assert native.resolve("auto") is kern
        compiled = smallacc_total(xs, hp_params, backend="auto")
        assert compiled == pure_total(xs, hp_params)

    def test_internal_propagation_cadence(self, rng):
        """More elements than SMALL_PROPAGATE_LIMIT forces in-kernel
        carry propagation; exactness must survive the cadence."""
        kern = _compiled_or_skip()
        n = 3 * native.SMALL_PROPAGATE_LIMIT + 17
        xs = adversarial_pool(P, rng, n)
        assert compiled_total(kern, xs, P) == pure_total(xs, P)

    def test_denormals_and_signed_zero(self):
        """Bit-inspection decompose must match frexp on the edge cases
        it reimplements: subnormal normalization and both zeros."""
        kern = _compiled_or_skip()
        xs = np.array([5e-324, -5e-324, 2.0**-1022, 0.0, -0.0,
                       2.0**-1040, -(2.0**-1060)])
        assert compiled_total(kern, xs, P) == pure_total(xs, P)

    def test_cross_backend_merge(self, rng, hp_params):
        """Compiled and pure totals over different halves must add up
        to the one-shot pure total — interchangeable mid-stream."""
        _compiled_or_skip()
        xs = adversarial_pool(hp_params, rng, 600)
        a = smallacc_total(xs[:300], hp_params, backend="auto")
        b = smallacc_total(xs[300:], hp_params, backend="pure")
        assert a + b == pure_total(xs, hp_params)


class TestEntryPoints:
    """The extension's calling contract: a 1-D C-contiguous float64
    buffer in, an exact ``int`` (or ``None``) out."""

    @pytest.mark.parametrize("shape", ["2-D", "strided", "float32"])
    def test_other_buffers_are_type_errors(self, shape):
        kern = _compiled_or_skip()
        xs = np.linspace(-1.0, 1.0, 64)
        bad = {"2-D": xs.reshape(8, 8), "strided": xs[::2],
               "float32": xs.astype(np.float32)}[shape]
        with pytest.raises(TypeError):
            kern.scatter_total(bad, P.frac_bits, P.whole_bits, bin_count(P))
        with pytest.raises(TypeError):
            kern.neumaier_partial(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.0**P.whole_bits])
    def test_rejected_batch_returns_none(self, bad):
        kern = _compiled_or_skip()
        xs = np.linspace(-1.0, 1.0, 3000)
        xs[2500] = bad
        assert compiled_total(kern, xs, P) is None

    def test_too_few_chunks_is_a_value_error(self):
        kern = _compiled_or_skip()
        with pytest.raises(ValueError):
            kern.scatter_total(np.ones(4), P.frac_bits, P.whole_bits,
                               bin_count(P) - 2)

    def test_interpreter_tag_is_in_the_cache_digest(self):
        a = native._digest(".cpython-311-x86_64-linux-gnu.so")
        b = native._digest(".cpython-312-x86_64-linux-gnu.so")
        assert a != b
        assert native._digest() == native._digest(native._EXT_SUFFIX)


def _total_both(xs, params):
    """Sum ``xs`` on both backends; return the (compiled, pure) words,
    ``None`` for a rejected batch, and the errors the two raised."""
    got, errors = [], []
    for backend in ("cext", "pure"):
        try:
            got.append(smallacc_words(xs, params, backend))
        except ConversionOverflowError as exc:
            got.append(None)
            errors.append(exc)
    return got, errors


def _assert_exact_on_both(xs, params):
    """Compiled words == pure words == the words engine's."""
    (compiled, pure), errors = _total_both(xs, params)
    assert not errors
    assert compiled == pure == words(xs, params)


class TestLargeTableKernel:
    """The compiled scatter's table path, its exactness trap and its
    in-kernel validation against pure and the words engine."""

    @pytest.fixture(autouse=True)
    def _compiled(self):
        _compiled_or_skip()

    def test_trap_at_tiny_exponents_via_entry_points(self, rng):
        # Values at 2**-150 have bits below HP(3,2)'s 2**-128: blocks
        # holding one take the per-summand path, the others the table.
        xs = rng.uniform(-1.0, 1.0, 5 * 2048 + 33)
        tiny = rng.choice(xs.shape[0], 7, replace=False)
        xs[tiny] = np.ldexp(rng.uniform(1.0, 2.0, 7), -150) * rng.choice(
            [-1.0, 1.0], 7
        )
        start = tiny[0] // 2048 * 2048
        xs[start : start + 5] = 3 * 2.0**-140
        want = words(xs, P)
        assert batch_sum_doubles(xs, P, method="small") == want
        assert global_sum(xs, "hp", params=P).words == want
        for backend in ("cext", "pure"):
            assert smallacc_words(xs, P, backend) == want

    @pytest.mark.parametrize("params", [P, HPParams(19, 18), HPParams(18, 17)])
    def test_subnormals_and_signed_zeros(self, rng, params):
        xs = rng.uniform(-1.0, 1.0, 3 * 2048 + 1)
        picks = rng.choice(xs.shape[0], 600, replace=False)
        xs[picks] = rng.choice(
            [0.0, -0.0, 5e-324, -5e-324, 2.0**-1040, -(2.0**-1060),
             2.0**-1022, -(2.0**-1022 - 5e-324)], 600
        )
        _assert_exact_on_both(xs, params)
        # A block of nothing but subnormals and zeros.
        _assert_exact_on_both(xs[picks], params)
        _assert_exact_on_both(np.full(3000, -0.0), params)

    @pytest.mark.parametrize("n", [5, 4097])
    def test_negative_range_edge_is_accepted(self, rng, n):
        # The rest sums positive, so the total stays in range too.
        xs = rng.uniform(0.0, 1.0, n)
        xs[n // 2] = -(2.0**P.whole_bits)
        _assert_exact_on_both(xs, P)

    @pytest.mark.parametrize("n", [5, 4097])
    def test_positive_range_edge_is_rejected(self, rng, n):
        xs = rng.uniform(-1.0, 1.0, n)
        xs[n // 2] = 2.0**P.whole_bits
        _, (got, want) = _total_both(xs, P)
        assert str(got) == str(want)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 2047, 2048, -1])
    def test_nonfinite_rejected_like_pure(self, rng, bad, where):
        xs = rng.uniform(-1.0, 1.0, 3 * 2048 + 5)
        xs[where] = bad
        _, (got, want) = _total_both(xs, P)
        assert type(got) is type(want) and str(got) == str(want)

    def test_wide_format_rejects_negative_infinity(self, rng):
        params = HPParams(18, 1)  # whole_bits >= 1024: every finite double
        assert params.whole_bits >= 1024
        xs = rng.uniform(-1.0, 1.0, 4100)
        xs[[7, 3000]] = -1.7e308, 1.7e308
        _assert_exact_on_both(xs, params)
        xs[4000] = -math.inf
        _, (got, want) = _total_both(xs, params)
        assert str(got) == str(want)

    def test_block_sums_cannot_wrap(self):
        # One key summing all-ones mantissas: 2,048 of them is the most
        # a table entry holds, so any wider block would wrap.
        xs = np.full(5 * 2048 + 3, 2.0**11 - 2.0**-42)
        xs[::3] *= -1.0
        _assert_exact_on_both(xs, P)
        _assert_exact_on_both(np.abs(xs), P)

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_illconditioned_on_the_planned_format(self, seed):
        # The benchmark's cancelling ± pairs over 2**-60..2**61, on the
        # HP(4,2) the planner picks for them.
        x = illconditioned(np.random.default_rng(seed), 1 << 15)
        assert planner.planned_sum(x, 0.0).params == HPParams(4, 2)
        _assert_exact_on_both(x, HPParams(4, 2))
        _assert_exact_on_both(x[:2049], HPParams(4, 2))

    def test_known_answer_records_no_telemetry(self):
        # The self-test runs inside resolve(), under the caller's phase,
        # so with every gate armed it must still leave nothing behind.
        kern = _compiled_or_skip()
        REGISTRY.clear()
        TRACER.reset()
        try:
            with profiled():
                assert native._known_answer(kern)
            assert REGISTRY.collect() == [] and TRACER.spans() == []
        finally:
            REGISTRY.clear()
            TRACER.reset()

    def test_concurrent_one_shot_totals(self, rng):
        """Threads in the compiled one-shot total at once (the GIL is
        released in the kernel, and switched often) each get serial's
        words: every call scatters into a chunk array of its own."""
        _compiled_or_skip()
        workers = 4  # more than the reference machine's cores
        xs = [rng.uniform(-1.0, 1.0, 1 << 16) * (i + 1) for i in range(workers)]
        want = [global_sum(x, "hp", params=P).words for x in xs]
        barrier = threading.Barrier(workers)
        got = [[] for _ in range(workers)]

        def run(i):
            barrier.wait()
            for _ in range(50):
                got[i].append(global_sum(xs[i], "hp", params=P).words)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[w] * 50 for w in want]

    def test_threads_native_matches_serial(self, rng):
        # Two real threads run the kernel at once with the GIL released.
        xs = np.ldexp(rng.uniform(-1.0, 1.0, 1 << 20),
                      rng.integers(-40, 40, 1 << 20))
        serial = global_sum(xs, "hp")
        threaded = global_sum(xs, "hp", "threads", 2, engine="native")
        assert threaded.words == serial.words


def smallacc_words(xs, params, backend):
    return _finalize_total(
        smallacc_total(xs, params, backend=backend), params, True
    )


def illconditioned(rng, n):
    """± pairs with exponents 2**-60..2**60 that cancel to a 1e-9
    relative residue, shuffled, with both extremes pinned."""
    half = n // 2
    a = np.ldexp(rng.uniform(1.0, 2.0, half), rng.integers(-60, 60, half))
    a *= rng.choice((-1.0, 1.0), half)
    a[0], a[1] = 1.5 * 2.0**60, 2.0**-60
    residue = rng.uniform(-1e-9, 1e-9, half)
    residue[:2] = 0.0
    x = np.concatenate([a, -(a * (1.0 + residue))])
    rng.shuffle(x)
    return x


def smallacc_backend(monkeypatch, **kwargs) -> str:
    """The backend one ``smallacc_total`` call ran on, read from its
    ``smallacc.backend`` gauge."""
    monkeypatch.setattr(obs_metrics, "ENABLED", True)
    REGISTRY.clear()
    try:
        smallacc_total(np.ones(8), P, **kwargs)
        (gauge,) = REGISTRY.collect("smallacc.backend")
        return gauge["labels"]["backend"]
    finally:
        REGISTRY.clear()


class TestEngineBackendSelection:
    def test_smallacc_pure_pin(self, monkeypatch):
        assert smallacc_backend(monkeypatch, backend="pure") == "pure"

    def test_smallacc_defaults_auto(self, clean_env):
        # The default exact engine takes whatever the resolution chain
        # yields: the compiled kernel where one builds.
        assert smallacc_backend(clean_env) == native.backend_name()

    def test_smallacc_honors_force_pure(self, clean_env):
        clean_env.setenv("REPRO_FORCE_PURE", "1")
        assert native.resolve("auto") is native.PURE
        assert smallacc_backend(clean_env, backend="auto") == "pure"

    def test_explicit_compiled_name_round_trips(self, monkeypatch):
        kern = _compiled_or_skip()
        assert native.resolve(kern.name) is kern
        assert smallacc_backend(monkeypatch, backend=kern.name) == kern.name


SRC = Path(__file__).resolve().parents[2] / "src"

#: One exact request, then the resolved backend as JSON on stdout.
PROBE = """
import json
import numpy as np
from repro.core import native
from repro.parallel.drivers import global_sum
assert global_sum(np.ones(1000), "hp").value == 1000.0
print(json.dumps(native.backend_info()))
"""


def start_probe(cache: Path | None, prelude: str = "",
                tmpdir: Path | None = None) -> subprocess.Popen:
    """Start :data:`PROBE` in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_FORCE_PURE", "REPRO_NATIVE",
                        "REPRO_NATIVE_CACHE")}
    env["PYTHONPATH"] = str(SRC)
    if cache is not None:
        env["REPRO_NATIVE_CACHE"] = str(cache)
    if tmpdir is not None:
        env["TMPDIR"] = str(tmpdir)
    return subprocess.Popen(
        [sys.executable, "-c", prelude + PROBE], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish_probe(proc: subprocess.Popen):
    """Wait for a probe; return (backend_info, stderr)."""
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, (proc.returncode, err)
    return json.loads(out.splitlines()[-1]), err


def run_probe(cache: Path | None, prelude: str = "",
              tmpdir: Path | None = None):
    return finish_probe(start_probe(cache, prelude, tmpdir))


#: Probe prelude: journal on, and the ``native.*`` events as JSON on
#: stderr at exit.
JOURNAL_NATIVE_EVENTS = (
    "from repro.observability import journal\n"
    "journal.enable()\n"
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps(journal.JOURNAL"
    ".events('native.')), file=sys.stderr))\n"
)

#: Probe prelude: the paths the extension is loaded from, as JSON on
#: stderr at exit.
RECORD_LOADS = (
    "import atexit, json, sys\n"
    "from repro.core import native\n"
    "loads, load = [], native._load\n"
    "native._load = lambda path: loads.append(path) or load(path)\n"
    "atexit.register(lambda: print(json.dumps(loads), file=sys.stderr))\n"
)


def shared_object(cache: Path) -> Path:
    (so,) = cache.glob("libreprokern-*.so")
    return so


@pytest.fixture(scope="module")
def built_cache(tmp_path_factory):
    """A cache holding one good build; tests damage copies of it."""
    cache = tmp_path_factory.mktemp("native") / "cache"
    info, _ = run_probe(cache)
    if info["backend"] != "cext":
        pytest.skip(f"no compiled backend here: {info['build_errors']}")
    return cache


@pytest.fixture
def cache(built_cache, tmp_path):
    copy = tmp_path / "cache"
    shutil.copytree(built_cache, copy)
    return copy


@pytest.mark.usefixtures("built_cache")  # skips where nothing compiles
class TestCompiledCache:
    def test_intact_cache_loads_without_rebuild(self, cache):
        so = shared_object(cache)
        before = so.stat().st_mtime_ns
        info, err = run_probe(cache)
        assert info["backend"] == "cext" and err == ""
        assert so.stat().st_mtime_ns == before

    def test_truncated_object_is_rebuilt(self, cache):
        so = shared_object(cache)
        size = so.stat().st_size
        os.truncate(so, 4096)
        info, err = run_probe(cache)
        assert info["backend"] == "cext" and err == ""
        assert so.stat().st_size == size

    def test_garbage_object_is_rebuilt(self, cache):
        so = shared_object(cache)
        so.write_bytes(np.random.default_rng(3).bytes(so.stat().st_size))
        info, err = run_probe(cache)
        assert info["backend"] == "cext" and err == ""
        run_probe(cache)  # the rebuilt object now loads as is

    def test_missing_hash_is_rebuilt(self, cache):
        so = shared_object(cache)
        Path(str(so) + ".sha256").unlink()
        info, _ = run_probe(cache)
        assert info["backend"] == "cext"
        assert Path(str(so) + ".sha256").is_file()

    def test_foreign_owned_directory_refused(self, cache):
        fake_uid = "import os\nuid = os.getuid()\nos.getuid = lambda: uid + 1\n"
        info, err = run_probe(cache, fake_uid)
        assert info["backend"] == "pure"
        assert "owned by uid" in info["build_errors"]["cext"]
        assert err.count("warning:") == 1

    def test_writable_by_others_refused(self, cache):
        cache.chmod(0o777)
        info, err = run_probe(cache)
        assert info["backend"] == "pure"
        assert "writable by other users" in info["build_errors"]["cext"]
        assert err.count("warning:") == 1

    def test_default_directory_is_private_per_user(self, tmp_path):
        info, _ = run_probe(None, tmpdir=tmp_path)
        assert info["backend"] == "cext"
        (made,) = tmp_path.glob(f"repro-native-{os.getuid()}-*")
        assert stat.S_IMODE(made.stat().st_mode) == 0o700

    def test_concurrent_first_builds(self, tmp_path):
        cache = tmp_path / "cache"
        probes = [start_probe(cache) for _ in range(2)]
        for proc in probes:
            info, err = finish_probe(proc)
            assert info["backend"] == "cext" and err == ""
        so = shared_object(cache)
        assert native._hash_matches(str(so))

    def test_new_directory_under_permissive_umask_accepted(self, tmp_path):
        # A build directory made by the caller (as a benchmark checkout
        # does) holding a cache directory this module creates.
        build = tmp_path / ".bench_build"
        build.mkdir()
        info, _ = run_probe(
            build / "repro-native", "import os\nos.umask(0o002)\n"
        )
        assert info["backend"] == "cext"

    def test_wrong_object_with_its_hash_is_rebuilt(self, built_cache, cache):
        # An object that loads and matches its recorded hash but sums
        # wrong: only the known-answer test can tell.
        so = shared_object(cache)
        wrong = native._C_SOURCE.replace(
            "chunks[base + i] += local[i];",
            "chunks[base + i] += local[i] + 1;",
        )
        assert wrong != native._C_SOURCE
        subprocess.run(native._compile_command(native._find_cc(), str(so)),
                       input=wrong, text=True, check=True)
        Path(str(so) + ".sha256").write_text(native._sha256(str(so)) + "\n")
        info, err = run_probe(cache, RECORD_LOADS)
        assert info["backend"] == "cext"
        good = shared_object(built_cache)
        assert native._sha256(str(so)) == native._sha256(str(good))
        # The rebuild was imported from a fresh path: an extension module
        # cannot be unloaded, and its first path gives back the wrong one.
        first, rebuilt = json.loads(err)
        assert first == str(so) and rebuilt != first
        assert not Path(rebuilt).exists()

    def test_missing_headers_fall_back_to_pure(self, tmp_path):
        no_headers = (
            "import sysconfig\n"
            "paths = sysconfig.get_paths\n"
            "sysconfig.get_paths = lambda *a, **k: {**paths(*a, **k), "
            f"'include': {str(tmp_path)!r}}}\n" + JOURNAL_NATIVE_EVENTS
        )
        info, err = run_probe(tmp_path / "cache", no_headers)
        assert info["backend"] == "pure"
        assert "Python.h" in info["build_errors"]["cext"]
        warning, events = err.strip().splitlines()
        assert warning.startswith("warning:")
        (event,) = json.loads(events)
        assert event["event"] == "native.fallback"
        assert event["reason"] == info["build_errors"]["cext"]

    def test_fallback_is_journaled(self, cache):
        failing = ("from repro.core import native\n"
                   "native._known_answer = lambda kern: False\n"
                   + JOURNAL_NATIVE_EVENTS)
        info, err = run_probe(cache, failing)
        assert info["backend"] == "pure"
        # One stderr warning line and one journal event with the reason.
        warning, events = err.strip().splitlines()
        assert warning.startswith("warning:")
        (event,) = json.loads(events)
        assert event["event"] == "native.fallback"
        assert event["backend"] == "pure"
        assert event["reason"] == info["build_errors"]["cext"]
        assert "known-answer" in event["reason"]

    def test_failing_known_answer_falls_back_to_pure(self, cache):
        failing = ("from repro.core import native\n"
                   "native._known_answer = lambda kern: False\n")
        info, err = run_probe(cache, failing)
        assert info["backend"] == "pure"
        assert "known-answer" in info["build_errors"]["cext"]
        assert err.count("warning:") == 1


def run_backend_probe(cache: Path, **env_extra) -> subprocess.CompletedProcess:
    """``python -m repro.core.native`` (CI's backend probe), warnings on."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_FORCE_PURE", "REPRO_NATIVE",
                        "REPRO_NATIVE_CACHE", "PYTHONWARNINGS")}
    env.update(PYTHONPATH=str(SRC), REPRO_NATIVE_CACHE=str(cache), **env_extra)
    return subprocess.run(
        [sys.executable, "-W", "default", "-m", "repro.core.native"],
        env=env, capture_output=True, text=True, timeout=300,
    )


class TestBackendProbe:
    def test_forced_pure_exits_zero_without_warnings(self, tmp_path):
        probe = run_backend_probe(tmp_path / "cache", REPRO_FORCE_PURE="1")
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout == "repro native backend: pure\n"
        assert "RuntimeWarning" not in probe.stderr
        assert probe.stderr == ""

    def test_compiled_exits_zero_without_warnings(self, cache):
        probe = run_backend_probe(cache)
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout == "repro native backend: cext\n"
        assert "RuntimeWarning" not in probe.stderr

    def test_fallback_to_pure_exits_one(self, tmp_path):
        refused = tmp_path / "cache"
        refused.mkdir()
        refused.chmod(0o777)  # writable by others: never loaded from
        probe = run_backend_probe(refused)
        assert probe.returncode == 1
        assert probe.stdout == "repro native backend: pure\n"
        assert "RuntimeWarning" not in probe.stderr
