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
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import native
from repro.core.params import HPParams
from repro.core.smallacc import (
    SmallAccumulator,
    bin_count,
    bins_from_int,
    fold_bins,
)

from tests.core.test_superacc import adversarial_pool

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


class TestKernelBitIdentity:
    def test_smallacc_scatter_matches_pure(self, rng, hp_params):
        kern = _compiled_or_skip()
        xs = adversarial_pool(hp_params, rng, 800)
        chunks = np.zeros(bin_count(hp_params), dtype=np.int64)
        kern.smallacc_scatter(
            np.ascontiguousarray(xs), hp_params.frac_bits, chunks
        )
        pure = SmallAccumulator(hp_params, backend="pure")
        pure.absorb(xs)
        pure.propagate()
        # The kernel returns the array canonical, so raw comparison holds.
        assert tuple(int(v) for v in chunks) == pure.chunks

    def test_engine_absorb_matches_pure(self, rng, hp_params):
        kern = _compiled_or_skip()
        xs = adversarial_pool(hp_params, rng, 800)
        compiled = SmallAccumulator(hp_params, backend="auto")
        assert compiled.backend == kern.name
        compiled.absorb(xs)
        pure = SmallAccumulator(hp_params, backend="pure")
        pure.absorb(xs)
        assert compiled.to_words() == pure.to_words()

    def test_propagate_matches_canonical(self, rng):
        kern = _compiled_or_skip()
        limbs = np.array(
            [int(v) for v in rng.integers(-(2**40), 2**40, 8)],
            dtype=np.int64,
        )
        value = fold_bins(limbs)
        kern.propagate(limbs)
        assert tuple(int(v) for v in limbs) == bins_from_int(value, 8)

    def test_internal_propagation_cadence(self, rng):
        """More elements than SMALL_PROPAGATE_LIMIT forces in-kernel
        carry propagation; exactness must survive the cadence."""
        kern = _compiled_or_skip()
        n = 3 * native.SMALL_PROPAGATE_LIMIT + 17
        xs = adversarial_pool(P, rng, n)
        chunks = np.zeros(bin_count(P), dtype=np.int64)
        kern.smallacc_scatter(np.ascontiguousarray(xs), P.frac_bits, chunks)
        pure = SmallAccumulator(P, backend="pure")
        pure.absorb(xs)
        pure.propagate()
        assert tuple(int(v) for v in chunks) == pure.chunks

    def test_denormals_and_signed_zero(self):
        """Bit-inspection decompose must match frexp on the edge cases
        it reimplements: subnormal normalization and both zeros."""
        kern = _compiled_or_skip()
        xs = np.array([5e-324, -5e-324, 2.0**-1022, 0.0, -0.0,
                       2.0**-1040, -(2.0**-1060)])
        chunks = np.zeros(bin_count(P), dtype=np.int64)
        kern.smallacc_scatter(np.ascontiguousarray(xs), P.frac_bits, chunks)
        pure = SmallAccumulator(P, backend="pure")
        pure.absorb(xs)
        pure.propagate()
        assert tuple(int(v) for v in chunks) == pure.chunks

    def test_cross_backend_merge(self, rng, hp_params):
        """Compiled and pure accumulators over different halves must
        merge to the one-shot pure result — interchangeable mid-stream."""
        _compiled_or_skip()
        xs = adversarial_pool(hp_params, rng, 600)
        a = SmallAccumulator(hp_params, backend="auto")
        b = SmallAccumulator(hp_params, backend="pure")
        a.absorb(xs[:300])
        b.absorb(xs[300:])
        a.merge(b)
        whole = SmallAccumulator(hp_params, backend="pure")
        whole.absorb(xs)
        assert a.total() == whole.total()


class TestEngineBackendSelection:
    def test_smallacc_pure_pin(self):
        assert SmallAccumulator(P, backend="pure").backend == "pure"

    def test_smallacc_defaults_auto(self, clean_env):
        # The default exact engine takes whatever the resolution chain
        # yields: the compiled kernel where one builds.
        assert SmallAccumulator(P).backend == native.backend_name()

    def test_smallacc_honors_force_pure(self, clean_env):
        clean_env.setenv("REPRO_FORCE_PURE", "1")
        assert SmallAccumulator(P, backend="auto").backend == "pure"

    def test_explicit_compiled_name_round_trips(self):
        kern = _compiled_or_skip()
        engine = SmallAccumulator(P, backend=kern.name)
        assert engine.backend == kern.name


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
