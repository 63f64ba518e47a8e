"""Optional compiled backend for the accumulation inner loops.

The exact engine (:mod:`repro.core.smallacc`) spends essentially all of
its time in two tiny integer loops: scatter a mantissa's 32-bit limbs
into exponent-indexed ``int64`` slots, and ripple deferred carries
between slots.
NumPy executes those loops through ``np.add.at`` — deterministic, but a
dispatch-heavy scalar fallback inside NumPy.  This module compiles the
same loops to machine code when the environment allows it, with Neal's
large superaccumulator in front of the scatter and the input's
validation folded into it, and with a two-step fallback chain:

``cext``
    A small self-contained C translation unit (embedded in this file,
    no build system needed) is compiled best-effort with the system C
    compiler into a cached shared object and loaded through
    :mod:`ctypes`.  The first build happens at first use; later
    processes reuse the cached ``.so`` keyed by a hash of the source.
``pure``
    If that fails — or ``REPRO_FORCE_PURE=1`` is set — the engines keep
    their pure-NumPy paths.  Nothing is lost but speed.

**Bit-identity contract.**  Both backends implement the *same* exact
integer arithmetic: the scatter decomposition reproduces ``frexp``
(including subnormal normalization) bit-for-bit, limb adds are plain
two's-complement ``int64`` adds, and carry propagation uses arithmetic
(floor) right shifts — exactly the NumPy semantics.  Backends are
therefore interchangeable mid-computation; ``tests/core/test_native.py``
and the engine gates in ``tests/core/test_smallacc.py`` pin
compiled-vs-pure bit-identity.

**An object that computes wrong words is never used.**  After loading,
the kernel scatters fixed batches that reach every branch of the C
source and must give pure's chunks; a mismatch rebuilds the object
once, then falls back to pure like a failed build.

**A cache that cannot be trusted is never loaded.**  The cache directory
must belong to the current user and be writable by no one else; a
directory this module creates is private (mode ``0o700``).  Each build
records the ``.so``'s sha256 beside it, and the hash is checked before
the object is loaded, so a truncated or overwritten object is rebuilt
instead of crashing the interpreter.  When the directory is refused or
the rebuild fails, ``auto`` falls back to pure with one stderr warning
and the reason in :func:`backend_info`'s ``build_errors``.

The selected backend is introspectable via :func:`backend_info` /
``repro stats`` and published as the ``smallacc.backend`` gauge.

Environment knobs
-----------------
``REPRO_FORCE_PURE=1``
    Skip every compiled backend (CI uses this for the pure leg of the
    backend matrix).
``REPRO_NATIVE=auto|cext|pure``
    Pin the resolution order's answer (``auto`` is the default chain).
``REPRO_NATIVE_CACHE=DIR``
    Directory for the compiled shared object (default: a subdirectory
    of the system temp dir keyed by user id and source hash); the
    object's file name is keyed by the source hash either way.

Run ``python -m repro.core.native`` to force a build eagerly and print
the resolved backend.
"""

from __future__ import annotations

import _ctypes
import ctypes
import hashlib
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "KernelSet",
    "NativeUnavailableError",
    "backend_info",
    "backend_name",
    "force_pure",
    "resolve",
]

#: Adds between in-loop carry propagations on the two-limb (Neal) path.
#: Per add a chunk gains at most one addend of magnitude < 2**52, so
#: after a post-propagation residue (< 2**33) plus 2046 adds every
#: |chunk| < 2**33 + 2046 * 2**52 < 2**63 - 2**52: comfortably inside
#: ``int64``.  2047 would shave the margin to under 2**33.
SMALL_PROPAGATE_LIMIT = 2046


class NativeUnavailableError(RuntimeError):
    """The explicitly requested compiled backend cannot be provided."""


@dataclass(frozen=True)
class KernelSet:
    """The compiled inner loops, or ``None`` each for the pure backend.

    Uniform Python-side signatures (arrays are contiguous, caller-owned):

    * ``smallacc_chunks(xs, frac_bits, whole_bits, nchunks)`` — exact
      scatter of every element of ``xs`` (float64) into a fresh,
      canonical ``int64`` chunk array of ``nchunks`` (``bin_count``)
      entries, in one kernel call.  It validates as it goes: ``None``
      means some element is NaN, infinite or has ``|x| >=
      2**whole_bits``.  The format also admits exactly
      ``-2**whole_bits``; the caller that finds only that value retries
      with ``whole_bits + 1``.  Neal's large superaccumulator runs in
      front of the two-limb adds (see the C source); blocks with bits
      below the format's resolution take the two-limb adds, which
      propagate every :data:`SMALL_PROPAGATE_LIMIT` adds.  The fresh
      array is a ctypes one, so only ``xs``'s address is looked up.
    * ``propagate(chunks)`` — one full sequential carry sweep leaving
      the canonical decomposition (non-negative 32-bit low windows,
      signed top chunk).
    * ``neumaier_partial(xs)`` — sequential Neumaier compensated sum
      over ``xs`` (float64), returning ``(total, err, max_abs)`` for
      :func:`repro.core.compensated.neumaier_partial`.  Unlike the
      integer kernels above this one carries **no** bit-identity
      contract against the pure path (the pure tier is lane-vectorized);
      each backend is deterministic for a fixed order and meets the same
      advertised error bound (:mod:`repro.core.bounds`).
    """

    name: str
    smallacc_chunks: Callable | None
    propagate: Callable | None
    neumaier_partial: Callable | None = None

    @property
    def compiled(self) -> bool:
        return self.smallacc_chunks is not None


#: The pure backend: engines use their own NumPy loops.
PURE = KernelSet("pure", None, None)

_LOCK = threading.Lock()
_RESOLVED: dict[str, KernelSet] = {}
_BUILD_ERRORS: dict[str, str] = {}


def force_pure() -> bool:
    """True when the environment pins the pure backend."""
    if os.environ.get("REPRO_FORCE_PURE", "").strip() not in ("", "0"):
        return True
    return os.environ.get("REPRO_NATIVE", "").strip().lower() == "pure"


# ---------------------------------------------------------------------------
# C extension backend: embedded source, built best-effort with ctypes
# ---------------------------------------------------------------------------

# The translation unit is embedded so no packaging machinery is needed:
# the cached .so is keyed by the source hash, so editing this string
# transparently rebuilds.  ``>> 32`` on int64 relies on arithmetic
# (floor) shift — the behavior of every compiler this repo targets and
# the exact semantics of NumPy's int64 right shift.
_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* frexp-compatible decomposition by bit inspection: for finite nonzero
   x, returns the 53-bit integer mantissa m (frexp fraction * 2**53,
   leading bit set) and writes e so that |x| = m * 2**(e - 53).
   Subnormals are normalized exactly as frexp does.  Returns 0 for
   (+/-)0.0; the caller validates away NaN/inf beforehand. */
static int64_t repro_decompose(double x, int64_t *e) {
    union { double d; uint64_t u; } b;
    uint64_t u, frac;
    int64_t biased;
    b.d = x;
    u = b.u & 0x7FFFFFFFFFFFFFFFULL;           /* drop the sign bit */
    if (u == 0) { *e = 0; return 0; }
    biased = (int64_t)(u >> 52);
    frac = u & 0xFFFFFFFFFFFFFULL;
    if (biased != 0) {                          /* normal */
        *e = biased - 1022;
        return (int64_t)((1ULL << 52) | frac);
    }
    {                                           /* subnormal */
        int z = 0;
        while (!(frac & (1ULL << 52))) { frac <<= 1; z++; }
        *e = -1021 - z;
        return (int64_t)frac;
    }
}

/* One full sequential carry sweep: every chunk i < n-1 is left holding
   its non-negative 32-bit window, the top chunk keeps the signed high
   part.  Because the carry rides along the sweep, a single pass lands
   on the canonical decomposition of the represented total. */
void repro_smallacc_propagate(int64_t *chunks, int64_t nchunks) {
    int64_t carry = 0, i, v;
    for (i = 0; i < nchunks - 1; i++) {
        v = chunks[i] + carry;
        chunks[i] = v & 0xFFFFFFFFLL;           /* low window, >= 0 */
        carry = v >> 32;                        /* arithmetic = floor */
    }
    chunks[nchunks - 1] += carry;
}

/* Neal's small-accumulator add: two 64-bit adds per summand.
   t = e - 53 + frac_bits positions the mantissa; below-resolution bits
   truncate toward zero (the batch_from_double rule).  The mantissa's
   low 32-sub bits land in chunk t>>5, the rest in the chunk above.
   Deferred carries are propagated every SMALL_PROPAGATE_LIMIT adds
   and once more on exit, so the array returns canonical.  The input
   must be finite and in range. */
static void small_scatter(const double *xs, int64_t n, int64_t frac_bits,
                          int64_t *chunks, int64_t nchunks) {
    int64_t since = 0, i;
    for (i = 0; i < n; i++) {
        double x = xs[i];
        int64_t e, mant, t, idx, sub, sign;
        uint64_t lo, hi;
        mant = repro_decompose(x, &e);
        if (mant == 0) continue;
        t = e - 53 + frac_bits;
        if (t < 0) {
            int64_t down = -t;
            if (down > 63) down = 63;
            mant >>= down;
            if (mant == 0) continue;
            t = 0;
        }
        idx = t >> 5;
        sub = t & 31;
        /* (mant << sub) may exceed 64 bits; unsigned wrap keeps the low
           32 bits exact, and the high part is mant >> (32 - sub). */
        lo = ((uint64_t)mant << sub) & 0xFFFFFFFFULL;
        hi = (uint64_t)mant >> (32 - sub);
        sign = (x < 0.0) ? -1 : 1;
        chunks[idx] += sign * (int64_t)lo;
        chunks[idx + 1] += sign * (int64_t)hi;
        if (++since >= 2046) {                  /* SMALL_PROPAGATE_LIMIT */
            repro_smallacc_propagate(chunks, nchunks);
            since = 0;
        }
    }
    repro_smallacc_propagate(chunks, nchunks);
}

#define FRAC_MASK 0xFFFFFFFFFFFFFULL
#define IMPLICIT (1ULL << 52)
/* Table keys: the top 12 bits of a double, sign and biased exponent. */
#define KEYS 4096
#define NEG 2048
/* Summands per table pass: a key sums at most BLOCK mantissas below
   2**53, and 2048 * (2**53 - 1) < 2**64, so no entry can wrap. */
#define BLOCK 2048
/* Chunks the local sum spans: from the chunk of the lowest position a
   double can take (zero when the format resolves below the subnormal
   floor) to two above the highest in-range one.  Doubles span 2,045
   positions above the lowest, so at most 67 chunks for any format. */
#define WINDOW 68

/* Exact scatter of xs into the canonical chunk array, or 1 when some
   summand is NaN, infinite or has |x| >= 2**whole_bits; a rejected
   batch leaves chunks untouched.  Neal's large superaccumulator runs
   in front of the small one: every summand adds its integer mantissa
   into the table entry of its (sign, exponent) key, and a block's
   entries are moved into a local chunk sum only once per BLOCK
   summands.  Summing mantissas first and truncating once would differ
   from truncating each summand, so a block holding a summand with bits
   below the format's resolution (tiny exponents, subnormals in narrow
   formats) is redone with the per-summand loop. */
int repro_smallacc_scatter(const double *xs, int64_t n, int64_t frac_bits,
                           int64_t whole_bits, int64_t *chunks,
                           int64_t nchunks) {
    /* Biased exponents >= limit are out of range (or NaN/infinite). */
    int64_t limit = whole_bits < 1024 ? 1023 + whole_bits : 2047;
    /* A key of biased exponent E (E >= 1; subnormals count as E = 1)
       puts its mantissa sum at position E - 1075 + frac_bits. */
    int64_t pos0 = frac_bits - 1075;
    int64_t top = limit - 1 + pos0;
    int64_t base = pos0 + 1 > 0 ? (pos0 + 1) >> 5 : 0;
    int64_t width = (top > 0 ? top >> 5 : 0) + 3 - base;
    uint64_t acc[KEYS];
    int64_t local[WINDOW];
    int64_t start, i;
    memset(acc, 0, sizeof acc);
    memset(local, 0, sizeof local);
    for (start = 0; start < n; start += BLOCK) {
        int64_t end = start + BLOCK < n ? start + BLOCK : n;
        int64_t emin, emax, e;
        for (i = start; i + 1 < end; i += 2) {
            uint64_t b, c;
            memcpy(&b, &xs[i], sizeof b);
            memcpy(&c, &xs[i + 1], sizeof c);
            acc[b >> 52] += (b & FRAC_MASK) | IMPLICIT;
            acc[c >> 52] += (c & FRAC_MASK) | IMPLICIT;
        }
        if (i < end) {
            uint64_t b;
            memcpy(&b, &xs[i], sizeof b);
            acc[b >> 52] += (b & FRAC_MASK) | IMPLICIT;
        }
        /* The block's extreme exponents come from the table: an entry
           is nonzero iff its key was hit, since every hit adds at least
           2**52 and no entry wraps, and the block hit at least one key,
           so both scans stop.  The scan costs about what a running max
           and min per summand would, and unlike that wider per-summand
           work it slows no more than the rest of the request on a core
           shared with another busy thread. */
        for (emax = 2047; !(acc[emax] | acc[NEG + emax]); emax--) {}
        if (emax >= limit) return 1;
        for (emin = 0; !(acc[emin] | acc[NEG + emin]); emin++) {}
        if (emin == 0) {
            /* Zeros and subnormals added an implicit bit they lack:
               count them per sign, and find the smallest exponent of
               a nonzero summand (±0 wraps to the top of b2 - 1). */
            uint64_t zp = 0, zn = 0, lo2 = ~0ULL;
            for (i = start; i < end; i++) {
                uint64_t b;
                memcpy(&b, &xs[i], sizeof b);
                zp += (b >> 52) == 0;
                zn += (b >> 52) == NEG;
                b = (b << 1) - 1;
                lo2 = b < lo2 ? b : lo2;
            }
            /* Subnormal mantissas sit at the E = 1 position; each key's
               sum stays below 2048 * 2**53 with them. */
            acc[1] += acc[0] - (zp << 52);
            acc[NEG + 1] += acc[NEG] - (zn << 52);
            acc[0] = acc[NEG] = 0;
            if (++lo2 == 0) continue;           /* only zeros */
            emin = (int64_t)(lo2 >> 53);
            if (emin == 0) emin = 1;
            if (emax == 0) emax = 1;
        }
        if (emin + pos0 < 0) {                  /* exactness trap */
            /* Here frac_bits < 1074, so base is 0. */
            for (e = emin; e <= emax; e++) acc[e] = acc[NEG + e] = 0;
            small_scatter(xs + start, end - start, frac_bits, local, width);
            continue;
        }
        for (e = emin; e <= emax; e++) {
            uint64_t ps = acc[e], ns = acc[NEG + e];
            int64_t t = e + pos0, idx = (t >> 5) - base, sub = t & 31;
            acc[e] = acc[NEG + e] = 0;
            /* Three 32-bit windows of sum << sub, which is < 2**95;
               the top one is sum >> (64 - sub), split to keep both
               shifts below 64. */
            local[idx] += (int64_t)((ps << sub) & 0xFFFFFFFFULL)
                        - (int64_t)((ns << sub) & 0xFFFFFFFFULL);
            local[idx + 1] += (int64_t)((ps >> (32 - sub)) & 0xFFFFFFFFULL)
                            - (int64_t)((ns >> (32 - sub)) & 0xFFFFFFFFULL);
            local[idx + 2] += (int64_t)((ps >> 32) >> (32 - sub))
                            - (int64_t)((ns >> 32) >> (32 - sub));
        }
        /* A flush adds below 2**32 per window from at most 96 keys of
           each sign to any one chunk, < 2**40 in all, so propagating
           once per block keeps every non-top chunk < 2**41: inside
           int64, and inside small_scatter's 2**52 starting budget. */
        repro_smallacc_propagate(local, width);
    }
    for (i = 0; i < width; i++) chunks[base + i] += local[i];
    repro_smallacc_propagate(chunks, nchunks);
    return 0;
}

/* Sequential Neumaier (1974) compensated sum with a running max|x_i|:
   out[0] = running total, out[1] = pending compensation (to be *added*
   at finalization), out[2] = max|x_i|.  The branch credits the rounding
   error from whichever operand dominates in magnitude, so large-cancel
   inputs keep their low bits in the compensation term. */
void repro_neumaier_partial(const double *xs, int64_t n, double *out) {
    double total = 0.0, comp = 0.0, max_abs = 0.0;
    int64_t i;
    for (i = 0; i < n; i++) {
        double x = xs[i];
        double ax = (x < 0.0) ? -x : x;
        double at = (total < 0.0) ? -total : total;
        double t = total + x;
        if (at >= ax)
            comp += (total - t) + x;
        else
            comp += (x - t) + total;
        total = t;
        if (ax > max_abs) max_abs = ax;
    }
    out[0] = total;
    out[1] = comp;
    out[2] = max_abs;
}
"""


def _cache_dir(digest: str) -> str:
    base = os.environ.get("REPRO_NATIVE_CACHE")
    if not base:
        base = os.path.join(
            tempfile.gettempdir(),
            f"repro-native-{os.getuid()}-{digest[:16]}",
        )
    return base


def _private_dir(path: str) -> None:
    """Create ``path`` private to this user, or refuse an existing one
    that another user owns or may write to: it could hold any object."""
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.stat(path)
    if st.st_uid != os.getuid():
        raise NativeUnavailableError(
            f"cache directory {path} is owned by uid {st.st_uid}, "
            f"not {os.getuid()}"
        )
    if st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise NativeUnavailableError(
            f"cache directory {path} is writable by other users "
            f"(mode {stat.S_IMODE(st.st_mode):o})"
        )


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _hash_matches(so_path: str) -> bool:
    """True when the object's bytes match the hash its build recorded."""
    try:
        with open(so_path + ".sha256", encoding="ascii") as fh:
            return fh.read().strip() == _sha256(so_path)
    except (OSError, UnicodeDecodeError):
        return False


def _find_cc() -> str | None:
    from shutil import which

    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and which(cand):
            return cand
    return None


def _compile(so_path: str) -> None:
    """Build the object, then record its hash and move it into place."""
    cc = _find_cc()
    if cc is None:
        raise NativeUnavailableError("no C compiler on PATH")
    # The source goes in on stdin, so concurrent builders share no
    # source file and produce the same bytes.
    tmp_path = so_path + f".tmp.{os.getpid()}"
    proc = subprocess.run(
        [cc, "-O2", "-shared", "-fPIC", "-x", "c", "-o", tmp_path, "-",
         "-lm"],
        input=_C_SOURCE,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise NativeUnavailableError(
            f"C build failed: {proc.stderr.strip()[:400]}"
        )
    with open(tmp_path + ".sha256", "w", encoding="ascii") as fh:
        fh.write(_sha256(tmp_path) + "\n")
    # Each rename is atomic, so concurrent builders race safely: they
    # write the same bytes, and a reader between the two renames sees a
    # mismatch and rebuilds.
    os.replace(tmp_path + ".sha256", so_path + ".sha256")
    os.replace(tmp_path, so_path)


def _load(so_path: str) -> tuple[ctypes.CDLL, KernelSet]:
    """Load the shared object and wrap its kernels with ctypes."""
    lib = ctypes.CDLL(so_path)
    c_i64 = ctypes.c_longlong
    c_ptr = ctypes.c_void_p
    p_f64 = ctypes.POINTER(ctypes.c_double)
    # The exact-engine kernels take raw buffer addresses (``.ctypes.data``
    # of caller-owned contiguous arrays): converting through data_as()
    # costs more than the whole scatter of a thousand-summand request.
    lib.repro_smallacc_scatter.argtypes = [
        c_ptr, c_i64, c_i64, c_i64, c_ptr, c_i64
    ]
    lib.repro_smallacc_scatter.restype = ctypes.c_int
    lib.repro_smallacc_propagate.argtypes = [c_ptr, c_i64]
    lib.repro_smallacc_propagate.restype = None
    lib.repro_neumaier_partial.argtypes = [p_f64, c_i64, p_f64]
    lib.repro_neumaier_partial.restype = None
    scatter = lib.repro_smallacc_scatter

    def smallacc_chunks(xs, frac_bits: int, whole_bits: int, nchunks: int):
        chunks = (c_i64 * nchunks)()
        if scatter(xs.ctypes.data, xs.shape[0], frac_bits, whole_bits,
                   chunks, nchunks):
            return None
        return np.frombuffer(chunks, dtype=np.int64)

    def propagate(chunks) -> None:
        lib.repro_smallacc_propagate(chunks.ctypes.data, chunks.shape[0])

    def neumaier_partial(xs) -> tuple:
        out = (ctypes.c_double * 3)()
        lib.repro_neumaier_partial(
            xs.ctypes.data_as(p_f64), xs.shape[0], out
        )
        return (out[0], out[1], out[2])

    return lib, KernelSet("cext", smallacc_chunks, propagate,
                          neumaier_partial)


def _known_answer_cases():
    """Fixed batches that reach every branch of the compiled scatter.

    The first is 2,061 summands of HP(3,2) over 2**-70..2**63 of both
    signs.  Its first block of 2,048 takes the table path and holds ±0,
    ±(2**63 - ulp) and 1,024 copies of one all-ones mantissa, whose key
    sum nears 2**63.  The last 13 summands hold sub-resolution values
    and a subnormal, which trip the exactness trap.  The second batch
    scales 201 of them into HP(19,18), whose resolution is below the
    subnormal floor, so subnormals of both signs and an odd tail take
    the table path there.
    """
    from repro.core.params import HPParams

    i = np.arange(2061)
    xs = np.ldexp(1.0 + (i * 0.6180339887498949) % 1.0, (i * 37) % 133 - 70)
    xs[(i * 5) % 7 < 3] *= -1.0
    xs[1:2048:2] = 2.0**11 - 2.0**-42
    xs[[0, 1, 150]] = 0.0, -0.0, -0.0
    xs[[2, 3]] = 2.0**63 - 2.0**10, -(2.0**63 - 2.0**10)
    xs[2048:2052] = 2.0**-150, -3 * 2.0**-160, 5e-324, -(2.0**-1030)
    return ((xs, HPParams(3, 2)),
            (np.ldexp(xs[:201], -1000), HPParams(19, 18)))


def _known_answer(kern: KernelSet) -> bool:
    """True when the compiled scatter gives the pure scatter's chunks on
    :func:`_known_answer_cases` and rejects infinity.  A matching hash
    only proves the object is the one a build wrote, not that it
    computes right."""
    from repro.core.smallacc import (
        _scatter_chunk, bin_count, bins_from_int, fold_bins,
    )

    for xs, params in _known_answer_cases():
        nbins = bin_count(params)
        # The pure scatter straight into a local array: an accumulator
        # would record metrics and spans for this test.
        want = np.zeros(nbins, dtype=np.int64)
        _scatter_chunk(xs, params, want)
        frac, whole = params.frac_bits, params.whole_bits
        got = kern.smallacc_chunks(xs, frac, whole, nbins)
        if got is None or tuple(got.tolist()) != bins_from_int(
            fold_bins(want), nbins
        ):
            return False
    ys = xs.copy()
    ys[-1] = math.inf
    return kern.smallacc_chunks(ys, frac, whole, nbins) is None


def _build_cext() -> KernelSet:
    """Compile (or reuse) the shared object and load it, once it passes
    its known-answer test."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()
    cache = _cache_dir(digest)
    # The file name carries the source hash too, so a REPRO_NATIVE_CACHE
    # directory shared across source versions never serves a stale
    # object whose signatures no longer match the wrappers in _load.
    so_path = os.path.join(cache, f"libreprokern-{digest[:16]}.so")
    _private_dir(cache)
    # A missing, truncated or overwritten object fails the recorded
    # hash and is rebuilt once; loading it could kill the interpreter.
    if not _hash_matches(so_path):
        _compile(so_path)
    lib, kern = _load(so_path)
    if _known_answer(kern):
        return kern
    # A wrong object is rebuilt once; it must be unloaded first, or the
    # loader hands back the cached handle for the same path.
    _ctypes.dlclose(lib._handle)
    _compile(so_path)
    lib, kern = _load(so_path)
    if not _known_answer(kern):
        raise NativeUnavailableError(
            f"{so_path} fails its known-answer test after a rebuild"
        )
    return kern


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------

def resolve(backend: str = "auto") -> KernelSet:
    """Resolve a backend name to a :class:`KernelSet`, once per process.

    ``auto`` walks the chain cext -> pure, honoring
    ``REPRO_FORCE_PURE`` / ``REPRO_NATIVE``; a failure along the chain
    degrades to pure with one stderr warning and one ``native.fallback``
    journal event (the reason is recorded in :func:`backend_info`).  An
    explicit ``cext`` raises :class:`NativeUnavailableError` when the
    backend cannot be provided; explicit ``pure`` always succeeds.
    Every answer is cached: the environment is read on the first call
    only, and again only after :func:`_reset_for_tests`.
    """
    kern = _RESOLVED.get(backend)
    if kern is None:
        with _LOCK:
            kern = _RESOLVED.get(backend) or _resolve_locked(backend)
            _RESOLVED[backend] = kern
    return kern


def _resolve_locked(backend: str) -> KernelSet:
    if backend == "auto":
        env = os.environ.get("REPRO_NATIVE", "").strip().lower()
        if env not in ("", "auto"):
            return _resolve_locked(env)
        if force_pure():
            return PURE
        try:
            _RESOLVED["cext"] = _RESOLVED.get("cext") or _build_cext()
        except Exception as exc:
            reason = _BUILD_ERRORS["cext"] = f"{type(exc).__name__}: {exc}"
            # Pure runs ~20x slower; the journal is off by default,
            # so only stderr is sure to tell the user.
            print(  # hp: noqa[HP014]
                "warning: repro compiled backend unavailable, using "
                f"pure NumPy: {reason}",
                file=sys.stderr,
            )
            from repro.observability import journal

            journal.emit("native.fallback", backend="pure", reason=reason)
            return PURE
        return _RESOLVED["cext"]
    if backend == "pure":
        return PURE
    if backend != "cext":
        raise ValueError(f"unknown backend {backend!r}; pick auto/cext/pure")
    try:
        return _build_cext()
    except NativeUnavailableError:
        raise
    except Exception as exc:
        raise NativeUnavailableError(f"{backend} backend failed: {exc}") from exc


def backend_name() -> str:
    """The backend ``auto`` resolves to right now."""
    return resolve("auto").name


def backend_info() -> dict:
    """Introspection dict for ``repro stats`` and benchmark provenance."""
    kern = resolve("auto")
    return {
        "backend": kern.name,
        "compiled": kern.compiled,
        "force_pure": force_pure(),
        "build_errors": dict(_BUILD_ERRORS),
    }


def _reset_for_tests() -> None:
    """Drop resolution caches so env-var changes take effect (tests)."""
    with _LOCK:
        _RESOLVED.clear()
        _BUILD_ERRORS.clear()


if __name__ == "__main__":  # pragma: no cover - utility entry point
    info = backend_info()
    print(f"repro native backend: {info['backend']}")
    for name, err in info["build_errors"].items():
        print(f"  {name}: {err}", file=sys.stderr)
    sys.exit(0 if info["compiled"] or info["force_pure"] else 1)
