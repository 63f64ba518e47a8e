"""Optional compiled backend for the accumulation inner loops.

The exact engine (:mod:`repro.core.smallacc`) spends its time in the
scatter of mantissas into ``int64`` chunks and the carries between
them, which NumPy runs through a dispatch-heavy ``np.add.at``.  This
module compiles those loops, with Neal's large superaccumulator in front
and the input's validation folded in, behind a two-step chain:

``cext``
    The C translation unit embedded below is compiled best-effort with
    the system C compiler (``cc -O2 -shared -fPIC`` against the
    interpreter's ``sysconfig`` include directory) into a CPython
    extension module, cached as ``libreprokern-<digest>`` plus the
    interpreter's ``EXT_SUFFIX`` and imported from that file.  The
    digest covers the source and the ``EXT_SUFFIX``, so a shared cache
    never serves a stale object or another interpreter's.  Each entry
    point takes the array through the buffer protocol (1-D C-contiguous
    float64, else ``TypeError``) and releases the GIL around its kernel.
``pure``
    When that fails (no compiler, no ``Python.h``, a refused cache), or
    ``REPRO_FORCE_PURE=1`` is set, the engines keep their NumPy paths.

Both backends do the same exact integer arithmetic (``frexp``-exact
decomposition, two's-complement adds, floor shifts), so their totals are
equal; ``tests/core/test_native.py`` pins it.

**Nothing untrusted is loaded.**  The cache directory must belong to the
current user and be writable by no one else (one this module creates is
mode ``0o700``), and each build records the object's sha256, checked
before loading, so a truncated or overwritten object is rebuilt rather
than crashing the interpreter.  After loading, the kernel must give
pure's totals on fixed batches that reach every branch of the C source;
a wrong object is rebuilt once (and imported from a fresh path, since an
extension module cannot be unloaded).  Any failure makes ``auto`` fall
back to pure with one stderr warning, one ``native.fallback`` journal
event and the reason in :func:`backend_info`'s ``build_errors``.

Environment: ``REPRO_FORCE_PURE=1`` skips the compiled backend,
``REPRO_NATIVE=auto|cext|pure`` pins the answer, ``REPRO_NATIVE_CACHE``
names the cache (default: a private temp directory keyed by user id and
digest).  ``python -m repro.core.native`` builds and prints the backend.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import math
import os
import shutil
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

#: Adds between in-loop carry propagations on the two-limb (Neal) path:
#: |chunk| < 2**33 + 2046 * 2**52 < 2**63 - 2**52 (the bound is derived
#: in :mod:`repro.core.smallacc`); 2047 would leave under 2**33 spare.
SMALL_PROPAGATE_LIMIT = 2046


class NativeUnavailableError(RuntimeError):
    """The explicitly requested compiled backend cannot be provided."""


@dataclass(frozen=True)
class KernelSet:
    """The compiled entry points, or ``None`` each for the pure backend.

    Each takes ``xs`` as a 1-D C-contiguous float64 buffer (anything
    else raises ``TypeError``) and releases the GIL around its kernel.
    ``scatter_total(xs, frac_bits, whole_bits, nchunks)`` (not named
    ``smallacc_total``, the registry-bound engine function it serves:
    lint rule HP012) returns the exact scaled sum as an ``int``, from
    one scatter into ``nchunks`` (``bin_count``) canonical chunks and
    one ``int.from_bytes``; ``None`` means some element is NaN, inf or
    has ``|x| >= 2**whole_bits`` (the format also admits exactly
    ``-2**whole_bits``, so the caller retries with ``whole_bits + 1``).
    ``neumaier_partial(xs)`` returns ``(total, err, max_abs)`` of a
    sequential Neumaier sum, which shares the pure tier's error bound
    (:mod:`repro.core.bounds`) but not its bits."""

    name: str
    scatter_total: Callable | None
    neumaier_partial: Callable | None

    @property
    def compiled(self) -> bool:
        return self.scatter_total is not None


#: The pure backend: engines use their own NumPy loops.
PURE = KernelSet("pure", None, None)

_LOCK = threading.Lock()
_RESOLVED: dict[str, KernelSet] = {}
_BUILD_ERRORS: dict[str, str] = {}

#: The extension's module name; the C source defines ``PyInit__reprokern``.
_MODULE = "_reprokern"
#: ``EXT_SUFFIX``, without loading the sysconfig data at every start.
_EXT_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]


def force_pure() -> bool:
    """True when the environment pins the pure backend."""
    if os.environ.get("REPRO_FORCE_PURE", "").strip() not in ("", "0"):
        return True
    return os.environ.get("REPRO_NATIVE", "").strip().lower() == "pure"


# ---------------------------------------------------------------------------
# C extension backend: embedded source, built best-effort
# ---------------------------------------------------------------------------

# Editing this string changes the digest, so it rebuilds.  ``>> 32`` on
# int64 relies on arithmetic (floor) shift, as every targeted compiler
# does and as NumPy's int64 right shift is defined.
_C_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
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
static void repro_smallacc_propagate(int64_t *chunks, int64_t nchunks) {
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
static int repro_smallacc_scatter(const double *xs, int64_t n,
                                  int64_t frac_bits, int64_t whole_bits,
                                  int64_t *chunks, int64_t nchunks) {
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
           so both scans stop. */
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

/* Sequential Neumaier (1974) sum: out = (total, compensation to add at
   finalization, max|x_i|).  The branch credits the rounding error from
   whichever operand dominates, so cancellation keeps its low bits. */
static void repro_neumaier_partial(const double *xs, int64_t n,
                                   double *out) {
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

/* ---- CPython entry points ------------------------------------------- */

static PyObject *from_bytes, *little, *signed_kw;  /* int.from_bytes */

/* Borrow obj's buffer as a 1-D C-contiguous float64 array, else raise
   TypeError. */
static int get_doubles(PyObject *obj, Py_buffer *view) {
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0) return -1;
    if (view->ndim == 1 && view->itemsize == 8 && view->format != NULL
        && strcmp(view->format, "d") == 0 && PyBuffer_IsContiguous(view, 'C'))
        return 0;
    PyBuffer_Release(view);
    PyErr_SetString(PyExc_TypeError,
                    "expected a 1-D C-contiguous float64 buffer");
    return -1;
}

/* scatter_total(xs, frac_bits, whole_bits, nchunks) -> int | None.
   Canonical chunks are the total's little-endian two's-complement bytes,
   32-bit windows then the signed top chunk: one int.from_bytes folds
   them. */
static PyObject *py_scatter_total(PyObject *self, PyObject *const *args,
                                   Py_ssize_t nargs) {
    Py_buffer view;
    long long frac, whole, n, top, i;
    int64_t *chunks;
    int rejected;
    unsigned char *p;
    PyObject *raw = NULL, *total, *call[3];
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError,
                            "scatter_total takes 4 arguments (%zd given)",
                            nargs);
    frac = PyLong_AsLongLong(args[1]);
    whole = PyLong_AsLongLong(args[2]);
    n = PyLong_AsLongLong(args[3]);
    if (PyErr_Occurred()) return NULL;
    /* The scatter writes up to two chunks above the one holding the
       highest in-range position, as its base + width. */
    top = (whole < 1024 ? 1023 + whole : 2047) - 1076 + frac;
    if (frac < 0 || whole < 0 || frac > (1LL << 30)
        || n < (top > 0 ? top >> 5 : 0) + 3)
        return PyErr_Format(PyExc_ValueError,
                            "bad format bits or too few chunks");
    if (get_doubles(args[0], &view) < 0) return NULL;
    chunks = PyMem_Calloc((size_t)n, sizeof *chunks);
    if (chunks == NULL) {
        PyBuffer_Release(&view);
        return PyErr_NoMemory();
    }
    Py_BEGIN_ALLOW_THREADS
    rejected = repro_smallacc_scatter(view.buf, view.shape[0], frac, whole,
                                      chunks, n);
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&view);
    if (!rejected) raw = PyBytes_FromStringAndSize(NULL, 4 * n + 4);
    if (raw != NULL) {
        p = (unsigned char *)PyBytes_AS_STRING(raw);
        for (i = 0; i < 4 * (n - 1); i++)
            *p++ = (unsigned char)((uint64_t)chunks[i / 4] >> 8 * (i % 4));
        for (i = 0; i < 8; i++)
            *p++ = (unsigned char)((uint64_t)chunks[n - 1] >> 8 * i);
    }
    PyMem_Free(chunks);
    if (rejected) Py_RETURN_NONE;
    if (raw == NULL) return NULL;
    call[0] = raw;
    call[1] = little;
    call[2] = Py_True;
    total = PyObject_Vectorcall(from_bytes, call, 2, signed_kw);
    Py_DECREF(raw);
    return total;
}

/* neumaier_partial(xs) -> (total, err, max_abs). */
static PyObject *py_neumaier_partial(PyObject *self, PyObject *arg) {
    Py_buffer view;
    double out[3];
    if (get_doubles(arg, &view) < 0) return NULL;
    Py_BEGIN_ALLOW_THREADS
    repro_neumaier_partial(view.buf, view.shape[0], out);
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&view);
    return Py_BuildValue("(ddd)", out[0], out[1], out[2]);
}

static PyMethodDef kern_methods[] = {
    {"scatter_total", (PyCFunction)(void (*)(void))py_scatter_total,
     METH_FASTCALL, NULL},
    {"neumaier_partial", py_neumaier_partial, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kern_module = {
    PyModuleDef_HEAD_INIT, "_reprokern", NULL, -1, kern_methods,
};

PyMODINIT_FUNC PyInit__reprokern(void) {
    from_bytes = PyObject_GetAttrString((PyObject *)&PyLong_Type,
                                        "from_bytes");
    little = PyUnicode_InternFromString("little");
    signed_kw = Py_BuildValue("(s)", "signed");
    if (from_bytes == NULL || little == NULL || signed_kw == NULL)
        return NULL;
    return PyModule_Create(&kern_module);
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


def _digest(tag: str = _EXT_SUFFIX) -> str:
    """Cache key of the object built from :data:`_C_SOURCE` for the
    interpreter whose ``EXT_SUFFIX`` is ``tag``."""
    return hashlib.sha256(f"{_C_SOURCE}\0{tag}".encode()).hexdigest()


def _find_cc() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _compile_command(cc: str, out_path: str) -> list[str]:
    """Build a C source on stdin into the extension ``out_path``; raises
    :class:`NativeUnavailableError` without the interpreter's headers."""
    import sysconfig  # only a build needs it

    include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(include, "Python.h")):
        raise NativeUnavailableError(f"no Python.h in {include}")
    cmd = [cc, "-O2", "-shared", "-fPIC", f"-I{include}", "-x", "c",
           "-o", out_path, "-"]
    if sys.platform == "darwin":
        cmd[4:4] = ["-undefined", "dynamic_lookup"]
    return cmd


def _compile(so_path: str) -> None:
    """Build the object, then record its hash and move it into place."""
    cc = _find_cc()
    if cc is None:
        raise NativeUnavailableError("no C compiler on PATH")
    # The source goes in on stdin, so concurrent builders share no
    # source file and produce the same bytes.
    tmp_path = so_path + f".tmp.{os.getpid()}"
    proc = subprocess.run(
        _compile_command(cc, tmp_path),
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


def _load(path: str) -> KernelSet:
    """Import the extension module at ``path``, outside ``sys.modules``."""
    loader = importlib.machinery.ExtensionFileLoader(_MODULE, path)
    spec = importlib.util.spec_from_file_location(_MODULE, path, loader=loader)
    mod = importlib.util.module_from_spec(spec)
    loader.exec_module(mod)
    return KernelSet("cext", mod.scatter_total, mod.neumaier_partial)


def _known_answer_cases():
    """Fixed batches that reach every branch of the compiled scatter:
    2,061 summands of HP(3,2) whose first block takes the table path
    with ±0, ±(2**63 - ulp) and a key sum near 2**63, and whose tail
    trips the exactness trap; then 201 of them scaled into HP(19,18),
    below whose resolution floor subnormals take the table path."""
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
    """True when the compiled total equals the pure scatter's on
    :func:`_known_answer_cases` and rejects infinity.  A matching hash
    only proves the object is the one a build wrote, not that it
    computes right."""
    from repro.core.smallacc import _scatter_chunk, bin_count, fold_bins

    for xs, params in _known_answer_cases():
        nbins = bin_count(params)
        # The pure scatter straight into a local array: an accumulator
        # would record metrics and spans for this test.
        want = np.zeros(nbins, dtype=np.int64)
        _scatter_chunk(xs, params, want)
        frac, whole = params.frac_bits, params.whole_bits
        if kern.scatter_total(xs, frac, whole, nbins) != fold_bins(want):
            return False
    ys = xs.copy()
    ys[-1] = math.inf
    return kern.scatter_total(ys, frac, whole, nbins) is None


def _build_cext() -> KernelSet:
    """Compile (or reuse) the extension module and load it, once it
    passes its known-answer test."""
    digest = _digest()
    cache = _cache_dir(digest)
    # The digest in the name keeps a shared REPRO_NATIVE_CACHE apart.
    so_path = os.path.join(cache, f"libreprokern-{digest[:16]}{_EXT_SUFFIX}")
    _private_dir(cache)
    # A missing, truncated or overwritten object fails the recorded
    # hash and is rebuilt once; loading it could kill the interpreter.
    if not _hash_matches(so_path):
        _compile(so_path)
    kern = _load(so_path)
    if _known_answer(kern):
        return kern
    # A wrong object is rebuilt once, and imported from a fresh copy:
    # a loaded extension cannot be unloaded, and its path gives it back.
    _compile(so_path)
    fresh = f"{so_path}.{os.getpid()}.reload"
    shutil.copyfile(so_path, fresh)
    try:
        kern = _load(fresh)
    finally:
        os.unlink(fresh)
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

