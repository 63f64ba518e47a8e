"""Neal's small accumulator: the default exact engine.

Neal (arXiv:1505.05571, Sec. 3) shows exact summation in per-summand
work **independent of N**: scatter each double's mantissa into
exponent-indexed fixed-point chunks, and leave enough headroom bits in
each 64-bit chunk that carries can be deferred.  The engine is one
function, :func:`smallacc_total`, from an array of doubles to the exact
signed scaled integer of their sum.  Chunks carry no state between
calls: their weighted sum is one exact integer, so partials combine by
integer addition and the HP words are produced once per reduction,
bit-identical to the word-matrix reference engine
(:mod:`repro.core.vectorized`) by construction.

Chunk layout
------------
A double ``x`` decomposes (``frexp``) into an exact 53-bit integer
mantissa ``mant`` and an exponent, giving the HP scaled integer
``A = sign * mant * 2**t`` with ``t = e - 53 + 64*k``.  Magnitude bits
below the format's resolution (``t < 0``) truncate toward zero, exactly
as :func:`repro.core.vectorized.batch_from_double` does.  Chunk ``i``
carries weight ``2**(32*i)`` (:data:`BIN_BITS`), and :func:`bin_count`
chunks hold every in-range double of a format::

    chunk:   [ 0 ] [ 1 ] [ 2 ] ... [ nchunks-1 ]
    weight:  2^0   2^32  2^64      2^(32*(nchunks-1))
    layout:  |  32-bit window + signed carry headroom  | per int64 slot

A summand's 53-bit mantissa, shifted to its HP position ``t``, straddles
at most two 32-bit windows, so Neal's add is two 64-bit adds::

    idx, sub = divmod(t, 32)
    chunks[idx]     += sign * ((mant << sub) & MASK32)
    chunks[idx + 1] += sign * (mant >> (32 - sub))

Deferred-carry bound
--------------------
Adds pile signed spill into each chunk until the headroom runs out:

* **Compiled kernel** (two-limb adds): each add puts at most one addend
  of magnitude below ``2**52`` into a chunk (the high limb
  ``mant >> (32-sub)`` can carry up to 52 significant bits), so after a
  carry pass's residue (< ``2**33``) plus ``P`` adds every
  ``|chunk| < 2**33 + P * 2**52``, which stays below ``2**63`` for
  ``P <= 2046`` (:data:`repro.core.native.SMALL_PROPAGATE_LIMIT`).  The
  C kernel defers carries within one call only, propagating in place at
  that cadence and once more before it folds the chunks into the
  returned ``int``.
* **NumPy path** (three-limb scatter): the mantissa is split into 32-bit
  halves before shifting, so each summand adds one addend below
  ``2**33`` to each of three chunks.  Each piece of at most
  :data:`PROPAGATE_LIMIT` summands is scattered into a zeroed chunk
  array, where every ``|chunk| < PROPAGATE_LIMIT * 2**33 < 2**63``, and
  folded straight into the exact total; no carry pass is needed.

The top chunk absorbs signed overflow; with range-checked inputs its
magnitude stays below ``count * 2**20`` (value bound over top-chunk
weight), so the engine is exact to beyond ``2**40`` summands.

Compiled backend
----------------
``backend="auto"`` (default) uses :mod:`repro.core.native`'s resolution
chain (CPython extension module → pure NumPy); ``backend="pure"`` pins
the NumPy path.  On the extension, :func:`smallacc_total` is one call from
the array to the exact ``int``: Neal's *large* superaccumulator (Sec. 4)
in front of the chunks, the input's validation folded into it (so
:func:`check_finite_in_range` runs only after a rejection, to raise the
usual error), the canonical sweep and the fold, with the GIL released.
The ``hp-small`` adapter keeps that ``int`` as its partial.  Both
backends give the same totals (``tests/core/test_native.py``); the
active one is the ``smallacc.backend`` gauge.
"""

from __future__ import annotations

import math
import struct
import sys

import numpy as np

from repro.core import native as _native
from repro.core.params import HPParams
from repro.errors import ConversionOverflowError
from repro.observability import metrics as _obs
from repro.observability.profile import phase as _phase
from repro.util.bits import MASK32

__all__ = [
    "BIN_BITS",
    "PROPAGATE_LIMIT",
    "bin_count",
    "bins_from_int",
    "check_finite_in_range",
    "fold_bins",
    "scatter_one",
    "smallacc_total",
]

#: Chunk weight spacing in bits: chunk ``i`` carries weight
#: ``2**(BIN_BITS*i)``.
BIN_BITS = 32

#: Most summands the NumPy path scatters into one zeroed chunk array.
#: Each adds at most one addend below ``2**33`` (the three-limb
#: scatter's largest) to any chunk, so every
#: ``|chunk| < PROPAGATE_LIMIT * 2**33 < 2**63``.
PROPAGATE_LIMIT = (1 << 30) - 2

_MANT_BITS = 53
_DEFAULT_CHUNK = 1 << 20

# Named uint64 scalars: keeps every uint64 expression free of bare
# Python literals (NumPy would silently promote the pair to float64 and
# round 64-bit values through a 53-bit significand — rule HP005).
_U32 = np.uint64(32)
_UMASK32 = np.uint64(MASK32)


def bin_count(params: HPParams) -> int:
    """Chunks needed to hold every in-range double of ``params``.

    The largest scatter shift is ``t_max = e_max - 53 + 64k`` where
    ``e_max`` is capped both by the format's range check and by the
    double exponent ceiling (1024); two extra chunks absorb the spill of
    the three-limb scatter at ``t_max`` and one more guards the top.
    """
    top_exp = min(params.whole_bits + 1, 1024)
    t_max = max(top_exp + params.frac_bits - _MANT_BITS, 0)
    return t_max // BIN_BITS + 3


def fold_bins(bins) -> int:
    """Exact signed scaled-integer total of a chunk sequence."""
    return sum(int(limb) << (BIN_BITS * i) for i, limb in enumerate(bins))


def bins_from_int(value: int, nbins: int) -> tuple[int, ...]:
    """Canonical chunk decomposition of a signed scaled integer: chunks
    ``0..nbins-2`` hold unsigned 32-bit windows and the top chunk the
    signed rest, so ``fold_bins(bins_from_int(v, m)) == v``."""
    low_bits = BIN_BITS * (nbins - 1)
    low = (value & ((1 << low_bits) - 1)).to_bytes(4 * (nbins - 1), "little")
    return (*struct.unpack(f"<{nbins - 1}I", low), value >> low_bits)


def check_finite_in_range(xs: np.ndarray, params: HPParams) -> None:
    """Reject NaN/inf and values outside the format's range."""
    # Formats whose range exceeds the double range admit every finite x;
    # their accepted interval is bounded by the largest finite double so
    # that the fast test below still fails on -inf.
    if params.whole_bits < 1024:
        limit = 2.0**params.whole_bits
        lo = -limit
    else:
        limit = math.inf
        lo = -sys.float_info.max
    # Fast accept: NaN propagates through max/min and +-inf fails the
    # bounds, so in-range finite input costs two reductions and no
    # temporaries; only a rejected batch pays for locating the culprit.
    if not xs.size or (xs.max() < limit and xs.min() >= lo):
        return
    if not np.isfinite(xs).all():
        raise ConversionOverflowError("input contains NaN or infinity")
    # The asymmetric two's-complement range admits exactly -limit.
    bad = (xs >= limit) | (xs < -limit)
    if bad.any():
        idx = int(np.argmax(bad))
        raise ConversionOverflowError(
            f"element {idx} = {xs.flat[idx]!r} outside {params} range ±{limit!r}"
        )


def _scatter_chunk(xs: np.ndarray, params: HPParams, chunks: np.ndarray) -> None:
    """Pure-NumPy three-limb scatter of one pre-validated piece into the
    ``int64`` chunk array: the mantissa is split into 32-bit halves
    before the ``t mod 32`` shift, so each summand adds three addends
    below ``2**33``.  The caller guarantees headroom (at most
    :data:`PROPAGATE_LIMIT` summands into a zeroed array).
    ``numpy.add.at`` is unbuffered and deterministic (rule HP004)."""
    mantissa_f, exponent = np.frexp(np.abs(xs))
    mant = (mantissa_f * float(1 << _MANT_BITS)).astype(np.uint64)
    shift = exponent.astype(np.int64) - _MANT_BITS + params.frac_bits
    # Truncate magnitude bits below the resolution toward zero (the
    # batch_from_double rule); clamping the down-shift at 63 sends
    # fully-sub-resolution values to zero without an out-of-range shift.
    down = np.minimum(np.maximum(-shift, 0), 63).astype(np.uint64)
    mant = mant >> down
    t_eff = np.maximum(shift, 0)
    idx = (t_eff >> 5).astype(np.intp)
    sub = (t_eff & 31).astype(np.uint64)
    lo_shifted = (mant & _UMASK32) << sub   # < 2**63: fits uint64
    hi_shifted = (mant >> _U32) << sub      # < 2**52
    sign = np.where(np.signbit(xs), np.int64(-1), np.int64(1))
    np.add.at(chunks, idx, (lo_shifted & _UMASK32).astype(np.int64) * sign)
    mid = ((lo_shifted >> _U32) + (hi_shifted & _UMASK32)).astype(np.int64)
    np.add.at(chunks, idx + 1, mid * sign)
    np.add.at(chunks, idx + 2, (hi_shifted >> _U32).astype(np.int64) * sign)


def scatter_one(x: float, params: HPParams, nchunks: int | None = None) -> tuple[int, ...]:
    """Chunk decomposition of a single double via Neal's two-add scheme.

    The scalar oracle mirror of the engine: :func:`fold_bins` of the
    elementwise sum of the returned tuples is :func:`smallacc_total`
    (the limb splits differ from the three-limb scatter's; the total is
    equal).
    """
    if not math.isfinite(x):
        raise ConversionOverflowError(f"cannot convert {x!r} to chunks")
    nchunks = bin_count(params) if nchunks is None else nchunks
    limbs = [0] * nchunks
    mantissa_f, exponent = math.frexp(abs(x))
    mant = int(mantissa_f * (1 << _MANT_BITS))
    t = exponent - _MANT_BITS + params.frac_bits
    if t < 0:
        mant >>= min(-t, 63)
        t = 0
    if mant:
        idx, sub = divmod(t, BIN_BITS)
        sign = -1 if x < 0.0 else 1
        limbs[idx] += sign * ((mant << sub) & MASK32)
        limbs[idx + 1] += sign * (mant >> (BIN_BITS - sub))
    return tuple(limbs)


def smallacc_total(
    xs: np.ndarray,
    params: HPParams,
    chunk: int = _DEFAULT_CHUNK,
    backend: str = "auto",
) -> int:
    """Exact signed scaled-integer sum of the 1-D ``xs`` via the small
    engine, or :class:`ConversionOverflowError`: the total the ``hp``
    adapter binds and ``batch_sum_doubles(method="small")`` wraps.
    Compiled: one entry-point call.  Pure: one validation, then each
    piece of at most ``min(chunk, PROPAGATE_LIMIT)`` summands scattered
    into zeroed chunks and folded into the total."""
    kern = _native.resolve(backend)
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.ndim != 1:
        raise ValueError(f"expected 1-D input, got shape {xs.shape}")
    nchunks = bin_count(params)
    if kern.compiled:
        frac, whole = params.frac_bits, params.whole_bits
        with _phase("smallacc.scatter"):
            total = kern.scatter_total(xs, frac, whole, nchunks)
        if total is None:
            # The kernel bounds |x| below 2**whole_bits; the format also
            # admits exactly -2**whole_bits, so a batch that passes the
            # exact check holds that value and fits one bit wider.
            with _phase("smallacc.validate"):
                check_finite_in_range(xs, params)
            with _phase("smallacc.scatter"):
                total = kern.scatter_total(xs, frac, whole + 1, nchunks)
    else:
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        with _phase("smallacc.validate"):
            check_finite_in_range(xs, params)
        step = min(chunk, PROPAGATE_LIMIT)
        total = 0
        for start in range(0, xs.shape[0], step):
            chunks = np.zeros(nchunks, dtype=np.int64)
            with _phase("smallacc.scatter"):
                _scatter_chunk(xs[start : start + step], params, chunks)
                total += fold_bins(chunks)
    if _obs.ENABLED:
        reg = _obs.REGISTRY
        reg.gauge("smallacc.backend", backend=kern.name).set(1)
        reg.counter("smallacc.scatter_bytes", n=params.n, k=params.k).inc(
            2 * 8 * int(xs.shape[0])
        )
    return total
