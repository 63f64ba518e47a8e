"""Neal's small accumulator: the default exact engine.

Neal (arXiv:1505.05571, Sec. 3) shows exact summation in per-summand
work **independent of N**: scatter each double's mantissa into
exponent-indexed fixed-point chunks, leave enough headroom bits in each
64-bit chunk that carries can ride along unsealed, and **propagate**
them in place — chunk ``i`` keeps its low 32-bit window, the signed
high part moves up to chunk ``i+1`` — only once every few thousand
(compiled path) to ~10^9 (NumPy path) adds.  The whole accumulator
state is *one flat ``int64`` array*, so partials merge by elementwise
addition with no big-integer round-trip, and the engine maps directly
onto a compiled inner loop (:mod:`repro.core.native`).  The HP words
are produced once per reduction, bit-identical to the word-matrix
reference engine (:mod:`repro.core.vectorized`) by construction.

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
Adds are allowed to pile signed spill into each chunk until the headroom
runs out, then one :meth:`~SmallAccumulator._propagate` pass restores
every non-top chunk to roughly one window's magnitude:

* **Two-limb path** (scalar oracle; compiled trapped blocks): each add
  puts at most one addend of magnitude below ``2**52`` into a chunk
  (the high limb ``mant >> (32-sub)`` can carry up to 52 significant
  bits), so after a propagation residue (< ``2**33``) plus ``P`` adds
  every ``|chunk| < 2**33 + P * 2**52``, which stays below ``2**63`` for
  ``P <= 2046`` (:data:`repro.core.native.SMALL_PROPAGATE_LIMIT`).
* **Three-limb path** (the vectorized NumPy scatter): the mantissa is
  split into 32-bit halves before shifting, so every addend stays below
  ``2**33`` and the same slot-wise argument allows ``P`` up to
  ``2**30`` — :data:`PROPAGATE_LIMIT` of ``2**30 - 2`` *units*, where
  one unit is a ``2**33`` magnitude bound and a freshly propagated
  array counts as one unit of residue.

Both paths land on the same chunk totals; the propagation pass is pure
integer rearrangement and never changes the represented value.  The top
chunk absorbs signed overflow permanently; with range-checked inputs its
magnitude stays below ``count * 2**20`` (value bound over top-chunk
weight), so the engine is exact to beyond ``2**40`` absorbed summands.

Merging adds chunk arrays elementwise and sums the unit accounts,
propagating first when the combined account would exceed the limit:
exact, associative, idempotent-friendly — the same contract the paper's
Sec. III.B.3 order-invariance argument needs, and the per-PE reduction
Goodrich & Eldawy (arXiv:1605.05436) frame parallel summation around.

Compiled backend
----------------
``backend="auto"`` (default) uses :mod:`repro.core.native`'s resolution
chain (CPython extension module → pure NumPy); ``backend="pure"`` pins
the NumPy path.  On the extension, :func:`smallacc_total` is one call from
the array to the exact ``int``: Neal's *large* superaccumulator (Sec. 4)
in front of the chunks, the input's validation folded into it (so
:func:`check_finite_in_range` runs only after a rejection, to raise the
usual error), the canonical sweep and the fold, with the GIL released.
The ``hp-small`` adapter keeps that ``int`` as its partial, and
:meth:`SmallAccumulator.absorb` takes its chunks from it
(:func:`bins_from_int`).  Both backends
give the same totals (``tests/core/test_native.py``); the active one is
the ``smallacc.backend`` gauge.
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
    "SmallAccumulator",
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

#: Headroom units accumulated between deferred-carry propagations on the
#: NumPy path.  One unit bounds a chunk's magnitude by ``2**33`` (the
#: three-limb scatter's largest addend, and one propagation residue), so
#: at the limit every ``|chunk| < (2**30 - 1) * 2**33 < 2**63``.
PROPAGATE_LIMIT = (1 << 30) - 2

_MANT_BITS = 53
_DEFAULT_CHUNK = 1 << 20

_S32 = np.int64(BIN_BITS)
_SMASK32 = np.int64(MASK32)
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
    below ``2**33``.  The caller guarantees headroom (fewer than
    :data:`PROPAGATE_LIMIT` units since the last propagation).
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

    The scalar oracle mirror of the engine: summing the returned tuples
    elementwise and canonicalizing yields the engine's
    :attr:`SmallAccumulator.chunks` after
    :meth:`~SmallAccumulator.propagate` (the limb splits differ from the
    three-limb scatter's; the total is equal).
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


class SmallAccumulator:
    """Small-accumulator engine: flat ``int64`` chunks, in-place
    deferred carry propagation, optional compiled inner loops.

    Parameters
    ----------
    params:
        The HP format; every absorbed double must be within its range.
    chunk:
        Elements scattered per pass (bounds temporary storage).
    backend:
        ``"auto"`` (resolution chain), ``"pure"`` or ``"cext"``;
        an explicit ``"cext"`` raises
        :class:`repro.core.native.NativeUnavailableError` when missing.
    propagate_limit:
        Headroom units between deferred propagations (testing hook; the
        default is the proof-backed :data:`PROPAGATE_LIMIT`).

    Examples
    --------
    >>> import numpy as np
    >>> acc = SmallAccumulator(HPParams(3, 2), backend="pure")
    >>> acc.absorb(np.array([0.1, 0.2, -0.1, -0.2]))
    >>> acc.total()
    0
    """

    __slots__ = (
        "params",
        "chunk",
        "propagate_limit",
        "count",
        "_chunks",
        "_pending",
        "_kernel",
    )

    def __init__(
        self,
        params: HPParams,
        chunk: int = _DEFAULT_CHUNK,
        backend: str = "auto",
        propagate_limit: int = PROPAGATE_LIMIT,
    ) -> None:
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        if not 1 <= propagate_limit <= PROPAGATE_LIMIT:
            raise ValueError(
                f"propagate_limit must be in [1, {PROPAGATE_LIMIT}], "
                f"got {propagate_limit}"
            )
        self.params = params
        self.chunk = int(chunk)
        self.propagate_limit = int(propagate_limit)
        self._pending = 0  # headroom units since the last propagation
        self.count = 0
        with _phase("smallacc.setup"):
            self._chunks = np.zeros(bin_count(params), dtype=np.int64)
            self._kernel = _native.resolve(backend)
            if _obs.ENABLED:
                _obs.REGISTRY.gauge(
                    "smallacc.backend", backend=self._kernel.name
                ).set(1)

    @property
    def backend(self) -> str:
        """Name of the active inner-loop backend."""
        return self._kernel.name

    # -- accumulation -------------------------------------------------------

    def absorb(self, xs: np.ndarray) -> None:
        """Scatter an array of doubles into the chunks, propagating
        deferred carries whenever the int64 headroom would run out."""
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        if xs.ndim != 1:
            raise ValueError(f"expected 1-D input, got shape {xs.shape}")
        kern = self._kernel
        if kern.compiled:
            # Canonical chunks of the batch's total are one residue unit.
            fresh = bins_from_int(
                smallacc_total(xs, self.params, backend=kern.name),
                self._chunks.shape[0],
            )
            if self._pending + 1 > self.propagate_limit:
                self._propagate("headroom")
            self._chunks += np.array(fresh, dtype=np.int64)
            self._pending += 1
            self.count += int(xs.shape[0])
        else:
            with _phase("smallacc.validate"):
                check_finite_in_range(xs, self.params)
            for start in range(0, xs.shape[0], self.chunk):
                piece = xs[start : start + self.chunk]
                if self._pending + piece.shape[0] > self.propagate_limit:
                    self._propagate("headroom")
                with _phase("smallacc.scatter"):
                    _scatter_chunk(piece, self.params, self._chunks)
                self._pending += int(piece.shape[0])
                self.count += int(piece.shape[0])
            if _obs.ENABLED:
                _obs.REGISTRY.counter(
                    "smallacc.scatter_bytes", n=self.params.n, k=self.params.k
                ).inc(2 * 8 * int(xs.shape[0]))

    def _propagate(self, reason: str) -> None:
        """One vectorized carry pass: every non-top chunk keeps its
        non-negative 32-bit window, the signed high part moves one slot
        up.  Leaves every non-top ``|chunk| < 2**33`` (one headroom
        unit) without changing the represented total."""
        with _phase("smallacc.propagate"):
            carry = self._chunks[:-1] >> _S32  # arithmetic shift: floor
            self._chunks[:-1] &= _SMASK32
            self._chunks[1:] += carry
            self._pending = 1
        if _obs.ENABLED:
            _obs.REGISTRY.counter(
                "smallacc.propagate_triggers", reason=reason
            ).inc()

    def propagate(self) -> None:
        """Rewrite the chunks in the *canonical* decomposition (the unique
        :func:`bins_from_int` form of the total): every non-top chunk
        holds exactly its 32-bit window, the top chunk the remaining
        signed high part."""
        with _phase("smallacc.propagate"):
            self._chunks[:] = bins_from_int(
                fold_bins(self._chunks), self._chunks.shape[0]
            )
            self._pending = 1

    def merge(self, other: "SmallAccumulator") -> None:
        """Add another small accumulator's chunks into this one (the
        cross-PE combine: exact, associative, order-free)."""
        if other.params != self.params:
            from repro.errors import MixedParameterError

            raise MixedParameterError(
                f"cannot merge {other.params} into {self.params}"
            )
        if self._pending + other._pending > self.propagate_limit:
            # One pass leaves us at 1 unit; the worst case is then
            # 1 + PROPAGATE_LIMIT = 2**30 - 1 units, whose per-slot
            # bound (2**30 - 1) * 2**33 still clears 2**63 — this is
            # why the limit is 2**30 - 2 rather than 2**30 - 1.
            self._propagate("merge")
        with _phase("smallacc.merge"):
            self._chunks += other._chunks
            self._pending += other._pending
            self.count += other.count

    def merge_chunks(self, chunks, count: int = 0, units: int | None = None) -> None:
        """Merge a transported chunk partial (any integer sequence of
        matching length, e.g. :attr:`chunks` of a remote accumulator).

        ``units`` is the sender's headroom account; a canonicalized
        partial (the transport contract) is one unit.
        """
        limbs = [int(v) for v in chunks]
        if len(limbs) != self._chunks.shape[0]:
            raise ValueError(
                f"expected {self._chunks.shape[0]} chunks, got {len(limbs)}"
            )
        units = 1 if units is None else int(units)
        if self._pending + units > self.propagate_limit:
            self._propagate("merge")
        with _phase("smallacc.merge"):
            self._chunks += np.array(limbs, dtype=np.int64)
            self._pending += units
            self.count += int(count)

    # -- extraction ---------------------------------------------------------

    @property
    def chunks(self) -> tuple[int, ...]:
        """Complete state as a flat int tuple — there is no side
        carry: the array *is* the state.  Tuples from different accumulators merge by elementwise
        addition; :func:`fold_bins` of the result is the merged total."""
        return tuple(int(v) for v in self._chunks)

    def total(self) -> int:
        """The exact signed scaled-integer sum absorbed so far."""
        with _phase("smallacc.fold"):
            return fold_bins(self._chunks)

    def to_words(self, check_overflow: bool = True):
        """Wrap the exact total into HP words (two's complement)."""
        from repro.core.vectorized import _finalize_total

        return _finalize_total(self.total(), self.params, check_overflow)

    def to_double(self) -> float:
        from repro.core.scalar import to_double

        return to_double(self.to_words(), self.params)

    def reset(self) -> None:
        self._chunks[:] = 0
        self._pending = 0
        self.count = 0

    def __repr__(self) -> str:
        return (
            f"SmallAccumulator({self.params}, count={self.count}, "
            f"backend={self._kernel.name!r}, pending={self._pending})"
        )


def smallacc_total(
    xs: np.ndarray,
    params: HPParams,
    chunk: int = _DEFAULT_CHUNK,
    backend: str = "auto",
) -> int:
    """Exact signed scaled-integer sum of the 1-D ``xs`` via the small
    engine, or :class:`ConversionOverflowError`: the total the ``hp``
    adapter binds and ``batch_sum_doubles(method="small")`` wraps.
    Compiled: one entry-point call, no accumulator.  Pure: a
    :class:`SmallAccumulator` and its fold."""
    kern = _native.resolve(backend)
    if not kern.compiled:
        engine = SmallAccumulator(params, chunk=chunk, backend="pure")
        engine.absorb(xs)
        return engine.total()
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.ndim != 1:
        raise ValueError(f"expected 1-D input, got shape {xs.shape}")
    frac, whole, nchunks = params.frac_bits, params.whole_bits, bin_count(params)
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
    if _obs.ENABLED:
        reg = _obs.REGISTRY
        reg.gauge("smallacc.backend", backend=kern.name).set(1)
        reg.counter("smallacc.scatter_bytes", n=params.n, k=params.k).inc(
            2 * 8 * int(xs.shape[0])
        )
    return total

