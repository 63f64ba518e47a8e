"""Vectorized (NumPy) batch conversion and summation for the HP format.

The scalar path (:mod:`repro.core.scalar`) is the bit-level specification;
this module is the throughput engine that makes the paper's multimillion-
summand experiments tractable in Python.  Both paths produce bit-identical
word vectors (cross-checked by property tests).

Conversion strategy
-------------------
A double ``x = m * 2**e`` (``numpy.frexp``) has an exact 53-bit integer
mantissa ``mant = m * 2**53``.  The HP scaled integer is then
``A = sign * mant * 2**t`` with ``t = e - 53 + 64*k``.  Word ``j`` of the
magnitude (counting from the least significant word) is the 64-bit window
``(mant << (t - 64*j)) mod 2**64``, which a single per-word vectorized
shift produces.  Negative inputs are then two's-complemented with a
vectorized carry ripple.  Unlike the float-loop of Listing 1, this is
exact for subnormals and immune to intermediate float under/overflow.

Summation strategy
------------------
Each 64-bit word column is split into 32-bit halves held in ``uint64``;
``numpy.sum`` over a column of halves cannot overflow for up to ``2**31``
summands (values ``< 2**32``, sums ``< 2**63``).  The per-column half sums
are then combined into one exact Python integer, which is the *true*
(unwrapped) sum of all scaled integers — enabling exact overflow
detection before the final wrap to two's complement.  Because integer
addition is associative, the result is invariant to summand order,
chunking, and thread/process partitioning (paper Sec. III.B.3).
"""

from __future__ import annotations

import numpy as np

from repro.core import engines
from repro.core.params import HPParams
from repro.core.scalar import from_int_scaled, Words
from repro.core.smallacc import check_finite_in_range
from repro.errors import AdditionOverflowError, ConversionOverflowError
from repro.observability.profile import phase as _phase

__all__ = [
    "batch_from_double",
    "batch_to_double",
    "batch_sum_words",
    "batch_sum_doubles",
    "column_sums_int",
]

_MANT_BITS = 53
# Chunk size for the fused convert+sum driver: bounds temporary storage at
# chunk * N words while staying far below the 2**31 half-sum safety bound.
_DEFAULT_CHUNK = 1 << 20

# Named uint64 scalars (rule HP005: a bare literal next to a uint64 value
# promotes the pair to float64 and rounds through a 53-bit significand).
_U0 = np.uint64(0)
_U1 = np.uint64(1)
_U2 = np.uint64(2)
_U4 = np.uint64(4)
_U8 = np.uint64(8)
_U10 = np.uint64(10)
_U11 = np.uint64(11)
_U16 = np.uint64(16)
_U32 = np.uint64(32)
_U53 = np.uint64(53)
_U63 = np.uint64(63)
_ULOW10 = np.uint64(0x3FF)


def batch_from_double(xs: np.ndarray, params: HPParams) -> np.ndarray:
    """Convert an array of doubles to HP word vectors.

    Parameters
    ----------
    xs:
        1-D array of float64 values, each within the format's range.
    params:
        Target HP format.

    Returns
    -------
    ``uint64`` array of shape ``(len(xs), N)`` with word 0 (most
    significant) in column 0, bit-identical to
    :func:`repro.core.scalar.from_double` applied element-wise.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.ndim != 1:
        raise ValueError(f"expected 1-D input, got shape {xs.shape}")
    check_finite_in_range(xs, params)
    n_vals = xs.shape[0]
    n_words = params.n

    mantissa_f, exponent = np.frexp(np.abs(xs))
    mant = (mantissa_f * (1 << _MANT_BITS)).astype(np.uint64)  # exact 53-bit
    # Shift that positions the mantissa within the scaled integer A.
    t = exponent.astype(np.int64) - _MANT_BITS + params.frac_bits

    words = np.zeros((n_vals, n_words), dtype=np.uint64)
    for j in range(n_words):  # j counts from the least significant word
        col = n_words - 1 - j
        shift = t - 64 * j
        out = np.zeros(n_vals, dtype=np.uint64)
        left = (shift >= 0) & (shift < 64)
        if left.any():
            out[left] = mant[left] << shift[left].astype(np.uint64)
        right = (shift < 0) & (shift > -_MANT_BITS)
        if right.any():
            out[right] = mant[right] >> (-shift[right]).astype(np.uint64)
        words[:, col] = out

    neg = xs < 0.0
    if neg.any():
        _negate_rows_inplace(words, neg)
    return words


def _negate_rows_inplace(words: np.ndarray, mask: np.ndarray) -> None:
    """Two's-complement the selected rows: flip all bits, add one at the
    least significant word, ripple the carry toward column 0.

    The selected rows are gathered once, negated in the compact copy
    (uint64 dtype wraps in hardware, so masking is the dtype's job), and
    scattered back once — fancy indexing on the full matrix would copy
    twice per column of the ripple.
    """
    if not mask.any():
        return
    rows = words[mask]
    np.invert(rows, out=rows)
    carry = np.ones(rows.shape[0], dtype=bool)
    for col in range(rows.shape[1] - 1, -1, -1):
        if not carry.any():
            break
        rows[carry, col] += _U1
        carry = carry & (rows[:, col] == _U0)
    words[mask] = rows


def column_sums_int(words: np.ndarray) -> int:
    """Exact (unwrapped) integer sum of HP word-vector rows.

    Rows are interpreted as *unsigned* ``64*N``-bit integers; the caller
    corrects for two's-complement sign (each negative row is short by
    ``2**(64N)``).  Splitting words into 32-bit halves keeps every
    ``numpy.sum`` below ``2**63`` for up to ``2**31`` rows.
    """
    n_vals, n_words = words.shape
    if n_vals > (1 << 31):
        raise ValueError("chunk too large for overflow-free half sums")
    lo_mask = np.uint64(0xFFFFFFFF)
    total = 0
    for col in range(n_words):
        column = words[:, col]
        hi = int(np.sum(column >> np.uint64(32), dtype=np.uint64))
        lo = int(np.sum(column & lo_mask, dtype=np.uint64))
        weight = 64 * (n_words - 1 - col)
        total += ((hi << 32) + lo) << weight
    return total


def _signed_total(words: np.ndarray) -> int:
    """True signed integer sum of rows (unwrap two's complement)."""
    field_bits = 64 * words.shape[1]
    unsigned = column_sums_int(words)
    n_negative = int(np.count_nonzero(words[:, 0] >> np.uint64(63)))
    return unsigned - (n_negative << field_bits)


def batch_sum_words(
    words: np.ndarray, params: HPParams, check_overflow: bool = True
) -> Words:
    """Sum HP word-vector rows into one HP word vector, exactly.

    The result equals feeding every row through
    :meth:`repro.core.HPAccumulator.add_words` in any order.  With
    ``check_overflow`` the *true* sum is range-checked, which is strictly
    stronger than the scalar sign-rule (modular intermediate wrap-around
    that cancels out is accepted, as it is in any order where it never
    surfaces).
    """
    if words.ndim != 2 or words.shape[1] != params.n:
        raise ValueError(
            f"expected shape (n, {params.n}) for {params}, got {words.shape}"
        )
    total = _signed_total(words)
    return _finalize_total(total, params, check_overflow)


def _finalize_total(total: int, params: HPParams, check_overflow: bool = True) -> Words:
    """Range-check a true (unwrapped) integer sum and wrap it into the
    ``64N``-bit two's-complement field — the shared tail of every exact
    batch reduction (word-matrix, small accumulator, dot products)."""
    with _phase("hp.finalize"):
        if check_overflow and not (params.min_int <= total <= params.max_int):
            raise AdditionOverflowError(
                f"batch sum {total} outside {params} range"
            )
        field = 1 << (64 * params.n)
        wrapped = total % field
        if wrapped >= field >> 1:
            wrapped -= field
        return _wrap(wrapped, params)


def _wrap(value: int, params: HPParams) -> Words:
    from repro.util.bits import signed_int_to_words

    return signed_int_to_words(value, params.n)


def words_scaled_total(
    xs: np.ndarray, params: HPParams, chunk: int = _DEFAULT_CHUNK
) -> int:
    """Exact scaled-integer sum via the word-matrix reference path
    (``batch_from_double`` + column sums), chunked so temporary storage
    stays bounded.  This is the ``words`` entry in the engine registry."""
    total = 0
    for start in range(0, xs.shape[0], chunk):
        with _phase("words.convert"):
            piece = batch_from_double(xs[start : start + chunk], params)
        with _phase("words.colsum"):
            total += _signed_total(piece)
    return total


def batch_sum_doubles(
    xs: np.ndarray,
    params: HPParams,
    chunk: int = _DEFAULT_CHUNK,
    check_overflow: bool = True,
    method: str = "small",
    accuracy: float | None = None,
) -> Words:
    """Fused convert-and-sum of an array of doubles into HP words.

    Processes ``chunk`` elements at a time so temporary storage stays
    bounded regardless of input size.  This is the routine the
    figure-4/5-8 benchmarks drive for 16M-32M summands.

    ``method`` names an engine in the :mod:`repro.core.engines` registry
    — all *exact* engines produce bit-identical words:

    ``"small"`` (default)
        Neal's small accumulator (:mod:`repro.core.smallacc`):
        per-summand cost independent of ``N``, deferred in-place carries
        and an optional compiled backend.
    ``"words"``
        The original word-matrix path (``batch_from_double`` +
        column sums): ``O(n * N)`` work, kept as the reference engine.
    ``"comp-pairwise"`` / ``"comp-kahan"`` / ``"comp-neumaier"``
        Bounded-error compensated tiers (:mod:`repro.core.compensated`):
        the float result is encoded exactly into HP words, but the value
        itself carries the tier's a-priori error bound rather than
        exactness.

    ``accuracy`` overrides ``method`` with a planner decision
    (:func:`repro.core.planner.plan`): the cheapest registered engine
    whose a-priori bound coefficient meets the mass-relative target is
    selected (``accuracy=0.0`` demands an exact engine).
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.ndim != 1:
        raise ValueError(f"expected 1-D input, got shape {xs.shape}")
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    if accuracy is not None:
        from repro.core import planner as _planner

        method = _planner.plan(xs.shape[0], accuracy).engine
    return engines.batch_words(xs, params, chunk, check_overflow, method)


def _to_double_rows_scalar(words: np.ndarray, params: HPParams) -> np.ndarray:
    """Row-by-row decode through the exact big-int scalar path — the
    oracle the vectorized decode is property-tested against, and the
    fallback for rows near the double subnormal/overflow boundaries."""
    from repro.core.scalar import to_double

    return np.array(
        [to_double(tuple(int(w) for w in row), params) for row in words],
        dtype=np.float64,
    )


def batch_to_double(
    words: np.ndarray, params: HPParams, method: str = "vectorized"
) -> np.ndarray:
    """Convert HP word-vector rows back to correctly rounded doubles.

    The vectorized decode gathers each row's top three nonzero-leading
    words, normalizes them to the leading bit, and applies IEEE
    round-half-to-even with an exact sticky bit (suffix-OR of every word
    below the 54-bit window plus the bits shifted out of it).  Rows whose
    leading bit sits near the double subnormal or overflow boundary
    (``E_lead < -1021`` or ``E_lead > 1022``) are delegated to the scalar
    big-int path, which avoids double rounding through the subnormal
    encoding and preserves :class:`NormalizationOverflowError` semantics.
    ``method="scalar"`` forces the oracle path for every row.
    """
    if words.ndim != 2 or words.shape[1] != params.n:
        raise ValueError(
            f"expected shape (n, {params.n}) for {params}, got {words.shape}"
        )
    if method == "scalar":
        with _phase("hp.round"):
            return _to_double_rows_scalar(words, params)
    if method != "vectorized":
        raise ValueError(f"unknown decode method {method!r}")
    with _phase("hp.round"):
        return _batch_to_double_vectorized(words, params)


def _batch_to_double_vectorized(
    words: np.ndarray, params: HPParams
) -> np.ndarray:
    n_vals, n_words = words.shape
    result = np.zeros(n_vals, dtype=np.float64)
    if n_vals == 0:
        return result

    mag = np.ascontiguousarray(words, dtype=np.uint64).copy()
    neg = (mag[:, 0] >> _U63) != _U0
    _negate_rows_inplace(mag, neg)

    nonzero = mag != _U0
    any_nz = nonzero.any(axis=1)
    if not any_nz.any():
        return result
    hw_col = np.argmax(nonzero, axis=1)  # most significant nonzero column
    row = np.arange(n_vals)

    # Suffix OR of whole words strictly below the 3-word window: sticky
    # contribution of everything the window cannot see.
    acc_or = np.zeros((n_vals, n_words + 1), dtype=np.uint64)
    for col in range(n_words - 1, -1, -1):
        acc_or[:, col] = acc_or[:, col + 1] | mag[:, col]
    tail_or = acc_or[row, np.minimum(hw_col + 3, n_words)]

    padded = np.concatenate(
        [mag, np.zeros((n_vals, 2), dtype=np.uint64)], axis=1
    )
    top = padded[row, hw_col]
    next1 = padded[row, hw_col + 1]
    next2 = padded[row, hw_col + 2]

    # Position of the leading bit within the top word, by binary search
    # (float log2 would misplace it when 2**53-rounding crosses a power
    # of two).
    lead = np.zeros(n_vals, dtype=np.uint64)
    probe = top.copy()
    for step in (_U32, _U16, _U8, _U4, _U2, _U1):
        big = (probe >> step) != _U0
        lead[big] += step
        probe[big] >>= step

    # Top 64 bits of the magnitude, aligned so the leading bit is bit 63.
    # ``(next1 >> 1) >> lead`` expresses ``next1 >> (lead + 1)`` without
    # an undefined shift-by-64 at lead == 63.
    hi64 = (top << (_U63 - lead)) | ((next1 >> _U1) >> lead)
    m53 = hi64 >> _U11
    round_bit = (hi64 >> _U10) & _U1
    # Sticky: low 10 bits of the window, the next1 bits shifted out of it
    # (``(2 << lead) - 1`` wraps to all-ones at lead == 63, deliberately),
    # the third word, and every word below the window.
    dropped_mask = (_U2 << lead) - _U1
    sticky = (
        ((hi64 & _ULOW10) != _U0)
        | ((next1 & dropped_mask) != _U0)
        | (next2 != _U0)
        | (tail_or != _U0)
    )
    mantissa = m53 + (round_bit & (sticky.astype(np.uint64) | (m53 & _U1)))

    e_lead = (
        64 * (n_words - 1 - hw_col.astype(np.int64))
        + lead.astype(np.int64)
        - params.frac_bits
    )
    carried = (mantissa >> _U53) != _U0  # rounded up to 2**53
    e_lead = e_lead + carried.astype(np.int64)
    mantissa = np.where(carried, mantissa >> _U1, mantissa)

    hard = any_nz & ((e_lead < -1021) | (e_lead > 1022))
    easy = any_nz & ~hard
    if easy.any():
        value = np.ldexp(
            mantissa[easy].astype(np.float64),
            (e_lead[easy] - 52).astype(np.int32),
        )
        result[easy] = np.where(neg[easy], -value, value)
    if hard.any():
        result[hard] = _to_double_rows_scalar(words[hard], params)
    return result
