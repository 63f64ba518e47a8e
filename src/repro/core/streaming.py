"""Runtime-adaptive precision — the paper's future-work extension.

Sec. V: "One flaw with this technique is the reliance on the user
knowing the range of real numbers to be summed ... An opportunity for
future research is to extend the HP method to adaptively adjust
precision at runtime to accommodate any range of real numbers that may
be encountered."

:class:`AdaptiveAccumulator` implements that extension.  It keeps the
running sum as an exact scaled integer with a *dynamic* binary point:

* a summand with bits below the current resolution triggers a
  **downward widening** (the fraction grows; the existing sum is shifted
  left — exactly);
* a summand or sum beyond the current range triggers an **upward
  widening** (whole words are added; the integer is unchanged).

Both adjustments are pure integer rescalings, so exactness and order
invariance are preserved across them: any permutation of the same
stream ends at the same value *and* the same final format (the format is
the join of the formats each value demands, which is order-free).
Snapshots export standard fixed-format HP words interoperable with the
rest of the library.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from repro.core.hpnum import HPNumber
from repro.core.params import HPParams
from repro.util.bits import WORD_BITS

__all__ = ["AdaptiveAccumulator"]


class AdaptiveAccumulator:
    """An HP accumulator that discovers its own (N, k).

    Examples
    --------
    >>> acc = AdaptiveAccumulator()
    >>> acc.add(1e20); acc.add(2.0**-300); acc.add(-1e20)
    >>> acc.to_double() == 2.0**-300
    True
    >>> acc.params.k >= 5   # grew the fraction to hold 2**-300 exactly
    True
    """

    def __init__(self, initial: HPParams = HPParams(2, 1)) -> None:
        self._scaled = 0          # exact running sum, units of 2**-frac_bits
        self._frac_bits = initial.frac_bits
        self._min_words = initial.n
        self.count = 0
        self.widenings = 0

    # -- format discovery ----------------------------------------------------

    @property
    def frac_bits(self) -> int:
        return self._frac_bits

    @property
    def params(self) -> HPParams:
        """The smallest word-aligned HP format holding the current sum
        (and everything absorbed so far) exactly."""
        k = -(-self._frac_bits // WORD_BITS)
        value_bits = max(self._scaled.bit_length(), 1)
        total_words = max(
            self._min_words,
            k + -(-(value_bits + 1) // WORD_BITS),  # +1 sign bit
        )
        return HPParams(total_words, k)

    def _widen_fraction(self, new_frac_bits: int) -> None:
        shift = new_frac_bits - self._frac_bits
        self._scaled <<= shift
        self._frac_bits = new_frac_bits
        self.widenings += 1

    # -- accumulation ----------------------------------------------------------

    def add(self, x: float) -> None:
        """Fold in a double exactly, widening the format as needed."""
        if x != x or x in (float("inf"), float("-inf")):
            from repro.errors import ConversionOverflowError

            raise ConversionOverflowError(f"cannot accumulate {x!r}")
        self.count += 1
        if x == 0.0:
            return
        num, den = x.as_integer_ratio()  # den = 2**j exactly
        den_bits = den.bit_length() - 1
        if den_bits > self._frac_bits:
            # Keep the binary point word-aligned so exports stay cheap.
            self._widen_fraction(-(-den_bits // WORD_BITS) * WORD_BITS)
        self._scaled += num << (self._frac_bits - den_bits)

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(float(x))

    def extend_array(self, xs, method: str = "small") -> None:
        """Vectorized :meth:`extend`: one widening decision and one
        engine pass for the whole array.

        Ends at exactly the state sequential :meth:`add` calls reach —
        the discovered format is the join of the per-value formats, which
        is order-free — except that ``widenings`` counts at most one
        event per batch rather than one per widening summand.  ``method``
        names an engine in the :mod:`repro.core.engines` registry
        (``"small"``, ``"words"``); both exact engines yield the
        same exact scaled total.
        """
        import numpy as np

        from repro.core import engines

        xs = np.ascontiguousarray(xs, dtype=np.float64)
        if xs.ndim != 1:
            raise ValueError(f"expected 1-D input, got shape {xs.shape}")
        if not np.isfinite(xs).all():
            from repro.errors import ConversionOverflowError

            raise ConversionOverflowError("cannot accumulate non-finite values")
        self.count += int(xs.shape[0])
        nonzero = xs[xs != 0.0]
        if nonzero.shape[0] == 0:
            return
        mantissa_f, exponent = np.frexp(nonzero)
        mant = np.abs((mantissa_f * float(1 << 53)).astype(np.int64))
        # Exponent of the lowest set bit: mant & -mant isolates it as a
        # power of two, which converts to float64 and through log2
        # exactly.
        lowbit = (mant & -mant).astype(np.float64)
        trailing = np.log2(lowbit).astype(np.int64)
        den_bits = int(np.max(53 - exponent.astype(np.int64) - trailing))
        if den_bits > self._frac_bits:
            # Same word-aligned widening rule as the scalar add().
            self._widen_fraction(-(-den_bits // WORD_BITS) * WORD_BITS)
        # A throwaway format wide enough for every element of this batch;
        # its fraction equals the (word-aligned) running binary point, so
        # the exact scaled total drops straight into the running sum.
        k = self._frac_bits // WORD_BITS
        max_exp = int(np.max(exponent))  # every |x| < 2**max_exp
        whole_words = max(1, -(-(max_exp + 2) // WORD_BITS))
        params = HPParams(k + whole_words, k)
        self._scaled += engines.scaled_total(
            nonzero, params, 1 << 20, method
        )

    def merge(self, other: "AdaptiveAccumulator") -> None:
        """Combine two adaptive partial sums exactly (cross-PE merge)."""
        target = max(self._frac_bits, other._frac_bits)
        if target > self._frac_bits:
            self._widen_fraction(target)
        self._scaled += other._scaled << (target - other._frac_bits)
        self.count += other.count

    # -- extraction --------------------------------------------------------------

    def to_fraction(self) -> Fraction:
        return Fraction(self._scaled, 1 << self._frac_bits)

    def to_double(self) -> float:
        """Correctly-rounded double of the exact running sum."""
        return self._scaled / (1 << self._frac_bits)

    def snapshot(self, params: HPParams | None = None) -> HPNumber:
        """Export as a fixed-format :class:`HPNumber` (defaults to the
        discovered minimal format)."""
        params = params or self.params
        shift = params.frac_bits - self._frac_bits
        if shift >= 0:
            scaled = self._scaled << shift
        else:
            # Caller chose a coarser format: truncate toward zero, the
            # same quantization rule as from_double.
            mag = abs(self._scaled) >> -shift
            scaled = -mag if self._scaled < 0 else mag
        return HPNumber.from_int_scaled(scaled, params)

    def reset(self) -> None:
        self._scaled = 0
        self.count = 0
        self.widenings = 0

    def __repr__(self) -> str:
        return (
            f"AdaptiveAccumulator(value={self.to_double()!r}, "
            f"params={self.params}, widenings={self.widenings})"
        )
