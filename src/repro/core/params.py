"""HP format parameters (paper Sec. III).

An HP number is a vector of ``N`` unsigned 64-bit words interpreted as one
two's-complement integer over the concatenated ``64*N`` bits, scaled by
``2**(-64*k)`` where ``k`` of the words hold the fractional part
(eq. (2)).  Word 0 is the most significant word; its bit 63 is the only
bit not contributing value precision (the sign bit).

``HPParams`` is the single source of truth for derived quantities — range,
resolution, precision bits — and generates the rows of the paper's
Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import ParameterError
from repro.util.bits import WORD_BITS

__all__ = ["HPParams", "TABLE1_CONFIGS", "suggest_params"]

# The (N, k) configurations of the paper's Table 1, in row order.
TABLE1_CONFIGS: tuple[tuple[int, int], ...] = ((2, 1), (3, 2), (6, 3), (8, 4))


@dataclass(frozen=True)
class HPParams:
    """Format parameters of an HP fixed-point number.

    Parameters
    ----------
    n:
        Total number of 64-bit words (paper's ``N``).
    k:
        Number of words assigned to the fractional part (``0 <= k <= N``).
        ``N - k`` words represent the whole-number component.

    Examples
    --------
    >>> p = HPParams(3, 2)
    >>> p.total_bits, p.precision_bits
    (192, 191)
    >>> p.smallest == 2.0 ** -128
    True
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError(f"N must be >= 1, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise ParameterError(f"k must be in [0, N={self.n}], got {self.k}")

    # -- derived bit geometry ------------------------------------------------
    # Cached: every exact request reads them, and the fields are frozen.

    @cached_property
    def total_bits(self) -> int:
        """Total storage width in bits, ``64 * N``."""
        return WORD_BITS * self.n

    @property
    def precision_bits(self) -> int:
        """Value bits: every bit except the single sign bit (``64*N - 1``)."""
        return self.total_bits - 1

    @cached_property
    def frac_bits(self) -> int:
        """Bits to the right of the binary point, ``64 * k``."""
        return WORD_BITS * self.k

    @cached_property
    def whole_bits(self) -> int:
        """Bits to the left of the binary point, excluding sign."""
        return self.total_bits - self.frac_bits - 1

    # -- derived ranges (Table 1 columns) -------------------------------------

    @cached_property
    def max_int(self) -> int:
        """Largest representable underlying integer, ``2**(64N-1) - 1``."""
        return (1 << self.precision_bits) - 1

    @cached_property
    def min_int(self) -> int:
        """Most negative underlying integer, ``-2**(64N-1)``."""
        return -(1 << self.precision_bits)

    @cached_property
    def scale(self) -> int:
        """Denominator of the fixed-point scale, ``2**(64k)``."""
        return 1 << self.frac_bits

    @property
    def max_value(self) -> float:
        """Magnitude of the largest representable real, ``~2**(64(N-k)-1)``.

        This is the paper's "Max Range" column; e.g. ``(6, 3)`` gives
        ``2**191 ~= 3.138551e57``.  Formats wider than double's exponent
        range report ``inf`` (every finite double is in range).
        """
        if self.whole_bits >= 1024:
            return float("inf")
        return float(2.0 ** (self.whole_bits))

    @property
    def smallest(self) -> float:
        """Smallest positive representable increment, ``2**(-64k)``.

        The paper's "Smallest" column; e.g. ``(3, 2)`` gives
        ``2**-128 ~= 2.938736e-39``.  Formats finer than double's
        subnormal floor report ``0.0`` (no double is quantized).
        """
        if self.frac_bits > 1074:
            return 0.0
        return float(2.0 ** (-self.frac_bits))

    # -- helpers ---------------------------------------------------------------

    def in_range(self, x: float) -> bool:
        """True if the double ``x`` can be converted without overflow."""
        if self.whole_bits >= 1024:
            return x == x and abs(x) != float("inf")
        return abs(x) < 2.0 ** self.whole_bits or (
            x == -(2.0 ** self.whole_bits)
        )

    def table1_row(self) -> tuple[int, int, int, float, float]:
        """One row of the paper's Table 1: ``(N, k, bits, max, smallest)``.

        Note: the published table prints "256" for ``(6, 3)``; the correct
        width for six 64-bit words is 384 and that is what we report (see
        DESIGN.md errata).
        """
        return (self.n, self.k, self.total_bits, self.max_value, self.smallest)

    def __str__(self) -> str:
        return f"HP(N={self.n}, k={self.k})"


def suggest_params(
    max_magnitude: float,
    smallest_magnitude: float,
    margin_bits: int = 1,
) -> HPParams:
    """Choose minimal ``(N, k)`` covering an observed dynamic range.

    This implements the paper's "future research" suggestion of adapting
    precision to the data (Sec. V): given the largest magnitude that must
    be representable and the smallest increment that must not be lost,
    return the smallest format that captures both, with ``margin_bits``
    headroom on the whole part for accumulation growth.

    >>> suggest_params(1.0, 2.0**-100)
    HPParams(n=4, k=3)
    """
    import math

    if max_magnitude <= 0 or smallest_magnitude <= 0:
        raise ParameterError("magnitudes must be positive")
    if smallest_magnitude > max_magnitude:
        raise ParameterError("smallest_magnitude exceeds max_magnitude")
    # Whole part needs ceil(log2(max)) + margin bits (plus the sign bit,
    # which lives in the same top word).
    whole_needed = max(0, math.ceil(math.log2(max_magnitude))) + margin_bits
    # Fraction must resolve the smallest magnitude's own low-order bits: a
    # double has 52 fraction bits below its leading bit.
    frac_needed = max(0, -math.floor(math.log2(smallest_magnitude)) + 52)
    k = (frac_needed + WORD_BITS - 1) // WORD_BITS
    whole_words = (whole_needed + 1 + WORD_BITS - 1) // WORD_BITS  # +1 sign
    return HPParams(whole_words + k, k)
