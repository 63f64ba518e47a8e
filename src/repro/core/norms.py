"""Correctly-rounded reductions built on exact HP moments.

``exact_sum_abs`` (the BLAS ``asum``) and ``exact_norm2`` (``nrm2``)
complete the reproducible-reduction set.  ``asum`` is just an exact sum
of magnitudes.  ``nrm2`` is subtler: ``sqrt`` of the exact sum of
squares must not round twice (once to double, once in ``sqrt``), so the
square root is evaluated directly on the exact rational with integer
``isqrt`` and round-to-nearest-even resolved by exact comparison —
giving the *correctly rounded* Euclidean norm, something even
compensated BLAS implementations rarely promise.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


__all__ = ["exact_sum_abs", "exact_sumsq_fraction", "exact_norm2",
           "sqrt_correctly_rounded"]


def exact_sum_abs(xs: np.ndarray, method: str = "small") -> float:
    """Correctly-rounded ``sum(|x|)`` (BLAS asum semantics).

    The default engine routes through an adaptive small accumulator
    (exact integer total over a discovered binary point, then one
    correctly-rounded division); ``method="fraction"`` keeps the original
    rational-arithmetic loop as the oracle path.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if method == "small" and xs.size and bool(np.isfinite(xs).all()):
        from repro.core.streaming import AdaptiveAccumulator

        acc = AdaptiveAccumulator()
        acc.extend_array(np.abs(xs))
        return acc.to_double()
    total = Fraction(0)
    for x in np.abs(xs):
        total += Fraction(float(x))
    return total.numerator / total.denominator if total else 0.0


def exact_sumsq_fraction(xs: np.ndarray) -> Fraction:
    """The exact rational ``sum(x**2)``.

    Squares in rational arithmetic, so it is exact even where the
    Dekker error-free split is not (squares that overflow double range,
    like ``(1e200)**2``, or underflow into subnormals).  The HP-dot fast
    path (:func:`repro.core.dot.hp_dot_words`) remains the vectorized
    engine for in-range data.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.ndim != 1:
        raise ValueError(f"expected 1-D data, got shape {xs.shape}")
    total = Fraction(0)
    for x in xs:
        f = Fraction(float(x))
        total += f * f
    return total


def _floor_sqrt_scaled(value: Fraction, shift: int) -> int:
    """``floor(sqrt(value) * 2**shift)`` exactly.

    Uses the identity ``floor(sqrt(floor(x))) == floor(sqrt(x))`` for
    real ``x >= 0``, so scaling into an integer before ``isqrt`` is
    lossless.
    """
    num = value.numerator << (2 * shift)
    return math.isqrt(num // value.denominator)


def sqrt_correctly_rounded(value: Fraction) -> float:
    """The IEEE double nearest ``sqrt(value)``, ties to even.

    Pure integer arithmetic end to end: locate the result's quantum
    exponent, compute ``floor(sqrt(value) / quantum)`` with ``isqrt``,
    and decide the final rounding by comparing ``(2t+1)^2 * quantum^2``
    against ``4 * value`` exactly — no intermediate float ever rounds,
    including subnormal results.
    """
    if value < 0:
        raise ValueError("square root of a negative value")
    if value == 0:
        return 0.0
    # Locate the binade: probe = floor(sqrt(value) * 2**1140) has
    # bit_length b, so sqrt(value) is in [2**(b-1141), 2**(b-1140)).
    # The large shift keeps the probe nonzero through the entire
    # subnormal range (quantum 2**-1074).
    probe = _floor_sqrt_scaled(value, 1140)
    if probe == 0:
        return 0.0  # sqrt(value) < 2**-1140, far below half a quantum
    e = probe.bit_length() - 1 - 1140  # sqrt(value) in [2**e, 2**(e+1))
    # Quantum (ulp) exponent of the result; subnormals floor at 2**-1074.
    q = max(e - 52, -1074)
    if e > 1023:
        return math.inf
    t = _floor_sqrt_scaled(value, -q) if q <= 0 else (
        math.isqrt(value.numerator // (value.denominator << (2 * q)))
    )
    # Round half to even: compare sqrt(value) against t + 1/2 exactly:
    #   sqrt(value) <=> (2t+1) * 2**(q-1)
    #   value * 4   <=> (2t+1)**2 * 2**(2q)    (both sides positive)
    lhs = 4 * value.numerator
    mid = (2 * t + 1) ** 2 * value.denominator
    if q >= 0:
        rhs = mid << (2 * q)
    else:
        # Multiply both sides to stay integral.
        lhs = lhs << (-2 * q)
        rhs = mid
    if lhs > rhs or (lhs == rhs and t & 1):
        t += 1
    # t <= 2**53 here (a carry out of the binade keeps t exactly 2**53,
    # which is a representable float), so float(t) is exact.
    try:
        return math.ldexp(float(t), q)
    except OverflowError:
        return math.inf


def exact_norm2(xs: np.ndarray) -> float:
    """Correctly-rounded Euclidean norm ``sqrt(sum(x**2))``.

    >>> import numpy as np
    >>> exact_norm2(np.array([3.0, 4.0]))
    5.0
    """
    return sqrt_correctly_rounded(exact_sumsq_fraction(xs))
