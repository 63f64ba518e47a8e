"""Probabilistic and worst-case models of FP summation error.

The paper observes (Sec. II.A) that the residual stdev of its zero-sum
experiment grows *linearly* in ``n``, and remarks that uncorrelated
summands would suggest ``sqrt(n)``; it attributes the difference to the
negation pairing biasing "the accumulated error towards the worst case".
This module makes those statements quantitative:

* Each addition ``s + x`` rounds with an error ~uniform in
  ``±ulp(s')/2``, i.e. std ``u*|s'|/sqrt(3)`` with ``u = 2**-53``.
* For the paper's zero-sum sets the partial-sum trajectory is a
  **Brownian bridge** (it must return to zero), so
  ``E[s_i^2] = (a^2/3) * i(n-i)/n`` for values ±uniform[0, a] — summing
  the per-step variances gives a *linear-in-n* residual stdev.
* An unconstrained random walk gives the same linear order (partial
  sums grow like ``sqrt(i)``); only the fixed-partial-sum model yields
  ``sqrt(n)`` — which is the mental model the paper says is wrong here.

Also provided: Higham-style deterministic bounds for recursive, pairwise
and compensated summation, and the classical condition number — useful
for judging when the exact methods are *needed* rather than merely nice.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.bounds import UNIT_ROUNDOFF, gamma

__all__ = [
    "UNIT_ROUNDOFF",
    "expected_stdev_zero_sum",
    "expected_stdev_random_walk",
    "expected_stdev_fixed_sum",
    "condition_number",
    "recursive_error_bound",
    "pairwise_error_bound",
    "compensated_error_bound",
]

def expected_stdev_zero_sum(n: int, magnitude: float) -> float:
    """Predicted residual stdev for the paper's Fig. 1 protocol.

    ``n`` values ±uniform[0, magnitude] constrained to sum to zero: the
    partial sums form a bridge with ``E[s_i^2] = (a^2/3) i(n-i)/n``;
    summing uniform-rounding variances ``u^2 E[s^2] / 3`` over the walk:

        ``sigma ~= u * a * sqrt(sum_i i(n-i)/n / 9)``
               ``~= u * a * n / (9/sqrt(...))`` — linear in n.
    """
    if n < 2:
        return 0.0
    var_x = magnitude**2 / 3.0
    bridge = sum(i * (n - i) / n for i in range(1, n))  # ~ n^2/6
    return UNIT_ROUNDOFF * math.sqrt(var_x * bridge / 3.0)


def expected_stdev_random_walk(n: int, magnitude: float) -> float:
    """Residual stdev for an *unconstrained* random-sign stream: partial
    sums grow like sqrt(i), so the error is again ~linear in n."""
    if n < 2:
        return 0.0
    var_x = magnitude**2 / 3.0
    walk = sum(range(1, n))  # E[s_i^2] = i * var_x
    return UNIT_ROUNDOFF * math.sqrt(var_x * walk / 3.0)


def expected_stdev_fixed_sum(n: int, typical_sum: float) -> float:
    """The sqrt(n) mental model: if every partial sum had fixed scale
    ``typical_sum``, per-step errors are iid and the residual stdev is
    ``u * |s| * sqrt(n/3)`` — included to contrast with the linear laws
    above (the paper's 'relative to sqrt(n)' remark)."""
    if n < 2:
        return 0.0
    return UNIT_ROUNDOFF * abs(typical_sum) * math.sqrt(n / 3.0)


def condition_number(xs: Sequence[float]) -> float:
    """``sum |x| / |sum x|`` — the amplification factor of summation.

    Infinite for exact cancellation (the paper's zero-sum sets are the
    hardest possible case for floating point).
    """
    total = math.fsum(xs)
    magnitude = math.fsum(abs(x) for x in xs)
    if magnitude == 0.0:
        return 1.0
    if total == 0.0:
        return math.inf
    return magnitude / abs(total)


def recursive_error_bound(xs: Sequence[float]) -> float:
    """Higham's deterministic bound for left-to-right summation:
    ``|err| <= gamma_{n-1} * sum |x|``."""
    n = len(xs)
    if n < 2:
        return 0.0
    return gamma(n - 1) * math.fsum(abs(x) for x in xs)


def pairwise_error_bound(xs: Sequence[float]) -> float:
    """Pairwise summation: ``|err| <= gamma_{ceil(log2 n)} * sum |x|``."""
    n = len(xs)
    if n < 2:
        return 0.0
    return gamma(math.ceil(math.log2(n))) * math.fsum(abs(x) for x in xs)


def compensated_error_bound(xs: Sequence[float]) -> float:
    """Kahan summation: ``|err| <= (2u + O(n u^2)) * sum |x|``."""
    n = len(xs)
    if n < 2:
        return 0.0
    magnitude = math.fsum(abs(x) for x in xs)
    return (2 * UNIT_ROUNDOFF + n * UNIT_ROUNDOFF**2 * 3) * magnitude
