"""Exact, order-invariant dot products on top of the HP method.

The paper treats summation; the natural first extension (and what
reproducible-BLAS libraries built on the same idea provide) is the dot
product.  The product of two doubles carries up to 106 significant bits,
so it cannot be converted directly — but Dekker/Veltkamp's error-free
transformation splits it *exactly* into two doubles:

    ``a * b = p + e``   with ``p = fl(a*b)`` and ``e`` the rounding error.

Feeding both halves into an HP accumulator yields the exact
``sum(a_i * b_i)`` with all of the HP method's order and architecture
invariance.  The vectorized path reproduces the same split with NumPy
array operations (no FMA required).

Range note: the format must cover both the product magnitudes and the
error terms; ``dot_params`` picks a sufficient (N, k) from the input
ranges, or pass your own.
"""

from __future__ import annotations

import numpy as np

from repro.core import engines
from repro.core.params import HPParams, suggest_params
from repro.core.scalar import Words, to_double
from repro.errors import ParameterError
from repro.util.bits import signed_int_to_words

__all__ = [
    "two_product",
    "split_products",
    "dot_params",
    "hp_dot_words",
    "hp_dot",
]

# Veltkamp splitting constant for binary64: 2**27 + 1.
_SPLITTER = 134217729.0


def two_product(a: float, b: float) -> tuple[float, float]:
    """Dekker's error-free product: returns ``(p, e)`` with
    ``a * b == p + e`` exactly (barring overflow/underflow of ``p``).

    >>> p, e = two_product(0.1, 0.1)
    >>> from fractions import Fraction
    >>> Fraction(p) + Fraction(e) == Fraction(0.1) * Fraction(0.1)
    True
    """
    p = a * b
    ta = _SPLITTER * a
    ah = ta - (ta - a)
    al = a - ah
    tb = _SPLITTER * b
    bh = tb - (tb - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def split_products(
    xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`two_product` over two arrays.

    Returns ``(p, e)`` arrays with ``x[i]*y[i] == p[i] + e[i]`` exactly.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(
            f"need equal-length 1-D arrays, got {xs.shape} and {ys.shape}"
        )
    p = xs * ys
    tx = _SPLITTER * xs
    xh = tx - (tx - xs)
    xl = xs - xh
    ty = _SPLITTER * ys
    yh = ty - (ty - ys)
    yl = ys - yh
    e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    return p, e


def dot_params(
    max_abs_x: float,
    max_abs_y: float,
    n_terms: int,
    min_abs_x: float | None = None,
    min_abs_y: float | None = None,
    margin_bits: int = 2,
) -> HPParams:
    """A format sufficient for the exact dot of vectors bounded by
    ``max_abs_x`` / ``max_abs_y``.

    The running sum is bounded by ``max_x * max_y * n`` (whole part).
    The lowest surviving bit of any exact product is the product of the
    factors' lowest mantissa bits, which is at least
    ``min|x| * min|y| * 2**-104`` — so the fraction must reach that far
    down.  When the minima are unknown they default to
    ``max * 2**-52``, i.e. the assumption that each vector spans at most
    one mantissa width of dynamic range; pass the true minima (as
    :func:`hp_dot` does) for wider-range data.
    """
    if max_abs_x <= 0 or max_abs_y <= 0:
        raise ParameterError("magnitude bounds must be positive")
    if n_terms < 1:
        raise ParameterError(f"need >= 1 term, got {n_terms}")
    min_abs_x = max_abs_x * 2.0**-52 if min_abs_x is None else min_abs_x
    min_abs_y = max_abs_y * 2.0**-52 if min_abs_y is None else min_abs_y
    if min_abs_x <= 0 or min_abs_y <= 0:
        raise ParameterError("magnitude minima must be positive")
    # Clamp against float under/overflow of the envelope arithmetic
    # itself; nothing representable sits below the smallest subnormal.
    top = max(max_abs_x * max_abs_y * n_terms, 1e-300)
    bottom = max((min_abs_x * min_abs_y) * 2.0**-104, 5e-324)
    return suggest_params(top, min(bottom, top), margin_bits=margin_bits)


def hp_dot_words(
    xs: np.ndarray,
    ys: np.ndarray,
    params: HPParams,
    chunk: int = 1 << 20,
    method: str = "small",
) -> Words:
    """Exact HP words of ``sum(xs * ys)`` (vectorized engine).

    Both the rounded products and their error terms are folded in, so
    the result is the exact inner product — invariant to term order.
    ``method`` names an exact engine in the :mod:`repro.core.engines`
    registry, as in :func:`repro.core.vectorized.batch_sum_doubles`;
    any other name raises ``ValueError``.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(
            f"need equal-length 1-D arrays, got {xs.shape} and {ys.shape}"
        )
    engine_total = engines.total_function(method)
    total = 0
    for start in range(0, len(xs), chunk):
        p, e = split_products(xs[start:start + chunk], ys[start:start + chunk])
        total += engine_total(p, params, chunk) + engine_total(e, params, chunk)
    if not params.min_int <= total <= params.max_int:
        from repro.errors import AdditionOverflowError

        raise AdditionOverflowError(f"dot product outside {params} range")
    return signed_int_to_words(total, params.n)


def hp_dot(xs: np.ndarray, ys: np.ndarray, params: HPParams | None = None) -> float:
    """Correctly-rounded double of the exact dot product.

    With ``params=None`` a sufficient format is derived from the data.

    >>> import numpy as np
    >>> hp_dot(np.array([0.1, 0.2]), np.array([10.0, 10.0]))
    3.0
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    if params is None:
        ax = np.abs(xs[xs != 0.0]) if len(xs) else np.array([])
        ay = np.abs(ys[ys != 0.0]) if len(ys) else np.array([])
        mx = float(ax.max()) if len(ax) else 1.0
        my = float(ay.max()) if len(ay) else 1.0
        nx = float(ax.min()) if len(ax) else 1.0
        ny = float(ay.min()) if len(ay) else 1.0
        params = dot_params(mx, my, max(len(xs), 1), min_abs_x=nx, min_abs_y=ny)
    return to_double(hp_dot_words(xs, ys, params), params)
