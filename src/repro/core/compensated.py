"""Vectorized compensated summation tiers: pairwise, Kahan, Neumaier.

The exact HP engines buy order-invariance at a constant-factor cost;
most traffic tolerates a *known* error.  This module provides the cheap
tiers the planner (:mod:`repro.core.planner`) selects between naive
float64 and exact HP: batch kernels whose forward error carries an
a-priori bound (:mod:`repro.core.bounds`, after Hallman & Ipsen 2021)
and whose partials merge across the parallel substrates.

Partial representation
----------------------
Every kernel reduces a slice to a :class:`CompPartial` —
``(total, err, count, max_abs)``:

``total``
    the float64 running sum (the kernel's primary accumulator);
``err``
    the accumulated compensation, to be *added* to ``total`` at
    finalization (``value = fl(total + err)``);
``count``
    number of summands absorbed — the ``n`` the bound formulas need;
``max_abs``
    running ``max |x_i|`` — with ``count`` it upper-bounds the mass
    ``sum |x_i| <= count * max_abs``, making the a-priori bounds
    streaming-estimable without a second pass.

Partials merge with :func:`merge_partials`: totals combine through an
error-free ``two_sum`` whose exact rounding error lands in ``err``, so
a merge tree loses nothing beyond the per-slice kernel error.  The
merge is commutative (``two_sum`` computes the exact error, which does
not depend on operand order) but — like every compensated scheme — not
bit-associative: different merge *trees* may differ in the last ulp.
The contract of these tiers is therefore **run-to-run determinism for a
fixed order** plus bound satisfaction, not the exact engines'
bit-identity; the engine registry advertises that distinction
(``deterministic`` without ``exact``).

Kernels
-------
``pairwise_partial``
    chunked ``np.add.reduce`` (NumPy's blocked pairwise reduction) with
    chunk results merged through ``two_sum`` — error ``O(u log n)``, at
    memory bandwidth.
``kahan_partial`` / ``neumaier_partial``
    lane-vectorized compensated loops: the slice is viewed as rows of
    ``LANES`` independent columns, each carrying its own running
    compensation, so the sequential dependence is per-lane and every
    step is a full-width NumPy operation.  Lane totals and compensations
    fold pairwise at the end.  Error ``O(u)`` in the mass, independent
    of ``n`` to first order.

``neumaier_partial`` additionally consults :mod:`repro.core.native` for
a compiled scalar kernel (C extension -> pure ladder):
the compiled loop is classic sequential Neumaier — same advertised
bound, fewer passes over memory.  Compiled and pure backends are *not*
bit-interchangeable here (unlike the exact engines): each is
deterministic for a fixed order, and both respect the advertised bound,
which is what ``tests/core/test_compensated.py`` checks.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import ConversionOverflowError
from repro.observability.profile import phase as _phase
from repro.summation.compensated import kahan_sum, neumaier_sum, two_sum

__all__ = [
    "LANES",
    "CompPartial",
    "IDENTITY",
    "KERNELS",
    "compensated_sum",
    "finalize_partial",
    "kahan_partial",
    "merge_partials",
    "neumaier_partial",
    "pairwise_partial",
]

#: Lane width of the vectorized Kahan/Neumaier loops.  Wide enough that
#: each row step is a full-throughput NumPy operation on 4M-element
#: batches, small enough that the scalar tail (< LANES elements) and the
#: cross-lane fold stay negligible.
LANES = 4096

_DEFAULT_CHUNK = 1 << 20


class CompPartial(NamedTuple):
    """Mergeable compensated partial: ``value = fl(total + err)``.

    A ``NamedTuple`` so it pickles through the procs pool, packs through
    the simmpi wire codec, and still unpacks like the plain tuples the
    other :class:`~repro.parallel.methods.ReductionMethod` partials use.
    """

    total: float
    err: float
    count: int
    max_abs: float

    @property
    def value(self) -> float:
        return self.total + self.err


#: The neutral partial (an empty PE's contribution).
IDENTITY = CompPartial(0.0, 0.0, 0, 0.0)


def merge_partials(a: CompPartial, b: CompPartial) -> CompPartial:
    """Merge two partials; the totals' exact rounding error is kept.

    Commutative (``two_sum`` recovers the exact error either way), and
    deterministic for a fixed merge tree; different trees may differ in
    the last ulp — covered by the advertised bound, not bit-pinned.
    """
    total, lost = two_sum(a.total, b.total)
    return CompPartial(
        total,
        a.err + b.err + lost,
        a.count + b.count,
        a.max_abs if a.max_abs >= b.max_abs else b.max_abs,
    )


def finalize_partial(partial: CompPartial) -> float:
    """Fold the pending compensation back into the total.

    Raises :class:`~repro.errors.ConversionOverflowError` — the error the
    exact engines raise — when the partial is not finite.  Any NaN or
    infinite summand leaves ``total`` NaN or infinite, so the check
    costs two scalar tests here instead of a pass over the input.
    """
    if math.isfinite(partial.total):
        return float(partial.total + partial.err)
    if math.isfinite(partial.max_abs):
        # An infinite summand always shows in max_abs; a NaN one may not
        # (a NaN never compares greater than the running maximum).
        raise ConversionOverflowError(
            "compensated total is not finite: the input contains NaN, "
            f"or the sum of its {partial.count} summands overflows the "
            "double range"
        )
    raise ConversionOverflowError("input contains NaN or infinity")


def _as_batch(xs: np.ndarray) -> np.ndarray:
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.ndim != 1:
        raise ValueError(f"expected 1-D input, got shape {xs.shape}")
    return xs


def pairwise_partial(
    xs: np.ndarray, chunk: int = _DEFAULT_CHUNK
) -> CompPartial:
    """Chunked pairwise reduction (``np.add.reduce`` per chunk, chunks
    merged error-free), error ``O(u log n)`` in the mass."""
    xs = _as_batch(xs)
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    out = IDENTITY
    with _phase("compensated.pairwise"):
        for start in range(0, xs.size, chunk):
            piece = xs[start : start + chunk]
            part = CompPartial(
                float(np.add.reduce(piece)),
                0.0,
                piece.size,
                float(np.max(np.abs(piece))),
            )
            out = merge_partials(out, part)
    return out


def _lane_compensated(
    xs: np.ndarray, scalar_fallback: Callable, neumaier: bool
) -> CompPartial:
    """Shared lane-vectorized body of the Kahan and Neumaier kernels.

    Rows of ``LANES`` columns run the compensated recurrence with
    vector operations; the < LANES tail goes through the scalar loop
    and merges in error-free.
    """
    rows = xs.size // LANES
    head = IDENTITY
    if rows:
        body = xs[: rows * LANES].reshape(rows, LANES)
        total = np.zeros(LANES, dtype=np.float64)
        comp = np.zeros(LANES, dtype=np.float64)
        if neumaier:
            for r in range(rows):
                row = body[r]
                t = total + row
                # Neumaier: compensate from whichever operand dominates.
                comp += np.where(
                    np.abs(total) >= np.abs(row),
                    (total - t) + row,
                    (row - t) + total,
                )
                total = t
            lane_err = float(np.add.reduce(comp))
        else:
            for r in range(rows):
                y = body[r] - comp
                t = total + y
                comp = (t - total) - y
                total = t
            # Kahan's pending compensation is the amount ``total``
            # overshoots, so it folds back negated.
            lane_err = -float(np.add.reduce(comp))
        head = CompPartial(
            float(np.add.reduce(total)),
            lane_err,
            rows * LANES,
            float(np.max(np.abs(body))),
        )
    tail = xs[rows * LANES :]
    if tail.size:
        head = merge_partials(
            head,
            CompPartial(
                float(scalar_fallback(tail.tolist())),
                0.0,
                tail.size,
                float(np.max(np.abs(tail))),
            ),
        )
    return head


def kahan_partial(xs: np.ndarray, chunk: int = _DEFAULT_CHUNK) -> CompPartial:
    """Lane-vectorized Kahan (1965) summation; ``chunk`` is accepted for
    engine-signature uniformity (the lane layout already streams)."""
    xs = _as_batch(xs)
    if not xs.size:
        return IDENTITY
    with _phase("compensated.kahan"):
        return _lane_compensated(xs, kahan_sum, neumaier=False)


def neumaier_partial(
    xs: np.ndarray, chunk: int = _DEFAULT_CHUNK, backend: str = "auto"
) -> CompPartial:
    """Lane-vectorized Neumaier summation, with an optional compiled
    scalar kernel through the :mod:`repro.core.native` ladder.

    ``backend="pure"`` pins the lane-vectorized NumPy path (also what
    ``REPRO_FORCE_PURE=1`` yields); ``"auto"`` takes the compiled kernel
    when the ladder provides one.  Both are deterministic for a fixed
    order and meet the same advertised bound; they are not bit-identical
    to each other (compensated tiers carry no bit-identity contract).
    """
    xs = _as_batch(xs)
    if not xs.size:
        return IDENTITY
    if backend != "pure":
        from repro.core import native as _native

        kern = _native.resolve("auto" if backend == "auto" else backend)
        if kern.neumaier_partial is not None:
            with _phase("compensated.neumaier"):
                total, err, max_abs = kern.neumaier_partial(xs)
                return CompPartial(total, err, xs.size, max_abs)
    with _phase("compensated.neumaier"):
        return _lane_compensated(xs, neumaier_sum, neumaier=True)


#: Kernel dispatch used by the engine registry and the parallel adapter.
KERNELS: dict[str, Callable[..., CompPartial]] = {
    "pairwise": pairwise_partial,
    "kahan": kahan_partial,
    "neumaier": neumaier_partial,
}


def compensated_sum(
    xs: np.ndarray, kernel: str = "neumaier", chunk: int = _DEFAULT_CHUNK
) -> float:
    """One-call compensated sum through a named kernel."""
    try:
        fn = KERNELS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown compensated kernel {kernel!r}; "
            f"pick one of {'/'.join(KERNELS)}"
        ) from None
    return finalize_partial(fn(xs, chunk))
