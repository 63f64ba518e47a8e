"""Summation-method adapters for the parallel substrates.

Every Sec. IV.B benchmark runs the same reduction skeleton with three
interchangeable methods — double precision, HP, and Hallberg.  A
:class:`ReductionMethod` is the whole algebra of one partial type: the
*identity*, a *local* reduce over one PE's slice, an associative
*combine* of two partials, a *finalize* back to double, and the wire
codec (:meth:`~ReductionMethod.pack` / :meth:`~ReductionMethod.unpack`,
``partial_nbytes()`` bytes).  Together these are the paper's "custom MPI
data type and MPI_Op" (Sec. IV.B): the simulated MPI substrate moves
only the packed bytes.  HP and Hallberg combines are exact integer
operations, so any combine tree gives bit-identical partials; the double
combine is ordinary FP addition, order-sensitive by nature — which is
precisely the contrast the experiments measure.  Every codec is
little-endian and architecture-independent.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from typing import Any, Generic, TypeVar

import numpy as np

from repro.core import compensated as _comp
from repro.core import engines
from repro.core.accumulator import HPAccumulator
from repro.core.params import HPParams
from repro.core.scalar import Words, add_words_checked, scaled_to_double, to_double
from repro.core.smallacc import bin_count, bins_from_int, fold_bins
from repro.core.vectorized import _DEFAULT_CHUNK, _finalize_total
from repro.errors import SummandLimitError
from repro.hallberg.accumulator import HallbergAccumulator
from repro.hallberg.params import HallbergParams
from repro.hallberg.scalar import hb_add, hb_to_double
from repro.hallberg.vectorized import hb_batch_sum_doubles
from repro.summation.naive import naive_sum

P = TypeVar("P")

__all__ = [
    "ReductionMethod",
    "CompensatedMethod",
    "DoubleMethod",
    "HPMethod",
    "HPSmallaccMethod",
    "HallbergMethod",
    "standard_methods",
]


class ReductionMethod(ABC, Generic[P]):
    """A summation method pluggable into any parallel substrate."""

    #: short name used in reports ("double", "hp", "hallberg")
    name: str

    @abstractmethod
    def identity(self) -> P:
        """The neutral partial (an empty PE's contribution)."""

    @abstractmethod
    def local_reduce(self, xs: np.ndarray) -> P:
        """Reduce one PE's slice of summands to a partial."""

    @abstractmethod
    def combine(self, a: P, b: P) -> P:
        """Associatively merge two partials (the global-reduction op)."""

    @abstractmethod
    def finalize(self, partial: P) -> float:
        """Convert the final partial to a double."""

    @abstractmethod
    def partial_nbytes(self) -> int:
        """Wire size of one partial — the MPI message payload."""

    @abstractmethod
    def pack(self, partial: P) -> bytes:
        """The partial's ``partial_nbytes()``-byte wire form."""

    @abstractmethod
    def unpack(self, buf: bytes) -> P:
        """Inverse of :meth:`pack`; ``ValueError`` on any other length."""

    def _sized(self, buf: bytes) -> bytes:
        """``buf`` when it is exactly one partial long."""
        if len(buf) != self.partial_nbytes():
            raise ValueError(
                f"a {self.name} partial is {self.partial_nbytes()} bytes, "
                f"got {len(buf)}"
            )
        return buf

    def is_exact(self) -> bool:
        """True when combine order cannot affect the result."""
        return True

    def result(self, partial: P) -> tuple[float, tuple | None]:
        """``(value, words)`` of the final partial from one fold: the
        double, and the exact bit pattern (``None`` when inexact)."""
        return self.finalize(partial), None

    def serial_result(self, xs: np.ndarray) -> tuple[float, tuple | None]:
        """``(value, words)`` of one PE reducing all of ``xs``."""
        return self.result(self.local_reduce(xs))


class DoubleMethod(ReductionMethod[float]):
    """Conventional double-precision summation (the paper's baseline).

    ``strict_serial`` reduces each slice with a left-to-right loop (the
    semantics of the paper's C loop); the default uses ``numpy.add.reduce``
    (pairwise) for throughput.  Either way the result depends on the
    partition and combine order — the non-reproducibility under study.
    """

    name = "double"

    def __init__(self, strict_serial: bool = False) -> None:
        self.strict_serial = strict_serial

    def identity(self) -> float:
        return 0.0

    def local_reduce(self, xs: np.ndarray) -> float:
        if self.strict_serial:
            return naive_sum(xs)
        # The unbounded float accumulation IS this baseline's semantics —
        # the non-reproducibility the experiments measure.
        return float(np.add.reduce(np.asarray(xs, dtype=np.float64)))  # hp: noqa[HP013]

    def combine(self, a: float, b: float) -> float:
        return a + b

    def finalize(self, partial: float) -> float:
        return partial

    def partial_nbytes(self) -> int:
        return 8

    def pack(self, partial: float) -> bytes:
        return struct.pack("<d", partial)  # MPI_DOUBLE

    def unpack(self, buf: bytes) -> float:
        return struct.unpack("<d", self._sized(buf))[0]

    def is_exact(self) -> bool:
        return False


class CompensatedMethod(ReductionMethod[tuple]):
    """Bounded-error compensated tiers on any substrate.

    Partials are :class:`repro.core.compensated.CompPartial` tuples —
    ``(total, err, count, max_abs)`` — which pickle through the procs
    pool and pack to 32 bytes (``<ddQd``) like any other partial.
    Merging keeps the totals' exact rounding error (``two_sum``), so a
    reduction tree adds nothing beyond the per-slice kernel error and
    the whole reduction stays inside the tier's a-priori bound
    (:mod:`repro.core.bounds`).  Not exact: different combine *trees*
    may differ in the last ulp — the contract is bound satisfaction plus
    run-to-run determinism for a fixed order, which is what the
    regression gate checks for these tiers.
    """

    def __init__(self, kernel: str = "neumaier", chunk: int = 1 << 20) -> None:
        if kernel not in _comp.KERNELS:
            raise ValueError(
                f"unknown compensated kernel {kernel!r}; "
                f"pick one of {'/'.join(_comp.KERNELS)}"
            )
        self.kernel = kernel
        self.chunk = chunk
        self.name = f"comp-{kernel}"

    def identity(self) -> tuple:
        return _comp.IDENTITY

    def local_reduce(self, xs: np.ndarray) -> tuple:
        return _comp.KERNELS[self.kernel](
            np.asarray(xs, dtype=np.float64), self.chunk
        )

    def combine(self, a: tuple, b: tuple) -> tuple:
        return _comp.merge_partials(
            _comp.CompPartial(*a), _comp.CompPartial(*b)
        )

    def finalize(self, partial: tuple) -> float:
        return _comp.finalize_partial(_comp.CompPartial(*partial))

    def partial_nbytes(self) -> int:
        # total f64 + err f64 + count u64 + max_abs f64 on the wire.
        return 32

    def pack(self, partial: tuple) -> bytes:
        return struct.pack("<ddQd", *partial)

    def unpack(self, buf: bytes) -> tuple:
        return _comp.CompPartial(*struct.unpack("<ddQd", self._sized(buf)))

    def is_exact(self) -> bool:
        return False


class HPMethod(ReductionMethod[tuple]):
    """The HP method: exact local sums, exact Listing-2 combines.

    Partials are word tuples; ``vectorized`` selects the batch engine
    named by ``engine`` (default ``"small"``) or the scalar accumulator
    (reference semantics, identical words).
    """

    name = "hp"

    def __init__(
        self,
        params: HPParams,
        vectorized: bool = True,
        engine: str = "small",
    ) -> None:
        self.params = params
        self.vectorized = vectorized
        self.engine = engine
        self._total = engines.total_function(engine)

    def identity(self) -> tuple:
        return (0,) * self.params.n

    def local_reduce(self, xs: np.ndarray) -> tuple:
        if self.vectorized:
            total = self._total(xs, self.params, _DEFAULT_CHUNK)
            return _finalize_total(total, self.params)
        acc = HPAccumulator(self.params)
        for x in xs:
            acc.add(float(x))
        return acc.words

    def combine(self, a: tuple, b: tuple) -> tuple:
        return add_words_checked(a, b)

    def finalize(self, partial: tuple) -> float:
        return to_double(partial, self.params)

    def result(self, partial: tuple) -> tuple[float, tuple]:
        return self.finalize(partial), tuple(partial)

    def serial_result(self, xs: np.ndarray) -> tuple[float, tuple]:
        # Value and words straight from the exact total, with the range
        # check before the double-range check, as local_reduce then
        # finalize raise them.  A subclass's finalize keeps its say.
        if not self.vectorized or type(self).finalize is not HPMethod.finalize:
            return self.result(self.local_reduce(xs))
        total = self._total(xs, self.params, _DEFAULT_CHUNK)
        words = _finalize_total(total, self.params)
        return scaled_to_double(total, self.params), words

    def partial_nbytes(self) -> int:
        return 8 * self.params.n

    # N unsigned 64-bit words: plain integers, so the same bytes decode
    # to the same value on any rank (architecture invariance).
    def pack(self, partial: tuple) -> bytes:
        return struct.pack(f"<{self.params.n}Q", *partial)

    def unpack(self, buf: bytes) -> tuple:
        return struct.unpack(f"<{self.params.n}Q", self._sized(buf))


class HPSmallaccMethod(ReductionMethod[int]):
    """The HP method with Neal small-accumulator partials.

    Where :class:`HPMethod` ships ``N``-word vectors between PEs, this
    adapter's partial is the exact signed scaled integer of its slice,
    the ``small`` engine's total.  Neal's chunks merge by carry-free
    addition (:mod:`repro.core.smallacc`), which is integer addition, so
    the combine is ``a + b``: exact and associative, and any combine
    tree over any partition gives the same total.  The total is
    range-checked and wrapped into HP words exactly once, by
    :meth:`result`; words are bit-identical to :class:`HPMethod` over
    the same data.

    On the wire the integer travels in chunk form: ``bin_count(params)``
    16-byte signed little-endian slots, slot ``i`` weighted
    ``2**(32*i)``, written canonical (:func:`bins_from_int`);
    :meth:`unpack` folds whatever the slots hold.
    """

    name = "hp-small"

    def __init__(self, params: HPParams, chunk: int = 1 << 20) -> None:
        self.params = params
        self.chunk = chunk
        self.nchunks = bin_count(params)
        self._total = engines.total_function("small")

    def identity(self) -> int:
        return 0

    def local_reduce(self, xs: np.ndarray) -> int:
        return self._total(xs, self.params, self.chunk)

    def combine(self, a: int, b: int) -> int:
        return a + b

    def words(self, partial: int) -> Words:
        """Range-checked HP words of a total."""
        return _finalize_total(partial, self.params)

    def finalize(self, partial: int) -> float:
        return self.result(partial)[0]

    def result(self, partial: int) -> tuple[float, tuple]:
        words = self.words(partial)
        return scaled_to_double(partial, self.params), words

    def partial_nbytes(self) -> int:
        return 16 * self.nchunks

    def pack(self, partial: int) -> bytes:
        return b"".join(
            chunk.to_bytes(16, "little", signed=True)
            for chunk in bins_from_int(partial, self.nchunks)
        )

    def unpack(self, buf: bytes) -> int:
        buf = self._sized(buf)
        return fold_bins(
            int.from_bytes(buf[i : i + 16], "little", signed=True)
            for i in range(0, len(buf), 16)
        )


class HallbergMethod(ReductionMethod[tuple]):
    """The Hallberg baseline: carry-free word adds, budget enforced.

    A partial is ``(digits, count)`` — the count travels with the digits
    because carry headroom is consumed globally, not per PE.
    """

    name = "hallberg"

    def __init__(self, params: HallbergParams, vectorized: bool = True) -> None:
        self.params = params
        self.vectorized = vectorized

    def identity(self) -> tuple:
        return ((0,) * self.params.n, 0)

    def local_reduce(self, xs: np.ndarray) -> tuple:
        xs = np.asarray(xs, dtype=np.float64)
        if self.vectorized:
            return (hb_batch_sum_doubles(xs, self.params), len(xs))
        acc = HallbergAccumulator(self.params)
        for x in xs:
            acc.add(float(x))
        return (acc.digits, acc.count)

    def combine(self, a: tuple, b: tuple) -> tuple:
        digits_a, count_a = a
        digits_b, count_b = b
        total = count_a + count_b
        if total > self.params.max_summands:
            raise SummandLimitError(
                f"global reduction exceeds {self.params} budget of "
                f"{self.params.max_summands} summands"
            )
        return (hb_add(digits_a, digits_b, self.params), total)

    def finalize(self, partial: tuple) -> float:
        return hb_to_double(partial[0], self.params)

    def result(self, partial: tuple) -> tuple[float, tuple]:
        return self.finalize(partial), tuple(partial[0])

    def partial_nbytes(self) -> int:
        return 8 * self.params.n + 8  # digits + summand count

    # N signed 64-bit digits, then the summand count: budget accounting
    # travels on the wire with the digits.
    def pack(self, partial: tuple) -> bytes:
        digits, count = partial
        return struct.pack(f"<{self.params.n}qQ", *digits, count)

    def unpack(self, buf: bytes) -> tuple:
        fmt = f"<{self.params.n}qQ"
        *digits, count = struct.unpack(fmt, self._sized(buf))
        return (tuple(digits), count)


def standard_methods(
    hp_params: HPParams | None = None,
    hallberg_params: HallbergParams | None = None,
) -> list[ReductionMethod[Any]]:
    """The trio every Sec. IV.B figure compares, with the paper's default
    parameters: HP(N=6, k=3) and Hallberg(N=10, M=38)."""
    return [
        DoubleMethod(),
        HPMethod(hp_params or HPParams(6, 3)),
        HallbergMethod(hallberg_params or HallbergParams(10, 38)),
    ]
