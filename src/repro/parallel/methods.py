"""Summation-method adapters for the parallel substrates.

Every Sec. IV.B benchmark runs the same reduction skeleton with three
interchangeable methods — double precision, HP, and Hallberg.  A
:class:`ReductionMethod` packages the three operations the skeleton
needs: a *local* reduce over one PE's slice, an associative *combine* of
two partials, and a *finalize* back to double.  HP and Hallberg combines
are exact integer operations, so any combine tree gives bit-identical
partials; the double combine is ordinary FP addition, order-sensitive by
nature — which is precisely the contrast the experiments measure.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Generic, TypeVar

import numpy as np

from repro.core import compensated as _comp
from repro.core.accumulator import HPAccumulator
from repro.core.params import HPParams
from repro.core.scalar import Words, add_words_checked, to_double
from repro.core.smallacc import SmallAccumulator, bin_count, fold_bins
from repro.core.vectorized import _finalize_total, batch_sum_doubles
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

    def is_exact(self) -> bool:
        """True when combine order cannot affect the result."""
        return True


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

    def is_exact(self) -> bool:
        return False


class CompensatedMethod(ReductionMethod[tuple]):
    """Bounded-error compensated tiers on any substrate.

    Partials are :class:`repro.core.compensated.CompPartial` tuples —
    ``(total, err, count, max_abs)`` — which pickle through the procs
    pool and pack through the simmpi wire codec like any other partial.
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

    def identity(self) -> tuple:
        return (0,) * self.params.n

    def local_reduce(self, xs: np.ndarray) -> tuple:
        if self.vectorized:
            return batch_sum_doubles(
                np.asarray(xs, dtype=np.float64),
                self.params,
                method=self.engine,
            )
        acc = HPAccumulator(self.params)
        for x in xs:
            acc.add(float(x))
        return acc.words

    def combine(self, a: tuple, b: tuple) -> tuple:
        return add_words_checked(a, b)

    def finalize(self, partial: tuple) -> float:
        return to_double(partial, self.params)

    def partial_nbytes(self) -> int:
        return 8 * self.params.n


class HPSmallaccMethod(ReductionMethod[tuple]):
    """The HP method with Neal small-accumulator partials.

    Where :class:`HPMethod` ships ``N``-word vectors between PEs, this
    adapter keeps partials in chunk form (:mod:`repro.core.smallacc`): a
    tuple of signed integer chunks with chunk ``i`` weighted
    ``2**(32*i)``.  Chunks merge by plain elementwise addition — exact,
    associative and carry-free — so any combine tree over any partition
    yields the same fold, and the fold is converted to HP words (and
    range-checked) exactly once at :meth:`finalize`.  The chunk array
    *is* the whole local state, so partials are canonicalized (fully
    propagated) before shipping and merges stay idempotent-safe under
    re-delivery of an identity partial.  Words are bit-identical to
    :class:`HPMethod` over the same data.
    """

    name = "hp-small"

    def __init__(
        self, params: HPParams, chunk: int = 1 << 20, backend: str = "auto"
    ) -> None:
        self.params = params
        self.chunk = chunk
        self.backend = backend
        self.nchunks = bin_count(params)

    def identity(self) -> tuple:
        return (0,) * self.nchunks

    def local_reduce(self, xs: np.ndarray) -> tuple:
        engine = SmallAccumulator(
            self.params, chunk=self.chunk, backend=self.backend
        )
        engine.absorb(np.asarray(xs, dtype=np.float64))
        # Canonicalize before shipping: every non-top chunk is a 32-bit
        # window, so transported partials are backend-independent and
        # compact on the wire.
        engine.propagate()
        return engine.chunks

    def combine(self, a: tuple, b: tuple) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def words(self, partial: tuple) -> Words:
        """Fold a chunk partial into range-checked HP words."""
        return _finalize_total(fold_bins(partial), self.params, True)

    def finalize(self, partial: tuple) -> float:
        return to_double(self.words(partial), self.params)

    def partial_nbytes(self) -> int:
        # 16-byte signed wire slots (SmallaccChunksType): combined
        # partials can exceed 64 bits per chunk.
        return 16 * self.nchunks


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

    def partial_nbytes(self) -> int:
        return 8 * self.params.n + 8  # digits + summand count


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
