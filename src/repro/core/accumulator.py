"""Mutable HP running-sum accumulator.

This is the object each processing element holds during a reduction: a
word vector updated in place via the Listing 2 ripple-carry add, with
optional overflow checking.  Accumulators over the same format merge
associatively, so any reduction tree over any partition of the summands
produces bit-identical words (the paper's order-invariance claim,
Sec. III.B.3) — property-tested in ``tests/core/test_invariance.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core import scalar
from repro.core.hpnum import HPNumber
from repro.core.params import HPParams
from repro.observability import metrics as _obs
from repro.util.bits import MASK64, sign_bit

__all__ = ["HPAccumulator"]


class HPAccumulator:
    """Accumulates doubles (or HP values) into an exact HP partial sum.

    Parameters
    ----------
    params:
        The HP format; must cover the dynamic range of the data
        (paper Sec. V).
    check_overflow:
        When true (default), every addition applies the sign-rule
        overflow test.  Disable only for hot loops whose range has been
        pre-validated.

    Examples
    --------
    >>> acc = HPAccumulator(HPParams(3, 2))
    >>> for x in [0.1, 0.2, -0.1, -0.2]:
    ...     acc.add(x)
    >>> acc.to_double()
    0.0
    """

    __slots__ = ("params", "check_overflow", "_words", "count")

    def __init__(self, params: HPParams, check_overflow: bool = True) -> None:
        self.params = params
        self.check_overflow = check_overflow
        self._words: list[int] = [0] * params.n
        self.count = 0  # number of summands absorbed (for diagnostics)

    # -- mutation -----------------------------------------------------------

    def add(self, x: float) -> None:
        """Convert the double and fold it into the running sum."""
        self.add_words(scalar.from_double(x, self.params))

    def add_listing1(self, x: float) -> None:
        """Same, via the bit-faithful Listing 1 conversion path."""
        self.add_words(scalar.from_double_listing1(x, self.params))

    def add_hp(self, value: HPNumber) -> None:
        if value.params != self.params:
            from repro.errors import MixedParameterError

            raise MixedParameterError(
                f"accumulator is {self.params}, value is {value.params}"
            )
        self.add_words(value.words)

    def add_words(self, b: Sequence[int]) -> None:
        """In-place Listing 2 ripple-carry add of a word vector."""
        if len(b) != self.params.n:
            from repro.errors import MixedParameterError

            raise MixedParameterError(
                f"accumulator is {self.params}, addend has {len(b)} words"
            )
        if _obs.ENABLED:
            self._add_words_observed(b)
            return
        a = self._words
        n = len(a)
        sa = sign_bit(a[0])
        sb = sign_bit(b[0])
        a[n - 1] = (a[n - 1] + b[n - 1]) & MASK64
        co = a[n - 1] < b[n - 1]
        for i in range(n - 2, 0, -1):
            a[i] = (a[i] + b[i] + co) & MASK64
            co = co if a[i] == b[i] else a[i] < b[i]
        if n > 1:
            a[0] = (a[0] + b[0] + co) & MASK64
        self.count += 1
        if self.check_overflow and sa == sb and sign_bit(a[0]) != sa:
            from repro.errors import AdditionOverflowError

            raise AdditionOverflowError(
                f"accumulator overflowed after {self.count} additions"
            )

    def _add_words_observed(self, b: Sequence[int]) -> None:
        """Metered twin of the Listing 2 loop: same words, same overflow
        rule, plus carry-ripple and overflow-check counters.  A separate
        method keeps the disabled path at a single gate check."""
        a = self._words
        n = len(a)
        p = self.params
        sa = sign_bit(a[0])
        sb = sign_bit(b[0])
        a[n - 1] = (a[n - 1] + b[n - 1]) & MASK64
        co = a[n - 1] < b[n - 1]
        carries = int(co)
        for i in range(n - 2, 0, -1):
            a[i] = (a[i] + b[i] + co) & MASK64
            co = co if a[i] == b[i] else a[i] < b[i]
            carries += co
        if n > 1:
            a[0] = (a[0] + b[0] + co) & MASK64
        self.count += 1
        reg = _obs.REGISTRY
        reg.counter("hp.accumulator.adds", n=p.n, k=p.k).inc()
        reg.counter("hp.carry_words", n=p.n, path="accumulator").inc(carries)
        if self.check_overflow:
            reg.counter("hp.overflow_checks", path="accumulator").inc()
            if sa == sb and sign_bit(a[0]) != sa:
                reg.counter("hp.overflows", path="accumulator").inc()
                from repro.errors import AdditionOverflowError

                raise AdditionOverflowError(
                    f"accumulator overflowed after {self.count} additions"
                )

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    def add_doubles(self, xs, method: str = "small") -> None:
        """Bulk-absorb an array of doubles through the vectorized engine.

        Bit-identical to calling :meth:`add` per element in any order
        (the order-invariance property), but with per-summand cost
        independent of ``N`` under the default small-accumulator engine.
        ``method`` is forwarded to
        :func:`repro.core.vectorized.batch_sum_doubles`.
        """
        import numpy as np

        from repro.core.vectorized import batch_sum_doubles

        xs = np.ascontiguousarray(xs, dtype=np.float64)
        if xs.shape[0] == 0:
            return
        batch = batch_sum_doubles(
            xs, self.params, check_overflow=self.check_overflow, method=method
        )
        count = self.count
        self.add_words(batch)
        self.count = count + int(xs.shape[0])

    def merge(self, other: "HPAccumulator") -> None:
        """Fold another accumulator's partial sum into this one
        (the global-reduction step of the paper's benchmarks)."""
        if other.params != self.params:
            from repro.errors import MixedParameterError

            raise MixedParameterError(
                f"cannot merge {other.params} into {self.params}"
            )
        count = self.count
        self.add_words(other._words)
        self.count = count + other.count

    def reset(self) -> None:
        self._words = [0] * self.params.n
        self.count = 0

    # -- extraction --------------------------------------------------------

    @property
    def words(self) -> tuple[int, ...]:
        return tuple(self._words)

    def snapshot(self) -> HPNumber:
        return HPNumber(self._words, self.params)

    def to_double(self) -> float:
        return scalar.to_double(self._words, self.params)

    def __repr__(self) -> str:
        return (
            f"HPAccumulator({self.params}, count={self.count}, "
            f"value={self.to_double()!r})"
        )
