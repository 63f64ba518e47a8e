"""The HP method — the paper's primary contribution.

Public surface:

* :class:`HPParams` — format parameters ``(N, k)`` and derived ranges.
* :class:`HPNumber` — immutable HP value with operators.
* :class:`HPAccumulator` — mutable running sum (one per processing
  element in a reduction).
* :class:`AtomicHPCell` / :class:`AtomicWord` — CAS-only shared adder.
* ``batch_*`` — vectorized NumPy conversion and exact order-invariant
  summation for multimillion-summand workloads.
* scalar free functions (``from_double``, ``add_words``, ...) — the
  bit-level reference semantics (paper Listings 1-2).
* :func:`plan` / :func:`planned_sum` — error-bound-driven engine
  selection: the cheapest registered engine whose a-priori bound
  (:mod:`repro.core.bounds`) meets a mass-relative accuracy target.
* :func:`compensated_sum` / :class:`CompPartial` — the bounded-error
  compensated tiers the planner routes tolerant traffic onto.
"""

from repro.core.accumulator import HPAccumulator
from repro.core.atomic import AtomicHPCell, AtomicWord
from repro.core.convert_format import (
    common_format,
    convert_words,
    is_exactly_convertible,
)
from repro.core.dot import dot_params, hp_dot, hp_dot_words, two_product
from repro.core.io import (
    load_accumulator,
    load_bank,
    number_from_bytes,
    number_from_hex,
    number_to_bytes,
    number_to_hex,
    save_accumulator,
    save_bank,
)
from repro.core.matvec import CSRMatrix, hp_matvec, hp_spmv
from repro.core.multi import HPMultiAccumulator
from repro.core.norms import exact_norm2, exact_sum_abs, sqrt_correctly_rounded
from repro.core.smallacc import smallacc_total
from repro.core.streaming import AdaptiveAccumulator
from repro.core.hpnum import HPNumber
from repro.core.params import HPParams, TABLE1_CONFIGS, suggest_params
from repro.core.scalar import (
    add_words,
    add_words_checked,
    from_double,
    from_double_listing1,
    from_int_scaled,
    is_negative,
    is_zero,
    negate_words,
    sub_words,
    to_double,
    to_int_scaled,
)
from repro.core.vectorized import (
    batch_from_double,
    batch_sum_doubles,
    batch_sum_words,
    batch_to_double,
)
from repro.core.bounds import ErrorBound
from repro.core.compensated import CompPartial, compensated_sum
from repro.core.planner import EnginePlan, PlannedSum, plan, planned_sum

__all__ = [
    "HPParams",
    "HPNumber",
    "HPAccumulator",
    "HPMultiAccumulator",
    "AdaptiveAccumulator",
    "smallacc_total",
    "hp_dot",
    "hp_dot_words",
    "dot_params",
    "two_product",
    "hp_matvec",
    "hp_spmv",
    "CSRMatrix",
    "exact_norm2",
    "exact_sum_abs",
    "sqrt_correctly_rounded",
    "convert_words",
    "is_exactly_convertible",
    "common_format",
    "number_to_bytes",
    "number_from_bytes",
    "number_to_hex",
    "number_from_hex",
    "save_accumulator",
    "load_accumulator",
    "save_bank",
    "load_bank",
    "AtomicHPCell",
    "AtomicWord",
    "TABLE1_CONFIGS",
    "suggest_params",
    "from_double",
    "from_double_listing1",
    "from_int_scaled",
    "to_double",
    "to_int_scaled",
    "add_words",
    "add_words_checked",
    "sub_words",
    "negate_words",
    "is_negative",
    "is_zero",
    "batch_from_double",
    "batch_sum_doubles",
    "batch_sum_words",
    "batch_to_double",
    "ErrorBound",
    "CompPartial",
    "compensated_sum",
    "EnginePlan",
    "PlannedSum",
    "plan",
    "planned_sum",
]
