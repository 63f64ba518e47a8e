"""repro — Order-Invariant Real Number Summation (the HP method).

A complete reproduction of Small, Kalia, Nakano & Vashishta,
"Order-Invariant Real Number Summation: Circumventing Accuracy Loss for
Multimillion Summands on Multiple Parallel Architectures", IPDPS 2016.

Quickstart
----------
>>> import numpy as np
>>> from repro import HPParams, batch_sum_doubles, to_double
>>> params = HPParams(3, 2)          # 192-bit fixed point, 2 fraction words
>>> xs = np.array([0.1, 0.2, -0.1, -0.2])
>>> to_double(batch_sum_doubles(xs, params), params)
0.0

Subpackages
-----------
``repro.core``
    The HP method: formats, scalar reference (paper Listings 1-2),
    vectorized batch engine, CAS atomic adder.
``repro.hallberg``
    The Hallberg & Adcroft (2014) baseline.
``repro.summation``
    Conventional FP baselines (naive/pairwise/Kahan/...) and exact
    references.
``repro.parallel``
    Parallel substrates: threads (OpenMP analog), simulated MPI,
    simulated CUDA device, simulated Xeon Phi offload.
``repro.perfmodel``
    Analytic cost/scaling models reproducing the paper's performance
    figures (eqs. (3)-(6), memory-op and contention models).
``repro.experiments``
    One driver per paper table/figure.
``repro.observability``
    Instrumentation: metrics registry, tracing spans, structured run
    reports (zero-overhead when disabled; see docs/OBSERVABILITY.md).
"""

from repro.core import (
    AdaptiveAccumulator,
    AtomicHPCell,
    AtomicWord,
    HPAccumulator,
    HPMultiAccumulator,
    hp_dot,
    HPNumber,
    HPParams,
    smallacc_total,
    batch_from_double,
    batch_sum_doubles,
    batch_sum_words,
    batch_to_double,
    from_double,
    suggest_params,
    to_double,
)
from repro.errors import (
    AdditionOverflowError,
    ConversionOverflowError,
    MixedParameterError,
    NormalizationOverflowError,
    ParameterError,
    RangeError,
    ReproError,
    SummandLimitError,
    UnderflowWarning,
)
from repro.hallberg import (
    HallbergAccumulator,
    HallbergNumber,
    HallbergParams,
    equivalent_hallberg,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # HP method
    "HPParams",
    "HPNumber",
    "HPAccumulator",
    "HPMultiAccumulator",
    "AdaptiveAccumulator",
    "smallacc_total",
    "hp_dot",
    "AtomicHPCell",
    "AtomicWord",
    "from_double",
    "to_double",
    "suggest_params",
    "batch_from_double",
    "batch_sum_doubles",
    "batch_sum_words",
    "batch_to_double",
    # Hallberg baseline
    "HallbergParams",
    "HallbergNumber",
    "HallbergAccumulator",
    "equivalent_hallberg",
    # errors
    "ReproError",
    "ParameterError",
    "RangeError",
    "ConversionOverflowError",
    "AdditionOverflowError",
    "NormalizationOverflowError",
    "UnderflowWarning",
    "MixedParameterError",
    "SummandLimitError",
]
