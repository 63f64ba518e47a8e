"""The benchmark's workloads: seeded inputs, the requests each one sends,
and the oracle every result is checked against.

The program under test receives only the arrays built here.  Import
:mod:`checkout` and call ``checkout.bootstrap()`` before this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.core import engines, planner
from repro.core.params import HPParams
from repro.core.scalar import from_int_scaled
from repro.parallel.drivers import global_sum

#: HP format of the global_sum workloads.
HP = HPParams(8, 4)
#: procs workers: one per core of the 2-core reference machine.
PES = 2
#: planned-illcond cycles these accuracy targets: each compensated one
#: twice per exact request (target 0), so p50 falls among the compensated
#: requests and p90 among the exact ones.  The first compensated request
#: after an exact one takes about twice as long as the others; with a
#: single pass, p50 would fall between it and them, and swing with the
#: noise.
TARGETS = (1e-6, 1e-9, 1e-12) * 2 + (0.0,)
#: Summands in the one warm-up request that ends set-up.
WARMUP_N = 4096
#: Chunk of the reference engine: bounds the oracle's scratch memory so
#: it does not set the run's peak RSS.
_ORACLE_CHUNK = 1 << 16
_U = 2.0 ** -53


@dataclass(frozen=True)
class Request:
    """One request of a workload's cycle."""

    #: "main" (the exact or planned request the metrics time) or
    #: "reference" (the plain double sum of the same input)
    kind: str
    #: index of the input it sums
    index: int
    #: accuracy target of a planned request; None for global_sum requests
    target: float | None = None

    @property
    def exact(self) -> bool:
        """True for requests that must return the exact sum."""
        return self.kind == "main" and self.target in (None, 0.0)


@dataclass(frozen=True)
class Outcome:
    value: float
    #: exact HP words; None for double and compensated results
    words: tuple | None
    #: the planner's decision, for planned requests
    plan: Any = None


@dataclass(frozen=True)
class Oracle:
    """What one input's results must equal, computed once, untimed."""

    fsum: float
    #: sum of |x|, the scale of every error bound
    mass: float
    #: exact words from the paper's word-matrix reference engine
    words: tuple
    params: HPParams


@dataclass(frozen=True)
class Workload:
    """A set of seeded inputs and the closed-loop requests sent on them.

    ``path`` names the request path: ``"serial"`` and ``"procs"`` are
    :func:`global_sum` substrates, ``"planned"`` is
    :func:`planner.planned_sum`.  Why each workload exists is recorded
    in ``BENCHMARK.json`` and the README.
    """

    name: str
    path: str
    #: summands per request
    n: int
    #: the speed probe's time on these inputs on the reference machine
    #: at full speed, in microseconds (see measure.py)
    probe_us: float
    #: distinct inputs the requests cycle over
    vectors: int = 1
    #: global_sum method; tests pass a ReductionMethod to inject faults
    method: Any = "hp"
    #: layers whose median span times must add up to the real request's
    #: median wall time
    closure: tuple[str, ...] = ()

    @property
    def substrate(self) -> str:
        return "procs" if self.path == "procs" else "serial"

    @property
    def pes(self) -> int:
        return PES if self.path == "procs" else 1

    def inputs(self, seed: int) -> list[np.ndarray]:
        """The workload's inputs; the same seed gives the same arrays."""
        rng = np.random.default_rng(seed)
        make = illconditioned if self.path == "planned" else uniform
        return [make(rng, self.n) for _ in range(self.vectors)]

    def warmup_input(self) -> np.ndarray:
        return replace(self, n=WARMUP_N, vectors=1).inputs(0)[0]

    def cycle(self) -> list[Request]:
        """One round of the closed loop, in the order it is sent."""
        if self.path == "planned":
            # The double reference follows the exact (target 0) request.
            return [Request("main", 0, t) for t in TARGETS] + [
                Request("reference", 0)
            ]
        return [
            req
            for i in range(self.vectors)
            for req in (Request("main", i), Request("reference", i))
        ]

    def call(self, req: Request, x: np.ndarray) -> Outcome:
        """Send one request to the program."""
        if req.kind == "reference":
            r = global_sum(x, "double", self.substrate, pes=self.pes)
            return Outcome(r.value, None)
        if self.path == "planned":
            p = planner.planned_sum(x, req.target)
            return Outcome(p.value, p.words, p.plan)
        r = global_sum(x, self.method, self.substrate, pes=self.pes, params=HP)
        return Outcome(r.value, r.words)

    def params(self, x: np.ndarray) -> HPParams:
        """The HP format an exact request on ``x`` uses."""
        if self.path == "planned":
            return planner.planned_sum(x, 0.0).params
        return HP


def uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, n)


def illconditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    """± pairs with exponents 2^-60..2^60 that cancel to a 1e-9 relative
    residue, shuffled.

    The largest and smallest magnitudes are pinned, so the planner
    derives the same HP format from every seed and the exact requests
    do the same work whatever the seed.
    """
    half = n // 2
    a = np.ldexp(rng.uniform(1.0, 2.0, half), rng.integers(-60, 60, half))
    a *= rng.choice((-1.0, 1.0), half)
    a[0], a[1] = 1.5 * 2.0**60, 2.0**-60
    residue = rng.uniform(-1e-9, 1e-9, half)
    residue[:2] = 0.0
    x = np.concatenate([a, -(a * (1.0 + residue))])
    rng.shuffle(x)
    return x


def oracle(workload: Workload, x: np.ndarray) -> Oracle:
    params = workload.params(x)
    total = engines.scaled_total(x, params, _ORACLE_CHUNK, "words")
    return Oracle(
        fsum=math.fsum(x),
        mass=math.fsum(np.abs(x)),
        words=from_int_scaled(total, params),
        params=params,
    )


def check(req: Request, out: Outcome, orc: Oracle, n: int) -> str | None:
    """None when ``out`` is a correct answer to ``req``, else why not."""
    err = abs(out.value - orc.fsum)
    if req.kind == "reference":
        # Recursive summation's a-priori bound, gamma(n-1) * sum|x|.
        k = max(n - 1, 0) * _U
        if err <= k / (1.0 - k) * orc.mass:
            return None
        return f"double sum {out.value!r} is {err:.3g} from {orc.fsum!r}"
    if out.plan is not None and not out.plan.exact:
        limit = out.plan.absolute_bound(orc.mass)
        if err <= limit:
            return None
        return (
            f"{out.plan.engine} sum {out.value!r} is {err:.3g} from "
            f"{orc.fsum!r}, over its bound {limit:.3g}"
        )
    if out.value != orc.fsum:
        return f"exact sum {out.value!r} != fsum {orc.fsum!r}"
    if out.words != orc.words:
        return "exact words differ from the serial reference"
    return None


def permuted_check(
    workload: Workload, x: np.ndarray, orc: Oracle, seed: int
) -> str | None:
    """One exact request on a shuffled copy of ``x``: order invariance."""
    rng = np.random.default_rng([seed, 1])
    req = Request("main", 0, 0.0 if workload.path == "planned" else None)
    try:
        out = workload.call(req, rng.permutation(x))
    except Exception as exc:  # a failed request is counted, not fatal
        return f"permuted request raised {type(exc).__name__}: {exc}"
    error = check(req, out, orc, len(x))
    return None if error is None else f"permuted input: {error}"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="bulk-serial",
            path="serial",
            n=1 << 20,
            probe_us=110.0,
            closure=(
                "parallel.drivers.make_method",
                "parallel.methods.local_reduce",
                "parallel.methods.finalize",
            ),
        ),
        Workload(
            name="bulk-procs",
            path="procs",
            n=1 << 20,
            probe_us=110.0,
            closure=(
                "parallel.procpool.ingest",
                "parallel.procpool.spawn",
                "parallel.procpool.reduce",
                "parallel.procpool.close",
            ),
        ),
        Workload(
            name="many-small",
            path="serial",
            n=1024,
            probe_us=66.0,
            vectors=64,
        ),
        Workload(
            name="planned-illcond",
            path="planned",
            n=1 << 20,
            probe_us=110.0,
        ),
    )
}
