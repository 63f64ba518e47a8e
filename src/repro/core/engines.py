"""Engine registry: one dispatch table for every summation engine.

Before this module, each layer of the stack grew its own ``if/elif``
ladder over engine names — ``batch_sum_doubles`` on ``method=``,
``repro sum`` on ``--engine``, ``drivers.make_method`` on parallel
adapter names — and adding an engine meant touching every ladder.  This
registry is the single source of truth the ROADMAP's engine-unification
item calls for: a name maps to the engine's batch kernel, its parallel
:class:`~repro.parallel.methods.ReductionMethod` adapter, and a
capability set the CLI and benches can introspect.

Specs resolve their implementations through *lazy* callables (imports
happen inside the spec functions), so this module can sit at the bottom
of :mod:`repro.core` without import cycles, and registering an engine
never pays for engines the process doesn't use.

Registered engines
------------------
``small`` (alias ``smallacc``)
    Neal-style small accumulator with in-place deferred carry
    propagation and an optional compiled backend
    (:mod:`repro.core.smallacc`) — the default behind every exact path.
``words``
    The paper's word-matrix engine (:mod:`repro.core.vectorized`),
    ``O(n*N)`` work, kept as the reference oracle.  Its adapter name
    ``hp`` is the word-partial adapter (Listing-2 combine), whose local
    kernel defaults to ``small``; ``HPMethod.engine`` names the kernel
    that actually runs.
``comp-pairwise`` (alias ``pairwise``), ``comp-kahan``, ``comp-neumaier``
    The compensated tiers (:mod:`repro.core.compensated`): cheap,
    bounded-error float64 kernels the accuracy planner
    (:mod:`repro.core.planner`) selects when a request's target
    tolerates them.

Engines are **not** all exact anymore: capability introspection
distinguishes three independent guarantees a consumer can gate on.

``spec.exact``
    combine order cannot affect the result *bits*; the engine's words
    decode to the correctly rounded sum.  Bit-identity gates (the bench
    oracle matrix, cross-substrate comparisons) apply only to these.
``spec.deterministic``
    a fixed summand order reproduces the same bits run-to-run on the
    same backend — true for every registered engine, including the
    compensated tiers (whose contract is bound satisfaction plus
    fixed-order determinism, not bit-identity).
``spec.order_invariant``
    any permutation of the summands yields the same bits — the paper's
    headline property, exclusive to the exact HP engines.

Inexact engines carry ``bound_model`` naming their a-priori error
coefficient in :mod:`repro.core.bounds` and serve float totals through
``float_total``; their ``scaled_total`` is ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.params import HPParams

__all__ = [
    "EngineSpec",
    "adapter_factory",
    "adapter_names",
    "batch_words",
    "engine_for_adapter",
    "exact_names",
    "get",
    "names",
    "register",
    "scaled_total",
    "specs",
]


@dataclass(frozen=True)
class EngineSpec:
    """Registry entry for one summation engine.

    Attributes
    ----------
    name:
        Canonical engine name (the ``method=`` / ``--engine`` token).
    summary:
        One-line description for ``--help`` epilogs and docs tables.
    scaled_total:
        ``(xs, params, chunk) -> int`` — the exact signed scaled-integer
        sum; the batch kernel every exact consumer builds on.  ``None``
        for inexact engines (which serve :attr:`float_total` instead).
    adapter_name:
        Name of the parallel reduction method built on this engine
        (``drivers.make_method`` token, e.g. ``"hp-small"``).
    make_adapter:
        ``(params, chunk) -> ReductionMethod`` factory for
        :attr:`adapter_name`.
    capabilities:
        Introspectable feature tags, e.g. ``"exact"``,
        ``"deterministic"``, ``"order-invariant"``,
        ``"mergeable-partials"``, ``"compiled-backend"``, ``"gpu"``.
        The :attr:`exact` / :attr:`deterministic` /
        :attr:`order_invariant` properties are the supported way to ask.
    aliases:
        Extra names :func:`get` resolves to this spec.
    float_total:
        ``(xs, chunk) -> float`` — the inexact engines' batch kernel.
        ``None`` for exact engines.
    bound_model:
        Name of this engine's a-priori error coefficient in
        :mod:`repro.core.bounds` (``"exact"`` / ``"pairwise"`` /
        ``"compensated"`` / ``"recursive"``) — what the planner prices
        eligibility with.
    """

    name: str
    summary: str
    scaled_total: Callable[[np.ndarray, HPParams, int], int] | None
    adapter_name: str
    make_adapter: Callable[..., object]
    capabilities: frozenset = field(default_factory=frozenset)
    aliases: tuple = ()
    float_total: Callable[[np.ndarray, int], float] | None = None
    bound_model: str = "exact"

    @property
    def exact(self) -> bool:
        """Combine order cannot affect the result bits; bit-identity
        gates apply only to engines answering True here."""
        return "exact" in self.capabilities

    @property
    def deterministic(self) -> bool:
        """A fixed summand order reproduces the same bits run-to-run
        (on the same backend).  Exact implies deterministic."""
        return self.exact or "deterministic" in self.capabilities

    @property
    def order_invariant(self) -> bool:
        """Any permutation yields the same bits — the paper's headline
        property, exclusive to the exact HP engines."""
        return "order-invariant" in self.capabilities


_REGISTRY: dict[str, EngineSpec] = {}
_ALIASES: dict[str, str] = {}


def register(spec: EngineSpec) -> EngineSpec:
    """Register an engine spec (idempotent per canonical name)."""
    _REGISTRY[spec.name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = spec.name
    return spec


def get(name: str) -> EngineSpec:
    """Resolve an engine name or alias; raises ``ValueError`` otherwise.

    The message keeps the historical ``unknown summation method``
    wording that callers (and their tests) match on.
    """
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        raise ValueError(
            f"unknown summation method {name!r}; known engines: "
            f"{', '.join(names())}"
        ) from None


def names() -> tuple[str, ...]:
    """Canonical engine names, registration order (CLI choice lists)."""
    return tuple(_REGISTRY)


def exact_names() -> tuple[str, ...]:
    """Canonical names of the exact engines only — the set bit-identity
    gates (bench oracle matrix, cross-substrate comparisons) iterate."""
    return tuple(name for name, spec in _REGISTRY.items() if spec.exact)


def specs() -> tuple[EngineSpec, ...]:
    return tuple(_REGISTRY.values())


def adapter_names() -> tuple[str, ...]:
    """Parallel method names contributed by registered engines."""
    return tuple(spec.adapter_name for spec in _REGISTRY.values())


def adapter_factory(method_name: str):
    """The adapter factory for a parallel method name, or ``None`` —
    :func:`repro.parallel.drivers.make_method` resolves engine-backed
    methods here instead of growing its own ladder."""
    for spec in _REGISTRY.values():
        if spec.adapter_name == method_name:
            return spec.make_adapter
    return None


def engine_for_adapter(method_name: str) -> str | None:
    """Canonical engine name behind a parallel method name, if any."""
    for spec in _REGISTRY.values():
        if spec.adapter_name == method_name:
            return spec.name
    return None


def scaled_total(
    xs: np.ndarray, params: HPParams, chunk: int, method: str
) -> int:
    """Exact scaled-integer total of ``xs`` via the named engine."""
    spec = get(method)
    if spec.scaled_total is None:
        raise ValueError(
            f"engine {spec.name!r} is inexact and has no scaled integer "
            f"total; exact engines: {', '.join(exact_names())}"
        )
    return spec.scaled_total(xs, params, chunk)


def batch_words(
    xs: np.ndarray,
    params: HPParams,
    chunk: int,
    check_overflow: bool,
    method: str,
):
    """Engine total wrapped into HP words — the shared dispatch tail of
    :func:`repro.core.vectorized.batch_sum_doubles`.

    Exact engines produce the words of the exact sum.  Inexact
    (compensated) engines produce the words *of their float64 result* —
    an exact encoding of an approximate value, so the return type stays
    uniform while the ``exact`` capability keeps the two cases
    distinguishable to gates.
    """
    from repro.core.vectorized import _finalize_total

    spec = get(method)
    if spec.scaled_total is None:
        from repro.core.scalar import from_double

        return from_double(spec.float_total(xs, chunk), params)
    total = spec.scaled_total(xs, params, chunk)
    return _finalize_total(total, params, check_overflow)


# ---------------------------------------------------------------------------
# built-in engines (lazy bodies: nothing below imports at module load)
# ---------------------------------------------------------------------------


def _small_total(xs, params, chunk):
    from repro.core.smallacc import smallacc_total

    return smallacc_total(xs, params, chunk=chunk)


def _small_adapter(params, chunk=1 << 20):
    from repro.parallel.methods import HPSmallaccMethod

    return HPSmallaccMethod(params, chunk=chunk)


def _words_total(xs, params, chunk):
    from repro.core.vectorized import words_scaled_total

    return words_scaled_total(xs, params, chunk)


def _words_adapter(params, chunk=1 << 20):
    # Word partials and the Listing-2 combine; the local kernel is the
    # adapter's default exact engine.
    from repro.parallel.methods import HPMethod

    return HPMethod(params)


register(
    EngineSpec(
        name="small",
        summary=(
            "Neal small accumulator, deferred in-place carries, "
            "optional compiled backend (repro.core.smallacc)"
        ),
        scaled_total=_small_total,
        adapter_name="hp-small",
        make_adapter=_small_adapter,
        capabilities=frozenset(
            {
                "exact",
                "order-invariant",
                "mergeable-partials",
                "compiled-backend",
                "gpu",
            }
        ),
        aliases=("smallacc",),
    )
)

register(
    EngineSpec(
        name="words",
        summary=(
            "word-matrix reference engine, O(n*N) "
            "(repro.core.vectorized)"
        ),
        scaled_total=_words_total,
        adapter_name="hp",
        make_adapter=_words_adapter,
        capabilities=frozenset({"exact", "order-invariant", "reference"}),
    )
)


def _comp_total(kernel: str):
    def float_total(xs, chunk):
        from repro.core.compensated import compensated_sum

        return compensated_sum(xs, kernel=kernel, chunk=chunk)

    return float_total


def _comp_adapter(kernel: str):
    def make_adapter(params=None, chunk=1 << 20):
        # Compensated tiers carry no HP format; the params slot exists
        # for factory-signature uniformity with the exact adapters.
        from repro.parallel.methods import CompensatedMethod

        return CompensatedMethod(kernel, chunk=chunk)

    return make_adapter


_COMP_CAPS = frozenset({"deterministic", "mergeable-partials", "bounded-error"})

register(
    EngineSpec(
        name="comp-pairwise",
        summary=(
            "chunked pairwise float64 reduction, O(u log n) bound "
            "(repro.core.compensated)"
        ),
        scaled_total=None,
        adapter_name="comp-pairwise",
        make_adapter=_comp_adapter("pairwise"),
        capabilities=_COMP_CAPS,
        aliases=("pairwise",),
        float_total=_comp_total("pairwise"),
        bound_model="pairwise",
    )
)

register(
    EngineSpec(
        name="comp-kahan",
        summary=(
            "lane-vectorized Kahan compensated sum, O(u) bound "
            "(repro.core.compensated)"
        ),
        scaled_total=None,
        adapter_name="comp-kahan",
        make_adapter=_comp_adapter("kahan"),
        capabilities=_COMP_CAPS,
        float_total=_comp_total("kahan"),
        bound_model="compensated",
    )
)

register(
    EngineSpec(
        name="comp-neumaier",
        summary=(
            "lane-vectorized Neumaier compensated sum, optional compiled "
            "backend, O(u) bound (repro.core.compensated)"
        ),
        scaled_total=None,
        adapter_name="comp-neumaier",
        make_adapter=_comp_adapter("neumaier"),
        capabilities=_COMP_CAPS | {"compiled-backend"},
        aliases=("neumaier",),
        float_total=_comp_total("neumaier"),
        bound_model="compensated",
    )
)
