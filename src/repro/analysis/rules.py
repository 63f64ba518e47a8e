"""The HP domain lint rules (HP001-HP007, HP012-HP014).

Each rule encodes one invariant from the paper that ordinary Python
tooling cannot check (see ``docs/ANALYSIS.md`` for the full catalog with
example violations and suppression guidance):

========  ==================================================================
HP001     word-array stores must wrap at 64 bits (``& MASK64``)
HP002     integer word paths must not round through a float intermediate
HP003     lock-owning classes must touch their shared state under the lock
HP004     kernels must be deterministic (no wall clock / unseeded RNG /
          arrival-order iteration)
HP005     ``np.uint64`` scalars must not mix with bare Python literals
          (NumPy promotes the pair to float64 and drops low bits)
HP006     carry-propagation loops must derive their bounds from the data,
          not hard-coded word counts
HP007     profiling/timing regions must not be entered while holding an
          accumulator lock
HP012     engine entry points must be reached through the registry
          (``repro.core.engines``), not imported directly
HP013     result-producing float reductions must go through a registry
          engine or a bounded compensated tier, not raw ``np.sum`` /
          builtin ``sum()``
HP014     library code must not ``print()`` or write to ``sys.stdout`` /
          ``sys.stderr``; diagnostics route through the event journal or
          metrics (CLI/top/``__main__`` surfaces are exempt)
========  ==================================================================

Rules are deliberately *precise over complete*: each one matches a
syntactic shape that is almost always a bug in this codebase, so that
the linter self-hosts with near-zero suppressions.  Known-safe shapes
that the heuristics cannot distinguish (NumPy ``uint64`` arrays whose
dtype already wraps, the documented relaxed load in ``AtomicWord``) are
suppressed explicitly at the site with ``# hp: noqa[...]`` — the
suppression comment doubles as documentation that the invariant was
considered.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator

from repro.analysis.lint import Finding, ModuleSource, rule

__all__: list[str] = []  # rules register by side effect; nothing to export

#: Subpackages holding word-level kernel code (Python-int and NumPy).
KERNEL_PACKAGES = ("core", "parallel", "util")

#: 2**64 - 1, matched structurally so the rules need no runtime import.
_MASK64_VALUE = (1 << 64) - 1

#: Names whose subscripts we treat as HP word storage in hot paths.
_WORDLIKE = re.compile(r"^(a|b|w|out|words|word|acc)$|words?$")

#: Worker-result containers whose dict iteration order is arrival order.
_RESULTLIKE = re.compile(r"(result|partial|future|replie|reply|worker)", re.I)


# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def _is_mask64(node: ast.AST) -> bool:
    """A ``MASK64``-valued expression: the named constant, any dotted
    reference ending in MASK64, or the literal 0xFFFFFFFFFFFFFFFF."""
    if isinstance(node, ast.Constant):
        return node.value == _MASK64_VALUE
    dotted = _dotted(node)
    return dotted is not None and dotted.rsplit(".", 1)[-1] == "MASK64"


def _is_word_mod(node: ast.AST) -> bool:
    """A ``WORD_MOD`` (2**64) expression for ``% WORD_MOD`` wrapping."""
    if isinstance(node, ast.Constant):
        return node.value == _MASK64_VALUE + 1
    dotted = _dotted(node)
    return dotted is not None and dotted.rsplit(".", 1)[-1] == "WORD_MOD"


def _is_masked(expr: ast.AST) -> bool:
    """True when the expression's top level applies 64-bit wrapping."""
    if isinstance(expr, ast.BinOp):
        if isinstance(expr.op, ast.BitAnd) and (
            _is_mask64(expr.left) or _is_mask64(expr.right)
        ):
            return True
        if isinstance(expr.op, ast.Mod) and _is_word_mod(expr.right):
            return True
    if isinstance(expr, ast.Call):
        dotted = _dotted(expr.func)
        if dotted is not None and dotted.rsplit(".", 1)[-1] == "mask64":
            return True
    return False


def _is_numpyish(expr: ast.AST) -> bool:
    """Heuristic: the expression operates on NumPy values (whose uint64
    dtype already wraps at 64 bits in hardware).  Matches ``np.``/
    ``numpy.`` calls and ``.astype(...)`` anywhere inside."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and (
                node.func.attr == "astype"
            ):
                return True
            dotted = _dotted(node.func)
            if dotted is not None and dotted.split(".", 1)[0] in (
                "np",
                "numpy",
            ):
                return True
    return False


def _int_const(node: ast.AST) -> int | None:
    """Evaluate an integer literal, including a unary minus."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, int)
    ):
        return -node.operand.value
    return None


def _subscript_base_name(node: ast.AST) -> str | None:
    """``a`` for ``a[i]`` / ``a[i, j]``; None for anything else."""
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        return node.value.id
    return None


def _contains_wordlike_subscript(expr: ast.AST) -> bool:
    for node in ast.walk(expr):
        name = _subscript_base_name(node)
        if name is not None and _WORDLIKE.search(name):
            return True
    return False


def _self_attr(node: ast.AST) -> str | None:
    """``x`` for ``self._x`` attribute accesses, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


# ---------------------------------------------------------------------------
# HP001 — unmasked word arithmetic
# ---------------------------------------------------------------------------


@rule(
    "HP001",
    "unmasked-word-store",
    "word-array stores must wrap to 64 bits with & MASK64",
    "paper Sec. III.A (eq. 2) / Listing 2",
    packages=KERNEL_PACKAGES,
    example_bad='out[i] = a[i] + b[i]          # grows past 64 bits\nwords[i] += carry             # cannot mask in place',
    example_good='out[i] = (a[i] + b[i]) & MASK64\nwords[i] = (words[i] + carry) & MASK64',
)
def check_unmasked_word_store(module: ModuleSource) -> Iterator[Finding]:
    """Flag ``x[i] = <+ / - / << / ~ expression>`` (and ``x[i] += ...``)
    where the stored value is not wrapped.  Python ints are unbounded, so
    an unmasked store silently grows past 64 bits and the next carry
    comparison (``a[i] < b[i]``) gives the wrong answer.

    Word containers are recognized by the library's naming convention
    (``a``/``b``/``w``/``out``/``words``/``acc``/``*words``); signed
    Hallberg digit vectors (``digits``, ``total``) deliberately do not
    match — their digits are unbounded by design.  NumPy-typed
    expressions are exempt: a ``uint64`` array wraps in hardware."""
    arith = (ast.Add, ast.Sub, ast.LShift)

    def wordlike_target(target: ast.AST) -> bool:
        name = _subscript_base_name(target)
        return name is not None and bool(_WORDLIKE.search(name))

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assign):
            if len(node.targets) != 1 or not wordlike_target(node.targets[0]):
                continue
            value = node.value
            if _is_masked(value) or _is_numpyish(node):
                continue
            top_arith = (
                isinstance(value, ast.BinOp) and isinstance(value.op, arith)
            ) or (
                isinstance(value, ast.UnaryOp)
                and isinstance(value.op, ast.Invert)
            )
            if top_arith:
                yield module.finding(
                    "HP001",
                    node,
                    "word store from +/-/<</~ without '& MASK64'; Python "
                    "ints do not wrap at 64 bits",
                )
        elif isinstance(node, ast.AugAssign):
            if not wordlike_target(node.target):
                continue
            if isinstance(node.op, arith) and not _is_numpyish(node):
                yield module.finding(
                    "HP001",
                    node,
                    "in-place word update cannot apply '& MASK64'; use "
                    "'x[i] = (x[i] + ...) & MASK64'",
                )


# ---------------------------------------------------------------------------
# HP002 — float intermediates in integer hot paths
# ---------------------------------------------------------------------------


@rule(
    "HP002",
    "float-intermediate",
    "integer word paths must not round through a float",
    "paper Sec. II (rounding loss) / Sec. III.A exactness",
    packages=("core", "parallel"),
    example_bad='half = words[i] / 2           # float intermediate\nx = float(words[0])',
    example_good='half = words[i] // 2          # stays integer',
)
def check_float_intermediate(module: ModuleSource) -> Iterator[Finding]:
    """Flag true division (``/``) and ``float(...)`` applied to word
    elements.  A double holds 53 significand bits; routing a 64-bit word
    through one silently discards the low 11, breaking bit-exactness.
    Use ``//``, shifts, or big-int arithmetic instead."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            if _contains_wordlike_subscript(node.left) or (
                _contains_wordlike_subscript(node.right)
            ):
                yield module.finding(
                    "HP002",
                    node,
                    "true division on word elements produces a float "
                    "intermediate (53-bit significand); use // or shifts",
                )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and node.args
            and _contains_wordlike_subscript(node.args[0])
        ):
            yield module.finding(
                "HP002",
                node,
                "float() on a word element rounds 64 bits into a 53-bit "
                "significand; keep the hot path in integers",
            )


# ---------------------------------------------------------------------------
# HP003 — shared state touched outside the lock
# ---------------------------------------------------------------------------


def _lock_and_protected_attrs(
    init: ast.FunctionDef,
) -> tuple[set[str], set[str]]:
    """From ``__init__``: (lock attribute names, protected attribute
    names).  Protected = underscore-prefixed ``self._x`` assignments that
    are not locks and not ``threading.local()`` (thread-local by
    construction)."""
    locks: set[str] = set()
    protected: set[str] = set()
    for stmt in ast.walk(init):
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            attr = _self_attr(target)
            if attr is None or not attr.startswith("_"):
                continue
            value = stmt.value
            dotted = _dotted(value.func) if isinstance(value, ast.Call) else None
            leaf = dotted.rsplit(".", 1)[-1] if dotted else None
            if leaf in ("Lock", "RLock"):
                locks.add(attr)
            elif leaf in ("local", "Event", "Condition", "Semaphore"):
                continue  # thread-safe by construction
            else:
                protected.add(attr)
    return locks, protected


def _under_lock(module: ModuleSource, node: ast.AST, boundary: ast.AST,
                locks: set[str]) -> bool:
    """True when ``node`` sits inside ``with self.<lock>:`` within the
    method ``boundary``."""
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, ast.With):
            for item in ancestor.items:
                attr = _self_attr(item.context_expr)
                if attr in locks:
                    return True
        if ancestor is boundary:
            break
    return False


@rule(
    "HP003",
    "lock-discipline",
    "lock-owning classes must touch shared state under their lock",
    "paper Sec. III.B.2 (CAS atomicity); PR 1 AtomicWord counter race",
    packages=None,  # shared-state classes can live anywhere
    example_bad='def bump(self):\n    self._count += 1          # unlocked access',
    example_good='def bump(self):\n    with self._lock:\n        self._count += 1',
)
def check_lock_discipline(module: ModuleSource) -> Iterator[Finding]:
    """In any class whose ``__init__`` creates a ``threading.Lock``,
    every other method's access to the underscore attributes initialized
    alongside it must sit inside ``with self._lock:``.  This is exactly
    the bug class of the pre-PR-1 ``AtomicWord`` counter race: unlocked
    reads paired with locked writes produce torn aggregates."""
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        init = next(
            (
                n
                for n in cls.body
                if isinstance(n, ast.FunctionDef) and n.name == "__init__"
            ),
            None,
        )
        if init is None:
            continue
        locks, protected = _lock_and_protected_attrs(init)
        if not locks or not protected:
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method is init:
                continue
            for node in ast.walk(method):
                attr = _self_attr(node)
                if attr not in protected:
                    continue
                # Writes that *replace* the object wholesale are still
                # violations; reads equally so (torn reads).
                if not _under_lock(module, node, method, locks):
                    yield module.finding(
                        "HP003",
                        node,
                        f"access to shared 'self.{attr}' outside "
                        f"'with self.{sorted(locks)[0]}' in "
                        f"{cls.name}.{method.name}()",
                    )


# ---------------------------------------------------------------------------
# HP004 — nondeterminism in kernels
# ---------------------------------------------------------------------------

_BANNED_CALLS = {
    "time.time": "wall-clock time varies between runs",
    "time.time_ns": "wall-clock time varies between runs",
    "datetime.now": "wall-clock time varies between runs",
    "datetime.datetime.now": "wall-clock time varies between runs",
    "as_completed": "completion order is scheduler-dependent; iterate "
    "futures in submission (rank) order",
    "concurrent.futures.as_completed": "completion order is "
    "scheduler-dependent; iterate futures in submission (rank) order",
}


@rule(
    "HP004",
    "kernel-nondeterminism",
    "kernels must be deterministic: no wall clock, unseeded RNG, or "
    "arrival-order iteration",
    "paper Sec. III.B.3 (order invariance is the contract under test)",
    packages=("core", "parallel"),
    example_bad='for fut in as_completed(futures): ...   # arrival order\nrng = default_rng()                     # OS entropy',
    example_good='for fut in futures: ...                 # submission (rank) order\nrng = default_rng(seed)',
)
def check_kernel_nondeterminism(module: ModuleSource) -> Iterator[Finding]:
    """The whole point of the HP method is that results are bit-identical
    across schedules; a kernel that consults the clock, a process-global
    RNG, or arrival-order containers reintroduces run-to-run variance
    that the invariance tests cannot pin."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            leaf = dotted.rsplit(".", 1)[-1]
            if dotted in _BANNED_CALLS or leaf == "as_completed":
                reason = _BANNED_CALLS.get(
                    dotted, _BANNED_CALLS["as_completed"]
                )
                yield module.finding(
                    "HP004", node, f"nondeterministic call {dotted}(): {reason}"
                )
            elif dotted.startswith("random."):
                yield module.finding(
                    "HP004",
                    node,
                    f"{dotted}() uses the process-global RNG; thread a "
                    "seeded Generator (repro.util.rng) through instead",
                )
            elif leaf == "default_rng" and not node.args and not node.keywords:
                yield module.finding(
                    "HP004",
                    node,
                    "default_rng() without a seed draws OS entropy; pass "
                    "an explicit seed or SeedSequence child",
                )
        elif isinstance(node, (ast.For, ast.comprehension)):
            it = node.iter
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Attribute)
                and it.func.attr in ("items", "values", "keys")
                and isinstance(it.func.value, ast.Name)
                and _RESULTLIKE.search(it.func.value.id)
            ):
                yield module.finding(
                    "HP004",
                    it,
                    f"iterating {it.func.value.id}.{it.func.attr}() combines "
                    "worker results in insertion (arrival) order; sort by "
                    "rank first",
                )


# ---------------------------------------------------------------------------
# HP005 — silent int <-> np.uint64 promotion
# ---------------------------------------------------------------------------


def _is_np_uint64_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    dotted = _dotted(node.func)
    return dotted in ("np.uint64", "numpy.uint64", "uint64")


@rule(
    "HP005",
    "uint64-promotion",
    "np.uint64 scalars must not mix with bare Python number literals",
    "paper Sec. IV (vectorized path exactness); NumPy promotes "
    "uint64 (+) signed int to float64",
    packages=("core", "parallel"),
    example_bad='y = np.uint64(x) + 1          # promotes to float64',
    example_good='y = np.uint64(x) + np.uint64(1)',
)
def check_uint64_promotion(module: ModuleSource) -> Iterator[Finding]:
    """``np.uint64(x) + 1`` is not a 64-bit add: NumPy resolves
    uint64-with-signed-int to *float64*, silently rounding values above
    2**53.  Wrap the literal too (``+ np.uint64(1)``).  Only the
    syntactically certain case (one explicit ``np.uint64(...)`` call, one
    bare literal) is flagged; dtype-correct array expressions pass."""
    arith = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod,
             ast.LShift, ast.RShift)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.BinOp) or not isinstance(node.op, arith):
            continue
        left_np = _is_np_uint64_call(node.left)
        right_np = _is_np_uint64_call(node.right)
        if left_np == right_np:
            continue
        other = node.right if left_np else node.left
        if isinstance(other, ast.Constant) and isinstance(
            other.value, (int, float)
        ) and not isinstance(other.value, bool):
            yield module.finding(
                "HP005",
                node,
                "np.uint64 mixed with a bare literal promotes to float64 "
                "(53-bit significand); wrap the literal in np.uint64(...)",
            )


# ---------------------------------------------------------------------------
# HP006 — hard-coded carry-loop bounds
# ---------------------------------------------------------------------------


def _body_stores_subscript(loop: ast.For) -> bool:
    for node in ast.walk(loop):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Subscript) for t in node.targets
        ):
            return True
        if isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Subscript
        ):
            return True
    return False


@rule(
    "HP006",
    "hardcoded-carry-bound",
    "carry/word loops must derive bounds from the format, not literals",
    "paper Sec. III.A: the ripple runs word N-1 up to word 0 for the "
    "format's N, not a fixed width",
    packages=("core", "parallel"),
    example_bad='for i in range(8):\n    out[i] = 0                # hard-coded word count',
    example_good='for i in range(params.n):\n    out[i] = 0',
)
def check_hardcoded_carry_bound(module: ModuleSource) -> Iterator[Finding]:
    """A ``for i in range(...)`` that stores into subscripts (a word
    update loop) must anchor its start/stop to the data — ``params.n``,
    ``len(words)``, ``shape`` — never a hard-coded word count.  Literal
    ``-1``/``0``/``1`` are the legitimate ripple anchors and stay legal;
    anything larger silently truncates the carry chain when the format
    widens."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.For):
            continue
        it = node.iter
        if not (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
            and it.args
        ):
            continue
        if not _body_stores_subscript(node):
            continue
        bound_args = it.args[:2] if len(it.args) >= 2 else it.args[:1]
        for arg in bound_args:
            value = _int_const(arg)
            if value is not None and abs(value) > 1:
                yield module.finding(
                    "HP006",
                    it,
                    f"word-update loop bound hard-codes {value}; anchor it "
                    "to params.n / len(words) so wider formats keep the "
                    "full carry chain",
                )
                break


# ---------------------------------------------------------------------------
# HP007 — timing/profiling region entered under an accumulator lock
# ---------------------------------------------------------------------------

#: Context managers that read the wall clock and/or take the metrics
#: registry lock on exit.  Leading underscores are stripped before
#: matching, so the conventional ``_phase`` / ``_trace.span`` import
#: aliases are recognized.
_TIMING_LEAVES = frozenset(
    {"phase", "span", "timer", "repeat_timeit", "traced", "profiled"}
)


def _is_timing_context(expr: ast.AST) -> bool:
    """True for ``phase(...)`` / ``TRACER.span(...)`` / ``Timer(...)`` /
    ``repeat_timeit(...)`` / ``traced(...)`` / ``profiled(...)`` calls
    (any dotted prefix, optional leading underscores)."""
    if not isinstance(expr, ast.Call):
        return False
    dotted = _dotted(expr.func)
    if dotted is None:
        return False
    leaf = dotted.rsplit(".", 1)[-1].lstrip("_").lower()
    return leaf in _TIMING_LEAVES


@rule(
    "HP007",
    "timing-under-lock",
    "profiling/timing regions must not be entered while holding an "
    "accumulator lock",
    "paper Sec. III.B.2 (short critical sections); PR 6 phase profiler",
    packages=None,  # lock-owning classes can live anywhere
    example_bad='with self._lock:\n    with phase("merge"):      # span exit inside the lock\n        self._bins += other.bins',
    example_good='with phase("merge"):\n    with self._lock:\n        self._bins += other.bins',
)
def check_timing_under_lock(module: ModuleSource) -> Iterator[Finding]:
    """In a class whose ``__init__`` creates a ``threading.Lock``, flag
    any ``phase(...)`` / ``span(...)`` / ``Timer(...)`` /
    ``repeat_timeit(...)`` context entered inside ``with self._lock:``
    (or combined with the lock in the same ``with`` statement, lock
    first).  A span exit reads the wall clock and takes the metrics
    registry lock; doing that while holding the accumulator lock
    stretches the critical section by the profiler's overhead — the
    measurement distorts exactly the contention it is trying to observe
    — and nests an unrelated lock inside it.  Hoist the timing region
    outside the lock (time the acquisition + update together, or record
    after release)."""
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        init = next(
            (
                n
                for n in cls.body
                if isinstance(n, ast.FunctionDef) and n.name == "__init__"
            ),
            None,
        )
        if init is None:
            continue
        locks, _ = _lock_and_protected_attrs(init)
        if not locks:
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method is init:
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.With):
                    continue
                lock_seen = False
                for item in node.items:
                    if _self_attr(item.context_expr) in locks:
                        lock_seen = True
                        continue
                    if not _is_timing_context(item.context_expr):
                        continue
                    # Same-statement combo (lock listed first) or any
                    # enclosing ``with self.<lock>:`` block.
                    if lock_seen or _under_lock(
                        module, node, method, locks
                    ):
                        yield module.finding(
                            "HP007",
                            item.context_expr,
                            "timing/profiling region entered while holding "
                            f"'self.{sorted(locks)[0]}' in "
                            f"{cls.name}.{method.name}(); hoist it outside "
                            "the lock so the span exit does not extend the "
                            "critical section",
                        )


# ---------------------------------------------------------------------------
# HP012 — engine functions imported around the registry
# ---------------------------------------------------------------------------

#: Engine entry points that must be reached through the registry
#: (``repro.core.engines``) rather than bound directly.
_ENGINE_FUNCS = frozenset({"smallacc_total", "words_scaled_total"})

#: Files allowed to bind engine functions directly: the engines
#: themselves, the registry that wraps them, and the package surfaces
#: that re-export them.
_ENGINE_HOSTS = frozenset(
    {
        ("core", "engines.py"),
        ("core", "smallacc.py"),
        ("core", "vectorized.py"),
        ("core", "__init__.py"),
        ("repro", "__init__.py"),
    }
)


def _is_engine_host(path: str) -> bool:
    parts = Path(path).parts
    return len(parts) >= 2 and (parts[-2], parts[-1]) in _ENGINE_HOSTS


@rule(
    "HP012",
    "engine-registry-bypass",
    "engine entry points must be dispatched through repro.core.engines",
    "paper Sec. IV (one exactness contract per engine); PR 8 registry "
    "unification",
    packages=None,  # callers can live anywhere outside the hosts
    example_bad='from repro.core.smallacc import smallacc_total\ntotal = smallacc_total(xs, params)',
    example_good='from repro.core import engines\ntotal = engines.scaled_total(xs, params, chunk, "small")',
)
def check_engine_registry_bypass(module: ModuleSource) -> Iterator[Finding]:
    """Flag direct imports (and dotted references) of the per-engine
    total functions — ``smallacc_total`` / ``words_scaled_total`` —
    anywhere outside the engine modules, the
    registry, and the ``repro.core`` re-export surface.  The registry
    (:mod:`repro.core.engines`) is the single dispatch point: a caller
    that binds an engine function directly re-grows the if/elif ladders
    the registry replaced, and silently misses engines added later
    (aliases, capability checks, new backends)."""
    if _is_engine_host(module.path):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in _ENGINE_FUNCS:
                    yield module.finding(
                        "HP012",
                        node,
                        f"direct import of engine function "
                        f"{alias.name!r} bypasses the registry; dispatch "
                        "via repro.core.engines (scaled_total/batch_words "
                        "or get(name).scaled_total)",
                    )
        elif isinstance(node, ast.Attribute) and node.attr in _ENGINE_FUNCS:
            dotted = _dotted(node)
            if dotted is not None:
                yield module.finding(
                    "HP012",
                    node,
                    f"dotted engine call {dotted}() bypasses the registry; "
                    "dispatch via repro.core.engines",
                )


# ---------------------------------------------------------------------------
# HP013 — unbounded float reductions outside the engine registry
# ---------------------------------------------------------------------------

#: Dotted NumPy reducers whose float64 accumulation carries an O(n*u)
#: error with no advertised bound.
_FLOAT_REDUCERS = frozenset(
    {"np.sum", "numpy.sum", "np.add.reduce", "numpy.add.reduce"}
)

#: Files allowed to reduce float arrays directly: the compensated tiers
#: are the sanctioned bounded wrapper around these primitives.
_FLOAT_SUM_HOSTS = frozenset({("core", "compensated.py")})

#: Integer dtype names: a reduction forced to an integer dtype is exact
#: (the vectorized column sums rely on this).
_INT_DTYPES = frozenset(
    {
        "int", "intp", "int_", "int8", "int16", "int32", "int64",
        "uint", "uint8", "uint16", "uint32", "uint64",
    }
)


def _is_float_sum_host(path: str) -> bool:
    parts = Path(path).parts
    return len(parts) >= 2 and (parts[-2], parts[-1]) in _FLOAT_SUM_HOSTS


def _keyword(call: ast.Call, name: str) -> ast.keyword | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw
    return None


def _is_integer_dtype(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value.lstrip("u").startswith("int")
    dotted = _dotted(expr)
    return dotted is not None and dotted.rsplit(".", 1)[-1] in _INT_DTYPES


@rule(
    "HP013",
    "unbounded-float-reduction",
    "result-producing float reductions must carry an error bound",
    "Hallman & Ipsen 2021 (a-priori bounds); PR 9 accuracy planner",
    packages=("core", "parallel", "apps"),
    example_bad="total = float(np.sum(xs))         # O(n*u) error, no bound\ntotal = sum(values)               # builtin float accumulation",
    example_good='words = engines.batch_words(xs, params, chunk, True, "small")\ntotal = compensated_sum(xs, kernel="neumaier")  # bounded tier',
)
def check_unbounded_float_reduction(module: ModuleSource) -> Iterator[Finding]:
    """Flag ``np.sum`` / ``np.add.reduce`` / builtin ``sum()`` whose
    result feeds the library's answers.  Every such reduction accumulates
    ``O(n*u)`` rounding error with *no advertised bound* — exactly the
    failure mode this codebase exists to prevent.  Sanctioned reducers:
    the exact engines (:mod:`repro.core.engines`), the compensated tiers
    (:mod:`repro.core.compensated`, whose bound the planner checks), and
    ``math.fsum`` for small metadata reductions.

    Exemptions keep the rule precise: an integer ``dtype=`` makes the
    reduction exact (the word-column sums); an ``axis=`` keyword marks a
    per-element geometry reduction (e.g. particle distances), not a
    result-producing global sum; builtin ``sum()`` over a generator or
    comprehension is the idiomatic count/length aggregation.  A float
    baseline that *intends* the unbounded behavior (``DoubleMethod`` —
    the non-reproducibility under study) suppresses with justification.
    """
    if _is_float_sum_host(module.path):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted in _FLOAT_REDUCERS:
            dtype = _keyword(node, "dtype")
            if dtype is not None and _is_integer_dtype(dtype.value):
                continue
            if _keyword(node, "axis") is not None:
                continue
            yield module.finding(
                "HP013",
                node,
                f"{dotted}() over a float array carries O(n*u) error with "
                "no advertised bound; route through repro.core.engines or "
                "a compensated tier (repro.core.compensated)",
            )
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and node.args
            and not isinstance(
                node.args[0],
                (ast.GeneratorExp, ast.ListComp, ast.SetComp),
            )
        ):
            yield module.finding(
                "HP013",
                node,
                "builtin sum() accumulates in left-to-right float order "
                "with no bound; use math.fsum, a registry engine, or a "
                "compensated tier for result-producing sums",
            )


# ---------------------------------------------------------------------------
# HP014 — stray diagnostic output in library code
# ---------------------------------------------------------------------------

#: Files whose *job* is terminal output: the CLI surface, the package
#: entry point, and the dashboard renderer.
_OUTPUT_HOSTS = frozenset(
    {
        ("repro", "cli.py"),
        ("repro", "__main__.py"),
        ("observability", "top.py"),
    }
)

#: Dotted stream attributes whose ``.write()`` is a diagnostic print.
_STREAMS = frozenset({"sys.stdout", "sys.stderr"})


def _is_output_host(path: str) -> bool:
    parts = Path(path).parts
    return len(parts) >= 2 and (parts[-2], parts[-1]) in _OUTPUT_HOSTS


def _is_main_guard(node: ast.AST) -> bool:
    """``if __name__ == "__main__":`` — a script entry point, not library
    code."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value == "__main__"
    )


@rule(
    "HP014",
    "print-in-library",
    "library code must report through the journal/metrics, not print()",
    "PR 10 flight recorder: diagnostics must survive the process and "
    "carry trace context",
    packages=None,  # all library code; hosts are exempted by path
    example_bad='def local_reduce(self, xs):\n    print(f"reducing {len(xs)} summands")  # lost on crash, no trace id',
    example_good='from repro.observability import journal as _journal\n_journal.emit("worker.task", n=len(xs))  # journaled, trace-correlated',
)
def check_print_in_library(module: ModuleSource) -> Iterator[Finding]:
    """Flag bare ``print()`` calls and ``sys.stdout``/``sys.stderr``
    writes outside the sanctioned output surfaces (the CLI, the package
    ``__main__``, the ``repro top`` renderer) and outside
    ``if __name__ == "__main__"`` script blocks.  A library that prints
    bypasses every delivery guarantee this package builds: the text is
    not in the journal (so the flight recorder cannot replay it), carries
    no trace/span id (so it cannot be correlated across processes), and
    vanishes when stdout is not a terminal.  Route diagnostics through
    :func:`repro.observability.journal.emit` or a metric; genuinely
    user-facing output belongs in the CLI layer."""
    if _is_output_host(module.path):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        target = None
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            target = "print()"
        elif isinstance(node.func, ast.Attribute):
            dotted = _dotted(node.func)
            if dotted is not None:
                base = dotted.rsplit(".", 1)[0]
                if base in _STREAMS:
                    target = f"{dotted}()"
        if target is None:
            continue
        if any(_is_main_guard(a) for a in module.ancestors(node)):
            continue  # script entry point, not library surface
        yield module.finding(
            "HP014",
            node,
            f"{target} in library code: diagnostics must route through "
            "the event journal (repro.observability.journal.emit) or a "
            "metric so they survive crashes and carry trace context; "
            "user-facing output belongs in the CLI layer",
        )
