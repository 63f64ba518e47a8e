"""Interprocedural nondeterminism taint (rules HP008, HP010, HP011).

The paper's contract is that documented-exact results are a pure
function of the summand *multiset* — independent of schedule, arrival
order, and run count.  Three whole-program rules police the ways that
contract silently breaks:

* **HP008 — order-dependent reduction reaches an exact result.**  A
  value born from an order-dependent float reduction (``np.sum``,
  ``np.dot``, ``np.cumsum``, builtin ``sum``), the wall clock, or an
  unseeded RNG must not flow into the return value of a function whose
  name or docstring claims exactness.  Taint propagates through local
  assignments and, via the project call graph, through return values of
  called functions — the cross-module leak the per-file HP004 rule
  cannot see.  Integer-container reductions are exempt by the library's
  naming convention (``bins``/``words``/``digits``/``counts`` hold
  ints, where hardware addition is associative), as is ``math.fsum``
  (correctly-rounded, order-invariant) and anything passed through
  ``sorted(...)``.
* **HP010 — partial merge must be elementwise/commutative.**  A
  ``combine``/``merge``/``elementwise_merge`` implementation whose two
  partial operands meet through ``-`` or ``/`` is order-dependent: the
  substrates may combine partials in any grouping, so only commutative
  elementwise merges keep totals bit-identical.
* **HP011 — nondeterministic iteration feeding task scheduling.**  Task
  lists built by iterating an unordered container (``set`` literals,
  ``set()``/``frozenset()``, ``os.listdir``, ``glob.glob``, unsorted
  ``Path.iterdir``) and handed to a pool (``submit``/``map_async``/
  ``apply_async``/``starmap``), or any use of ``imap_unordered``, make
  chunk assignment differ run to run — harmless for exact methods,
  result-changing for everything else, and cache/telemetry-poisoning
  for both.

HP010/HP011 are single-file shapes and are extracted (and cached) per
file; HP008 needs the fixed point over the call graph and runs on the
stitched :class:`~repro.analysis.callgraph.Project`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import Finding, ModuleSource, rule

__all__ = ["function_taint_facts", "local_findings", "propagate_taint"]

#: Dotted-call leaves that produce an order-dependent float reduction.
_FLOAT_REDUCTIONS = {"sum", "dot", "cumsum", "nansum", "matmul", "inner",
                     "einsum"}
#: Prefixes whose reductions we treat as NumPy's pairwise/float kind.
_NUMPYISH = ("np", "numpy", "ndarray")

#: Wall-clock sources (exact paths must not depend on when they ran).
_WALL_CLOCK = {"time.time", "time.time_ns", "time.monotonic",
               "time.perf_counter", "time.perf_counter_ns",
               "datetime.now", "datetime.datetime.now",
               "datetime.utcnow", "datetime.datetime.utcnow"}

#: Containers that hold integers by the library's naming convention;
#: reductions over them are associative in hardware, hence exempt.
_INT_CONTAINER = ("bin", "word", "digit", "count", "version", "rank",
                  "index", "idx")

#: Laundering calls: their result is order-independent even if an
#: unordered value went in.
_SANITIZERS = {"sorted", "fsum", "len", "min", "max", "frozenset_hash"}

#: Pool-ish scheduling sinks (attribute calls only; bare ``map`` is the
#: builtin).
_SCHEDULING_LEAVES = {"submit", "map_async", "apply_async", "starmap",
                      "starmap_async", "imap"}

#: Unordered-producing calls (leaf names).
_UNORDERED_CALLS = {"set", "frozenset", "listdir", "iterdir", "glob",
                    "iglob", "scandir"}


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def _names_in(expr: ast.AST) -> set[str]:
    return {
        n.id for n in ast.walk(expr)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _is_int_container_arg(call: ast.Call) -> bool:
    """True when the reduction is integer-typed: an explicit integer
    ``dtype=`` keyword, an argument naming an integer container
    (``bins``/``words``/...), or an explicit integer cast.  Integer
    accumulation is associative, so these sums are order-invariant."""
    for kw in call.keywords:
        if kw.arg == "dtype":
            dotted = _dotted(kw.value) or getattr(kw.value, "id", "") or ""
            if "int" in dotted.rsplit(".", 1)[-1]:
                return True
    if not call.args:
        return False
    arg = call.args[0]
    for node in ast.walk(arg):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and any(
            tok in name.lower() for tok in _INT_CONTAINER
        ):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func) or ""
            leaf = dotted.rsplit(".", 1)[-1]
            if leaf == "astype" or "int" in leaf:
                return True
    return False


def _source_kind(call: ast.Call) -> tuple[str, str] | None:
    """``(kind, detail)`` when this call births a nondeterministic or
    order-dependent value; None otherwise."""
    dotted = _dotted(call.func)
    if dotted is None:
        return None
    leaf = dotted.rsplit(".", 1)[-1]
    head = dotted.split(".", 1)[0]
    if dotted in _WALL_CLOCK:
        return ("wall-clock", f"{dotted}()")
    if head == "random" or dotted.startswith("np.random.") or (
        dotted.startswith("numpy.random.")
    ):
        return ("unseeded-rng", f"{dotted}()")
    if leaf == "default_rng" and not call.args and not call.keywords:
        return ("unseeded-rng", "default_rng() without a seed")
    if leaf in _FLOAT_REDUCTIONS and (
        head in _NUMPYISH or dotted == leaf == "sum"
    ):
        if _is_int_container_arg(call):
            return None  # integer bins/words: associative by dtype
        return ("order-dependent-float-reduction", f"{dotted}()")
    return None


def _contains_sanitizer(expr: ast.AST, inner: ast.AST) -> bool:
    """True when ``inner`` sits under a laundering call within
    ``expr``."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func) or ""
            if dotted.rsplit(".", 1)[-1] in _SANITIZERS:
                if any(sub is inner for sub in ast.walk(node)):
                    return True
    return False


def _expr_sources(expr: ast.AST) -> list[dict]:
    """Nondeterminism sources appearing (unlaundered) inside ``expr``."""
    out = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            kind = _source_kind(node)
            if kind is not None and not _contains_sanitizer(expr, node):
                out.append({
                    "kind": kind[0],
                    "detail": kind[1],
                    "line": node.lineno,
                })
    return out


def function_taint_facts(node, resolver, cls: str | None) -> dict:
    """Cacheable per-function taint facts.

    A linear forward pass (statements in line order) tracks which local
    names hold tainted values and which calls feed each name; returns::

        {
          "return_taint": [ {kind, detail, line}, ... ],   # local sources
          "return_deps": [ resolved callee, ... ],  # calls whose result
        }                                           # reaches a return

    ``return_taint`` non-empty means a nondeterministic value reaches a
    ``return`` in this very function; ``return_deps`` feeds the
    interprocedural fixed point in :func:`propagate_taint`.
    """
    name_taint: dict[str, list[dict]] = {}
    name_calls: dict[str, set[str]] = {}
    return_taint: list[dict] = []
    return_deps: set[str] = set()

    stmts = [
        n for n in ast.walk(node)
        if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                          ast.Return))
    ]
    stmts.sort(key=lambda n: (n.lineno, n.col_offset))

    def expr_taint(expr: ast.AST) -> list[dict]:
        reasons = list(_expr_sources(expr))
        for name in _names_in(expr):
            reasons.extend(name_taint.get(name, ()))
        return reasons

    def expr_calls(expr: ast.AST) -> set[str]:
        calls: set[str] = set()
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                dotted = _dotted(sub.func)
                if dotted is not None and _source_kind(sub) is None:
                    calls.add(resolver.resolve(dotted, cls))
        for name in _names_in(expr):
            calls.update(name_calls.get(name, ()))
        return calls

    for stmt in stmts:
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                return_taint.extend(expr_taint(stmt.value))
                return_deps.update(expr_calls(stmt.value))
            continue
        value = stmt.value
        if value is None:
            continue
        reasons = expr_taint(value)
        calls = expr_calls(value)
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        for target in targets:
            for tnode in ast.walk(target):
                if isinstance(tnode, ast.Name):
                    if reasons:
                        name_taint.setdefault(tnode.id, []).extend(reasons)
                    if calls:
                        name_calls.setdefault(tnode.id, set()).update(calls)

    # Deduplicate deterministically.
    seen = set()
    taint = []
    for r in return_taint:
        key = (r["kind"], r["detail"], r["line"])
        if key not in seen:
            seen.add(key)
            taint.append(r)
    return {
        "return_taint": taint,
        "return_deps": sorted(return_deps),
    }


def propagate_taint(project) -> dict[str, dict]:
    """Fixed point: ``fq -> {"reasons": [...], "via": fq | None}`` for
    every function whose return value is (transitively) tainted."""
    tainted: dict[str, dict] = {}
    for fq, info in project.functions.items():
        if info.get("return_taint"):
            tainted[fq] = {"reasons": info["return_taint"], "via": None}
    changed = True
    while changed:
        changed = False
        for fq, info in project.functions.items():
            if fq in tainted:
                continue
            for dep in info.get("return_deps", ()):
                target = project.resolve(dep)
                if target is not None and target in tainted:
                    tainted[fq] = {
                        "reasons": tainted[target]["reasons"],
                        "via": target,
                    }
                    changed = True
                    break
    return tainted


@rule(
    "HP008",
    "nondeterminism-reaches-exact-result",
    "order-dependent reductions, wall clock, and unseeded RNG must not "
    "flow into documented-exact return values",
    "paper Sec. III.B.3 (order invariance is the exactness contract); "
    "Benmouhoub et al. 2022 (reproducibility-by-construction)",
    scope="project",
    example_bad=(
        'def exact_total(xs):\n'
        '    """Exact, order-invariant total."""\n'
        '    return float(np.sum(xs))        # pairwise float reduction'
    ),
    example_good=(
        'def exact_total(xs):\n'
        '    """Exact, order-invariant total."""\n'
        '    return engines.scaled_total(xs, params, chunk, "small")'
    ),
)
def check_taint_reaches_exact(project) -> Iterator[Finding]:
    """Interprocedural taint pass.

    Seeds taint at order-dependent float reductions, wall-clock reads,
    and unseeded RNG draws whose values reach a ``return``; propagates
    through the project call graph; reports every function that both
    claims exactness (name contains ``exact``, or the docstring's first
    paragraph promises bit-identical / order-invariant results) and
    returns a tainted value — with the originating source and, for
    indirect flows, the function the taint arrived through.
    """
    tainted = propagate_taint(project)
    for fq in sorted(project.functions):
        info = project.functions[fq]
        if not info.get("exact_claim") or fq not in tainted:
            continue
        entry = tainted[fq]
        reason = entry["reasons"][0]
        via = f" (via {entry['via']}())" if entry["via"] else ""
        yield Finding(
            rule="HP008",
            path=info["path"],
            line=info["line"],
            col=1,
            message=(
                f"{fq}() is documented exact but returns a value tainted "
                f"by {reason['kind']} source {reason['detail']} at line "
                f"{reason['line']}{via}; exact paths must reduce through "
                "the exact HP engines"
            ),
        )


# ---------------------------------------------------------------------------
# HP010 / HP011 — single-file shapes, extracted per file and cached
# ---------------------------------------------------------------------------

#: Merge-method names whose operands must combine commutatively.
_MERGE_METHODS = {"combine", "merge", "elementwise_merge"}


def _merge_findings(module: ModuleSource) -> Iterator[Finding]:
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            if method.name not in _MERGE_METHODS:
                continue
            args = [a.arg for a in method.args.args if a.arg != "self"]
            if len(args) < 2:
                partials = set(args)
            else:
                partials = set(args[:2])
            if not partials:
                continue
            for node in ast.walk(method):
                if not (
                    isinstance(node, ast.BinOp)
                    and isinstance(node.op, (ast.Sub, ast.Div))
                ):
                    continue
                left = _names_in(node.left) & partials
                right = _names_in(node.right) & partials
                if left and right:
                    op = "-" if isinstance(node.op, ast.Sub) else "/"
                    yield module.finding(
                        "HP010",
                        node,
                        f"{cls.name}.{method.name}() combines partials "
                        f"with non-commutative '{op}'; substrates merge "
                        "partials in arbitrary grouping, so merges must "
                        "be elementwise and commutative",
                    )


def _is_unordered_iterable(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Set):
        return True
    if isinstance(expr, ast.Call):
        dotted = _dotted(expr.func) or ""
        leaf = dotted.rsplit(".", 1)[-1]
        if leaf in _SANITIZERS:
            return False
        return leaf in _UNORDERED_CALLS
    return False


def _schedule_findings(module: ModuleSource) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        leaf = node.func.attr
        if leaf == "imap_unordered":
            yield module.finding(
                "HP011",
                node,
                "imap_unordered() yields results in arrival order; "
                "combine in submission order (pool.map / imap) so task "
                "scheduling stays deterministic",
            )
            continue
        if leaf not in _SCHEDULING_LEAVES and leaf != "map":
            continue
        # pool.map(f, <unordered>) / pool.submit-in-loop over unordered.
        for arg in node.args:
            if _is_unordered_iterable(arg):
                yield module.finding(
                    "HP011",
                    node,
                    f"{leaf}() is fed from an unordered container; task "
                    "assignment will differ run to run — sort the work "
                    "list first (sorted(...))",
                )
                break
        else:
            # submit() inside `for x in <unordered>:` — the loop decides
            # task order.
            if leaf in ("submit", "apply_async"):
                for ancestor in module.ancestors(node):
                    if isinstance(ancestor, (ast.For, ast.AsyncFor)) and (
                        _is_unordered_iterable(ancestor.iter)
                    ):
                        yield module.finding(
                            "HP011",
                            node,
                            f"{leaf}() driven by iteration over an "
                            "unordered container; task submission order "
                            "is nondeterministic — sort the iterable",
                        )
                        break


def local_findings(module: ModuleSource, resolver) -> Iterator[Finding]:
    """The single-file HP010/HP011 findings for one module."""
    yield from _merge_findings(module)
    yield from _schedule_findings(module)


@rule(
    "HP010",
    "non-commutative-merge",
    "partial merges must be elementwise and commutative",
    "paper Sec. III.B (partial sums combine in any grouping); PR 3 "
    "elementwise-mergeable bin partials",
    scope="project",
    example_bad=(
        "def combine(self, a, b):\n"
        "    return a - b              # grouping-dependent"
    ),
    example_good=(
        "def combine(self, a, b):\n"
        "    return tuple(x + y for x, y in zip(a, b))"
    ),
)
def check_merge_commutativity(project) -> Iterator[Finding]:
    """Whole-program wrapper: HP010 findings are extracted per file at
    summarize time (and cached); this check simply republishes them so
    the rule participates in the project pass / catalog."""
    for fs in project.files.values():
        for doc in fs.summary.get("local_findings", ()):
            if doc["rule"] == "HP010":
                yield Finding.from_dict(doc)


@rule(
    "HP011",
    "nondeterministic-scheduling",
    "task scheduling must not be driven by unordered iteration",
    "paper Sec. III.B.3; PR 4 procs combine-in-chunk-order invariant",
    scope="project",
    example_bad=(
        "for path in glob.glob('shard-*.npy'):\n"
        "    pool.submit(reduce_shard, path)   # arrival-order tasks"
    ),
    example_good=(
        "for path in sorted(glob.glob('shard-*.npy')):\n"
        "    pool.submit(reduce_shard, path)"
    ),
)
def check_scheduling_determinism(project) -> Iterator[Finding]:
    """Whole-program wrapper: HP011 findings are extracted per file at
    summarize time (and cached); republished here."""
    for fs in project.files.values():
        for doc in fs.summary.get("local_findings", ()):
            if doc["rule"] == "HP011":
                yield Finding.from_dict(doc)
