"""Good/bad fixtures for every per-file domain rule (HP001-HP007,
HP012, HP013).

Each bad fixture is a distilled real bug shape; each good fixture is a
pattern the codebase legitimately uses and the rule must *not* flag —
including the false positives found while self-hosting the linter
(NumPy ``.astype`` shifts, Hallberg signed-digit loops, attribute-based
subscripts), which are pinned here so they never regress into noise.
"""

from __future__ import annotations

import textwrap

from repro.analysis.lint import lint_source

CORE = "src/repro/core/_fixture.py"
PARALLEL = "src/repro/parallel/_fixture.py"
HALLBERG = "src/repro/hallberg/_fixture.py"


def rules_in(src: str, path: str = CORE) -> list[str]:
    return [f.rule for f in lint_source(textwrap.dedent(src), path)]


class TestHP001UnmaskedWordStore:
    def test_bad_unmasked_add(self):
        assert "HP001" in rules_in("""
            def f(a, b, out):
                out[0] = a[0] + b[0]
        """)

    def test_bad_unmasked_sub_and_shift_and_invert(self):
        src = """
            def f(a, w, out):
                out[0] = a[0] - 1
                out[1] = w[1] << 3
                out[2] = ~w[2]
        """
        assert rules_in(src).count("HP001") == 3

    def test_bad_inplace_update(self):
        assert "HP001" in rules_in("""
            def f(words, carry):
                words[0] += carry
        """)

    def test_good_masked_stores(self):
        src = """
            def f(a, b, out, MASK64, WORD_MOD, mask64):
                out[0] = (a[0] + b[0]) & MASK64
                out[1] = (a[1] + b[1] + 1) % WORD_MOD
                out[2] = mask64(a[2] + b[2])
                out[3] = (a[3] - b[3]) & 0xFFFFFFFFFFFFFFFF
        """
        assert rules_in(src) == []

    def test_good_numpy_astype_shift(self):
        # False positive found self-hosting: repro/core/vectorized.py's
        # uint64-dtype shift, where the dtype wraps in hardware.
        assert rules_in("""
            def f(out, mant, shift, left, np):
                out[left] = mant[left] << shift[left].astype(np.uint64)
        """) == []

    def test_good_hallberg_signed_digit_loops(self):
        # False positive found self-hosting: Hallberg digits are
        # unbounded signed ints by design; names must not match.
        assert rules_in("""
            def f(digits, total, d):
                digits[0] += d
                total[1] += d
        """) == []

    def test_good_attribute_based_subscript(self):
        # Only plain-Name bases are word containers; self.words[...]
        # style stores go through richer protocols the rule cannot see.
        assert rules_in("""
            class C:
                def f(self, i, d):
                    self.words[i] = self.words[i] + d
        """) == []

    def test_scoped_to_kernel_packages(self):
        bad = """
            def f(a, b, out):
                out[0] = a[0] + b[0]
        """
        assert "HP001" in rules_in(bad, PARALLEL)
        assert rules_in(bad, HALLBERG) == []


class TestHP002FloatIntermediate:
    def test_bad_true_division(self):
        assert "HP002" in rules_in("""
            def f(words):
                return words[0] / 2
        """)

    def test_bad_float_call(self):
        assert "HP002" in rules_in("""
            def f(acc):
                return float(acc[0])
        """)

    def test_good_floor_division_and_nonword_floats(self):
        assert rules_in("""
            def f(words, n):
                half = words[0] // 2
                ratio = n / 2
                return half, ratio, float(n)
        """) == []


class TestHP003LockDiscipline:
    def test_bad_unlocked_access(self):
        findings = lint_source(textwrap.dedent("""
            import threading

            class Cell:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    self._count += 1
        """), "src/repro/anywhere/_fixture.py")
        assert [f.rule for f in findings] == ["HP003"]
        assert "_count" in findings[0].message
        assert "_lock" in findings[0].message

    def test_good_locked_access(self):
        assert rules_in("""
            import threading

            class Cell:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1
        """) == []

    def test_good_thread_local_state_is_exempt(self):
        assert rules_in("""
            import threading

            class Cell:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._tls = threading.local()
                    self._n = 0

                def f(self):
                    self._tls.x = 1
                    with self._lock:
                        self._n += 1
        """) == []

    def test_good_lockless_class_unconstrained(self):
        assert rules_in("""
            class Plain:
                def __init__(self):
                    self._data = []

                def push(self, x):
                    self._data.append(x)
        """) == []

    def test_init_itself_is_exempt(self):
        assert rules_in("""
            import threading

            class Cell:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0
                    self._count += 1
        """) == []


class TestHP004KernelNondeterminism:
    def test_bad_wall_clock(self):
        assert "HP004" in rules_in("""
            import time

            def f():
                return time.time()
        """)

    def test_bad_global_rng(self):
        assert "HP004" in rules_in("""
            import random

            def f():
                return random.random()
        """)

    def test_bad_unseeded_default_rng(self):
        assert "HP004" in rules_in("""
            from numpy.random import default_rng

            def f():
                return default_rng()
        """)

    def test_bad_as_completed(self):
        assert "HP004" in rules_in("""
            from concurrent.futures import as_completed

            def f(futs):
                return [g.result() for g in as_completed(futs)]
        """)

    def test_bad_arrival_order_dict_iteration(self):
        assert "HP004" in rules_in("""
            def f(results):
                return [v for rank, v in results.items()]
        """)

    def test_good_seeded_and_rank_ordered(self):
        assert rules_in("""
            from numpy.random import default_rng

            def f(futures, seed, config):
                rng = default_rng(seed)
                values = [fut.result() for fut in futures]
                settings = dict(config.items())
                return rng, values, settings
        """) == []

    def test_scoped_out_of_util(self):
        # Timing helpers legitimately live outside the kernels.
        assert rules_in("""
            import time

            def f():
                return time.time()
        """, "src/repro/util/_fixture.py") == []


class TestHP005Uint64Promotion:
    def test_bad_literal_mix(self):
        src = """
            def f(np, x):
                a = np.uint64(x) + 1
                b = 3 * np.uint64(x)
                c = np.uint64(x) >> 2
                return a, b, c
        """
        assert rules_in(src).count("HP005") == 3

    def test_good_wrapped_or_symbolic_operands(self):
        assert rules_in("""
            def f(np, x, offset):
                a = np.uint64(x) + np.uint64(1)
                b = np.uint64(x) + offset
                return a, b
        """) == []


class TestHP006HardcodedCarryBound:
    def test_bad_literal_word_count(self):
        assert "HP006" in rules_in("""
            def f(out):
                for i in range(8):
                    out[i] = 0
        """)

    def test_bad_literal_start(self):
        assert "HP006" in rules_in("""
            def f(w, MASK64):
                for i in range(2, 16):
                    w[i] = w[i] & MASK64
        """)

    def test_good_format_derived_bounds(self):
        assert rules_in("""
            def f(out, words, params, x, MASK64):
                for i in range(params.n):
                    out[i] = 0
                for i in range(len(words) - 1, -1, -1):
                    out[i] = x & MASK64
                for i in range(1):
                    out[i] = 0
        """) == []

    def test_good_loop_without_word_stores(self):
        assert rules_in("""
            def f():
                total = 0
                for i in range(8):
                    total += i
                return total
        """) == []


class TestHP007TimingUnderLock:
    def test_bad_phase_inside_lock(self):
        findings = lint_source(textwrap.dedent("""
            import threading
            from repro.observability.profile import phase

            class Acc:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._bins = None

                def merge(self, other):
                    with self._lock:
                        with phase("merge"):
                            self._bins = other
        """), "src/repro/core/_fixture.py")
        rules = [f.rule for f in findings]
        assert "HP007" in rules
        hp007 = next(f for f in findings if f.rule == "HP007")
        assert "Acc.merge" in hp007.message
        assert "_lock" in hp007.message

    def test_bad_same_statement_lock_then_span(self):
        src = """
            import threading

            class Acc:
                def __init__(self):
                    self._lock = threading.Lock()

                def merge(self, tracer, other):
                    with self._lock, tracer.span("merge"):
                        pass
        """
        assert "HP007" in rules_in(src)

    def test_bad_aliased_phase_and_timer(self):
        # Conventional underscore import aliases must still match.
        src = """
            import threading
            from repro.observability.profile import phase as _phase
            from repro.util.timing import Timer

            class Acc:
                def __init__(self):
                    self._lock = threading.Lock()

                def a(self):
                    with self._lock:
                        with _phase("fold"):
                            pass

                def b(self):
                    with self._lock:
                        with Timer("fold"):
                            pass
        """
        assert rules_in(src).count("HP007") == 2

    def test_good_lock_inside_timing_region(self):
        # The recommended hoist: the span surrounds the acquisition, so
        # its exit handler runs after the lock is released.
        src = """
            import threading
            from repro.observability.profile import phase

            class Acc:
                def __init__(self):
                    self._lock = threading.Lock()

                def merge(self, other):
                    with phase("merge"):
                        with self._lock:
                            pass
        """
        assert "HP007" not in rules_in(src)

    def test_good_lockless_class_unconstrained(self):
        src = """
            from repro.observability.profile import phase

            class Plain:
                def merge(self, other):
                    with phase("merge"):
                        pass
        """
        assert rules_in(src) == []

    def test_good_non_timing_context_under_lock(self):
        src = """
            import threading

            class Acc:
                def __init__(self):
                    self._lock = threading.Lock()

                def f(self, path):
                    with self._lock:
                        with open(path) as fh:
                            return fh.read()
        """
        assert "HP007" not in rules_in(src)

    def test_self_host_no_false_positives(self):
        # The repo's own sources must stay clean under HP007 — the
        # profiler was deliberately wired with every phase marker
        # outside the accumulator locks.
        from repro.analysis.lint import lint_paths

        assert lint_paths(["src"], select=["HP007"]) == []


class TestHP012EngineRegistryBypass:
    def test_bad_direct_import(self):
        assert "HP012" in rules_in("""
            from repro.core.smallacc import smallacc_total
        """, "src/repro/apps/_fixture.py")

    def test_bad_each_engine_function(self):
        src = """
            from repro.core.smallacc import smallacc_total
            from repro.core.vectorized import words_scaled_total
        """
        assert rules_in(src, "src/repro/bench/_fixture.py").count(
            "HP012"
        ) == 2

    def test_bad_dotted_call(self):
        assert "HP012" in rules_in("""
            from repro.core import smallacc

            def f(xs, params):
                return smallacc.smallacc_total(xs, params)
        """, "src/repro/apps/_fixture.py")

    def test_good_registry_dispatch(self):
        assert rules_in("""
            from repro.core import engines

            def f(xs, params, chunk):
                return engines.scaled_total(xs, params, chunk, "small")
        """, "src/repro/apps/_fixture.py") == []

    def test_good_engine_class_imports_unflagged(self):
        # Only the batch total functions are registry-gated; the engine
        # classes remain importable for streaming/merge use.
        assert rules_in("""
            from repro.core.smallacc import SmallAccumulator
        """, "src/repro/parallel/_fixture.py") == []

    def test_hosts_are_exempt(self):
        src = """
            from repro.core.smallacc import smallacc_total
        """
        for host in (
            "src/repro/core/engines.py",
            "src/repro/core/smallacc.py",
            "src/repro/core/vectorized.py",
            "src/repro/core/__init__.py",
            "src/repro/__init__.py",
        ):
            assert rules_in(src, host) == [], host

    def test_self_host_no_findings(self):
        # The registry refactor must leave no bypasses in the tree.
        from repro.analysis.lint import lint_paths

        assert lint_paths(["src"], select=["HP012"]) == []


class TestHP013UnboundedFloatReduction:
    def test_bad_np_sum(self):
        assert "HP013" in rules_in("""
            def f(xs, np):
                return float(np.sum(xs))
        """)

    def test_bad_add_reduce_and_numpy_spelling(self):
        src = """
            def f(xs, np, numpy):
                a = np.add.reduce(xs)
                b = numpy.sum(xs)
                return a + b
        """
        assert rules_in(src).count("HP013") == 2

    def test_bad_builtin_sum_over_sequence(self):
        assert "HP013" in rules_in("""
            def f(values):
                return sum(values)
        """)

    def test_good_integer_dtype_is_exact(self):
        # The vectorized word-column sums: an integer dtype= makes the
        # reduction exact, no rounding to bound.
        assert rules_in("""
            def f(cols, np):
                return np.sum(cols, dtype=np.uint64)
        """) == []
        assert rules_in("""
            def f(cols, np):
                return np.sum(cols, dtype="uint64")
        """) == []

    def test_good_axis_reduction_is_geometry(self):
        # Per-element reductions (particle distances in apps/nbody.py)
        # never feed a global result.
        assert rules_in("""
            def f(dx, np):
                return np.sum(dx * dx, axis=1)
        """) == []

    def test_good_builtin_sum_over_generator(self):
        # Count/length aggregation over a comprehension is the Python
        # idiom for metadata, not a float result path.
        assert rules_in("""
            def f(chunks):
                n = sum(len(c) for c in chunks)
                m = sum([c.nbytes for c in chunks])
                return n + m
        """) == []

    def test_good_compensated_host_exempt(self):
        # The compensated tiers ARE the sanctioned bounded wrapper over
        # these primitives.
        assert rules_in("""
            def f(xs, np):
                return np.sum(xs)
        """, "src/repro/core/compensated.py") == []

    def test_package_scoping(self):
        # Only core/parallel/apps are result-producing; bench harness
        # timing code is out of scope.
        src = """
            def f(xs, np):
                return np.sum(xs)
        """
        assert rules_in(src, "src/repro/bench/_fixture.py") == []
        assert "HP013" in rules_in(src, "src/repro/apps/_fixture.py")
        assert "HP013" in rules_in(src, PARALLEL)

    def test_noqa_suppression(self):
        assert rules_in("""
            def f(xs, np):
                return np.sum(xs)  # hp: noqa[HP013]
        """) == []

    def test_self_host_single_justified_suppression(self):
        # The only raw reduction in the tree is DoubleMethod's baseline
        # (the non-reproducibility under study), suppressed at the site.
        from repro.analysis.lint import lint_paths

        assert lint_paths(["src"], select=["HP013"]) == []


class TestHP014PrintInLibrary:
    def test_bad_bare_print(self):
        assert "HP014" in rules_in("""
            def local_reduce(self, xs):
                print(f"reducing {len(xs)} summands")
                return xs
        """)

    def test_bad_stderr_write(self):
        src = """
            import sys

            def f(msg):
                sys.stderr.write(msg + "\\n")
                sys.stdout.write("done\\n")
        """
        assert rules_in(src).count("HP014") == 2

    def test_bad_stderr_print_kwarg_is_still_print(self):
        assert "HP014" in rules_in("""
            import sys

            def f(msg):
                print(msg, file=sys.stderr)
        """)

    def test_good_main_guard_script_block(self):
        # A module runnable as a script may print in its entry block.
        assert rules_in("""
            def compute():
                return 42

            if __name__ == "__main__":
                print(compute())
        """) == []

    def test_good_cli_module_is_an_output_host(self):
        src = """
            def _cmd_sum(args):
                print("3.14")
        """
        assert rules_in(src, "src/repro/cli.py") == []
        assert rules_in(src, "src/repro/__main__.py") == []
        assert rules_in(src, "src/repro/observability/top.py") == []

    def test_good_journal_emit(self):
        assert rules_in("""
            from repro.observability import journal as _journal

            def local_reduce(self, xs):
                _journal.emit("worker.task", n=len(xs))
                return xs
        """) == []

    def test_good_noqa_suppression(self):
        assert rules_in("""
            def f(msg):
                print(msg)  # hp: noqa[HP014]
        """) == []

    def test_good_other_attribute_writes(self):
        # Only the process streams are diagnostics; file handles and
        # arbitrary .write() calls are data paths.
        assert rules_in("""
            def f(fh, payload):
                fh.write(payload)
                fh.stdout.write(payload)
        """) == []

    def test_self_host_library_is_clean(self):
        from pathlib import Path

        from repro.analysis import lint

        repo = Path(__file__).resolve().parents[2]
        findings = lint.lint_paths(
            [repo / "src", repo / "benchmarks"], select=["HP014"]
        )
        assert findings == [], lint.format_text(findings, 0)
