"""Command-line interface: ``python -m repro`` (or the ``repro`` script).

Subcommands:

* ``sum``     — exact global sum of numbers from a file/stdin
* ``dot``     — exact dot product of two vectors
* ``info``    — properties of an HP format (a Table 1 row)
* ``suggest`` — minimal (N, k) for a dynamic range
* ``table``   — regenerate paper Table 1 or 2
* ``figure``  — regenerate a paper figure (reduced scale; 3 prints the
  worked example)
* ``invariance``  — run the 21-strategy invariance matrix
* ``calibration`` — audit the performance model's fitted anchors
* ``stats``   — run an instrumented workload and print the metrics
  report (or validate previously emitted JSON with ``--validate``)
* ``lint``    — run the HP domain linter (rules HP001-HP012) over
  files/directories; ``--sanitize-smoke`` additionally runs the runtime
  race/overflow sanitizer over a threaded smoke workload (also installed
  as the ``repro-lint`` console script; see ``docs/ANALYSIS.md``)
* ``profile`` — phase-level cost attribution of one reduction: cost
  table (self/cumulative/% per phase, per-worker under ``procs``),
  flamegraph/speedscope/Perfetto exports from the stdlib sampling
  profiler, and ``--calibrate`` for measured-anchor perfmodel feedback
* ``serve-metrics`` — live telemetry daemon: Prometheus ``/metrics``,
  ``/healthz``, ``/snapshot``, optionally driving a continuous
  instrumented workload with the accuracy-drift monitor armed
* ``top``     — terminal dashboard polling a ``/snapshot`` endpoint

Every compute subcommand also accepts ``--metrics-out PATH`` /
``--trace-out PATH``: observability is enabled for the run and the
metrics/trace documents (schemas in ``docs/OBSERVABILITY.md``) are
written on exit.  ``--serve-metrics PORT`` additionally serves the live
registry over HTTP for the duration of the run (``--serve-linger``
keeps serving after the computation finishes).

Examples::

    seq 1 100 | python -m repro sum -
    python -m repro sum data.npy --method hallberg --params 10,38
    python -m repro info --params 6,3
    python -m repro figure 4
    python -m repro stats --n 1000000 --pes 8
    python -m repro sum data.npy --metrics-out metrics.json
    python -m repro stats --validate metrics.json
    python -m repro lint src/
    python -m repro lint --format json --sanitize-smoke src/
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]

#: ``repro profile`` warmup: discarded passes before the measured one,
#: and the wall budget that caps them for slow engines.
_WARMUP_PASSES = 10
_WARMUP_SECONDS = 0.25


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(",")
        return int(a), int(b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected 'N,K' (e.g. '6,3'), got {text!r}"
        ) from exc


def _load_values(path: str) -> np.ndarray:
    """Read doubles from a .npy file, a text file, or '-' (stdin)."""
    if path == "-":
        return np.array(
            [float(tok) for tok in sys.stdin.read().split()], dtype=np.float64
        )
    if path.endswith(".npy"):
        arr = np.load(path)
        return np.ascontiguousarray(arr, dtype=np.float64).ravel()
    with open(path) as fh:
        return np.array(
            [float(tok) for tok in fh.read().split()], dtype=np.float64
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Order-invariant real number summation (HP method, "
        "IPDPS 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared observability flags: any compute subcommand can emit the
    # instrumentation documents described in docs/OBSERVABILITY.md.
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="enable metrics and write the registry snapshot JSON here",
    )
    obs_flags.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="enable tracing and write the span export JSON here",
    )
    obs_flags.add_argument(
        "--prom-out", metavar="PATH", default=None,
        help="enable metrics and write the Prometheus text exposition "
        "here on exit",
    )
    obs_flags.add_argument(
        "--perfetto-out", metavar="PATH", default=None,
        help="enable tracing and write the Chrome/Perfetto trace-event "
        "JSON here on exit",
    )
    obs_flags.add_argument(
        "--serve-metrics", metavar="PORT", type=int, default=None,
        dest="serve_metrics_port",
        help="serve /metrics, /healthz and /snapshot on this port for "
        "the duration of the run (0 = ephemeral port, printed on start); "
        "also arms the accuracy-drift monitor",
    )
    obs_flags.add_argument(
        "--serve-linger", metavar="SECONDS", type=float, default=0.0,
        help="keep the --serve-metrics endpoint up this long after the "
        "computation finishes (default 0)",
    )
    obs_flags.add_argument(
        "--journal-out", metavar="PATH", default=None,
        help="enable the structured event journal and mirror every event "
        "to PATH as JSONL (inspect with 'repro events')",
    )
    obs_flags.add_argument(
        "--forensics-out", metavar="PATH", default=None,
        help="arm the crash flight recorder: on exit, unhandled "
        "exception or fatal signal a forensics bundle (journal tail, "
        "metrics snapshot, open spans, planner escalations, SLOs) is "
        "written to PATH; also enables metrics+tracing+journal",
    )

    p_sum = sub.add_parser("sum", help="exact global sum of a vector",
                           parents=[obs_flags])
    p_sum.add_argument("input", help=".npy file, text file, or '-' (stdin)")
    p_sum.add_argument(
        "--method",
        choices=("hp", "hallberg", "double", "kahan", "fsum"),
        default="hp",
    )
    p_sum.add_argument(
        "--params",
        type=_parse_pair,
        default=None,
        help="N,k for hp / N,M for hallberg (default: derived from data)",
    )
    p_sum.add_argument(
        "--words", action="store_true", help="also print the raw words"
    )
    from repro.core.engines import names as _engine_names

    p_sum.add_argument(
        "--engine",
        choices=_engine_names(),
        default="small",
        help="hp batch engine from the repro.core.engines registry: "
        "Neal small accumulator with optional compiled backend "
        "('small', the default), the word-matrix reference path "
        "('words'), or a bounded-error compensated tier "
        "('comp-pairwise'/'comp-kahan'/'comp-neumaier') — exact engines "
        "give bit-identical results; comp-* tiers promise an a-priori "
        "error bound instead",
    )
    p_sum.add_argument(
        "--target-accuracy", type=float, default=None, metavar="EPS",
        help="pick the engine by error bound instead of by name: the "
        "cheapest engine whose a-priori bound coefficient satisfies "
        "|error| <= EPS * sum|x_i| (0 demands an exact engine); "
        "overrides --engine",
    )
    p_sum.add_argument(
        "--explain-plan", action="store_true",
        help="with --target-accuracy, print the planner's candidate "
        "table (bounds, costs, verdicts) to stderr",
    )
    p_sum.add_argument(
        "--substrate",
        choices=("serial", "threads", "procs", "mpi", "mpi-scatter", "phi"),
        default=None,
        help="run the sum through a parallel substrate (procs = true "
        "multicore process pool); default is the direct serial engine",
    )
    p_sum.add_argument(
        "--pes", type=int, default=4,
        help="PE count for --substrate runs (default 4)",
    )
    p_sum.add_argument(
        "--start-method", choices=("fork", "spawn", "forkserver"),
        default=None,
        help="procs substrate worker start method (default: fork where "
        "available, else spawn)",
    )
    p_sum.add_argument(
        "--ooc", action="store_true",
        help="out-of-core: stream a .npy input through np.memmap in "
        "per-worker chunks instead of loading it (requires "
        "--substrate procs and a .npy input)",
    )

    p_dot = sub.add_parser("dot", help="exact dot product of two vectors",
                           parents=[obs_flags])
    p_dot.add_argument("x")
    p_dot.add_argument("y")

    p_info = sub.add_parser("info", help="properties of an HP format")
    p_info.add_argument("--params", type=_parse_pair, required=True)

    p_sug = sub.add_parser("suggest", help="minimal format for a range")
    p_sug.add_argument("--max", type=float, required=True,
                       help="largest magnitude to represent")
    p_sug.add_argument("--min", type=float, required=True,
                       help="smallest increment to preserve")

    p_tab = sub.add_parser("table", help="regenerate a paper table",
                           parents=[obs_flags])
    p_tab.add_argument("number", type=int, choices=(1, 2))

    p_fig = sub.add_parser("figure", help="regenerate a paper figure "
                                          "(reduced scale)",
                           parents=[obs_flags])
    p_fig.add_argument("number", type=int, choices=(1, 2, 3, 4, 5, 6, 7, 8))
    p_fig.add_argument("--trials", type=int, default=512,
                       help="random-order trials for figures 1-2")

    p_inv = sub.add_parser(
        "invariance",
        help="run every execution strategy on one dataset and compare bits",
        parents=[obs_flags],
    )
    p_inv.add_argument("--n", type=int, default=1 << 10,
                       help="dataset size (default 1024)")
    p_inv.add_argument("--seed", type=int, default=None)

    sub.add_parser("calibration",
                   help="performance-model calibration audit",
                   parents=[obs_flags])

    p_st = sub.add_parser(
        "stats",
        help="run an instrumented workload and report its metrics",
        parents=[obs_flags],
        description="Runs an OpenMP-style (threads-substrate) global sum "
        "with observability enabled, plus a scalar-reference stage and a "
        "shared-atomic contention stage, then prints the carry, CAS, "
        "message and span metrics the run produced.",
    )
    p_st.add_argument("--n", type=int, default=1_000_000,
                      help="summand count (default 1M)")
    p_st.add_argument("--method", choices=("hp", "hallberg", "double"),
                      default="hp")
    p_st.add_argument("--pes", type=int, default=8,
                      help="thread-team size (default 8)")
    p_st.add_argument("--params", type=_parse_pair, default=None,
                      help="N,K override for the method format")
    p_st.add_argument("--seed", type=int, default=None)
    p_st.add_argument("--json", action="store_true",
                      help="print the full run report as JSON")
    p_st.add_argument(
        "--validate", metavar="PATH", action="append", default=None,
        help="validate an emitted metrics/trace/run-report JSON file "
        "against the documented schema instead of running (repeatable)",
    )

    p_prof = sub.add_parser(
        "profile",
        help="phase-level cost attribution of one reduction",
        parents=[obs_flags],
        description="Runs one instrumented reduction with the phase "
        "markers armed and prints the per-phase cost table (self time, "
        "cumulative time, percent of wall clock; per-worker rows under "
        "--substrate procs).  A stdlib sampling profiler runs alongside "
        "for unattributed time; --flamegraph / --speedscope export its "
        "merged stacks, --perfetto exports the span trace plus per-phase "
        "counter tracks.  --calibrate instead measures this machine's "
        "per-engine costs and renders the measured-anchor residual table "
        "against the perfmodel (see docs/OBSERVABILITY.md).",
    )
    p_prof.add_argument(
        "--engine",
        choices=("hp-small", "hp-words", "hallberg", "double"),
        default="hp-small",
        help="reduction engine to profile (default hp-small)",
    )
    p_prof.add_argument("--n", type=int, default=1 << 20,
                        help="summand count (default 1M)")
    p_prof.add_argument("--params", type=_parse_pair, default=None,
                        help="N,K / N,M format override")
    p_prof.add_argument(
        "--substrate", choices=("serial", "threads", "procs"),
        default="serial",
        help="execution substrate (default serial; procs adds per-worker "
        "phase rows)",
    )
    p_prof.add_argument("--pes", type=int, default=4,
                        help="PE count for threads/procs (default 4)")
    p_prof.add_argument(
        "--start-method", choices=("fork", "spawn", "forkserver"),
        default=None,
        help="procs worker start method (default: fork where available)",
    )
    p_prof.add_argument("--seed", type=int, default=None)
    p_prof.add_argument(
        "--flamegraph", metavar="PATH", default=None,
        help="write collapsed-stack flamegraph text here",
    )
    p_prof.add_argument(
        "--speedscope", metavar="PATH", default=None,
        help="write speedscope JSON here",
    )
    p_prof.add_argument(
        "--perfetto", metavar="PATH", default=None,
        help="write the Chrome/Perfetto trace (spans + phase counter "
        "tracks) here",
    )
    p_prof.add_argument(
        "--sample-hz", type=float, default=200.0,
        help="sampling profiler frequency (default 200 Hz)",
    )
    p_prof.add_argument(
        "--no-sample", action="store_true",
        help="disable the sampling profiler (phase markers only)",
    )
    p_prof.add_argument(
        "--calibrate", action="store_true",
        help="measure per-engine costs on this machine and render the "
        "measured-anchor residual table from perfmodel.calibration",
    )
    p_prof.add_argument(
        "--calibrate-out", metavar="PATH", default=None,
        help="with --calibrate: write the measured cost JSON here",
    )
    p_prof.add_argument(
        "--repeats", type=int, default=3,
        help="--calibrate timing repeats, best-of (default 3)",
    )
    p_prof.add_argument("--json", action="store_true",
                        help="print the profile report as JSON")

    p_serve = sub.add_parser(
        "serve-metrics",
        help="live telemetry endpoint (/metrics, /healthz, /snapshot)",
        description="Starts the stdlib HTTP telemetry server over the "
        "process-wide metrics registry, with a background snapshot ring "
        "for rate computation and the accuracy-drift monitor armed.  "
        "With --workload N it also drives a continuous instrumented "
        "global-sum workload so the endpoint has live traffic to show; "
        "without it the server exposes whatever the process records.  "
        "Runs until interrupted (or --iterations workload rounds).",
    )
    p_serve.add_argument("--port", type=int, default=9109,
                         help="listen port (default 9109; 0 = ephemeral)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--interval", type=float, default=1.0,
                         help="snapshot ring sampling period (default 1s)")
    p_serve.add_argument(
        "--workload", type=int, default=0, metavar="N",
        help="drive a continuous workload of N summands per round "
        "(default 0: serve only)",
    )
    p_serve.add_argument(
        "--method", choices=("hp", "hp-small", "hallberg", "double"),
        default="hp-small", help="workload method (default hp-small)",
    )
    p_serve.add_argument(
        "--substrate", choices=("serial", "threads", "procs"),
        default="threads", help="workload substrate (default threads)",
    )
    p_serve.add_argument("--pes", type=int, default=4,
                         help="workload PE count (default 4)")
    p_serve.add_argument(
        "--iterations", type=int, default=0,
        help="stop after this many workload rounds (default 0: forever)",
    )
    p_serve.add_argument(
        "--drift-sample", type=int, default=1, metavar="K",
        help="drift monitor samples every K-th batch (default 1)",
    )
    p_serve.add_argument("--seed", type=int, default=None)

    p_top = sub.add_parser(
        "top",
        help="terminal dashboard over a serve-metrics /snapshot endpoint",
        description="Polls /snapshot on a running serve-metrics (or "
        "--serve-metrics) endpoint and renders rates, drift, and hot "
        "counters in place.  Ctrl-C exits.",
    )
    p_top.add_argument(
        "--url", default="http://127.0.0.1:9109",
        help="endpoint base URL (default http://127.0.0.1:9109)",
    )
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="poll period in seconds (default 1)")
    p_top.add_argument(
        "--iterations", type=int, default=0,
        help="render this many frames then exit (default 0: forever)",
    )
    p_top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of repainting in place",
    )

    p_ev = sub.add_parser(
        "events",
        help="inspect a journal spill (JSONL) or forensics bundle",
        description="Reads the structured event journal written by "
        "--journal-out (JSONL, one event per line), an exported journal "
        "document, or the journal embedded in a --forensics-out bundle, "
        "and prints/filters/validates its events.  --trace ID "
        "reassembles one causal trace: events from every participating "
        "process (master and workers), ordered by time, with the span "
        "ids that tie them to the trace document.",
    )
    p_ev.add_argument(
        "file",
        help="journal JSONL spill, journal export JSON, or forensics "
        "bundle JSON",
    )
    p_ev.add_argument(
        "--tail", type=int, default=0, metavar="N",
        help="show only the last N matching events (default: all)",
    )
    p_ev.add_argument(
        "--event", metavar="PREFIX", default=None,
        help="filter by event-name prefix (e.g. 'plan.', 'worker.')",
    )
    p_ev.add_argument(
        "--trace", metavar="ID", default=None,
        help="reassemble one cross-process trace by trace_id",
    )
    p_ev.add_argument(
        "--stats", action="store_true",
        help="print event-name counts instead of the events",
    )
    p_ev.add_argument(
        "--json", action="store_true",
        help="print matching events as JSON lines",
    )
    p_ev.add_argument(
        "--validate", action="store_true",
        help="validate every record against the journal_event schema; "
        "exit 1 when any record does not conform",
    )

    from repro.analysis.lint import rule_catalog as _rule_catalog

    rule_lines = "\n".join(
        f"  {r.id}  {r.name}" for r in _rule_catalog()
    )
    p_lint = sub.add_parser(
        "lint",
        help="HP domain lint (static rules + whole-program analyzer + "
        "runtime sanitizer/race detector)",
        description="Run the AST-based HP invariant checker (rules "
        "HP001-HP012, see docs/ANALYSIS.md) over Python files or "
        "directories.  --call-graph adds the whole-program passes "
        "(HP008-HP011).  Exit status is the number-of-findings truth: 0 "
        "when clean, 1 when findings (or sanitizer/race failures) exist.",
        epilog="rules (use --explain ID for details):\n"
        "  HP000  parse-error\n" + rule_lines,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="findings output format (default text)",
    )
    p_lint.add_argument(
        "--select", metavar="RULES", default=None,
        help="comma-separated rule ids to run (e.g. HP001,HP003)",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    p_lint.add_argument(
        "--sanitize-smoke", action="store_true",
        help="also run the runtime race/overflow sanitizer over a "
        "threaded smoke workload (atomic cell + shadowed accumulator + "
        "simulated-MPI reduce)",
    )
    p_lint.add_argument(
        "--smoke-n", type=int, default=20_000,
        help="sanitizer smoke summand count (default 20000)",
    )
    p_lint.add_argument(
        "--smoke-pes", type=int, default=4,
        help="sanitizer smoke thread-team size (default 4)",
    )
    p_lint.add_argument(
        "--explain", metavar="RULE", default=None,
        help="print one rule's documentation + good/bad example and exit",
    )
    p_lint.add_argument(
        "--call-graph", action="store_true",
        help="build the whole-program index and run the project passes "
        "(HP008-HP011) in addition to the per-file rules",
    )
    p_lint.add_argument(
        "--cache", metavar="PATH", default=".hp-analysis-cache.json",
        help="analyzer summary cache for incremental --call-graph runs "
        "(default .hp-analysis-cache.json)",
    )
    p_lint.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the analyzer cache",
    )
    p_lint.add_argument(
        "--baseline", action="store_true",
        help="suppress findings recorded in the baseline file; only NEW "
        "findings fail (default file: analysis-baseline.json)",
    )
    p_lint.add_argument(
        "--baseline-path", metavar="PATH", default=None,
        help="baseline file to gate against (implies --baseline)",
    )
    p_lint.add_argument(
        "--baseline-write", action="store_true",
        help="record current findings into the baseline (ratchet: stale "
        "entries are dropped, kept entries keep their justification)",
    )
    p_lint.add_argument(
        "--sarif", metavar="PATH", default=None,
        help="also write findings as a SARIF 2.1.0 document to PATH",
    )
    p_lint.add_argument(
        "--race-smoke", action="store_true",
        help="run the happens-before race detector self-test: clean "
        "threads/procs workloads must report zero races AND the seeded "
        "fault-injection workload must be caught",
    )

    return parser


def _cmd_sum_substrate(args, xs=None, decision=None) -> int:
    """``repro sum --substrate ...``: route through the parallel layer
    (including the true-multicore ``procs`` pool and its out-of-core
    streaming path).  ``xs`` carries pre-loaded values and ``decision``
    the engine plan (the planner path loads once to size the plan and
    audits the delivered value against the plan's promised bound)."""
    from repro.core.params import HPParams
    from repro.hallberg.params import HallbergParams
    from repro.parallel.drivers import global_sum, make_method
    from repro.parallel.procpool import procpool_reduce

    if args.method not in ("hp", "hallberg", "double"):
        print(
            f"error: --substrate supports hp/hallberg/double, "
            f"not {args.method}",
            file=sys.stderr,
        )
        return 2
    method = args.method
    params = None
    if method == "hp":
        # Each engine's adapter ships its native partial representation
        # (chunks / words); the registry maps engine -> adapter.
        from repro.core.engines import get as _get_engine

        method = _get_engine(args.engine).adapter_name
        if args.params:
            params = HPParams(*args.params)
    elif args.params:
        params = HallbergParams(*args.params)

    if args.ooc:
        if args.substrate != "procs" or not args.input.endswith(".npy"):
            print(
                "error: --ooc requires --substrate procs and a .npy input",
                file=sys.stderr,
            )
            return 2
        adapter = make_method(method, params)
        r = procpool_reduce(
            args.input, adapter, args.pes, start_method=args.start_method,
        )
        print(repr(r.value))
        if args.words and adapter.is_exact():
            from repro.parallel.drivers import _extract_words

            words = _extract_words(adapter, r.partial)
            print(f"{adapter.name}:", _format_words(adapter.name, words))
        return 0

    kwargs = {}
    if args.substrate == "procs" and args.start_method:
        kwargs["start_method"] = args.start_method
    values = xs if xs is not None else _load_values(args.input)
    result = global_sum(
        values, method=method, substrate=args.substrate,
        pes=args.pes, params=params, **kwargs,
    )
    if decision is not None:
        from repro.core import planner as _planner

        _planner.validate_routed(
            values, result.value, decision,
            params=params if args.method == "hp" else None,
        )
    print(repr(result.value))
    if args.words and result.words is not None:
        print(f"{result.method}:",
              _format_words(result.method, result.words))
    return 0


def _format_words(method: str, words: tuple) -> str:
    """Hex for 64-bit HP words, plain ints for signed Hallberg digits."""
    if method.startswith("hp"):
        return " ".join(f"{w:016x}" for w in words)
    return " ".join(str(w) for w in words)


def _cmd_sum_planned(args) -> int:
    """``repro sum --target-accuracy EPS``: error-bound-driven engine
    selection (:mod:`repro.core.planner`) instead of a named engine."""
    from repro.core import planner as _planner
    from repro.core.params import HPParams

    if args.method != "hp":
        print(
            "error: --target-accuracy plans over the hp engine registry; "
            f"drop --method {args.method}",
            file=sys.stderr,
        )
        return 2
    if args.ooc:
        print(
            "error: --target-accuracy needs the batch in memory to plan; "
            "--ooc is not supported",
            file=sys.stderr,
        )
        return 2
    xs = _load_values(args.input)
    if args.substrate is not None:
        from repro.observability import tracing as _tracing

        # One trace for the whole planned request: the plan.decision
        # row, the substrate execution (global_sum reuses the active
        # context), and the bound.check audit all share a trace_id.
        with _tracing.activate_context(_tracing.TraceContext.new()):
            decision = _planner.plan(len(xs), args.target_accuracy)
            args.engine = decision.engine
            rc = _cmd_sum_substrate(args, xs, decision=decision)
        if rc == 0 and args.explain_plan:
            print(decision.explain(), file=sys.stderr)
        return rc
    result = _planner.planned_sum(
        xs,
        args.target_accuracy,
        params=HPParams(*args.params) if args.params else None,
    )
    print(repr(result.value))
    if args.words and result.words is not None:
        print(f"{result.params}:",
              " ".join(f"{w:016x}" for w in result.words))
    if args.explain_plan:
        print(result.plan.explain(), file=sys.stderr)
    return 0


def _cmd_sum(args) -> int:
    if args.target_accuracy is not None:
        return _cmd_sum_planned(args)
    if args.substrate is not None:
        return _cmd_sum_substrate(args)
    if args.ooc:
        print("error: --ooc requires --substrate procs", file=sys.stderr)
        return 2
    from repro.core.params import HPParams, suggest_params
    from repro.core.scalar import to_double
    from repro.core.vectorized import batch_sum_doubles
    from repro.hallberg.params import HallbergParams, equivalent_hallberg
    from repro.hallberg.scalar import hb_to_double
    from repro.hallberg.vectorized import hb_batch_sum_doubles
    from repro.summation.compensated import kahan_sum
    from repro.summation.naive import naive_sum

    xs = _load_values(args.input)
    if args.method == "double":
        print(repr(float(naive_sum(xs))))
        return 0
    if args.method == "kahan":
        print(repr(float(kahan_sum(xs))))
        return 0
    if args.method == "fsum":
        import math

        print(repr(math.fsum(xs)))
        return 0
    nonzero = np.abs(xs[xs != 0.0])
    if args.method == "hp":
        if args.params:
            params = HPParams(*args.params)
        elif len(nonzero):
            params = suggest_params(
                float(nonzero.sum()), float(nonzero.min())
            )
        else:
            params = HPParams(2, 1)
        words = batch_sum_doubles(xs, params, method=args.engine)
        print(repr(to_double(words, params)))
        if args.words:
            print(f"{params}:", " ".join(f"{w:016x}" for w in words))
        return 0
    # hallberg
    if args.params:
        params = HallbergParams(*args.params)
    else:
        params = equivalent_hallberg(512, max(len(xs), 1))
    digits = hb_batch_sum_doubles(xs, params)
    print(repr(hb_to_double(digits, params)))
    if args.words:
        print(f"{params}:", " ".join(str(d) for d in digits))
    return 0


def _cmd_dot(args) -> int:
    from repro.core.dot import hp_dot

    print(repr(hp_dot(_load_values(args.x), _load_values(args.y))))
    return 0


def _cmd_info(args) -> int:
    from repro.core.params import HPParams

    p = HPParams(*args.params)
    print(f"format          {p}")
    print(f"total bits      {p.total_bits}")
    print(f"precision bits  {p.precision_bits}")
    print(f"whole bits      {p.whole_bits}")
    print(f"fraction bits   {p.frac_bits}")
    print(f"max range       ±{p.max_value:.6e}")
    print(f"smallest        {p.smallest:.6e}")
    return 0


def _cmd_suggest(args) -> int:
    from repro.core.params import suggest_params

    p = suggest_params(args.max, args.min)
    print(f"{p}  ({p.total_bits} bits: range ±{p.max_value:.3e}, "
          f"resolution {p.smallest:.3e})")
    return 0


def _cmd_table(args) -> int:
    from repro.experiments import render_table1, render_table2

    print(render_table1() if args.number == 1 else render_table2())
    return 0


def _cmd_figure(args) -> int:
    from repro.experiments import (
        format_fig1,
        format_fig2,
        format_fig4_measured,
        format_fig4_model,
        format_scaling_figure,
        run_fig1,
        run_fig2,
        run_fig4_measured,
        run_fig5_openmp,
        run_fig6_mpi,
        run_fig7_cuda,
        run_fig8_phi,
    )

    n = args.number
    if n == 3:
        from repro.experiments.fig3 import render_fig3

        print(render_fig3())
        return 0
    if n == 1:
        print(format_fig1(run_fig1(set_sizes=(64, 256, 512, 1024),
                                   n_trials=args.trials)))
    elif n == 2:
        print(format_fig2(run_fig2(n_trials=args.trials)))
    elif n == 4:
        from repro.perfmodel import fig4_model_sweep

        print(format_fig4_model(fig4_model_sweep([2**i for i in range(7, 25)])))
        print()
        print(format_fig4_measured(run_fig4_measured()))
    else:
        driver = {5: run_fig5_openmp, 6: run_fig6_mpi,
                  7: run_fig7_cuda, 8: run_fig8_phi}[n]
        print(format_scaling_figure(driver(validate_n=1 << 13)))
    return 0


def _cmd_invariance(args) -> int:
    from repro.experiments.invariance import run_invariance_matrix

    matrix = run_invariance_matrix(n=args.n, seed=args.seed)
    print(matrix.report())
    return 0 if matrix.all_identical else 1


def _cmd_stats(args) -> int:
    from repro import observability as obs

    if args.validate:
        failures = 0
        for path in args.validate:
            kind, problems = obs.validate_file(path)
            if problems:
                failures += 1
                print(f"{path}: INVALID ({kind})")
                for p in problems:
                    print(f"  - {p}")
            else:
                print(f"{path}: ok ({kind})")
        return 1 if failures else 0

    import json
    from concurrent.futures import ThreadPoolExecutor

    from repro.core.accumulator import HPAccumulator
    from repro.core.atomic import AtomicHPCell
    from repro.core.params import HPParams
    from repro.parallel.drivers import global_sum, make_method
    from repro.util.rng import default_rng

    obs.enable()
    report = obs.RunReport("repro-stats")
    # Compiled-backend introspection (repro.core.native chain): recorded
    # as a report event so --json carries it, echoed in the text output.
    from repro.core import native as _native

    _backend = _native.backend_info()
    report.event(
        "native_backend",
        backend=_backend["backend"],
        compiled=_backend["compiled"],
        force_pure=_backend["force_pure"],
    )
    rng = default_rng(args.seed)
    data = rng.uniform(-1.0, 1.0, args.n)
    params = None
    if args.params is not None and args.method != "double":
        from repro.hallberg.params import HallbergParams

        params = (HPParams(*args.params) if args.method == "hp"
                  else HallbergParams(*args.params))

    report.event("start", n=args.n, method=args.method, pes=args.pes)
    with obs.span("stats.workload", n=args.n, method=args.method,
                  pes=args.pes):
        # Stage 1: the OpenMP-analog fork/join sum (vectorized engines).
        result = global_sum(data, args.method, "threads", pes=args.pes,
                            params=params, engine="native")
        report.event("threads_sum", value=result.value)

        # Stage 2: scalar reference over a sample — exercises the
        # Listing 2 ripple-carry loop so per-add carry stats are real.
        # (Always HP: these diagnostic stages measure the HP primitives.)
        hp_params = params if isinstance(params, HPParams) else HPParams(6, 3)
        sample = data[: min(args.n, 4096)]
        with obs.span("stats.scalar_reference", n=len(sample)):
            acc = HPAccumulator(hp_params)
            for x in sample:
                acc.add(float(x))
        report.event("scalar_reference", value=acc.to_double())

        # Stage 3: shared-cell atomic contention under a real thread pool
        # — the CAS attempt/failure story of paper Sec. III.B.2.
        cell = AtomicHPCell(hp_params)
        cell.reset_counters()
        chunks = [sample[i :: args.pes] for i in range(args.pes)]
        with obs.span("stats.atomic_contention", threads=args.pes,
                      n=len(sample)):
            with ThreadPoolExecutor(max_workers=args.pes) as pool:
                list(pool.map(
                    lambda chunk: [cell.atomic_add_double(float(x))
                                   for x in chunk],
                    chunks,
                ))
        attempts, failures = cell.cas_stats()
        report.event("atomic_contention", cas_attempts=attempts,
                     cas_failures=failures, value=cell.to_double())

    summary = report.summary(value=result.value)
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0

    print(f"sum({args.n} summands, method={args.method}, "
          f"pes={args.pes}) = {result.value!r}")
    print(f"native backend: {_backend['backend']} "
          f"(compiled={_backend['compiled']}, "
          f"force_pure={_backend['force_pure']})")
    print()
    print("metrics:")
    for m in summary["metrics"]:
        labels = ",".join(f"{k}={v}" for k, v in sorted(m["labels"].items()))
        label_str = f"{{{labels}}}" if labels else ""
        if m["type"] == "histogram":
            mean = m["sum"] / m["count"] if m["count"] else 0.0
            print(f"  {m['name']}{label_str:24s} count={m['count']} "
                  f"mean={mean:.2f} max={m['max']}")
        else:
            print(f"  {m['name']}{label_str:24s} {m['value']}")
    print()
    print("spans (by total time):")
    for row in summary["spans"]:
        print(f"  {row['name']:40s} count={row['count']:<6d} "
              f"total={row['total_s'] * 1e3:9.2f} ms  "
              f"max={row['max_s'] * 1e3:9.2f} ms")
    return 0


def _cmd_lint(args) -> int:
    import json

    from repro.analysis import lint as _lint

    if args.explain:
        try:
            print(_lint.explain_rule(args.explain))
        except KeyError as exc:
            print(exc.args[0])
            return 2
        return 0

    if args.list_rules:
        for r in _lint.rule_catalog():
            scope = (
                "whole-program" if r.scope == "project"
                else (",".join(r.packages) if r.packages else "all files")
            )
            print(f"{r.id}  {r.name:24s} [{scope}]")
            print(f"       {r.summary}")
            print(f"       rationale: {r.paper_ref}")
        return 0

    select = args.select.split(",") if args.select else None
    files = _lint.iter_python_files(args.paths)
    analysis_stats = None
    if args.call_graph:
        from repro.analysis.callgraph import analyze_paths

        cache = None if args.no_cache else args.cache
        result = analyze_paths(args.paths, cache_path=cache, select=select)
        findings = result.findings
        analysis_stats = result.stats()
    else:
        findings = _lint.lint_paths(args.paths, select=select)
    failed = bool(findings)

    baseline_report = None
    if args.baseline or args.baseline_path or args.baseline_write:
        from repro.analysis import baseline as _bl

        bl_path = args.baseline_path or "analysis-baseline.json"
        try:
            previous = _bl.load_baseline(bl_path)
        except _bl.BaselineError as exc:
            print(f"baseline error: {exc}")
            return 2
        if args.baseline_write:
            written = _bl.write_baseline(bl_path, findings, previous)
            print(f"baseline: wrote {len(written)} entr"
                  f"{'y' if len(written) == 1 else 'ies'} to {bl_path}")
            return 0
        matched = _bl.apply_baseline(findings, previous)
        baseline_report = {
            "file": bl_path,
            "new": len(matched.new),
            "suppressed": len(matched.suppressed),
            "stale": len(matched.stale),
        }
        findings = matched.new  # only unbaselined findings gate the run
        failed = bool(findings)

    if args.sarif:
        from repro.analysis.sarif import format_sarif

        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(format_sarif(findings))

    smoke_report = None
    if args.sanitize_smoke:
        from repro.analysis.smoke import run_smoke

        smoke_report = run_smoke(
            n=args.smoke_n, pes=args.smoke_pes, strict=False
        )
        failed = failed or not smoke_report["ok"]

    race_report = None
    if args.race_smoke:
        from repro.analysis.racecheck import race_smoke

        clean = race_smoke(seed_race=False, pes=args.smoke_pes)
        seeded = race_smoke(seed_race=True, pes=args.smoke_pes,
                            include_procs=False)
        race_report = {"clean": clean, "seeded": seeded,
                       "ok": clean["ok"] and seeded["ok"]}
        failed = failed or not race_report["ok"]

    if args.format == "json":
        doc = json.loads(_lint.format_json(findings, len(files)))
        if analysis_stats is not None:
            doc["analysis"] = analysis_stats
        if baseline_report is not None:
            doc["baseline"] = baseline_report
        if smoke_report is not None:
            doc["sanitizer_smoke"] = smoke_report
        if race_report is not None:
            doc["race_smoke"] = race_report
        print(json.dumps(doc, indent=2))
    else:
        print(_lint.format_text(findings, len(files)))
        if analysis_stats is not None:
            print(
                f"call graph: {analysis_stats['files_indexed']} files "
                f"indexed, {analysis_stats['files_parsed']} parsed, "
                f"{analysis_stats['cache_hits']} cache hits"
            )
        if baseline_report is not None:
            print(
                f"baseline {baseline_report['file']}: "
                f"{baseline_report['new']} new, "
                f"{baseline_report['suppressed']} suppressed, "
                f"{baseline_report['stale']} stale"
            )
        if race_report is not None:
            c, s = race_report["clean"], race_report["seeded"]
            status = "ok" if race_report["ok"] else "FAILED"
            print(
                f"race smoke: {status} — clean workloads "
                f"{c['race_count']} races over {c['accesses']} accesses; "
                f"seeded fault injection caught {s['race_count']} "
                f"race(s)"
            )
            for r in s["races"][:3]:
                print(f"  [seeded] {r}")
        if smoke_report is not None:
            s = smoke_report["sanitizer"]
            status = "ok" if smoke_report["ok"] else "FAILED"
            print(
                f"sanitizer smoke ({smoke_report['n']} summands, "
                f"{smoke_report['pes']} threads): {status} — "
                f"{s['words_watched']} words watched, "
                f"{s['torn_reads']} torn reads, "
                f"{s['unlocked_writes']} unlocked writes"
            )
            for v in s["violations"]:
                print(f"  {v}")
            for m in smoke_report["cross_check_mismatches"]:
                print(f"  [cross-check] {m}")
    return 1 if failed else 0


def _cmd_serve(args) -> int:
    """``repro serve-metrics``: live telemetry daemon, optionally driving
    a continuous instrumented workload."""
    import time

    from repro import observability as obs
    from repro.observability import monitor as drift
    from repro.observability.server import MetricsServer

    obs.enable()
    drift.enable(sample_period=max(1, args.drift_sample))

    server = MetricsServer(
        port=args.port, host=args.host, interval=args.interval
    ).start()
    # One parseable line on stdout: tests and scripts read the port
    # from here (essential with --port 0).
    print(f"serving telemetry on {server.url}", flush=True)

    try:
        if args.workload <= 0:
            while True:
                time.sleep(3600.0)
        from repro.parallel.drivers import global_sum
        from repro.util.rng import default_rng

        rng = default_rng(args.seed)
        rounds = 0
        while True:
            data = rng.uniform(-1.0, 1.0, args.workload)
            global_sum(
                data, method=args.method, substrate=args.substrate,
                pes=args.pes,
            )
            rounds += 1
            if args.iterations and rounds >= args.iterations:
                # Keep serving until interrupted; the workload is done
                # but the endpoint stays scrapeable.
                while True:
                    time.sleep(3600.0)
    except KeyboardInterrupt:
        return 0
    finally:
        server.close()
        obs.disable()
        drift.disable()


def _cmd_top(args) -> int:
    from repro.observability.top import run_top

    return run_top(
        args.url,
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )


def _load_journal_records(path: str) -> list[dict]:
    """Journal events from a JSONL spill, a journal export, or a
    forensics bundle — whatever the flight recorder left behind."""
    import json

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict):
        kind = doc.get("kind")
        if kind == "forensics_bundle":
            journal = doc.get("journal") or {}
            return [r for r in journal.get("events", [])
                    if isinstance(r, dict)]
        if kind == "journal":
            return [r for r in doc.get("events", []) if isinstance(r, dict)]
        if kind == "journal_event":
            return [doc]
        raise ValueError(
            f"{path}: unsupported document kind {kind!r} (expected a "
            f"journal spill, journal export, or forensics bundle)"
        )
    records: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{lineno}: not a JSON object")
        records.append(record)
    return records


def _format_event(record: dict) -> str:
    skip = {"kind", "schema_version", "event", "time_unix", "pid", "seq",
            "trace_id", "span_id"}
    t = record.get("time_unix")
    stamp = f"{t:.6f}" if isinstance(t, (int, float)) else "?"
    fields = " ".join(
        f"{k}={record[k]!r}" for k in sorted(record) if k not in skip
    )
    where = f"pid={record.get('pid', '?')} seq={record.get('seq', '?')}"
    span = record.get("span_id")
    if span is not None:
        where += f" span={span}"
    return f"{stamp}  {where:<28s} {record.get('event', '?'):<16s} {fields}"


def _cmd_events(args) -> int:
    import json

    try:
        records = _load_journal_records(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.validate:
        from repro.observability.schema import validate_journal_event

        problems = []
        for i, record in enumerate(records):
            problems.extend(
                f"event[{i}]: {p}" for p in validate_journal_event(record)
            )
        if problems:
            for p in problems:
                print(f"error: {p}", file=sys.stderr)
            return 1
        print(f"{len(records)} events conform to the journal_event schema")
        return 0

    if args.event is not None:
        records = [
            r for r in records
            if str(r.get("event", "")).startswith(args.event)
        ]
    if args.trace is not None:
        records = [r for r in records if r.get("trace_id") == args.trace]

    if args.stats:
        from collections import Counter

        tally = Counter(str(r.get("event", "?")) for r in records)
        for name in sorted(tally):
            print(f"{tally[name]:8d}  {name}")
        print(f"{len(records):8d}  total")
        return 0

    if args.trace is not None:
        # Causal reassembly: one trace, every process, time order (ties
        # broken by pid/seq so the listing is deterministic).
        records.sort(key=lambda r: (
            r.get("time_unix") or 0.0, r.get("pid") or 0, r.get("seq") or 0,
        ))
        if not records:
            print(f"no events for trace {args.trace}", file=sys.stderr)
            return 1
        pids = sorted({r.get("pid") for r in records if r.get("pid")})
        print(f"trace {args.trace}: {len(records)} events across "
              f"{len(pids)} process(es) {pids}")
    if args.tail:
        records = records[-args.tail:]
    for record in records:
        if args.json:
            print(json.dumps(record, sort_keys=True))
        else:
            print(_format_event(record))
    return 0


def _profile_workload(args):
    """Build the (callable, label) pair ``repro profile`` measures."""
    from repro.core.params import HPParams
    from repro.core.vectorized import batch_sum_doubles, batch_to_double
    from repro.experiments.datasets import wide_range_uniform
    from repro.hallberg.params import HallbergParams
    from repro.hallberg.scalar import hb_to_double
    from repro.hallberg.vectorized import hb_batch_sum_doubles

    seed = args.seed if args.seed is not None else 20160523
    xs = wide_range_uniform(args.n, np.random.default_rng(seed), (-30, 30))

    if args.substrate != "serial":
        from repro.parallel.drivers import make_method
        from repro.parallel.methods import HPMethod

        params = None
        if args.params is not None and args.engine != "double":
            params = (HallbergParams(*args.params)
                      if args.engine == "hallberg"
                      else HPParams(*args.params))
        if args.engine == "hp-words":
            # The word-partial adapter with the reference kernel.
            adapter = HPMethod(params or HPParams(6, 3), engine="words")
        else:
            adapter = make_method(args.engine, params)
        if args.substrate == "threads":
            from repro.parallel.threads import thread_reduce

            return xs, lambda: thread_reduce(
                xs, adapter, args.pes, engine="native"
            ).value
        from repro.parallel.procpool import procpool_reduce

        return xs, lambda: procpool_reduce(
            xs, adapter, args.pes, start_method=args.start_method
        ).value

    if args.engine == "double":
        return xs, lambda: float(np.sum(xs))
    if args.engine == "hallberg":
        hb = (HallbergParams(*args.params) if args.params
              else HallbergParams(10, 38))
        return xs, lambda: hb_to_double(hb_batch_sum_doubles(xs, hb), hb)
    hp = HPParams(*args.params) if args.params else HPParams(6, 3)
    # hp-small maps to its registry engine; hp-words is the word-matrix
    # reference path.
    from repro.core.engines import engine_for_adapter

    method = engine_for_adapter(args.engine) or "words"

    def run():
        words = batch_sum_doubles(xs, hp, method=method)
        row = np.array([words], dtype=np.uint64)
        return float(batch_to_double(row, hp)[0])

    return xs, run


def _cmd_profile_calibrate(args) -> int:
    import json

    from repro.core.params import HPParams
    from repro.core.vectorized import batch_sum_doubles
    from repro.experiments.datasets import wide_range_uniform
    from repro.hallberg.params import HallbergParams
    from repro.hallberg.vectorized import hb_batch_sum_doubles
    from repro.perfmodel.calibration import MEASURED_SCHEMA, render_measured
    from repro.util.timing import repeat_timeit

    seed = args.seed if args.seed is not None else 20160523
    xs = wide_range_uniform(args.n, np.random.default_rng(seed), (-30, 30))
    hp = HPParams(6, 3)
    hb = HallbergParams(10, 38)

    def best(fn) -> float:
        return repeat_timeit(fn, args.repeats, warmup=0).best

    measured = {
        "double": best(lambda: float(np.sum(xs))),
        "hp-small": best(lambda: batch_sum_doubles(xs, hp, method="small")),
        "hallberg": best(lambda: hb_batch_sum_doubles(xs, hb)),
    }
    if args.calibrate_out:
        doc = {
            "schema": MEASURED_SCHEMA,
            "n": args.n,
            "repeats": args.repeats,
            "seed": seed,
            "measured": measured,
        }
        with open(args.calibrate_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"measured cost file written to {args.calibrate_out}")
    print(render_measured(measured, n=args.n))
    return 0


def _cmd_profile(args) -> int:
    import json

    from repro import observability as obs
    from repro.observability import profile as prof

    if args.calibrate:
        return _cmd_profile_calibrate(args)

    xs, run = _profile_workload(args)

    # The cost table is built from spans; the profile.* metrics are
    # recorded only when an output that carries them (--prom-out,
    # --metrics-out, a metrics server) has armed the metrics gate, so an
    # unread registry adds no bookkeeping to the measured pass.
    #
    # Discarded warmup passes so the attributed pass reflects
    # steady-state costs, not first-call allocator/import effects — the
    # profiler's own first spans and metric registrations included,
    # hence armed, then wiped.  One pass is not enough: CPython 3.11
    # quickens a function only after about eight calls, so the code
    # that runs once per pass between the phases would still run
    # unspecialized.  Skipped for procs: a throwaway pool spawn would
    # cost more than the skew it removes.
    if args.substrate != "procs":
        with prof.profiled(metrics=False):
            deadline = time.perf_counter() + _WARMUP_SECONDS
            for _ in range(_WARMUP_PASSES):
                run()
                if time.perf_counter() > deadline:
                    break
        obs.TRACER.reset()
        obs.REGISTRY.reset()

    sampler = None
    if not args.no_sample:
        sampler = prof.SamplingProfiler(interval_s=1.0 / args.sample_hz)
    with prof.profiled(metrics=False):
        if sampler is not None:
            sampler.start()
        try:
            with obs.TRACER.span(prof.RUN_SPAN, engine=args.engine,
                                 substrate=args.substrate, n=args.n):
                value = run()
        finally:
            if sampler is not None:
                sampler.stop()
    report = prof.ProfileReport.from_tracer()

    # With --json, stdout carries only the JSON document.
    notice = sys.stderr if args.json else sys.stdout
    if args.flamegraph:
        with open(args.flamegraph, "w", encoding="utf-8") as fh:
            fh.write(sampler.collapsed() if sampler else "")
        print(f"flamegraph collapsed stacks written to {args.flamegraph}",
              file=notice)
    if args.speedscope:
        doc = (sampler.speedscope(f"repro profile {args.engine}")
               if sampler else prof.speedscope_document({}))
        with open(args.speedscope, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"speedscope profile written to {args.speedscope}",
              file=notice)
    if args.perfetto:
        with open(args.perfetto, "w", encoding="utf-8") as fh:
            json.dump(prof.chrome_trace_with_phases(), fh, indent=2)
            fh.write("\n")
        print(f"perfetto trace written to {args.perfetto}", file=notice)

    if args.json:
        doc = report.to_dict()
        doc["engine"] = args.engine
        doc["substrate"] = args.substrate
        doc["n"] = args.n
        doc["value"] = value
        doc["samples"] = sampler.samples if sampler else 0
        print(json.dumps(doc, indent=2))
        return 0
    print(f"profile: engine={args.engine} substrate={args.substrate} "
          f"n={args.n} value={value!r}")
    if sampler is not None:
        print(f"sampling profiler: {sampler.samples} stacks at "
              f"{args.sample_hz:g} Hz")
    print()
    print(report.render())
    return 0


def _cmd_calibration(args) -> int:
    from repro.perfmodel.calibration import calibration_anchors, render_calibration

    print(render_calibration())
    return 0 if all(a.within_band for a in calibration_anchors()) else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "sum": _cmd_sum,
        "dot": _cmd_dot,
        "info": _cmd_info,
        "suggest": _cmd_suggest,
        "table": _cmd_table,
        "figure": _cmd_figure,
        "invariance": _cmd_invariance,
        "calibration": _cmd_calibration,
        "stats": _cmd_stats,
        "lint": _cmd_lint,
        "profile": _cmd_profile,
        "serve-metrics": _cmd_serve,
        "top": _cmd_top,
        "events": _cmd_events,
    }
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    prom_out = getattr(args, "prom_out", None)
    perfetto_out = getattr(args, "perfetto_out", None)
    journal_out = getattr(args, "journal_out", None)
    forensics_out = getattr(args, "forensics_out", None)
    serve_port = getattr(args, "serve_metrics_port", None)
    any_out = (metrics_out or trace_out or prom_out or perfetto_out
               or journal_out or forensics_out)
    server = None
    if any_out or serve_port is not None:
        from repro import observability as obs

        # The flight recorder records everything it can — a bundle with
        # an empty metrics snapshot or no spans answers nothing.
        obs.enable(
            enable_metrics=(metrics_out is not None or prom_out is not None
                            or serve_port is not None
                            or forensics_out is not None),
            enable_tracing=(trace_out is not None
                            or perfetto_out is not None
                            or serve_port is not None
                            or forensics_out is not None),
            enable_journal=(journal_out is not None
                            or forensics_out is not None),
        )
        if journal_out is not None:
            obs.JOURNAL.spill_to(journal_out)
        if forensics_out is not None:
            from repro.observability import recorder as _recorder

            _recorder.install(forensics_out)
        if serve_port is not None:
            from repro.observability import monitor as drift
            from repro.observability.server import MetricsServer

            drift.enable()
            server = MetricsServer(port=serve_port, interval=0.5).start()
            print(f"serving telemetry on {server.url}", flush=True)
    try:
        return handlers[args.command](args)
    except Exception as exc:  # clean CLI errors, full trace only via -X
        if forensics_out is not None:
            from repro.observability.recorder import RECORDER

            RECORDER.flush(f"exception: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if server is not None:
            import time as _time

            linger = getattr(args, "serve_linger", 0.0) or 0.0
            if linger > 0:
                try:
                    _time.sleep(linger)
                except KeyboardInterrupt:
                    pass
            server.close()
            from repro.observability import monitor as drift

            drift.disable()
        if any_out:
            from repro import observability as obs

            if metrics_out:
                obs.write_metrics(metrics_out)
            if trace_out:
                obs.write_trace(trace_out)
            if prom_out:
                obs.write_prometheus(prom_out)
            if perfetto_out:
                obs.write_chrome_trace(perfetto_out)
            if forensics_out:
                from repro.observability.recorder import RECORDER

                RECORDER.flush("exit")
                RECORDER.uninstall()
            if journal_out:
                obs.JOURNAL.close_spill()


if __name__ == "__main__":
    sys.exit(main())
