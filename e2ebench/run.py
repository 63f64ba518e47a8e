"""End-to-end benchmark of the exact-sum request path.

Usage:
    python3 e2ebench/run.py [--workload NAME ...] [--seed S] [--seconds T]
                            [--trace [0|1]] [--out FILE]

``--seconds`` is the measured time per workload; it defaults to
BENCHMARK.json's ``run_seconds``, and other values are for self-tests.
Untraced (the default) prints the end-to-end metrics of each workload;
``--trace`` prints the per-layer metrics from a separate traced run and
writes its spans to ``.bench_build/e2ebench/``.  Every metric is printed
by name with its unit, and each workload's block ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Every result is
checked; the exit code is 1 when any request failed or returned a wrong
answer, or a traced request's layers missed its wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import checkout

checkout.bootstrap()

import numpy  # noqa: E402

import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from repro.core import native  # noqa: E402

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_RUNS = 11
#: Measured time per workload.
RUN_SECONDS = json.loads(
    (checkout.ROOT / "BENCHMARK.json").read_text()
)["run_seconds"]


def parse_args(argv, catalog):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the exact-sum request path."
    )
    parser.add_argument(
        "--workload", nargs="+", action="extend", choices=list(catalog),
        help="workloads to run (default: all)",
    )
    parser.add_argument("--seed", type=int, default=1,
                        help="seed the inputs are generated from")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured time per workload (default: "
                        "BENCHMARK.json's run_seconds)")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or the bare flag): traced run, per-layer metrics",
    )
    parser.add_argument("--out", type=Path,
                        help="also write the results and provenance here")
    return parser.parse_args(argv)


def cache_bytes() -> dict[str, int]:
    """Data and unified CPU cache sizes by level, from Linux sysfs."""
    sizes = {}
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
            sizes[f"L{level}"] = int(size.rstrip("KMG")) * scale
    return sizes


def git_commit() -> str | None:
    """The checkout's commit, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(checkout.ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout.ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args, names, catalog) -> dict:
    return {
        "nproc": os.cpu_count(),
        "backend": native.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "cache_bytes": cache_bytes(),
        "array_bytes": {name: catalog[name].n * 8 for name in names},
    }


def report(name: str, result: dict, tally, info: dict) -> None:
    """Print a workload's metrics, failures and notes, then its JSON line."""
    for metric, entry in result["metrics"].items():
        print(f"{name:<16} {metric:<40} {entry['value']:>16.6g} "
              f"{entry['unit']}")
    print(f"{name:<16} {'error_rate':<40} {tally.error_rate:>16.6g} ratio"
          f"  ({tally.failed} of {tally.attempted} requests failed)")
    for error in tally.errors:
        print(f"{name:<16} FAILED: {error}")
    for key, value in info.items():
        print(f"{name:<16} # {key}: {value}")
    print(json.dumps(result), flush=True)


def stop_resource_tracker() -> None:
    """Stop the helper process multiprocessing starts for shared memory,
    so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None, catalog=None) -> int:
    catalog = catalog or workloads.WORKLOADS
    args = parse_args(argv, catalog)
    names = args.workload or list(catalog)
    native.resolve()
    results = {}
    ok = True
    try:
        for name in names:
            workload = catalog[name]
            if args.trace:
                units = layers.UNITS
                metrics, tally, info = layers.per_layer(
                    workload, args.seed, args.seconds
                )
            else:
                units = measure.UNITS
                metrics, tally, info = measure.end_to_end(
                    workload, args.seed, args.seconds, SETUP_RUNS
                )
            result = {
                "correct": tally.failed == 0 and info.get("closure_ok", True),
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()
                },
            }
            ok = ok and result["correct"]
            report(name, result, tally, info)
            results[name] = dict(
                result, error_rate=tally.error_rate, errors=tally.errors,
                info=info,
            )
    finally:
        stop_resource_tracker()
    if args.out:
        doc = {
            "provenance": provenance(args, names, catalog),
            "workloads": results,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
