"""Set-up probe: one fresh interpreter gets one workload ready.

``ready.py WORKLOAD`` prints ``ready`` once the workload's entry point is
imported, the compiled backend is resolved and one warm-up request has
returned.

``ready.py --timer`` is the helper that times such interpreters: for each
workload name read from stdin, it starts ``ready.py WORKLOAD``, and
prints the seconds from launch to its ``ready`` line, or ``error: ...``.
The helper, not the benchmark, reaps these interpreters, so their memory
stays out of the benchmark's peak RSS of its children.  ``run.py``
reports the median over several interpreters as ``setup_s``.

Usage: python3 e2ebench/ready.py WORKLOAD | --timer
"""

from __future__ import annotations

import subprocess
import sys
import time

import checkout


def main(name: str) -> None:
    checkout.bootstrap()
    import workloads
    from repro.core import native

    workload = workloads.WORKLOADS[name]
    native.resolve()
    workload.call(workload.cycle()[0], workload.warmup_input())
    print("ready", flush=True)


def timer() -> None:
    for line in sys.stdin:
        name = line.strip()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, __file__, name], stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if ready.strip() == "ready" and proc.returncode == 0:
            print(elapsed, flush=True)
        else:
            print(f"error: set-up interpreter for {name} exited "
                  f"{proc.returncode} before it was ready", flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "--timer":
        timer()
    else:
        main(sys.argv[1])
