"""The untraced run: one client sends a workload's requests in a closed
loop, and the end-to-end metrics are measured on it.

Closed loop: the next request goes out only when the previous one has
returned, so a slower program receives less load, and each request's
wall time is its latency.

Speed-normalized times: the reference machine is shared, and for
seconds to minutes at a time it runs everything, the program and plain
Python alike, up to twice as slowly.  Each request cycle therefore
starts with a speed probe made of code the program does not contain: a
Python loop, a NumPy sort of cache-resident data and NumPy's sum of the
workload's inputs.  The cycle's slowdown is the geometric mean of their
times over the workload's ``probe_us``, the same mean on the reference
machine at full speed.  Latency, throughput and set-up time are
reported at reference speed: wall time divided by the slowdown
measured beside it.  The wall times are printed too.
"""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import workloads as wl

#: end-to-end metric -> unit; BENCHMARK.json holds directions and bounds.
UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_msum_s": "Msum/s",
    "hp_cost_factor": "x",
    "peak_rss_mb": "MiB",
}
#: Untimed passes over the request cycle before timing starts.
WARMUPS = 3
#: Latency and throughput are taken within blocks of this many
#: consecutive requests, and the median over the blocks is reported: a
#: slower program moves every block, a few seconds of slowdown of the
#: shared machine only some.  100 leaves 10 requests beyond each
#: block's p90.
BLOCK = 100
#: Each part of the speed probe repeats until it has run this long, so
#: that it is not a single noisy sample.
PROBE_SECONDS = 3e-4
READY = Path(__file__).with_name("ready.py")


@dataclass
class Tally:
    """Requests attempted and failed, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted


def timed(call: Callable[[], wl.Outcome]):
    """Run one request; returns ``(seconds, outcome, error)``."""
    start = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # a failed request is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, None, error
    return time.perf_counter() - start, out, None


def _interpreter(inputs) -> None:
    total = 0
    for i in range(3000):
        total += i * i


_SORT_INPUT = np.random.default_rng(0).uniform(-1.0, 1.0, 4096)


def _core(inputs) -> None:
    np.sort(_SORT_INPUT)


def _memory(inputs) -> None:
    for x in inputs:
        np.add.reduce(x)


#: The speed probe's parts, one per resource a request spends time in:
#: the interpreter, a core on cache-resident data, and a pass over the
#: request's own inputs.
PROBES = (_interpreter, _core, _memory)


def _probe_seconds(probe, inputs) -> float:
    """Mean time of ``probe`` over repeats lasting PROBE_SECONDS."""
    passes, start = 0, time.perf_counter()
    while (elapsed := time.perf_counter() - start) < PROBE_SECONDS:
        probe(inputs)
        passes += 1
    return elapsed / passes


def slowdown(workload, inputs) -> float:
    """How many times slower than at reference speed the machine runs
    now: the geometric mean of the probes' times over the workload's
    ``probe_us``.

    Each probe runs once untimed first, which also brings the inputs
    back into the caches, so the probe times the machine and not what
    the last request left behind."""
    for probe in PROBES:
        probe(inputs)
    product = math.prod(_probe_seconds(p, inputs) for p in PROBES)
    return product ** (1 / len(PROBES)) / (workload.probe_us * 1e-6)


def send(workload, req, inputs, oracles, tally: Tally) -> float:
    """Send one request, check its result, and return its wall time."""
    x = inputs[req.index]
    seconds, out, error = timed(lambda: workload.call(req, x))
    if error is None:
        error = wl.check(req, out, oracles[req.index], workload.n)
    tally.record(error)
    return seconds


def prepare(workload, seed: int, tally: Tally):
    """Inputs and their oracles, untimed; the permuted-input request of
    each input counts as an attempted request."""
    inputs = workload.inputs(seed)
    oracles = [wl.oracle(workload, x) for x in inputs]
    for x, orc in zip(inputs, oracles):
        tally.record(wl.permuted_check(workload, x, orc, seed))
    return inputs, oracles


@contextmanager
def setup_timer():
    """Yields ``setup_seconds(name)``, the launch-to-ready time of one
    fresh interpreter, timed by the ``ready.py --timer`` helper.

    Read :func:`peak_rss_mib` inside the block: the helper's rusage, and
    with it that of the interpreters it reaped, reaches this process's
    children's figure only when the helper is reaped at the block's end.
    """
    with subprocess.Popen(
        [sys.executable, str(READY), "--timer"], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
    ) as helper:

        def setup_seconds(name: str) -> float:
            helper.stdin.write(name + "\n")
            helper.stdin.flush()
            reply = helper.stdout.readline().strip()
            try:
                return float(reply)
            except ValueError:
                raise RuntimeError(reply or "set-up helper exited") from None

        try:
            yield setup_seconds
        finally:
            helper.stdin.close()  # the helper exits at end of input


def peak_rss_mib() -> float:
    """The larger of this process's and its children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def closed_loop(workload, inputs, oracles, seconds: float, tally: Tally,
                setup_seconds, setup_runs: int):
    """Whole request cycles for ``seconds`` of requests; returns the wall
    times of the "main", "exact" and "reference" requests, the slowdown
    beside each "main" request, and the set-up interpreters' wall times
    and slowdowns.

    The set-up interpreters run one at a time, evenly spread over the
    loop.  The loop waits while one runs and does one untimed cycle
    after it, so no request is timed beside it or on the caches it
    left; the deadline moves by that time.  An interpreter's slowdown
    is the mean of the probes just before and after it.

    Times go into flat arrays, so the run's memory does not grow with
    the number of requests a faster program gets through.
    """
    cycle = workload.cycle()

    def warm(passes: int) -> None:
        for req in cycle * passes:
            # A failing request fails again below, where it is counted.
            timed(lambda: workload.call(req, inputs[req.index]))

    warm(WARMUPS)
    times = {
        name: array("d")
        for name in ("main", "exact", "reference", "main_slowdown")
    }
    setup, setup_slowdown = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while (now := time.perf_counter()) < deadline or len(setup) < setup_runs:
        if len(setup) < setup_runs and (
            now >= start + (len(setup) + 0.5) * seconds / setup_runs
            or now >= deadline
        ):
            before = slowdown(workload, inputs)
            setup.append(setup_seconds(workload.name))
            setup_slowdown.append((before + slowdown(workload, inputs)) / 2)
            warm(1)
            deadline += time.perf_counter() - now
            continue
        slow = slowdown(workload, inputs)
        for req in cycle:
            dt = send(workload, req, inputs, oracles, tally)
            times[req.kind].append(dt)
            if req.kind == "main":
                times["main_slowdown"].append(slow)
            if req.exact:
                times["exact"].append(dt)
    return times, setup, setup_slowdown


def end_to_end(workload, seed: int, seconds: float, setup_runs: int):
    """The untraced run; returns ``(metrics, tally, info)``."""
    tally = Tally()
    with setup_timer() as setup_seconds:
        inputs, oracles = prepare(workload, seed, tally)
        times, setup, setup_slowdown = closed_loop(
            workload, inputs, oracles, seconds, tally, setup_seconds,
            setup_runs,
        )
        peak_rss = peak_rss_mib()
    wall = np.frombuffer(times["main"])
    main_slowdown = np.frombuffer(times["main_slowdown"])
    p50, p90, throughput = block_stats(wall / main_slowdown, workload.n)
    wall_p50, wall_p90, _ = block_stats(wall, workload.n)
    metrics = {
        "setup_s": statistics.median(
            s / k for s, k in zip(setup, setup_slowdown)
        ),
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "throughput_msum_s": throughput / 1e6,
        "hp_cost_factor": (
            statistics.median(times["exact"])
            / statistics.median(times["reference"])
        ),
        "peak_rss_mb": peak_rss,
    }
    info = {
        "requests": wall.size,
        "exact_requests": len(times["exact"]),
        "reference_requests": len(times["reference"]),
        "slowdown_quartiles": np.percentile(main_slowdown, [25, 50, 75])
        .tolist(),
        "wall_latency_p50_ms": wall_p50 * 1e3,
        "wall_latency_p90_ms": wall_p90 * 1e3,
        "wall_setup_s": statistics.median(setup),
        "setup_runs_s": setup,
        "setup_slowdowns": setup_slowdown,
    }
    return metrics, tally, info


def block_stats(seconds: np.ndarray, n: int):
    """``(p50, p90, summands per second)`` of request times, each the
    median over blocks of ``BLOCK`` consecutive requests."""
    blocks = np.array_split(seconds, max(1, seconds.size // BLOCK))
    p50, p90 = np.median([np.percentile(b, [50, 90]) for b in blocks], axis=0)
    throughput = statistics.median(b.size * n / math.fsum(b) for b in blocks)
    return float(p50), float(p90), throughput
