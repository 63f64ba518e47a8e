"""One dataset, four architectures, one answer.

Run:  python examples/cross_architecture.py

The paper's headline property (Sec. III.B.3): "it is possible to add a
sequence of real numbers separately on an Intel CPU and on an Nvidia
GPU, for example, and derive the same result in both cases" — because
HP reduces real addition to integer addition, which is associative and
identical everywhere.

This example pushes the same array through all four substrate analogues
(OpenMP threads, MPI ranks, the simulated CUDA device with CAS atomics,
and the Xeon Phi offload model), each with its own partitioning and
reduction topology, and compares the resulting HP words bit for bit.
The double-precision results are shown alongside: every substrate
produces a different last-bits answer.
"""

from __future__ import annotations

import numpy as np

from repro import HPParams, to_double
from repro.parallel.gpu import gpu_sum
from repro.parallel.methods import DoubleMethod, HPMethod
from repro.parallel.phi import offload_reduce
from repro.parallel.simmpi import mpi_reduce
from repro.parallel.threads import thread_reduce

PARAMS = HPParams(6, 3)
N = 3000  # modest so the stepped GPU simulation stays quick


def main() -> None:
    rng = np.random.default_rng(2016)
    data = rng.uniform(-0.5, 0.5, N)
    hp = HPMethod(PARAMS)
    dd = DoubleMethod()

    results: dict[str, tuple[tuple, float]] = {}

    r = thread_reduce(data, hp, num_threads=8)
    results["threads (OpenMP)"] = (r.partial, thread_reduce(data, dd, 8).value)

    r = mpi_reduce(data, hp, size=16)
    results["message passing (MPI)"] = (r.partial, mpi_reduce(data, dd, 16).value)

    g = gpu_sum(data, "hp", num_threads=512, params=PARAMS,
                max_concurrent_threads=256)
    gd = gpu_sum(data, "double", num_threads=512, max_concurrent_threads=256)
    # g.total: the device's 256 partials folded into one word vector.
    results["CUDA device (atomics)"] = (g.total, gd.value)

    r = offload_reduce(data, hp, num_threads=240)
    results["Xeon Phi (offload)"] = (
        r.partial,
        offload_reduce(data, dd, 240).value,
    )

    print(f"global sum of {N} doubles on four architectures\n")
    print(f"{'substrate':<24}{'HP words (first 2)':<42}{'double value':<24}")
    reference = None
    for name, (words, dval) in results.items():
        head = " ".join(f"{w:016x}" for w in words[:2])
        print(f"{name:<24}{head:<42}{dval:<24.17f}")
        if reference is None:
            reference = words
        assert words == reference, f"{name} diverged!"

    print(f"\nHP value everywhere: {to_double(reference, PARAMS)!r}")
    doubles = {v for _, v in results.values()}
    print(f"distinct double-precision answers: {len(doubles)}")
    print("\nHP words are bit-identical across all four substrates; the")
    print("double result depends on each substrate's reduction topology.")


if __name__ == "__main__":
    main()
