"""Run the benchmark over several seeds and save the run set.

Each run is a fresh process started with BENCHMARK.json's ``command``
and ``run_seconds``, one workload and seed at a time.  The run set is
the input of ``compare.py``.

Usage:
    python3 e2ebench/sweep.py --seeds 1-10 --out SET.json
                              [--workload NAME ...] [--trace 0|1]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from checkout import BUILD, ROOT


def seed_range(text: str) -> list[int]:
    """``"3"`` or ``"1-10"``."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scratch = BUILD / "e2ebench" / f"sweep-{os.getpid()}.json"
    scratch.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    # Seeds outside, workloads inside: machine noise spreads over all.
    for seed in args.seeds:
        for name in args.workload:
            cmd = [*bench["command"], "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace), "--out", str(scratch)]
            scratch.unlink(missing_ok=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            doc = json.loads(scratch.read_text()) if scratch.exists() else None
            runs.append({
                "workload": name, "seed": seed, "trace": args.trace,
                "exit": proc.returncode, "doc": doc,
                "stderr": proc.stderr[-2000:],
            })
            print(f"{name} seed {seed}: exit {proc.returncode}", flush=True)
    scratch.unlink(missing_ok=True)
    args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
