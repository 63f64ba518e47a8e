"""Compare benchmark run sets metric by metric.

Usage: python3 e2ebench/compare.py A.json [B.json]

A run set is what ``sweep.py`` writes.  For each workload x metric this
prints each set's median, quartiles and spread, the spread being
(q3 - q1) / median.  Against each end-to-end metric's bound from
BENCHMARK.json the verdict is:

- "unresolved": the spread exceeds the bound in either set, or a set
  has fewer than two runs;
- "DIFFERS": given two sets, their medians are further apart than the
  bound;
- "wide": neither of the above, but the bound is wider than CAP, so a
  regression smaller than the bound and larger than CAP goes unseen;
- "ok": neither of the above, with a bound of at most CAP.

Metrics without a bound (the per-layer ones) are "info".  The exit code
is 0 when every run in both sets was correct and no bounded metric is
"unresolved" or "DIFFERS"; a "wide" metric is printed, counted and
listed at the end, but does not fail the comparison.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from checkout import ROOT

#: The widest bound under which agreement counts as "ok".
CAP = 0.10


def load(path: Path):
    """``({(workload, metric): [values]}, [failed runs])`` of a run set."""
    values = defaultdict(list)
    failures = []
    for run in json.loads(path.read_text())["runs"]:
        doc = run["doc"]
        result = doc["workloads"][run["workload"]] if doc else None
        if run["exit"] != 0 or result is None or not result["correct"]:
            failures.append(f"{run['workload']} seed {run['seed']}: "
                            f"exit {run['exit']}")
        if result is not None:
            for metric, entry in result["metrics"].items():
                values[run["workload"], metric].append(entry["value"])
    return values, failures


def summary(values):
    """``(q1, median, q3, spread)``, or None for fewer than two values."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / abs(med) if med else float("inf")


def status(stats, bound) -> str:
    if bound is None:
        return "info"
    if any(s is None or s[3] > bound for s in stats):
        return "unresolved"
    if len(stats) == 2 and abs(stats[1][1] / stats[0][1] - 1.0) > bound:
        return "DIFFERS"
    return "wide" if bound > CAP else "ok"


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:])]
    if not 1 <= len(paths) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = [load(p) for p in paths]
    ok = True
    for path, (_, failures) in zip(paths, sets):
        for failure in failures:
            print(f"{path}: run failed: {failure}")
            ok = False

    verdicts = defaultdict(list)
    keys = sorted(set().union(*(values for values, _ in sets)))
    for workload, metric in keys:
        stats = [summary(values.get((workload, metric), []))
                 for values, _ in sets]
        bound = bounds.get(metric)
        verdict = status(stats, bound)
        verdicts[verdict].append(f"{workload} {metric}")
        ok = ok and verdict not in ("unresolved", "DIFFERS")
        cells = " | ".join(
            "too few runs" if s is None else
            f"{s[1]:.6g} [{s[0]:.6g}, {s[2]:.6g}] spread {s[3]:.1%}"
            for s in stats
        )
        if len(stats) == 2 and None not in stats:
            cells += f" | diff {stats[1][1] / stats[0][1] - 1.0:+.1%}"
        limit = "" if bound is None else f" | bound {bound:.0%}"
        print(f"{workload:<16} {metric:<40} {cells}{limit}  {verdict}")
    counts = ", ".join(f"{len(v)} {k}" for k, v in sorted(verdicts.items()))
    print(f"verdicts: {counts}")
    if "wide" in verdicts:
        print(f"held only to bounds wider than {CAP:.0%}: "
              + "; ".join(verdicts["wide"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
