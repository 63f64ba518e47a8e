# Developer entry points.  Everything runs from a source checkout with
# no install step: PYTHONPATH=src is the contract (see ROADMAP.md).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint analyze race-smoke sanitize bench-regress \
	bench-scaling profile serve check

test:
	$(PYTHON) -m pytest -x -q

# Static half of the correctness tooling: the per-file HP domain
# linter (rules HP001-HP007 and HP012, docs/ANALYSIS.md).  Fails on
# any finding — the lint engine self-hosts over this repository.
lint:
	$(PYTHON) -m repro lint src benchmarks

# Whole-program analysis: call graph + lock graph + nondeterminism
# taint (rules HP008-HP011 on top of the per-file set), gated by the
# checked-in suppression baseline.  Only NEW findings fail; warm runs
# re-parse just the files whose content hash changed.
analyze:
	$(PYTHON) -m repro lint --call-graph \
		--baseline src benchmarks

# Dynamic half of the race story: the happens-before detector over the
# instrumented thread/process substrates.  Runs the clean workloads
# (must report zero races) AND the seeded fault injection (must be
# caught), so the gate proves the detector works in both directions.
race-smoke:
	$(PYTHON) -m repro lint --race-smoke src/repro/analysis

# Runtime half: the race/overflow sanitizer over a threaded smoke
# workload (atomic cell + shadowed accumulator + simulated-MPI reduce).
sanitize:
	$(PYTHON) -m repro lint --sanitize-smoke --smoke-n 50000 --smoke-pes 4 src

# Performance-regression gate: times both exact engines (words / small,
# the latter checked on every available native backend) over the
# pinned Table-1 matrix, pins bit-identity against the scalar oracle,
# and writes BENCH_8.json (schema repro.bench.regress/5).  Fails when
# small is not faster than words at the N=8 / 1M-summand headline case
# or on any backend divergence; the 10x target is recorded, not gated.
bench-regress:
	$(PYTHON) -m repro bench --regress --out BENCH_8.json

# Strong-scaling gate: real wall-clock of the procs substrate (shared
# memory process pool) for double/hp/hp-small at 4M summands over p
# in {1,2,4,8}; writes BENCH_4.json (schema repro.bench.scaling/3;
# warm-up excluded from the timed region by contract, tasks == pes
# asserted per case).  Fails on any bitwise divergence from the serial
# word-matrix reference, or when hp-small at p=4 misses the
# machine-aware minimum speedup (2x on >= 4 cores; waived — and
# recorded as waived — on one core).
bench-scaling:
	$(PYTHON) -m repro bench --scaling --out BENCH_4.json

# Phase-level cost attribution of the headline reduction: prints the
# self/cumulative/% cost table and writes flamegraph + speedscope +
# Perfetto artifacts (docs/OBSERVABILITY.md, "Profiling & cost
# attribution").  `--calibrate` feeds measured anchors back into the
# performance model.
profile:
	$(PYTHON) -m repro profile --engine hp-small --n 1048576 \
		--flamegraph profile.collapsed \
		--speedscope profile.speedscope.json \
		--perfetto profile.perfetto.json

# Live telemetry: a continuously re-summed procs workload behind the
# /metrics endpoint with the accuracy-drift monitor armed.  Scrape
# with `curl localhost:9109/metrics | grep drift_` or watch it with
# `python -m repro top` (docs/OBSERVABILITY.md, "Live telemetry").
serve:
	$(PYTHON) -m repro serve-metrics --port 9109 --workload 1000000 \
		--substrate procs --pes 4

check: lint analyze test
