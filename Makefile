# Developer entry points.  Everything runs from a source checkout with
# no install step: PYTHONPATH=src is the contract (see ROADMAP.md).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint analyze race-smoke sanitize profile serve check

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
