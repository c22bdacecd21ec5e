PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src

.PHONY: analyze test bench bench-smoke bench-r16 bench-r17 \
	check-results lint machine perf perf-pairs \
	perf-smoke verify

# The PR gate, in dependency-cheapest order: the AST lint rules, the
# static view-program analyzer, the full tier-1 test suite with the
# crash machine at a larger example count (its concurrent sessions run
# under the protocol sanitizers, whose own legs and negative controls
# are in tests/test_analysis_sanitizers.py; the sharded 2PC legs are in
# tests/test_dist.py, the message-transport legs in
# tests/test_dist_net.py), and the checks the wall-clock benchmark runs
# on itself. benchmarks/run_all.py finishes with the same chain.
verify: lint analyze test perf-smoke

# Tier-1, with the generated crash machine (tests/test_crash_machine.py)
# at 2000 examples instead of a bare pytest's 60.
test:
	REPRO_MACHINE_EXAMPLES=2000 $(PYTHON) -m pytest -x -q

# The crash machine alone at the same example count, its concurrent
# sessions included.
machine:
	REPRO_MACHINE_EXAMPLES=2000 $(PYTHON) -m pytest -x -q tests/test_crash_machine.py

# The custom AST lint gate: event discipline, determinism,
# error-hierarchy, bare-except, and the repro.api import surface.
# See docs/ANALYSIS.md for the rule catalogue.
lint:
	$(PYTHON) -m repro.analysis.lint src benchmarks examples

# The static view-program analyzer over the built-in workload schemas:
# escrow commutativity proofs, lock footprints, deadlock-order and
# shard checks. Fails only on error-severity SA diagnostics.
# See docs/ANALYSIS.md for the SA code catalogue.
analyze:
	$(PYTHON) -m repro.analysis.check

bench:
	$(PYTHON) benchmarks/run_all.py

# A fast subset: run the cheapest self-judging benchmark, then validate
# every result document under benchmarks/results/ against the schema.
bench-smoke:
	cd benchmarks && $(PYTHON) -c "import bench_r9_logvolume as b; b.scenario()"
	$(PYTHON) benchmarks/check_results.py

# The group-commit experiment alone: committed-txns-per-flush and
# throughput vs group size at 16 sessions, plus the chaos leg with the
# wal.group_flush site armed, then the schema gate.
bench-r16:
	cd benchmarks && $(PYTHON) -c "import bench_r16_group_commit as b; b.scenario()"
	$(PYTHON) benchmarks/check_results.py

# The recovery-hardening experiment alone: crash-storm convergence, WAL
# salvage + its checksums-off negative control, and quarantine/rebuild,
# then the schema gate.
bench-r17:
	cd benchmarks && $(PYTHON) -c "import bench_r17_crash_storm as b; b.scenario()"
	$(PYTHON) benchmarks/check_results.py

# The wall-clock benchmark BENCHMARK.json declares: every workload
# untraced, then traced (≈ 3 min). Method, metrics and the --runs /
# --compare procedure: benchmarks/perf/README.md; results so far:
# docs/PERFORMANCE.md.
perf:
	$(PYTHON) benchmarks/perf/run.py

# The benchmark's checks on itself at 1/20 size (≈ 15 s): manifest
# shape, every metric produced, oracles, --compare verdicts.
perf-smoke:
	$(PYTHON) -m pytest benchmarks/perf -q

# Parent against the staged change, the way a PR that claims a gain must
# measure it (benchmarks/perf/README.md): 10 alternating pairs per
# workload, the first side flipping every pair (≈ 35 min), verdicts and
# raw values written to BENCH_$(PR).json. Stage the change first
# (`git add -A`): the change tree is the index.
#   make perf-pairs PARENT=<rev> PR=<n> [CLAIM=workload:metric[:at_most]]
perf-pairs:
	$(PYTHON) benchmarks/pairs.py --parent $(PARENT) --pr $(PR) \
		$(if $(CLAIM),--claim $(CLAIM)) $(if $(SEED),--seed $(SEED))

check-results:
	$(PYTHON) benchmarks/check_results.py
