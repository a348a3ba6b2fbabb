# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench experiments examples ci clean fmt fmt-check bench-gate fault-matrix service-smoke chaos conformance conformance-smoke perf

all: build

build:
	dune build @all

test:
	dune runtest

# Formatting is pinned by .ocamlformat (currently `disable = true`: the
# infrastructure is wired and enforced in CI, adoption is per-file).
# Requires the ocamlformat binary; CI installs the pinned version.
fmt:
	dune build @fmt --auto-promote

fmt-check:
	dune build @fmt

# What a gate should run: build everything, the full test suite, a
# reproducible (fixed-seed) longer fuzz pass, and the regression test that
# fuzz counterexamples actually fail the gate (exit-code propagation).
ci:
	dune build @all
	dune runtest
	FUZZ_SEED=42 FUZZ_ITERS=200 dune exec test/test_main.exe -- test fuzz
	sh tools/check_fuzz_exit.sh
	sh tools/fault_matrix.sh
	sh tools/service_smoke.sh
	sh tools/chaos_soak.sh

# Fault-injection matrix: every injection site through the mompc CLI in each
# supervision mode (fail-fast, bounded retry, graceful fallback, watchdog),
# asserting the taxonomy exit codes, that no unhandled exception escapes the
# driver, and that two same-seed runs are byte-identical
# (docs/ROBUSTNESS.md).
fault-matrix:
	dune build bin/mompc.exe
	sh tools/fault_matrix.sh

# Persistent-service smoke: boot a real mompd, check `mompc --daemon` is
# byte-identical to one-shot mompc, drive 52 mixed protocol requests
# (including an injected pass-crash and malformed lines) through
# `mompd request`, and require a clean shutdown; then drive the same
# requests through a one-shard `mompd route`, requiring replies
# byte-identical to the daemon's (stats aside) and a clean fleet shutdown
# (docs/API.md, docs/FLEET.md).
service-smoke:
	dune build bin/mompc.exe bin/mompd.exe
	sh tools/service_smoke.sh

# Chaos/soak harness (CHAOS_ITERS=200 by default): a supervised daemon under
# `--inject daemon-kill` crash injection, external kill -9 / restart cycles,
# a malformed-frame fuzz pass, a fleet phase that SIGKILLs router shards
# under traffic, and a storage-governance phase that runs fleet traffic
# under `--inject disk-full` with a tiny `--cache-max-bytes` quota — every
# client compile must exit 0 with bytes identical to one-shot mompc, the
# supervisor must restart within its backoff bounds, the cache directory
# must stay inside its quota, and no process may exit outside the taxonomy
# (docs/ROBUSTNESS.md, docs/FLEET.md).
chaos:
	dune build bin/mompc.exe bin/mompd.exe
	sh tools/chaos_soak.sh

# Mass-conformance corpus (docs/CONFORMANCE.md): CORPUS_N seeded programs
# through the full {scheme} x {mode} x {pipeline} differential matrix —
# any unexplained divergence fails with a minimized reproducer — then the
# whole corpus replayed through a live mompd (--daemon) plus the tiered
# vs untiered daemon comparison (--tiered), requiring byte-identity with
# in-process compilation and recording compiles/sec, cold p50 per tier
# and upgrade throughput into BENCH_observe.json's "corpus" and "tiers"
# sections.
CORPUS_N ?= 1000
CORPUS_SEED ?= 42
conformance:
	dune build tools/conformance.exe bench/main.exe
	dune exec tools/conformance.exe -- --n $(CORPUS_N) --seed $(CORPUS_SEED) \
	  --daemon --tiered --observe BENCH_observe.json

# The CI-sized corpus: the committed ledger's exact run (48 programs,
# seed 42) diffed against test/corpus_ledger.expected, plus daemon
# replay.  Any drift is a one-line ledger diff.  Then the same corpus
# replayed with `--pipeline fast` standing in for the optimized column —
# the divergence licenses are scheme/mode/program-keyed, so every
# fast-vs-full delta must still classify (api_version 2's pipeline API
# cannot introduce unexplained divergences).
conformance-smoke:
	dune build tools/conformance.exe
	dune exec tools/conformance.exe -- --n 48 --seed 42 \
	  --expected test/corpus_ledger.expected --daemon
	dune exec tools/conformance.exe -- --n 48 --seed 42 --pipeline fast

# Benchmark-regression gate: regenerate BENCH_observe.json into a scratch
# directory and diff its deterministic counters (per-app barriers and store
# counts) against the committed baseline.  Fresh wall-clock numbers are
# never gated here (they measure the host, not the compiler; `make perf` +
# `bench_gate --perf` own that), but the *committed* baseline must record
# sched.speedup > 1.0 and a pool that executed every submitted job.
bench-gate:
	dune build bench/main.exe tools/bench_gate.exe
	mkdir -p _gate
	cd _gate && ../_build/default/bench/main.exe tables > /dev/null
	./_build/default/tools/bench_gate.exe BENCH_observe.json _gate/BENCH_observe.json --min-speedup 1.0

# Phase-level profile of the standard Figure-10 batch (docs/PERF.md):
# sequential vs PERF_JOBS-domain parallel (best of 2 each), then one
# instrumented run whose per-job/per-phase samples become a flamegraph
# (PERF_DIR/flame.folded), an allocation profile (alloc.folded) and a
# schema-stamped perf.json the CI perf job gates with
# `bench_gate --perf PERF_DIR/perf.json --min-speedup 1.0`.
PERF_JOBS ?= 4
PERF_BATCH ?= tiny
PERF_DIR ?= _perf
perf:
	dune build tools/perf_report.exe
	PERF_JOBS=$(PERF_JOBS) PERF_BATCH=$(PERF_BATCH) \
	  dune exec tools/perf_report.exe -- $(PERF_DIR)

# regenerate every table and figure of the paper's evaluation
experiments:
	dune exec bin/run_experiments.exe

bench:
	dune exec bench/main.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/deglobalization_demo.exe
	dune exec examples/spmdization_demo.exe
	dune exec examples/remarks_demo.exe
	dune exec examples/custom_analysis.exe
	dune exec examples/oom_demo.exe

clean:
	dune clean
	rm -rf _gate _perf
