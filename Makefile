# Developer entry points. `make verify` is the gate CI and contributors
# run before pushing: formatting, lints as errors, and the full test
# suite.

CARGO ?= cargo

.PHONY: verify fmt clippy test test-release build doc loc bench bench-campaign bench-services bench-smoke chaos-smoke monitor-smoke services-smoke services-shard-smoke examples experiments-check perfbench-check perfbench-smoke

verify: fmt clippy test

fmt:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

test:
	$(CARGO) test -q --workspace

# The concurrency-sensitive suites again, optimized: the threaded
# pattern engine's cancellation and in-order joins, the streaming
# merger's window and the worker pool's help-drain interleave
# differently at release speed than in a debug build. The root crate's
# observability_trace binary adds traced campaigns over threaded
# patterns and over nested regions, including one far longer than its
# merge window.
test-release:
	$(CARGO) test --release -q -p redundancy-core -p redundancy-obs -p redundancy-sim
	$(CARGO) test --release -q --test observability_trace

build:
	$(CARGO) build --release

# Rustdoc gate: every intra-doc link must resolve, so deleting or
# renaming an item cannot leave a dangling link behind.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

# Non-test Rust lines under crates/, per crate and in total: every line
# of a .rs file outside tests/ directories and #[cfg(test)] items.
loc:
	@python3 scripts/loc.py

bench:
	$(CARGO) bench --workspace

# Serial-vs-parallel campaign throughput, voter-kernel throughput and
# traced-vs-untraced overhead, all mirrored into BENCH_campaign.json —
# the recorder merges by label, so the three binaries share one file.
# (Absolute path: cargo runs each bench with the package dir as cwd.)
bench-campaign:
	CRITERION_JSON_OUT=$(CURDIR)/BENCH_campaign.json $(CARGO) bench -p redundancy-bench --bench campaign_throughput
	CRITERION_JSON_OUT=$(CURDIR)/BENCH_campaign.json $(CARGO) bench -p redundancy-bench --bench adjudicate_throughput
	CRITERION_JSON_OUT=$(CURDIR)/BENCH_campaign.json $(CARGO) bench -p redundancy-bench --bench trace_throughput

# Event-loop runtime throughput and tail latency (E20 cells): wall-clock
# cost of driving a workload through the loop plus the virtual-time
# req/sec and p99/p999 families, mirrored into BENCH_campaign.json.
bench-services:
	CRITERION_JSON_OUT=$(CURDIR)/BENCH_campaign.json $(CARGO) bench -p redundancy-bench --bench services_throughput

# Compile and run every bench with tiny sampling budgets. This is a CI
# smoke test — it proves the benches build, run, and keep their
# determinism guards green — not a measurement.
bench-smoke:
	CRITERION_SAMPLES=2 CRITERION_MEASURE_MS=20 CRITERION_WARMUP_MS=5 $(CARGO) bench --workspace

# Kill-and-resume determinism gate: runs E19 in its reduced --smoke
# configuration, which injects scripted worker kills / mid-trial
# cancellations into checkpointed campaigns and asserts the resumed
# summaries (and the traced event stream) are byte-identical to an
# uninterrupted run. Fails loudly if crash-only resumption ever drifts.
chaos-smoke:
	$(CARGO) run -q -p redundancy-bench --bin exp_resume -- --smoke

# Flight-recorder gate: runs a campaign under the background monitor and
# asserts the contract — results bit-identical to an unmonitored run,
# Prometheus export passes the exposition-format validator, every JSONL
# snapshot is well-formed.
monitor-smoke:
	$(CARGO) run -q -p redundancy-bench --bin exp_monitor

# Event-loop runtime gate: runs E20 in its reduced --smoke configuration
# under the flight recorder and asserts the seeded per-request ledger is
# bit-identical across two runs. Fails loudly if the deterministic event
# loop ever drifts.
services-smoke:
	$(CARGO) run -q -p redundancy-bench --bin exp_services -- --smoke --monitor

# Sharded-runtime gate: runs E21 in its --smoke configuration, which
# asserts (1) breaker-off ledger digests are bit-identical at shards
# {1,2,8}, (2) breaker-on runs are jobs-invariant, (3) the circuit
# breaker measurably cuts failed attempts with the hedged p99 no worse
# than the single-loop baseline, and (4) service telemetry totals do
# not depend on pool scheduling.
services-shard-smoke:
	$(CARGO) run -q -p redundancy-bench --bin exp_shard -- --smoke --monitor

# Build and run every example end to end. A CI smoke test: the examples
# are the documented entry points, so they must keep compiling *and*
# finishing cleanly.
examples:
	$(CARGO) build --examples
	$(CARGO) run -q --example quickstart
	$(CARGO) run -q --example resilient_booking
	$(CARGO) run -q --example robust_store
	$(CARGO) run -q --example self_healing_server
	$(CARGO) run -q --example automatic_repair

# Reproduction gate: the release `exp_all` tables must be byte-identical
# to the committed experiments_output.txt, so a change that moves any
# reproduced number shows up as a diff. It runs twice, serially and on 4
# worker threads, since every experiment takes `--jobs` and must print
# the same bytes at any job count. When a change is meant to move a
# number, regenerate the file with
#   cargo run --release -q -p redundancy-bench --bin exp_all > experiments_output.txt
# (with no REDUNDANCY_* variables set) and commit it with the change.
experiments-check:
	$(CARGO) build --release -q -p redundancy-bench --bin exp_all
	@set -e; for jobs in 1 4; do \
		echo "experiments-check: --jobs $$jobs"; \
		$(CARGO) run --release -q -p redundancy-bench --bin exp_all -- --jobs $$jobs | diff -u experiments_output.txt -; \
	done

# The benchmark harness lives outside the workspace (its own manifest
# and lock file) and compiles against the Campaign and Adjudicator APIs:
# build it and run its self-tests so an API change cannot break it
# unnoticed.
perfbench-check:
	$(CARGO) test --offline --manifest-path perfbench/Cargo.toml

# Benchmark smoke: runs every workload BENCHMARK.json lists for 2 s on
# seed 1 and fails unless each result line reports every call correct
# and none failed. Seed 1 is pinned in perfbench/references.tsv, so this
# checks the 10 000-trial summaries, ledger digests and the resumable
# reopen that perfbench-check's 256-trial self-consistency tests do not.
# Two more runs are traced (`--trace 1`), and their speed-up passes run
# at jobs = nproc against the same pinned references. campaign-traced's
# is the only gate that has traced workers hand the merger runs of
# trials concurrently on the real workload; campaign-resumable's is the
# only one that drives the checkpoint committer's out-of-order (parked)
# path on it, and the run ends by reopening a checkpoint it wrote.
PERFBENCH_WORKLOADS = $(shell python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
PERFBENCH_CHECK = python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(r["correct"] is not True or r["failed"] != 0)'

perfbench-smoke:
	@set -e; for w in $(PERFBENCH_WORKLOADS); do \
		echo "perfbench-smoke: $$w"; \
		last=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace 0 | tail -n 1); \
		echo "$$last"; \
		echo "$$last" | $(PERFBENCH_CHECK); \
	done; \
	for w in campaign-traced campaign-resumable; do \
		echo "perfbench-smoke: $$w --trace 1"; \
		last=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace 1 | tail -n 1); \
		echo "$$last" | python3 -c 'import json, sys; r = json.load(sys.stdin); print({k: r[k] for k in ("correct", "attempted", "failed")})'; \
		echo "$$last" | $(PERFBENCH_CHECK); \
	done
