# Tier-1 verify is `make check` (build + vet + test); `make test-race`
# additionally runs the concurrent ingest, streaming-source, network
# serving, epoch-export (the shared uplink and both front ends over it),
# hierarchy-rollup, federation and durable-storage paths under the race
# detector. `make bench` runs the hot-path benchmarks (Flowtree compression +
# sharded ingest + streaming source + pipelined epoch export + multi-level
# federation); `make bench-compare` runs cmd/benchreport's eight gated
# experiments (compression throughput, epoch-export turnaround, query
# selection, streaming ingest, federation turnaround, WAL'd-ingest overhead,
# standing-view maintenance and the network serving layer) and fails on a
# regression against each one's checked-in BENCH_<exp>.json baseline.
# `make fuzz-smoke` gives the record, tree-wire, tree-delta, disk-segment and
# FlowQL-statement decoders a short corpus-guided fuzz run; `make cover`
# writes cover.out and prints per-package and total statement coverage.

GO ?= go

.PHONY: all build vet test test-race bench bench-all bench-baseline bench-compare check cover fuzz-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The sharded ingest pipeline (datastore shards, flowstream fan-in), the
# streaming source feeding it (flowsource bounded channels, storage retention
# rings it races against), the concurrent epoch-export pipeline, the pooled
# hierarchy rollup, the uplink both export front ends ship through (ship
# lock, ledger snapshots, bounded export pool) and the multi-level
# federation fleet (leaf ingest racing rollups, re-ship racing EndEpoch at
# aggregator hops), the segmented FlowDB (parallel Select merges racing the
# export writer) with the FlowQL layer above it, the durable tier (WAL
# appends racing epoch seals, spill stores racing re-export), and the
# primitives they drive are the packages with real concurrency; the root
# package carries the integration tests.
test-race:
	$(GO) test -race ./internal/datastore/ ./internal/flowstream/ \
		./internal/flowsource/ ./internal/flowserve/ ./internal/storage/ \
		./internal/storage/disk/ ./internal/storage/diskio/ \
		./internal/flowdb/ ./internal/flowql/ \
		./internal/flowtree/ ./internal/primitive/ \
		./internal/hierarchy/ ./internal/uplink/ ./internal/federation/ .

# Hot-path benchmarks: the sort-based bulk fold vs its heap baseline, bulk
# ingest, structural clone, the streaming source vs the pre-materialized
# batch path (asserts the >=0.9x envelope), the sharded data-store ingest
# sweep, the serial-vs-pipelined epoch export grid, and the segmented FlowDB
# select/FlowQL grids (cold, memoized, and flat-scan baseline) plus the
# standing-view maintenance path vs cold-Select polling.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkCompress|BenchmarkAddBatch|BenchmarkClone' \
		-benchtime 1x ./internal/flowtree/
	$(GO) test -run '^$$' -bench 'BenchmarkFlowSource|BenchmarkRecordCodec' \
		-benchtime 1x ./internal/flowsource/
	$(GO) test -run '^$$' -bench 'BenchmarkFlowDBSelect|BenchmarkFlowDBInsertBatch|BenchmarkSubscribe|BenchmarkMemoKey' \
		-benchtime 1x ./internal/flowdb/
	$(GO) test -run '^$$' -bench 'BenchmarkFlowQL' -benchtime 1x ./internal/flowql/
	$(GO) test -run '^$$' -bench 'BenchmarkFederation' -benchtime 1x ./internal/federation/
	$(GO) test -run '^$$' -bench 'BenchmarkIngestSharded|BenchmarkEndEpoch' -benchtime 1x .

# Every benchmark in the repo (paper tables and figures included).
bench-all:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Refresh the perf baselines, BENCH_<exp>.json (run on the reference host).
bench-baseline:
	$(GO) run ./cmd/benchreport -exp gated -write

# Guard the perf trajectory: run all eight gated experiments against their
# checked-in baselines. Each experiment's tolerance, gated metrics and the
# one drift rule live in cmd/benchreport's spec table; the binary exits 2 on
# drift (a baseline that no longer matches what the experiment measures),
# which CI treats as a hard failure even where regressions (exit 1) are only
# warnings. The stream, durable, subscribe and serve experiments also
# hard-fail (exit 1) when they miss a floor between two paths of the same
# run, baseline or not.
bench-compare:
	$(GO) run ./cmd/benchreport -exp gated -compare

# Short corpus-guided fuzz runs of the attacker-facing wire decoders: the
# flowsource record/frame codec, the Flowtree wire (v1/v2) decoder, the
# v3 delta decoder (applied against an adversarial base tree), the
# on-disk segment decoder (which must reject rather than decode damaged
# files) and the FlowQL parser (attacker-facing per Figure 5 step 5).
# Seed corpora are checked in under testdata/fuzz/; CI runs this
# as a smoke job, longer local runs just raise -fuzztime.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/flowsource/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTree$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/flowtree/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTreeDelta$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/flowtree/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSegment$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/storage/disk/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/flowql/

# Statement coverage: per-package lines plus the repo-wide total, with the
# profile left in cover.out for `go tool cover -html=cover.out`.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -n 1

check: build vet test
