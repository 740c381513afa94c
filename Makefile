# Convenience targets; everything is plain `go` underneath.

.PHONY: all build lint vet shardgate offloadgate lifegate test bench bench-go figures quick-figures faults examples clean

all: build test

build:
	go build ./...

# Formatting and the toolchain's own vet.
lint:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt: files need formatting:"; echo "$$fmt"; exit 1; fi
	go vet ./...

# The repo's analyzer, fsvet, in one run over one load of the module:
# every static pass (determinism, reach, units, lock order and classes,
# charge, escape, alloc budget, shard, mailbox, TCP state machine —
# see DESIGN.md §5), then the runtime cross-checks that hold them to
# ground truth: the lockdep order graph, allocs/event on the macro and
# offloads-on bulk beds and allocs/op on the bare engine against
# .fsvet-allocbudget.json, and the fsm mix's transitions against the
# static relation (>= 90% of the spec's non-defensive edges). Fails on
# any finding or cross-check miss. Refreshes LOCKGRAPH_observed.json
# and FSMGRAPH_observed.json (deterministic: they only move when lock
# or TCP behaviour does) and the BENCH_vet.json record. Regenerate the
# alloc budget after deliberate changes with
#   go run ./cmd/fsvet -write-allocbudget
# (ceilings, notes and corpus fixture entries are preserved).
vet:
	go run ./cmd/fsvet

# Shard gate: the conservative-lookahead engine's equality suite under
# the race detector — engine unit tests (parallel == serial traces,
# deterministic Pending/Fired aggregation) plus the experiment digest
# suite (Figure 4/5, Table 1, loss sweep, overload ramp bit-identical
# between Shards=1 and Shards>1, with mailbox traffic asserted
# non-vacuous).
shardgate:
	go test -race ./internal/shard
	go test -race -run 'TestShardDigest' ./internal/experiment

# Offload gate: the NIC offload model's invariants. GRO merge boundary
# and IRQ-coalescing timer unit tests, the TSO fault-granularity
# equivalence (an armed fault plane draws identical per-MSS decisions
# whether or not the wire carries super-segments), and the offload
# digest suite under the race detector (serial == multi-worker shard
# digests, offloads-off inert). `make vet` holds the offloads-on bulk
# bed to the macro alloc ceiling.
offloadgate:
	go test -run 'TestGRO|TestCoalesce' ./internal/kernel
	go test -run 'TestTSO' ./internal/app
	go test -race -run 'TestOffload|TestShardDigestOffload' ./internal/experiment

# Lifecycle gate: the host lifecycle plane's invariants. The app-layer
# crash/drain/restart suite under the race detector, then the fixed
# fsbench lifecycle scenarios with their built-in verdict enforcement
# (every scenario recovers to >=99% of baseline, a graceful drain
# aborts strictly fewer connections than a hard crash, a rolling
# restart never looks like an outage). Refreshes the committed
# BENCH_lifecycle.json — every value in it is simulated, so the file
# only moves when lifecycle behaviour does.
lifegate:
	go test -race -run 'TestLifecycle' ./internal/app
	go run ./cmd/fsbench lifecycle

# The benchmark (cmd/fsperf) is a module of its own, so the root
# `go vet ./...` and `go test ./...` skip it; it compiles against the
# app and shard APIs, so it is vetted and tested here explicitly.
test: lint vet lifegate
	go test ./...
	go -C cmd/fsperf vet ./...
	go -C cmd/fsperf test ./...

# Full test run recorded to test_output.txt (what CI would archive).
test-record:
	go test -count=1 ./... 2>&1 | tee test_output.txt

# Benchmark the simulator engine itself and refresh the committed
# perf record: writes BENCH_simperf.json with events/sec, ns/event and
# allocs/event for a fixed macro run plus bare-loop schedule/fire and
# schedule/cancel churn. Diff the file across commits to see how
# engine changes move throughput.
bench:
	go run ./cmd/fsbench simperf

# Any conventional go test benchmarks, archived to bench_output.txt.
bench-go:
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Regenerate every table and figure of the paper (minutes).
figures:
	go run ./cmd/fsbench all

quick-figures:
	go run ./cmd/fsbench -quick all

# Smoke-run the fault-injection experiments (loss sweep + overload
# ramp) with small windows; exercises the whole fault plane end to end.
faults:
	go run ./cmd/fsbench -quick losssweep overload
	go run ./cmd/fsbench -quick -faults loss=0.01,ring=256,allocfail=0.001 figure4a

examples:
	go run ./examples/quickstart
	go run ./examples/webserver -cores 8 -ms 50
	go run ./examples/proxy -cores 8 -ms 50
	go run ./examples/production -hour 10
	go run ./examples/attack

clean:
	rm -f test_output.txt bench_output.txt sim.pcap
