# Convenience targets; everything is plain `go` underneath.

.PHONY: all build lint vet allocgate fsmgate shardgate offloadgate lifegate test bench bench-go figures quick-figures faults examples clean

all: build test

build:
	go build ./...

# Static checks: formatting, vet, and the repo's own fslint analyzer
# (determinism, lock discipline, and unit hygiene — see DESIGN.md).
lint:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt: files need formatting:"; echo "$$fmt"; exit 1; fi
	go vet ./...
	go run ./cmd/fslint ./...

# Typed whole-program analysis (fsvet): interprocedural determinism,
# reachability, units, lock order, charge accounting and pooled-handle
# escape checks, plus the static<->runtime lockdep cross-check against
# the committed experiment mix. Fails on any unbaselined finding or on
# an observed lock-order edge the static graph missed. Refreshes the
# committed observed graph and timing record.
vet:
	go run ./cmd/fsvet -root . -baseline .fsvet-baseline.json \
		-lockdep-cross-check -write-observed LOCKGRAPH_observed.json \
		-bench-out BENCH_vet.json

# Allocation gate: the fsvet alloc pass checks every hot-path function
# against the committed budget (.fsvet-allocbudget.json), then the
# runtime cross-check measures actual allocs/event (macro run) and
# allocs/op (bare engine) against the budget's ceilings. Regenerate the
# budget after deliberate changes with:
#   go run ./cmd/fsvet -write-allocbudget
# (ceilings, notes and corpus fixture entries are preserved).
allocgate:
	go run ./cmd/fsvet -root . -alloc-cross-check -bench-out BENCH_allocgate.json

# FSM gate: the fsvet fsm pass statically extracts every TCP
# state-transition site and diffs the relation against the committed
# spec (internal/vet/fsmspec.go); the cross-check then replays the fsm
# experiment mix under the runtime transition tracer and fails if any
# observed transition has no static site (analyzer bug) or the mix
# covers < 90% of the spec's non-defensive edges. Refreshes the
# committed observed matrix (FSMGRAPH_observed.json) — the mix is
# deterministic, so the file only moves when TCP behaviour does.
fsmgate:
	go run ./cmd/fsvet -root . -baseline .fsvet-baseline.json \
		-fsm-cross-check -write-fsmgraph FSMGRAPH_observed.json

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
# whether or not the wire carries super-segments), the offload digest
# suite under the race detector (serial == multi-worker shard digests,
# offloads-off inert), and the fsvet runtime alloc cross-check with
# every offload enabled against the committed macro ceiling.
offloadgate:
	go test -run 'TestGRO|TestCoalesce' ./internal/kernel
	go test -run 'TestTSO' ./internal/app
	go test -race -run 'TestOffload|TestShardDigestOffload' ./internal/experiment
	go run ./cmd/fsvet -root . -alloc-cross-check -offloads

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
test: lint vet allocgate fsmgate lifegate
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
