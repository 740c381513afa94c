// Command fsvet is the project's static analyzer. One run loads and
// type-checks the module once, runs every static pass (package vet),
// then checks the passes against runtime ground truth on deterministic
// beds:
//
//   - lockdep: the committed experiment mix under runtime lockdep; an
//     observed lock-order edge the static graph lacks is an analyzer
//     bug.
//   - alloc: heap allocations per event of a macro web bench and of a
//     bulk bed with every NIC offload on, and per op of the bare event
//     loop, against the ceilings in .fsvet-allocbudget.json.
//   - fsm: the fsm experiment mix under the TCP transition tracer;
//     every observed transition needs a static site, and the mix must
//     cover vet.FSMCoverageFloor of the spec's non-defensive edges.
//
// Usage:
//
//	go run ./cmd/fsvet [-root dir]
//	go run ./cmd/fsvet -write-allocbudget
//
// A run prints each finding as file:line:col: [pass] message and
// rewrites three records under the root: LOCKGRAPH_observed.json and
// FSMGRAPH_observed.json (the observed graphs, byte-stable because the
// beds are deterministic) and BENCH_vet.json (timings, counts and the
// measured allocations). Exit status is 1 if any finding remains or a
// cross-check fails, 2 on a load or I/O error, 0 otherwise.
//
// -write-allocbudget instead regenerates .fsvet-allocbudget.json from
// the current hot-path scan (preserving ceilings and notes) and exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"fastsocket/internal/app"
	"fastsocket/internal/experiment"
	"fastsocket/internal/kernel"
	"fastsocket/internal/lock"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
	"fastsocket/internal/stats"
	"fastsocket/internal/vet"
)

func main() {
	root := flag.String("root", ".", "module root to analyze")
	writeBudget := flag.Bool("write-allocbudget", false,
		"regenerate "+vet.AllocBudgetFile+" from the current hot-path scan (preserving ceilings and notes) and exit")
	flag.Parse()

	start := time.Now()
	prog, err := vet.Load(*root)
	check(err)
	budget, err := vet.LoadAllocBudget(*root)
	check(err)

	if *writeBudget {
		b := vet.GenerateAllocBudget(prog, budget)
		path := filepath.Join(*root, vet.AllocBudgetFile)
		check(os.WriteFile(path, b.JSON(), 0o644))
		fmt.Fprintf(os.Stderr, "fsvet: wrote %s (%d budgeted functions)\n", path, len(b.Functions))
		return
	}

	load := time.Since(start)
	passStart := time.Now()
	res := vet.Run(prog)
	passes := time.Since(passStart)
	for _, f := range res.Findings {
		fmt.Println(f)
	}
	fail := len(res.Findings) > 0

	files := 0
	for _, ip := range prog.Paths {
		files += len(prog.Files[ip])
	}
	bench := map[string]any{
		"tool":              "fsvet",
		"packages":          len(prog.Paths),
		"files":             files,
		"load_seconds":      load.Seconds(),
		"passes_seconds":    passes.Seconds(),
		"analysis_seconds":  (load + passes).Seconds(),
		"findings":          len(res.Findings),
		"static_lock_edges": len(res.LockGraph),
		"static_fsm_edges":  len(res.FSMGraph),
	}
	// The alloc cross-check runs first, in the state a fresh process
	// leaves, so the replays below cannot warm what it measures.
	fail = allocCrossCheck(budget, bench) || fail
	fail = lockdepCrossCheck(*root, res.LockGraph, bench) || fail
	fail = fsmCrossCheck(*root, res.FSMGraph, bench) || fail

	bench["wall_seconds"] = time.Since(start).Seconds()
	b, err := json.MarshalIndent(bench, "", "  ")
	check(err)
	check(os.WriteFile(filepath.Join(*root, "BENCH_vet.json"), append(b, '\n'), 0o644))

	if fail {
		os.Exit(1)
	}
}

// check exits with status 2 on a load or I/O error.
func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsvet: %v\n", err)
		os.Exit(2)
	}
}

// allocCrossCheck measures runtime allocations on the macro web bench,
// the bare event loop and the offload bulk bed, records them in bench,
// and reports whether any exceeds the budget's ceilings.
func allocCrossCheck(budget *vet.AllocBudget, bench map[string]any) (fail bool) {
	start := time.Now()
	macro := measureMacroAllocs()
	engine := measureEngineAllocs()
	offload := measureOffloadAllocs()
	bench["alloccheck_seconds"] = time.Since(start).Seconds()
	bench["macro_allocs_per_event"] = macro
	bench["engine_allocs_per_op"] = engine
	bench["offload_allocs_per_event"] = offload

	ceiling, engineCeiling := budget.RuntimeCeilingAllocsPerEvent, budget.RuntimeCeilingEngineAllocsPerOp
	fmt.Fprintf(os.Stderr,
		"fsvet: alloc cross-check: macro %.4f allocs/event, offloads-on bulk %.4f allocs/event (ceiling %.2f), engine %.4f allocs/op (ceiling %.2f)\n",
		macro, offload, ceiling, engine, engineCeiling)
	if macro > ceiling {
		fmt.Fprintf(os.Stderr,
			"fsvet: RUNTIME ALLOC REGRESSION: macro run allocated %.4f/event, budget ceiling is %.2f — the static scan missed a site or the budget is stale\n",
			macro, ceiling)
		fail = true
	}
	if engine > engineCeiling {
		fmt.Fprintf(os.Stderr,
			"fsvet: RUNTIME ALLOC REGRESSION: bare-loop op allocated %.4f/op, budget ceiling is %.2f\n",
			engine, engineCeiling)
		fail = true
	}
	if offload > ceiling {
		fmt.Fprintf(os.Stderr,
			"fsvet: RUNTIME ALLOC REGRESSION: bulk offload run allocated %.4f/event, budget ceiling is %.2f — the TSO/GRO/coalescing path allocates off-budget\n",
			offload, ceiling)
		fail = true
	}
	return fail
}

// lockdepCrossCheck replays the experiment mix under runtime lockdep,
// writes the observed graph, and reports whether an observed edge is
// missing from the static graph.
func lockdepCrossCheck(root string, static []vet.StaticEdge, bench map[string]any) (fail bool) {
	start := time.Now()
	observed, observedJSON := runInstrumentedSuite()
	bench["crosscheck_seconds"] = time.Since(start).Seconds()
	check(os.WriteFile(filepath.Join(root, "LOCKGRAPH_observed.json"), observedJSON, 0o644))

	cc := vet.CrossCheck(static, observed)
	fmt.Fprintln(os.Stderr, cc.Summary())
	for _, e := range cc.Missing {
		fmt.Fprintf(os.Stderr, "fsvet: ANALYZER BUG: observed edge %s -> %s not in static graph (sites: %v)\n",
			e.Outer, e.Inner, e.Sites)
	}
	for _, e := range cc.Untested {
		fmt.Fprintf(os.Stderr, "fsvet: note: static edge %s -> %s never observed (untested lock interaction)\n",
			e.Outer, e.Inner)
	}
	return !cc.OK()
}

// fsmCrossCheck replays the fsm mix under the transition tracer,
// writes the observed matrix, and reports whether a transition lacks a
// static site or the mix misses the coverage floor.
func fsmCrossCheck(root string, static []vet.FSMTransition, bench map[string]any) (fail bool) {
	start := time.Now()
	spec := vet.TCPSpec()
	observed := runFSMMix().Edges(spec.States)
	bench["fsmcheck_seconds"] = time.Since(start).Seconds()
	bench["observed_fsm_edges"] = len(observed)
	check(os.WriteFile(filepath.Join(root, "FSMGRAPH_observed.json"), stats.FormatEdges(observed), 0o644))

	cross := vet.FSMCross(spec, static, observed)
	fmt.Fprintln(os.Stderr, cross.Summary())
	for _, s := range cross.Unexpected {
		fmt.Fprintf(os.Stderr, "fsvet: ANALYZER BUG: %s\n", s)
	}
	for _, s := range cross.Uncovered {
		fmt.Fprintf(os.Stderr, "fsvet: note: spec transition never observed: %s\n", s)
	}
	if !cross.OK(vet.FSMCoverageFloor) {
		fmt.Fprintf(os.Stderr,
			"fsvet: FSM GATE FAILED: observed transitions must be a subset of the static relation and cover >= %.0f%% of its non-defensive edges\n",
			vet.FSMCoverageFloor*100)
		return true
	}
	return false
}

// runInstrumentedSuite replays the committed experiment mix — the same
// one the determinism regression gate runs — with runtime lockdep
// enabled, and returns the observed lock-order edges plus their JSON
// rendering (captured before lockdep is disabled, which resets the
// tracker). Any lockdep violation here is fatal: the experiments
// themselves must be clean before their order graph means anything.
func runInstrumentedSuite() ([]lock.ObservedEdge, []byte) {
	lock.EnableLockdep()
	defer lock.DisableLockdep()
	small := experiment.Options{
		Warmup:             10 * sim.Millisecond,
		Window:             10 * sim.Millisecond,
		ConcurrencyPerCore: 50,
	}
	for _, spec := range experiment.StockKernels() {
		experiment.Measure(spec, experiment.WebBench, 4, small)
	}
	experiment.Measure(experiment.StockKernels()[2], experiment.ProxyBench, 4, small)
	if v := lock.LockdepViolations(); len(v) != 0 {
		fmt.Fprintf(os.Stderr, "fsvet: lockdep violations during instrumented run:\n")
		for _, s := range v {
			fmt.Fprintln(os.Stderr, "  "+s)
		}
		os.Exit(2)
	}
	return lock.Lockdep().Edges(), lock.Lockdep().GraphJSON()
}

// measureMacroAllocs replays the three stock kernels' web bench (the
// same shape as fsbench simperf's macro section, at a smaller window)
// and returns heap allocations per loop event, measured with
// runtime.MemStats around the run. This is the runtime ground truth
// the static alloc pass is checked against: if the static scan says
// the hot path is pool-backed but this number is above the committed
// ceiling, either the scan missed a site or the budget is stale.
func measureMacroAllocs() float64 {
	const (
		cores  = 4
		warmup = 10 * sim.Millisecond
		window = 30 * sim.Millisecond
		conc   = 100 // per core
	)
	var totalAllocs, totalEvents uint64
	for _, spec := range experiment.StockKernels() {
		eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
		loop := eng.AddDomain("bed")
		port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
		k := kernel.New(loop, kernel.Config{
			Name:  spec.Label,
			Cores: cores,
			Mode:  spec.Mode,
			Feat:  spec.Feat,
			Seed:  1,
		})
		port.AttachKernel(k)
		srv := app.NewWebServer(k, app.WebServerConfig{})
		srv.Start()
		cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
			Targets:     []netproto.Addr{{IP: k.IPs()[0], Port: 80}},
			Concurrency: conc * cores,
			Seed:        100,
		})
		cli.Start()

		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		loop.RunUntil(warmup + window)
		runtime.ReadMemStats(&m1)
		totalAllocs += m1.Mallocs - m0.Mallocs
		totalEvents += loop.Fired()
	}
	if totalEvents == 0 {
		return 0
	}
	return float64(totalAllocs) / float64(totalEvents)
}

// measureOffloadAllocs replays the bulk-transfer workload — chunked
// 16KB requests, 64KB responses — on the Fastsocket kernel with every
// NIC offload enabled, and returns heap allocations per loop event.
// The aggregation paths (TSO super-segments, GRO frag stealing, the
// coalescing timer) are budgeted hot paths; this is their runtime
// ground truth, held to the same macro ceiling.
func measureOffloadAllocs() float64 {
	const (
		cores  = 4
		warmup = 10 * sim.Millisecond
		window = 30 * sim.Millisecond
		conc   = 40 // per core; each connection moves ~80KB
	)
	spec := experiment.StockKernels()[2]
	eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
	loop := eng.AddDomain("bed")
	port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
	k := kernel.New(loop, kernel.Config{
		Name:  spec.Label,
		Cores: cores,
		Mode:  spec.Mode,
		Feat:  spec.Feat,
		Seed:  1,
		// Generous ring, as in the experiment harness: this client has
		// no retransmit machinery, so burst tail-drops must not occur.
		RXRingSize: 8192,
		TSO:        true,
		GRO:        true,
		Coalesce:   true,
	})
	port.AttachKernel(k)
	srv := app.NewWebServer(k, app.WebServerConfig{ResponseLen: 64 * 1024})
	srv.Start()
	cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
		Targets:     []netproto.Addr{{IP: k.IPs()[0], Port: 80}},
		Concurrency: conc * cores,
		Seed:        100,
		RequestLen:  16 * 1024,
		ResponseLen: 64 * 1024,
		ChunkBytes:  1460,
	})
	cli.Start()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	loop.RunUntil(warmup + window)
	runtime.ReadMemStats(&m1)
	if loop.Fired() == 0 {
		return 0
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(loop.Fired())
}

// measureEngineAllocs returns testing.AllocsPerRun over one
// steady-state schedule/fire pair on the bare event loop — the
// engine-substrate half of the cross-check (the loop's event structs
// are pooled, so the steady state must not allocate).
func measureEngineAllocs() float64 {
	loop := sim.NewLoop()
	fn := func() {}
	op := func() {
		loop.After(sim.Microsecond, fn)
		loop.RunUntil(loop.Now() + 2*sim.Microsecond)
	}
	// Reach steady-state pool occupancy before measuring.
	for i := 0; i < 1024; i++ {
		op()
	}
	return testing.AllocsPerRun(2000, op)
}
