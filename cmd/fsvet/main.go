// Command fsvet runs the types-aware analysis suite over the module:
// whole-program type-check, the interprocedural passes, and the
// static↔runtime cross-checks (lockdep order graph, allocation
// ceilings, TCP state-machine coverage).
//
//	fsvet [-root dir] [-json] [-baseline file] [-lockgraph]
//	      [-lockdep-cross-check] [-write-observed file]
//	      [-alloc-cross-check] [-write-allocbudget]
//	      [-fsm-cross-check] [-write-fsmgraph file] [-bench-out file]
//
// Exit status is 1 if any unbaselined finding remains, the lockdep
// cross-check sees an observed lock-order edge the static graph
// missed (an analyzer bug), the alloc cross-check measures more
// runtime allocations than the committed budget's ceilings allow, or
// the fsm cross-check observes a TCP state transition outside the
// statically extracted relation / fails the spec coverage floor;
// 0 otherwise.
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
	var (
		root       = flag.String("root", ".", "module root to analyze")
		jsonOut    = flag.Bool("json", false, "emit findings and lock graph as JSON")
		baseline   = flag.String("baseline", "", "baseline file of accepted findings (JSON)")
		lockgraph  = flag.Bool("lockgraph", false, "print the static lock-order graph and exit")
		crosscheck = flag.Bool("lockdep-cross-check", false,
			"run the committed experiment suite under runtime lockdep and diff observed vs static lock-order edges")
		writeObserved = flag.String("write-observed", "", "write the observed lockdep graph JSON to this file (implies -lockdep-cross-check)")
		allocCheck    = flag.Bool("alloc-cross-check", false,
			"measure runtime allocations (macro web-bench run and bare-loop op) and fail if either exceeds the budget's runtime ceilings")
		writeBudget = flag.Bool("write-allocbudget", false,
			"regenerate "+vet.AllocBudgetFile+" from the current hot-path scan (preserving ceilings and notes) and exit")
		offloads = flag.Bool("offloads", false,
			"with -alloc-cross-check: also measure the bulk workload with TSO/GRO/IRQ-coalescing enabled against the same macro ceiling")
		fsmCheck = flag.Bool("fsm-cross-check", false,
			"replay the fsm experiment mix under the runtime transition tracer and diff observed vs static TCP state transitions")
		writeFSMGraph = flag.String("write-fsmgraph", "", "write the observed TCP transition matrix JSON to this file (implies -fsm-cross-check)")
		benchOut      = flag.String("bench-out", "", "write analysis timing JSON to this file")
	)
	flag.Parse()

	start := time.Now()
	prog, err := vet.Load(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsvet: %v\n", err)
		os.Exit(2)
	}

	if *writeBudget {
		prev, err := vet.LoadAllocBudget(*root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsvet: %v\n", err)
			os.Exit(2)
		}
		b := vet.GenerateAllocBudget(prog, prev)
		path := filepath.Join(*root, vet.AllocBudgetFile)
		if err := os.WriteFile(path, b.JSON(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "fsvet: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "fsvet: wrote %s (%d budgeted functions)\n", path, len(b.Functions))
		return
	}

	load := time.Since(start)
	passStart := time.Now()
	res := vet.Run(prog)
	passes := time.Since(passStart)
	analysis := time.Since(start)

	if *lockgraph {
		b, err := json.MarshalIndent(res.LockGraph, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsvet: %v\n", err)
			os.Exit(2)
		}
		os.Stdout.Write(append(b, '\n'))
		return
	}

	findings := res.Findings
	var stale []vet.Finding
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsvet: %v\n", err)
			os.Exit(2)
		}
		base, err := vet.ParseBaseline(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsvet: %v\n", err)
			os.Exit(2)
		}
		findings, stale = vet.ApplyBaseline(findings, base)
	}

	fail := false
	if *jsonOut {
		out := &vet.Result{Findings: findings, LockGraph: res.LockGraph, FSMGraph: res.FSMGraph}
		os.Stdout.Write(out.JSON())
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fail = true
	}
	for _, f := range stale {
		fmt.Fprintf(os.Stderr, "fsvet: stale baseline entry (fixed? prune it): %s\n", f)
	}

	var ccSeconds float64
	if *crosscheck || *writeObserved != "" {
		ccStart := time.Now()
		observed, observedJSON := runInstrumentedSuite()
		ccSeconds = time.Since(ccStart).Seconds()
		if *writeObserved != "" {
			if err := os.WriteFile(*writeObserved, observedJSON, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "fsvet: %v\n", err)
				os.Exit(2)
			}
		}
		cc := vet.CrossCheck(res.LockGraph, observed)
		fmt.Fprintln(os.Stderr, cc.Summary())
		for _, e := range cc.Missing {
			fmt.Fprintf(os.Stderr, "fsvet: ANALYZER BUG: observed edge %s -> %s not in static graph (sites: %v)\n",
				e.Outer, e.Inner, e.Sites)
		}
		for _, e := range cc.Untested {
			fmt.Fprintf(os.Stderr, "fsvet: note: static edge %s -> %s never observed (untested lock interaction)\n",
				e.Outer, e.Inner)
		}
		if !cc.OK() {
			fail = true
		}
	}

	var fsmSeconds float64
	var fsmObserved int
	if *fsmCheck || *writeFSMGraph != "" {
		fsmStart := time.Now()
		spec := vet.TCPSpec()
		mix := runFSMMix()
		fsmSeconds = time.Since(fsmStart).Seconds()
		observed := mix.Edges(spec.States)
		fsmObserved = len(observed)
		if *writeFSMGraph != "" {
			if err := os.WriteFile(*writeFSMGraph, stats.FormatEdges(observed), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "fsvet: %v\n", err)
				os.Exit(2)
			}
		}
		cross := vet.FSMCross(spec, res.FSMGraph, observed)
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
			fail = true
		}
	}

	var macroAllocs, engineAllocs, offloadAllocs float64
	if *allocCheck {
		budget, err := vet.LoadAllocBudget(*root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsvet: %v\n", err)
			os.Exit(2)
		}
		macroAllocs = measureMacroAllocs()
		engineAllocs = measureEngineAllocs()
		fmt.Fprintf(os.Stderr,
			"fsvet: alloc cross-check: macro %.4f allocs/event (ceiling %.2f), engine %.4f allocs/op (ceiling %.2f)\n",
			macroAllocs, budget.RuntimeCeilingAllocsPerEvent,
			engineAllocs, budget.RuntimeCeilingEngineAllocsPerOp)
		if macroAllocs > budget.RuntimeCeilingAllocsPerEvent {
			fmt.Fprintf(os.Stderr,
				"fsvet: RUNTIME ALLOC REGRESSION: macro run allocated %.4f/event, budget ceiling is %.2f — the static scan missed a site or the budget is stale\n",
				macroAllocs, budget.RuntimeCeilingAllocsPerEvent)
			fail = true
		}
		if engineAllocs > budget.RuntimeCeilingEngineAllocsPerOp {
			fmt.Fprintf(os.Stderr,
				"fsvet: RUNTIME ALLOC REGRESSION: bare-loop op allocated %.4f/op, budget ceiling is %.2f\n",
				engineAllocs, budget.RuntimeCeilingEngineAllocsPerOp)
			fail = true
		}
		if *offloads {
			offloadAllocs = measureOffloadAllocs()
			fmt.Fprintf(os.Stderr,
				"fsvet: alloc cross-check (offloads on): bulk %.4f allocs/event (ceiling %.2f)\n",
				offloadAllocs, budget.RuntimeCeilingAllocsPerEvent)
			if offloadAllocs > budget.RuntimeCeilingAllocsPerEvent {
				fmt.Fprintf(os.Stderr,
					"fsvet: RUNTIME ALLOC REGRESSION: bulk offload run allocated %.4f/event, budget ceiling is %.2f — the TSO/GRO/coalescing path allocates off-budget\n",
					offloadAllocs, budget.RuntimeCeilingAllocsPerEvent)
				fail = true
			}
		}
	}

	if *benchOut != "" {
		files := 0
		for _, ip := range prog.Paths {
			files += len(prog.Files[ip])
		}
		// Honest before/after for the concurrent pass scheduler: rerun
		// the same passes serially on the already-loaded program and
		// report both pass-only wall times side by side (load/type-check
		// time is shared and reported separately).
		serialStart := time.Now()
		vet.RunSerial(prog)
		serial := time.Since(serialStart)
		bench := map[string]any{
			"tool":                  "fsvet",
			"packages":              len(prog.Paths),
			"files":                 files,
			"analysis_seconds":      analysis.Seconds(),
			"load_seconds":          load.Seconds(),
			"passes_seconds":        passes.Seconds(),
			"passes_serial_seconds": serial.Seconds(),
			"crosscheck_seconds":    ccSeconds,
			"findings":              len(findings),
			"static_lock_edges":     len(res.LockGraph),
			"static_fsm_edges":      len(res.FSMGraph),
		}
		if *fsmCheck || *writeFSMGraph != "" {
			bench["fsmcheck_seconds"] = fsmSeconds
			bench["observed_fsm_edges"] = fsmObserved
		}
		if *allocCheck {
			bench["macro_allocs_per_event"] = macroAllocs
			bench["engine_allocs_per_op"] = engineAllocs
			if *offloads {
				bench["offload_allocs_per_event"] = offloadAllocs
			}
		}
		b, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsvet: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*benchOut, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "fsvet: %v\n", err)
			os.Exit(2)
		}
	}

	if fail {
		os.Exit(1)
	}
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
