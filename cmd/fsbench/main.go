// Command fsbench regenerates every table and figure of the paper's
// evaluation (§4) against the simulated kernels:
//
//	fsbench figure3    production-trace CPU utilization replay (+capacity)
//	fsbench figure4a   Nginx throughput vs cores
//	fsbench figure4b   HAProxy throughput vs cores
//	fsbench table1     lockstat contention counts per feature set
//	fsbench figure5    NIC delivery features: throughput, L3 miss, locality
//	fsbench all        everything above
//
// Results are deterministic for a given -seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"fastsocket/internal/experiment"
	"fastsocket/internal/fault"
	"fastsocket/internal/sim"
	"fastsocket/internal/sweep"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: fsbench [flags] <experiment>...

experiments:
  figure3    24h production-trace replay: per-core CPU utilization box
             plots and the effective-capacity improvement (§4.2.1)
  figure4a   Nginx connections/s vs cores for base 2.6.32 / 3.13 /
             Fastsocket (§4.2.2)
  figure4b   HAProxy connections/s vs cores (§4.2.3)
  table1     lock contention counts per Fastsocket feature set (§4.2.4)
  figure5    packet-delivery configurations: throughput, L3 miss rate
             (5a) and local packet proportion (5b) (§4.2.4)
  longlived  keep-alive contrast validating §1's claim that long-lived
             connections do not hit the scalability wall
  synflood   spoofed SYN flood with and without tcp_syncookies (the
             "Security" production requirement of §1)
  ablation   each Fastsocket component's contribution in isolation
  offload    NIC offload ablation: TSO / GRO / IRQ coalescing on the
             bulk-transfer workload (per-byte event cost)
  losssweep  goodput + p99 connection latency vs wire loss rate,
             baseline vs Fastsocket (deterministic fault injection)
  overload   offered load ramped past capacity: accept throughput
             plateaus with syncookies, collapses without
  lifecycle  host crash/drain/restart and rolling worker restarts under
             live load: availability time-series, recovery time, and
             graceful-vs-hard verdicts (fixed scale; writes
             BENCH_lifecycle.json)
  all        run everything

flags:
`)
	flag.PrintDefaults()
}

func main() {
	var (
		warmupMS    = flag.Int("warmup", 400, "warmup per measurement (simulated ms)")
		windowMS    = flag.Int("window", 400, "measurement window (simulated ms)")
		conc        = flag.Int("concurrency", 500, "client connections in flight per server core")
		seed        = flag.Uint64("seed", 1, "simulation seed")
		coresFlag   = flag.String("cores", "", "comma-separated core counts for figure4 (default 1,4,8,12,16,20,24)")
		quick       = flag.Bool("quick", false, "small windows for a fast smoke run")
		parallel    = flag.Int("parallel", runtime.NumCPU(), "host workers for independent sweep points (1 = serial; results are identical)")
		shards      = flag.Int("shards", 0, "shard workers inside each simulation (0 or 1 = serial; results are identical at any value)")
		faultSpec   = flag.String("faults", "", "fault plan for ad-hoc robustness runs, e.g. loss=0.01,ring=256,allocfail=0.001 (applies to every experiment run)")
		offloadSpec = flag.String("offloads", "", "NIC offloads to enable on the machine under test: comma list of tso,gro,coalesce, or 'all' (applies to every experiment run; default none)")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}

	o := experiment.Options{
		Warmup:             sim.Time(*warmupMS) * sim.Millisecond,
		Window:             sim.Time(*windowMS) * sim.Millisecond,
		ConcurrencyPerCore: *conc,
		Seed:               *seed,
	}
	if *faultSpec != "" {
		plan, err := fault.ParsePlan(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsbench: %v\n", err)
			os.Exit(2)
		}
		o.Fault = &plan
	}
	if *offloadSpec != "" {
		off, err := parseOffloads(*offloadSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsbench: %v\n", err)
			os.Exit(2)
		}
		o.Offloads = off
	}
	o.Shards = *shards
	if *parallel > 1 {
		// Sweep points (kernel x cores grid cells, table columns) are
		// whole, independently-seeded simulations; internal/sweep runs
		// them on parallel host workers without changing any result.
		// With the shard engine active inside each point, the outer
		// sweep shrinks so the two layers share the host budget.
		o.Runner = sweep.Parallel{Workers: sweep.Budget(*parallel, *shards)}
	}
	f3 := experiment.Figure3Options{Seed: *seed}
	if *quick {
		o.Warmup = 15 * sim.Millisecond
		o.Window = 40 * sim.Millisecond
		o.ConcurrencyPerCore = 150
		f3.HourLen = 8 * sim.Millisecond
	}
	cores := parseCores(*coresFlag)

	run := map[string]func(){
		"figure3": func() {
			fmt.Print(experiment.Figure3(f3).Format())
		},
		"figure4a": func() {
			r := experiment.Figure4(experiment.WebBench, cores, o)
			fmt.Print(r.Format())
			fmt.Print(r.Chart())
		},
		"figure4b": func() {
			r := experiment.Figure4(experiment.ProxyBench, cores, o)
			fmt.Print(r.Format())
			fmt.Print(r.Chart())
		},
		"table1": func() {
			fmt.Print(experiment.Table1(o).Format())
		},
		"figure5": func() {
			fmt.Print(experiment.Figure5(o).Format())
		},
		"longlived": func() {
			fmt.Print(experiment.LongLived(24, 100, o).Format())
		},
		"synflood": func() {
			fmt.Print(experiment.SynFlood(0, o).Format())
		},
		"ablation": func() {
			fmt.Print(experiment.Ablation(o).Format())
		},
		"offload": func() {
			fmt.Print(experiment.OffloadAblation(o).Format())
		},
		"losssweep": func() {
			fmt.Print(experiment.LossSweep(nil, nil, o).Format())
		},
		"overload": func() {
			fmt.Print(experiment.Overload(o).Format())
		},
		"simperf": func() {
			fmt.Print(runSimperf())
		},
		"lifecycle": func() {
			fmt.Print(runLifecycleBench())
		},
	}
	order := []string{"figure3", "figure4a", "figure4b", "table1", "figure5", "longlived", "synflood", "ablation", "offload", "losssweep", "overload"}

	args := flag.Args()
	if len(args) == 1 && args[0] == "all" {
		args = order
	}
	for _, name := range args {
		name = strings.ToLower(name)
		// figure5a and figure5b are two panels of one experiment.
		if name == "figure5a" || name == "figure5b" || name == "capacity" {
			switch name {
			case "capacity":
				name = "figure3"
			default:
				name = "figure5"
			}
		}
		fn, ok := run[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "fsbench: unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
		start := time.Now()
		fn()
		fmt.Printf("(%s completed in %v wall time)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

// parseOffloads reads the -offloads spec.
func parseOffloads(s string) (experiment.Offloads, error) {
	var f experiment.Offloads
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return experiment.AllOffloads(), nil
	}
	for _, part := range strings.Split(s, ",") {
		switch strings.ToLower(strings.TrimSpace(part)) {
		case "tso":
			f.TSO = true
		case "gro":
			f.GRO = true
		case "coalesce", "coal":
			f.Coalesce = true
		case "":
		default:
			return f, fmt.Errorf("unknown offload %q (want tso, gro, coalesce or all)", part)
		}
	}
	return f, nil
}

func parseCores(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "fsbench: bad core count %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}
