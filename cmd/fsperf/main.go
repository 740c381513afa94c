// Command fsperf is the repository benchmark. It runs four traffic
// mixes on the shard engine (one worker), times the host cost of
// simulating them, checks that the simulated outcome is reproducible,
// and prints every metric with its unit. See README.md.
//
// Usage:
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-trace FILE]
//
// The last line printed for each workload is a JSON object with the
// keys correct, attempted, failed and metrics. Without -trace the
// metrics are the end-to-end ones; with -trace FILE the run also
// traces the layer boundaries, the metrics are the per-layer ones, and
// the sampled span records are written to FILE. The exit status is 1
// when a correctness check fails and 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"fastsocket/internal/kernel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one traffic mix (default: all)")
	seed := fs.Uint64("seed", 1, "seed of the server kernel, client and backend")
	seconds := fs.Float64("seconds", 10, "host seconds after which a workload starts no further trial")
	traceFile := fs.String("trace", "", "run the traced variant and write sampled span records to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 0 {
		fs.Usage()
		return 2
	}
	sel := workloads
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "fsperf: unknown workload %q\n", *name)
			return 2
		}
		sel = []workload{w}
	}
	o := options{seed: *seed, shape: defaultShape(*seconds), trace: *traceFile != ""}
	return runWorkloads(sel, o, *traceFile, stdout, stderr)
}

// runWorkloads measures and prints each workload, writes the trace
// file of a traced run, and returns the exit status.
func runWorkloads(sel []workload, o options, traceFile string, stdout, stderr io.Writer) int {
	dump := traceDump{Seed: o.seed, Sample: fmt.Sprintf("canonical 4-tuple hash %% %d == 0", sampleMod)}
	ok := true
	for _, w := range sel {
		r := measure(w, o)
		r.print(stdout)
		ok = ok && r.correct()
		if o.trace {
			dump.Workloads = append(dump.Workloads, r.section)
		}
	}
	if o.trace {
		if err := writeTrace(traceFile, dump); err != nil {
			fmt.Fprintf(stderr, "fsperf: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. fail_ratio is reported through the result's attempted
// and failed counts.
var endToEnd = []metricDef{
	{"reqs_per_wall_s", "req/s"},
	{"allocs_per_req", "allocs/req"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
	{"sim_reqs_per_s", "req/sim_s"},
	{"sim_p50_us", "sim_us"},
	{"sim_p99_us", "sim_us"},
	{"sim_samples", "count"},
}

// perLayer are the traced run's metrics: self time at each traced
// boundary, the residual and its attribution, deterministic work
// counts, allocation and GC, and simulated cost.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, s := range spanNames {
		defs = append(defs,
			metricDef{s + ".self_ns", "ns"},
			metricDef{s + ".per_req", "ns/req"},
			metricDef{s + ".share", "frac"})
	}
	defs = append(defs, []metricDef{
		{"engine.residual.share", "frac"},
		{"engine.residual.sim_frac", "frac"},
		{"engine.residual.shard_frac", "frac"},
		{"engine.residual.unattributed_frac", "frac"},
		{"trace.overhead_frac", "frac"},
		{"sim.fire_ns", "ns"},
		{"shard.post_ns", "ns"},
		{"sim.events_per_req", "count/req"},
		{"sim.cancel_frac", "frac"},
		{"shard.mail_per_req", "count/req"},
		{"shard.epochs_per_req", "count/req"},
		{"cpu.works_per_req", "count/req"},
		{"kernel.rx_pkts_per_req", "count/req"},
		{"kernel.pkts_per_napi_poll", "count"},
		{"nic.tx_pkts_per_req", "count/req"},
		{"tcb.est_lookups_per_req", "count/req"},
		{"tcb.est_scan_per_lookup", "count"},
		{"tcb.listen_scan_per_lookup", "count"},
		{"epoll.notifies_per_req", "count/req"},
		{"epoll.events_per_wait", "count"},
		{"vfs.allocs_per_req", "count/req"},
		{"netproto.pool_miss_frac", "frac"},
		{"go.bytes_per_req", "B/req"},
		{"go.gc_cpu_frac", "frac"},
		{"cpu.util_mean", "frac"},
		{"cpu.util_max", "frac"},
		{"cpu.spin_frac", "frac"},
	}...)
	for _, l := range kernel.LockNames {
		defs = append(defs, metricDef{"lock." + l + ".wait_us_per_req", "sim_us/req"})
	}
	return append(defs, []metricDef{
		{"lock.contended_frac", "frac"},
		{"cache.miss_rate", "frac"},
		{"cache.bounces_per_req", "count/req"},
		{"kernel.accept_empty_frac", "frac"},
		{"kernel.soft_steers_per_req", "count/req"},
		{"kernel.active_local_frac", "frac"},
		{"nic.ring_max", "count"},
	}...)
}()

// result is one workload's measurement.
type result struct {
	w                 workload
	seed              uint64
	shape             shape
	untraced, traced  []trial
	attempted, failed uint64
	metrics           map[string]float64
	defs              []metricDef
	notes             []string // information printed beside the metrics
	errs              []error
	section           traceSection // the last traced trial's spans
}

func (r *result) correct() bool { return len(r.errs) == 0 }

// measure runs trials of one workload until the budget is spent. A
// traced run alternates untraced and traced trials, so host drift
// reaches both halves alike.
func measure(w workload, o options) *result {
	r := &result{w: w, seed: o.seed, shape: o.shape, metrics: map[string]float64{}}
	start := time.Now()
	for i := 0; ; i++ {
		t := runTrial(w, o, i, o.trace && i%2 == 1)
		if t.tracer != nil {
			r.traced = append(r.traced, t)
		} else {
			r.untraced = append(r.untraced, t)
		}
		if t.err != nil {
			r.errs = append(r.errs, t.err)
		}
		enough := len(r.untraced) >= o.shape.minTrials
		if o.trace {
			enough = enough && len(r.traced) == len(r.untraced)
		}
		if enough && time.Since(start) >= o.shape.budget {
			break
		}
	}
	ref := r.untraced[0].digest
	for _, ts := range [][]trial{r.untraced, r.traced} {
		for _, t := range ts {
			if t.digest != ref {
				r.errs = append(r.errs, fmt.Errorf("trial %d (traced %v): simulated digest %s differs from the first trial's %s",
					t.idx, t.tracer != nil, t.digest, ref))
			}
		}
	}
	for _, t := range r.untraced {
		r.attempted += t.delta.completed + t.delta.errors
		r.failed += t.delta.errors
	}
	if o.trace {
		r.defs = perLayer
		r.layerMetrics()
	} else {
		r.defs = endToEnd
		r.endToEndMetrics()
	}
	return r
}

// windowRates pools the per-window rates of a set of trials.
func windowRates(ts []trial) []float64 {
	var rates []float64
	for _, t := range ts {
		rates = append(rates, t.rates...)
	}
	return rates
}

// endToEndMetrics reduces the untraced trials. Host wall time drifts
// over seconds on a shared machine, and a quiet host adds no time, so
// the throughput is the 90th percentile of the per-window rates and
// set-up time the median over trials.
func (r *result) endToEndMetrics() {
	rates := windowRates(r.untraced)
	var allocs, setups []float64
	for _, t := range r.untraced {
		allocs = append(allocs, ratio(float64(t.mallocs), float64(t.delta.completed)))
		setups = append(setups, t.setup.Seconds())
	}
	ref := r.untraced[0]
	last := r.untraced[len(r.untraced)-1]
	m := r.metrics
	m["reqs_per_wall_s"] = quantile(rates, 0.9)
	m["allocs_per_req"] = quantile(allocs, 0.5)
	m["live_heap_mb"] = float64(last.heap) / 1e6
	m["setup_s"] = quantile(setups, 0.5)
	m["sim_reqs_per_s"] = float64(ref.delta.completed) / r.shape.measured().Seconds()
	m["sim_p50_us"] = latencyPercentile(&ref.hist, 50)
	m["sim_p99_us"] = latencyPercentile(&ref.hist, 99)
	m["sim_samples"] = float64(ref.hist.Count())
	r.notes = append(r.notes,
		fmt.Sprintf("reqs_per_wall_s over %d windows: median %.0f, q1 %.0f, q3 %.0f",
			len(rates), quantile(rates, 0.5), quantile(rates, 0.25), quantile(rates, 0.75)),
		fmt.Sprintf("setup_s over %d trials: min %.4f, max %.4f", len(setups), quantile(setups, 0), quantile(setups, 1)),
		fmt.Sprintf("fail_ratio %g (%d of %d requests failed)", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted))
}

// layerMetrics reduces a traced run: span self time from the traced
// trials, work counts from the first untraced trial (every trial has
// the same simulated outcome), and the overhead of tracing from the
// two halves' throughput.
func (r *result) layerMetrics() {
	m := r.metrics
	var spans [numSpans]spanTotal
	var wall time.Duration
	var reqs, events, mail uint64
	for _, t := range r.traced {
		for k, s := range t.tracer.totals {
			spans[k].calls += s.calls
			spans[k].timed += s.timed
			spans[k].self += s.self
		}
		wall += t.wall
		reqs += t.delta.completed
		events += t.delta.events
		mail += t.delta.mail
	}
	residual := 1.0
	for k, s := range spans {
		share := ratio(s.selfNs(), float64(wall))
		m[spanNames[k]+".self_ns"] = ratio(float64(s.self), float64(s.timed))
		m[spanNames[k]+".per_req"] = ratio(s.selfNs(), float64(reqs))
		m[spanNames[k]+".share"] = share
		residual -= share
	}
	if residual < 0 {
		r.errs = append(r.errs, fmt.Errorf("span self times exceed the traced wall time (residual %.4f)", residual))
	}
	fire, post := fireNs(), postNs()
	simFrac := float64(events) * fire / float64(wall)
	shardFrac := float64(mail) * post / float64(wall)
	m["engine.residual.share"] = residual
	m["engine.residual.sim_frac"] = simFrac
	m["engine.residual.shard_frac"] = shardFrac
	m["engine.residual.unattributed_frac"] = residual - simFrac - shardFrac
	m["sim.fire_ns"] = fire
	m["shard.post_ns"] = post
	m["trace.overhead_frac"] = 1 - ratio(quantile(windowRates(r.traced), 0.9), quantile(windowRates(r.untraced), 0.9))

	ref := r.untraced[0]
	countMetrics(ref.delta, ref.ringMax, r.shape.measured(), m)
	var gc, total float64
	var bytesPerReq []float64
	for _, t := range r.untraced {
		bytesPerReq = append(bytesPerReq, ratio(float64(t.bytes), float64(t.delta.completed)))
		gc += t.gcCPU
		total += t.totalCPU
	}
	m["go.bytes_per_req"] = quantile(bytesPerReq, 0.5)
	m["go.gc_cpu_frac"] = ratio(gc, total)
	r.section = r.traced[len(r.traced)-1].tracer.section(r.w.name)
	r.notes = append(r.notes, fmt.Sprintf("traced %d windows over %v of host time; %d span records kept",
		len(windowRates(r.traced)), wall.Round(time.Millisecond), len(r.section.Spans)))
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the machine-readable summary printed last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) print(out io.Writer) {
	mode := "untraced"
	if len(r.traced) > 0 {
		mode = "traced"
	}
	fmt.Fprintf(out, "fsperf %s (%s) seed=%d trials=%d+%d traced, %d x %v windows after %v warm-up, digest %s\n",
		r.w.name, mode, r.seed, len(r.untraced), len(r.traced), r.shape.windows,
		r.shape.window, r.shape.warmup, r.untraced[0].digest)
	line := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range r.defs {
		v := r.metrics[d.name]
		fmt.Fprintf(out, "  %-36s %16.6g %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "  # %s\n", n)
	}
	for _, err := range r.errs {
		fmt.Fprintf(out, "  CHECK FAILED: %v\n", err)
	}
	data, err := json.Marshal(line)
	if err != nil {
		// Every value is finite (ratio guards zero denominators), so
		// encoding cannot fail short of a bug.
		panic(fmt.Sprintf("fsperf: encode result: %v", err))
	}
	fmt.Fprintf(out, "%s\n", data)
}
