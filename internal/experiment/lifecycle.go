package experiment

import (
	"fmt"
	"strings"

	"fastsocket/internal/app"
	"fastsocket/internal/fault"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
	"fastsocket/internal/tcp"
)

// The lifecycle experiments measure what the paper's robustness story
// only asserts: how a Fastsocket frontend behaves when the machine —
// or one of its listen_spawn workers — crashes, drains, and restarts
// under live closed-loop load. The client plane is the production
// one: connection-establishment timeouts, capped exponential backoff
// with deterministic jitter, and a per-request retry budget, so
// "availability" means what an end user sees (requests that
// eventually complete) rather than what a single TCP attempt sees.

// LifecycleSlice is one observation window of the time-series.
type LifecycleSlice struct {
	End          sim.Time // slice end, relative to the first lifecycle event
	GoodputCPS   float64  // requests completed per second in the slice
	Availability float64  // GoodputCPS over the pre-event baseline
	Errors       uint64   // requests whose retry budget exhausted
	Retries      uint64   // failed attempts answered by a fresh connection
	P99          sim.Time // p99 request latency inside the slice
}

// LifecycleRun is one scenario's full time-series plus the recovery
// verdict and the kernel-side lifecycle accounting.
type LifecycleRun struct {
	Label       string
	BaselineCPS float64
	Slices      []LifecycleSlice
	// RecoveryTime is the time from the first lifecycle event until
	// the end of the earliest slice from which the mean availability
	// of the remaining series is >= RecoveryAvailability; -1 if
	// goodput never recovers.
	RecoveryTime sim.Time
	// MinAvailability is the deepest dip of the series.
	MinAvailability float64
	// Aborted counts force-closed in-flight connections: CrashAborts
	// for crash scenarios, AbortedOnDrain for drain scenarios.
	Aborted uint64
	// Drained counts connections that finished normally during drains.
	Drained uint64
	// ClientTimeouts counts establishment attempts that exhausted
	// their SYN retries (the client-side ETIMEDOUT).
	ClientTimeouts uint64
	// DeadSegs counts segments that reached the host while it was down.
	DeadSegs uint64
	Restarts uint64
}

// LifecycleResult is one experiment's set of compared runs.
type LifecycleResult struct {
	Title string
	Cores int
	Runs  []LifecycleRun
}

// RecoveryAvailability is the goodput fraction of baseline at which a
// slice counts as recovered.
const RecoveryAvailability = 0.99

// lifecycleDefaults sizes the bed for an availability measurement:
// unlike the throughput experiments, which saturate the server on
// purpose, availability is only meaningful with headroom — a
// closed loop driven deep into overload measures its own queueing
// drift, not the lifecycle event. 150 connections per core keeps the
// 8-core bed near ~80% utilization.
func lifecycleDefaults(o Options) Options {
	if o.ConcurrencyPerCore == 0 {
		o.ConcurrencyPerCore = 150
	}
	return o.withDefaults()
}

// lifecycleBed is the shared testbed: an n-core Fastsocket web server
// with an armed lifecycle plan, driven by a closed-loop client with
// the full retry plane.
func lifecycleBed(cores int, plan *fault.Plan, o Options) (*fabric, *kernel.Kernel, *app.HTTPLoad) {
	fab := newFabric(o.Shards, "server", "client")
	// A small production-style backlog per listen clone, not the
	// benchmark-tuned 65536: recovery from an outage only converges if
	// an overloaded listener sheds SYNs once its backlog fills. An
	// unbounded accept queue is bistable — a worker that falls behind
	// accumulates queued connections whose clients retransmit into it
	// and then abort, and that overhead keeps it behind forever
	// (DESIGN.md §4.10).
	tcpp := tcp.DefaultParams()
	tcpp.Backlog = 16
	k := kernel.New(fab.loops[0], kernel.Config{
		Cores:      cores,
		Mode:       kernel.Fastsocket,
		Feat:       kernel.FullFastsocket(),
		TCP:        tcpp,
		IPs:        serverIPs(min(o.ListenIPs, cores)),
		Seed:       o.Seed,
		RXRingSize: 8192,
		Fault:      plan,
	})
	fab.netw.Port(0).AttachKernel(k)
	app.NewWebServer(k, app.WebServerConfig{}).Start()
	var targets []netproto.Addr
	for _, ip := range k.IPs() {
		targets = append(targets, netproto.Addr{IP: ip, Port: 80})
	}
	// The retry plane's clocks scale with the harness window so the
	// shrunk test-suite windows exercise the same regimes (backoff
	// engaged, budget partially consumed) as the full-size CLI run.
	rto := o.Window / 40
	if rto < sim.Millisecond {
		rto = sim.Millisecond
	}
	cli := app.NewHTTPLoad(fab.loops[1], fab.netw.Port(1), app.HTTPLoadConfig{
		Targets:     targets,
		Concurrency: o.ConcurrencyPerCore * cores,
		Seed:        o.Seed + 99,
		RTO:         rto,
		MaxSYNRetry: 2,
		Retransmit:  true,
		BackoffCap:  8 * rto,
		RetryBudget: 4,
	})
	return fab, k, cli
}

// runLifecycle drives one scenario: warmup, one baseline window, then
// sliced observation from the first event onward.
func runLifecycle(label string, cores int, plan *fault.Plan, eventAt sim.Time, slices int, o Options) LifecycleRun {
	fab, k, cli := lifecycleBed(cores, plan, o)
	defer fab.close()
	cli.Start()
	fab.run(o.Warmup)

	// Baseline: the pre-event goodput that availability is judged
	// against.
	base0 := cli.Completed
	fab.run(eventAt)
	baseWindow := eventAt - o.Warmup
	baseline := float64(cli.Completed-base0) / baseWindow.Seconds()

	run := LifecycleRun{Label: label, BaselineCPS: baseline, MinAvailability: 1}
	sliceLen := o.Window / 4
	for si := 0; si < slices; si++ {
		completed0, errs0, retries0 := cli.Completed, cli.Errors, cli.Retries
		cli.Latencies.Reset()
		fab.run(eventAt + sim.Time(si+1)*sliceLen)
		goodput := float64(cli.Completed-completed0) / sliceLen.Seconds()
		avail := 0.0
		if baseline > 0 {
			avail = goodput / baseline
		}
		if avail < run.MinAvailability {
			run.MinAvailability = avail
		}
		run.Slices = append(run.Slices, LifecycleSlice{
			End:          sim.Time(si+1) * sliceLen,
			GoodputCPS:   goodput,
			Availability: avail,
			Errors:       cli.Errors - errs0,
			Retries:      cli.Retries - retries0,
			P99:          cli.Latencies.Percentile(99),
		})
	}
	// Recovery: the earliest slice from which the mean availability of
	// the rest of the series reaches the threshold. The mean — not
	// every individual slice — because a 10ms slice carries ±2% of
	// sampling noise either side of steady state; a per-slice rule
	// would let one noisy slice near the series end mask a recovery
	// that plainly happened.
	run.RecoveryTime = -1
	sum, n := 0.0, 0.0
	for i := len(run.Slices) - 1; i >= 0; i-- {
		sum += run.Slices[i].Availability
		n++
		if sum/n >= RecoveryAvailability {
			run.RecoveryTime = run.Slices[i].End
		}
	}
	st := k.Stats()
	run.Drained = st.DrainedConns
	run.ClientTimeouts = cli.ConnTimeouts
	run.DeadSegs = st.DeadSegs
	run.Restarts = st.HostRestarts
	if st.CrashAborts > 0 {
		run.Aborted = st.CrashAborts
	} else {
		run.Aborted = st.AbortedOnDrain
	}
	return run
}

// CrashRecovery measures a whole-host hard crash with cold restart
// against a graceful drain-then-restart of the same machine: the
// availability dip, the error burst, and the measured recovery time
// of each. The drain's deadline gives in-flight requests one slice to
// finish, so it must abort strictly fewer connections than the crash.
func CrashRecovery(o Options) LifecycleResult {
	o = lifecycleDefaults(o)
	const cores = 8
	eventAt := o.Warmup + o.Window
	downFor := o.Window / 4
	res := LifecycleResult{Title: "crash vs drain recovery", Cores: cores}
	res.Runs = make([]LifecycleRun, 2)
	o.Runner.Run(2, func(i int) {
		if i == 0 {
			plan := &fault.Plan{Lifecycle: fault.LifecyclePlan{Events: []fault.LifecycleEvent{
				{At: eventAt, Action: fault.HostCrash, RestartAfter: downFor},
			}}}
			res.Runs[0] = runLifecycle("crash+restart", cores, plan, eventAt, 12, o)
		} else {
			// The drain spends its whole downtime budget on the
			// deadline, then restarts immediately after the sweep, so
			// both scenarios re-listen at the same absolute time and
			// the comparison isolates graceful-vs-hard, not downtime.
			plan := &fault.Plan{Lifecycle: fault.LifecyclePlan{Events: []fault.LifecycleEvent{
				{At: eventAt, Action: fault.HostDrain, Deadline: downFor, RestartAfter: 1},
			}}}
			res.Runs[1] = runLifecycle("drain+restart", cores, plan, eventAt, 12, o)
		}
	})
	return res
}

// RollingRestart measures a rolling restart of the eight listen_spawn
// workers, one at a time — the production deployment move — in both
// flavours: graceful per-worker drains versus per-worker crashes with
// the same downtime. With 1/8 of the workers out at any moment the
// availability dip is bounded near 7/8, and the drain flavour must
// abort strictly fewer in-flight connections than the crash flavour.
func RollingRestart(o Options) LifecycleResult {
	o = lifecycleDefaults(o)
	const cores = 8
	eventAt := o.Warmup + o.Window
	stagger := o.Window / 4
	deadline := o.Window / 8
	res := LifecycleResult{Title: "rolling restart of 8 workers", Cores: cores}
	res.Runs = make([]LifecycleRun, 2)
	// Slices cover the whole rolling window (8 workers x stagger) plus
	// a settling tail.
	slices := 8*4 + 8
	o.Runner.Run(2, func(i int) {
		var evs []fault.LifecycleEvent
		for w := 0; w < cores; w++ {
			at := eventAt + sim.Time(w)*stagger
			if i == 0 {
				// Drain: listeners off at T, sweep at T+deadline,
				// restart at T+deadline+deadline.
				evs = append(evs, fault.LifecycleEvent{
					At: at, Action: fault.WorkerDrain, Worker: w,
					Deadline: deadline, RestartAfter: deadline,
				})
			} else {
				// Crash: instant kill at T, restart after the same
				// total downtime as the drain flavour.
				evs = append(evs, fault.LifecycleEvent{
					At: at, Action: fault.WorkerCrash, Worker: w,
					RestartAfter: 2 * deadline,
				})
			}
		}
		label := "rolling-drain"
		if i == 1 {
			label = "rolling-crash"
		}
		plan := &fault.Plan{Lifecycle: fault.LifecyclePlan{Events: evs}}
		res.Runs[i] = runLifecycle(label, cores, plan, eventAt, slices, o)
	})
	return res
}

// Format renders the time-series and verdicts.
func (r LifecycleResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Lifecycle — %s, %d-core Fastsocket web server\n", r.Title, r.Cores)
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%s: baseline %.1fk cps, min availability %.1f%%, ",
			run.Label, run.BaselineCPS/1000, 100*run.MinAvailability)
		if run.RecoveryTime >= 0 {
			fmt.Fprintf(&b, "recovered (>=%.0f%%) in %v\n", 100*RecoveryAvailability, run.RecoveryTime)
		} else {
			b.WriteString("never recovered in the observed window\n")
		}
		fmt.Fprintf(&b, "  aborted %d, drained %d, client timeouts %d, dead segs %d, restarts %d\n",
			run.Aborted, run.Drained, run.ClientTimeouts, run.DeadSegs, run.Restarts)
		fmt.Fprintf(&b, "  %10s %10s %7s %7s %8s %10s\n", "t", "goodput", "avail", "errors", "retries", "p99")
		for _, s := range run.Slices {
			fmt.Fprintf(&b, "  %10v %9.1fk %6.1f%% %7d %8d %10v\n",
				s.End, s.GoodputCPS/1000, 100*s.Availability, s.Errors, s.Retries, s.P99)
		}
	}
	return b.String()
}
