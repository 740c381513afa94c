package experiment

import (
	"fmt"
	"strings"

	"fastsocket/internal/app"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
	"fastsocket/internal/tcp"
)

// OverloadStep is one rung of the offered-load ramp.
type OverloadStep struct {
	Mult        float64 // total offered load as a multiple of measured capacity
	OfferedCPS  float64 // legitimate arrivals + spoofed SYNs per second
	FloodCPS    float64 // the spoofed-SYN share of the offered load
	AcceptCPS   float64 // connections accepted by the server
	GoodputCPS  float64 // requests completed by legitimate clients
	Errors      uint64  // legitimate connections that gave up
	ListenDrops uint64  // SYNs dropped at the listener
	CookiesSent uint64  // stateless SYN-ACKs during the step
}

// OverloadRun is one defence configuration's full ramp.
type OverloadRun struct {
	Label   string
	Cookies bool
	Steps   []OverloadStep
}

// OverloadResult is the graceful-degradation experiment — the paper's
// breaking-news deployment regime. A web server carries steady
// legitimate load at half its measured capacity while a spoofed SYN
// flood ramps the total offered connection load past 2x capacity.
// Spoofed half-open entries pin SYN-queue slots for the whole SYN-ACK
// retransmission chain, so without syncookies the 64-entry queue jams
// and legitimate SYNs are dropped wholesale: accept throughput
// collapses. With syncookies the listener answers statelessly, the
// flood costs only per-SYN processing, and accept throughput stays on
// its pre-flood plateau.
type OverloadResult struct {
	CapacityCPS float64
	LegitFrac   float64   // legitimate load as a fraction of capacity
	Steps       []float64 // the ramp multipliers
	Runs        []OverloadRun
}

// DefaultOverloadRamp is the total offered-load schedule, as multiples
// of measured capacity. The first step is flood-free and defines the
// peak that "graceful" is judged against.
var DefaultOverloadRamp = []float64{0.5, 1.0, 1.25, 1.5, 1.75, 2.0}

// overloadLegitFrac is the steady legitimate load, as a fraction of
// capacity; the flood supplies the rest of each step's multiplier.
const overloadLegitFrac = 0.5

// Overload runs the ramp on an 8-core Fastsocket web server, cookies
// off then on. The two runs are independent simulations dispatched
// through o.Runner.
func Overload(o Options) OverloadResult {
	o = o.withDefaults()
	const cores = 8
	spec := KernelSpec{Label: "fastsocket", Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket()}
	capacity := Measure(spec, WebBench, cores, o).Throughput
	mults := DefaultOverloadRamp

	res := OverloadResult{CapacityCPS: capacity, LegitFrac: overloadLegitFrac, Steps: mults}
	res.Runs = make([]OverloadRun, 2)
	o.Runner.Run(2, func(i int) {
		cookies := i == 1
		label := "cookies-off"
		if cookies {
			label = "cookies-on"
		}
		res.Runs[i] = runOverload(label, cookies, cores, capacity, mults, o)
	})
	return res
}

func runOverload(label string, cookies bool, cores int, capacity float64, mults []float64, o Options) OverloadRun {
	// The attacker is its own coupling domain: spoofed SYNs and the
	// legitimate load converge on the server only through the fabric,
	// so under the shard engine all three sources run concurrently.
	fab := newFabric(o.Shards, "server", "client", "flood")
	defer fab.close()
	params := tcp.DefaultParams()
	// A short SYN backlog makes half-open state the scarce resource,
	// as on a memory-constrained production frontend.
	params.SynBacklog = 64
	params.SynCookies = cookies
	k := kernel.New(fab.loops[0], kernel.Config{
		Cores: cores,
		Mode:  kernel.Fastsocket,
		Feat:  kernel.FullFastsocket(),
		TCP:   params,
		Seed:  o.Seed,
		// The listen queue, not the RX ring, must be the bottleneck
		// under the ramp.
		RXRingSize: 4096,
	})
	fab.netw.Port(0).AttachKernel(k)
	app.NewWebServer(k, app.WebServerConfig{}).Start()
	var targets []netproto.Addr
	for _, ip := range k.IPs() {
		targets = append(targets, netproto.Addr{IP: ip, Port: 80})
	}
	legitRate := overloadLegitFrac * capacity
	cli := app.NewHTTPLoad(fab.loops[1], fab.netw.Port(1), app.HTTPLoadConfig{
		Targets:     targets,
		Concurrency: 0, // open loop: arrivals do not wait for departures
		RTO:         30 * sim.Millisecond,
		MaxSYNRetry: 2,
		Retransmit:  true,
		Seed:        o.Seed + 99,
	})
	cli.StartOpenLoop(func(sim.Time) float64 { return legitRate })
	flood := app.NewSYNFlood(fab.loops[2], fab.netw.Port(2), app.SYNFloodConfig{
		Target: targets[0],
		Rate:   1, // real per-step rate set below; Start is deferred until needed
		Seed:   o.Seed + 666,
	})

	stepLen := o.Window
	warmup := o.Warmup
	fab.run(warmup)

	run := OverloadRun{Label: label, Cookies: cookies}
	floodStarted := false
	for si, mult := range mults {
		stepStart := warmup + sim.Time(si)*stepLen
		floodRate := (mult - overloadLegitFrac) * capacity
		if floodRate > 0 {
			flood.SetRate(floodRate)
			if !floodStarted {
				flood.Start()
				floodStarted = true
			}
		}
		// The first 40% of each step settles the queues at the new
		// rate; measure the remaining 60%.
		fab.run(stepStart + stepLen*2/5)
		accepts0 := k.Stats().Accepts
		completed0 := cli.Completed
		errs0 := cli.Errors
		snmp0 := k.SNMP()
		fab.run(stepStart + stepLen)
		window := (stepLen * 3 / 5).Seconds()
		snmp := k.SNMP().Sub(snmp0)
		run.Steps = append(run.Steps, OverloadStep{
			Mult:        mult,
			OfferedCPS:  mult * capacity,
			FloodCPS:    floodRate,
			AcceptCPS:   float64(k.Stats().Accepts-accepts0) / window,
			GoodputCPS:  float64(cli.Completed-completed0) / window,
			Errors:      cli.Errors - errs0,
			ListenDrops: snmp.ListenDrops,
			CookiesSent: snmp.SynCookiesSent,
		})
	}
	cli.StopOpenLoop()
	flood.Stop()
	return run
}

// Format renders both ramps.
func (r OverloadResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overload ramp — 8-core Fastsocket web server, capacity %.0fk cps, SYN backlog 64\n",
		r.CapacityCPS/1000)
	fmt.Fprintf(&b, "legitimate load steady at %.0f%% of capacity; a spoofed SYN flood supplies the rest of each step\n",
		100*r.LegitFrac)
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%s:\n", run.Label)
		fmt.Fprintf(&b, "  %5s %10s %10s %10s %10s %8s %10s %11s\n",
			"xcap", "offered", "flood", "accept/s", "goodput", "errors", "SYN drops", "cookies")
		for _, s := range run.Steps {
			fmt.Fprintf(&b, "  %5.2f %9.0fk %9.0fk %9.1fk %9.1fk %8d %10d %11d\n",
				s.Mult, s.OfferedCPS/1000, s.FloodCPS/1000, s.AcceptCPS/1000, s.GoodputCPS/1000,
				s.Errors, s.ListenDrops, s.CookiesSent)
		}
	}
	return b.String()
}
