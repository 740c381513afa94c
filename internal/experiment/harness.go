// Package experiment regenerates every table and figure of the
// paper's evaluation section (§4) against the simulated kernels. Each
// experiment builds a testbed (server kernel + synthetic peers), runs
// a warmup, measures a steady-state window, and reports the same
// rows/series the paper plots.
package experiment

import (
	"strings"

	"fastsocket/internal/app"
	"fastsocket/internal/cpu"
	"fastsocket/internal/fault"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/nic"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
	"fastsocket/internal/stats"
)

// Bench selects which application is load-tested.
type Bench int

// Benchmark applications.
const (
	// WebBench is the Nginx scenario (passive connections only).
	WebBench Bench = iota
	// ProxyBench is the HAProxy scenario (passive + active).
	ProxyBench
)

// String names the bench.
func (b Bench) String() string {
	if b == WebBench {
		return "nginx"
	}
	return "haproxy"
}

// Offloads selects which NIC offload features the machine under test
// enables (kernel.Config.TSO/GRO/Coalesce). The zero value — all off —
// is the configuration every committed experiment output was produced
// on, so adding the knob changes nothing retroactively.
type Offloads struct {
	TSO      bool
	GRO      bool
	Coalesce bool
}

// Any reports whether any offload is enabled.
func (f Offloads) Any() bool { return f.TSO || f.GRO || f.Coalesce }

// AllOffloads enables every modeled offload.
func AllOffloads() Offloads { return Offloads{TSO: true, GRO: true, Coalesce: true} }

// String renders the enabled set ("off", "tso", "tso+gro+coal", ...).
func (f Offloads) String() string {
	var parts []string
	if f.TSO {
		parts = append(parts, "tso")
	}
	if f.GRO {
		parts = append(parts, "gro")
	}
	if f.Coalesce {
		parts = append(parts, "coal")
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, "+")
}

// Bulk-transfer workload shape: the client POSTs a multi-segment
// request (chunked at MSS so it arrives as a GRO-mergeable wire train)
// and the server answers with a response large enough for TSO to
// matter. Sizes follow the paper's testbed MTU (1460-byte MSS) and a
// 64KB super-segment budget.
const (
	bulkRequestLen  = 16 * 1024
	bulkResponseLen = 64 * 1024
	bulkChunkBytes  = 1460
)

// Options tunes the measurement harness. Zero values get defaults
// sized for CLI accuracy; tests shrink the windows.
type Options struct {
	Warmup, Window     sim.Time
	ConcurrencyPerCore int
	// ListenIPs is how many addresses the server binds on port 80
	// (the paper spreads client load over several IPs).
	ListenIPs int
	Seed      uint64
	// Runner executes the independent points of a sweep (nil =
	// Serial). Pass sweep.Parallel to spread points over host workers;
	// results are identical either way.
	Runner Runner
	// Fault, when non-nil, arms the deterministic fault plane on the
	// machine under test and switches the load generator into its
	// loss-tolerant (retransmitting) mode.
	Fault *fault.Plan
	// Shards is the number of worker threads the shard engine steps
	// each simulation's coupling domains (server machine, client
	// generator, backend origin) on. 0 and 1 both run the domains
	// serially on the caller; every value yields bit-identical
	// results by construction.
	Shards int
	// Offloads enables NIC offload modeling on the machine under test.
	// Zero value = all off (the committed-output configuration).
	Offloads Offloads
	// Bulk switches the load generator and server into the
	// bulk-transfer shape (large chunked request, 64KB response) used
	// by the offload experiments. Off by default.
	Bulk bool
}

func (o Options) withDefaults() Options {
	if o.Warmup == 0 {
		// With 500 connections per core in flight, queueing latency
		// under the slower kernels reaches ~150ms; steady state needs
		// a few multiples of that.
		o.Warmup = 400 * sim.Millisecond
	}
	if o.Window == 0 {
		o.Window = 400 * sim.Millisecond
	}
	if o.ConcurrencyPerCore == 0 {
		o.ConcurrencyPerCore = 500
	}
	if o.ListenIPs == 0 {
		o.ListenIPs = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Runner == nil {
		o.Runner = Serial{}
	}
	return o
}

// Measurement is one steady-state observation of a testbed.
type Measurement struct {
	Throughput  float64 // connections per second
	Utilization []float64
	L3MissRate  float64
	LocalPct    float64 // active incoming packets delivered to home core
	// LockContended is the per-lock contended-acquisition count over
	// the window.
	LockContended map[string]uint64
	// SoftSteers counts software packet re-queues (RFD or RFS).
	SoftSteers uint64
	Window     sim.Time
	P99Latency sim.Time
	Errors     uint64
	// P99Conn is the p99 whole-connection latency (open → last
	// response), the degradation metric of the loss sweep.
	P99Conn sim.Time
	// SNMP holds the window's netstat-style counter deltas.
	SNMP stats.SNMP
	// MailPosted counts cross-shard mailbox injections during the run.
	// It is diagnostic — identical at every worker count — and
	// deliberately outside the digest.
	MailPosted uint64
}

// serverIPs builds n listen addresses.
func serverIPs(n int) []netproto.IP {
	ips := make([]netproto.IP, n)
	for i := range ips {
		ips[i] = netproto.IPv4(10, 1, 0, byte(i+1))
	}
	return ips
}

// KernelSpec is one kernel configuration under test.
type KernelSpec struct {
	Label         string
	Mode          kernel.Mode
	Feat          kernel.Features
	NICMode       nic.Mode
	ATRSampleRate int
}

// StockKernels are the three kernels Figure 4 compares.
func StockKernels() []KernelSpec {
	return []KernelSpec{
		{Label: "base-2.6.32", Mode: kernel.Base2632},
		{Label: "linux-3.13", Mode: kernel.Linux313},
		{Label: "fastsocket", Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket()},
	}
}

// fabricDelay is the testbed LAN's one-way latency (the paper's
// testbed is a 10GE LAN); it doubles as the shard engine's
// conservative lookahead window.
const fabricDelay = 20 * sim.Microsecond

// fabric is the execution substrate of one bed: a shard.Engine with
// one domain per coupling domain (machine / traffic generator).
// Domains are named at construction; index order is the deterministic
// tie-break order for simultaneous cross-domain arrivals, so it is
// part of the simulated configuration.
type fabric struct {
	netw  *app.Network
	eng   *shard.Engine
	loops []*sim.Loop // per domain
}

func newFabric(workers int, names ...string) *fabric {
	f := &fabric{eng: shard.NewEngine(shard.Config{Lookahead: fabricDelay, Workers: workers})}
	for _, nm := range names {
		f.loops = append(f.loops, f.eng.AddDomain(nm))
	}
	f.netw = app.NewShardedNetwork(f.eng, fabricDelay)
	return f
}

// run advances the whole bed to absolute time t.
func (f *fabric) run(t sim.Time) {
	f.netw.Freeze()
	f.eng.Run(t)
}

// close releases engine worker threads.
func (f *fabric) close() { f.eng.Close() }

// testbed is one fully wired machine-under-test.
type testbed struct {
	fab    *fabric
	k      *kernel.Kernel
	client *app.HTTPLoad
}

// buildBed constructs the testbed for a spec.
func buildBed(spec KernelSpec, bench Bench, cores int, o Options) *testbed {
	return buildBedWith(spec, bench, cores, o, nil)
}

// buildBedWith additionally lets the caller mutate the kernel config
// before boot (RFS experiments, custom costs).
func buildBedWith(spec KernelSpec, bench Bench, cores int, o Options, mutate func(*kernel.Config)) *testbed {
	names := []string{"server", "client"}
	if bench == ProxyBench {
		names = append(names, "backend")
	}
	fab := newFabric(o.Shards, names...)
	cfg := kernel.Config{
		Name:          spec.Label,
		Cores:         cores,
		Mode:          spec.Mode,
		Feat:          spec.Feat,
		NICMode:       spec.NICMode,
		ATRSampleRate: spec.ATRSampleRate,
		IPs:           serverIPs(min(o.ListenIPs, max(cores, 1))),
		Seed:          o.Seed,
		// The committed experiments predate the 512-descriptor ring
		// default; a generous ring keeps their outputs bit-identical
		// (closed-loop bursts stay far below this bound). Fault plans
		// may still override it via Fault.RingSize.
		RXRingSize: 8192,
		Fault:      o.Fault,
		TSO:        o.Offloads.TSO,
		GRO:        o.Offloads.GRO,
		Coalesce:   o.Offloads.Coalesce,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	k := kernel.New(fab.loops[0], cfg)
	fab.netw.Port(0).AttachKernel(k)

	switch bench {
	case WebBench:
		wcfg := app.WebServerConfig{}
		if o.Bulk {
			wcfg.ResponseLen = bulkResponseLen
		}
		srv := app.NewWebServer(k, wcfg)
		srv.Start()
	case ProxyBench:
		backendAddr := netproto.Addr{IP: netproto.IPv4(10, 3, 0, 1), Port: 80}
		app.NewBackend(fab.loops[2], fab.netw.Port(2), app.BackendConfig{Addr: backendAddr})
		px := app.NewProxy(k, app.ProxyConfig{Backends: []netproto.Addr{backendAddr}})
		px.Start()
	}

	var targets []netproto.Addr
	for _, ip := range k.IPs() {
		targets = append(targets, netproto.Addr{IP: ip, Port: 80})
	}
	lcfg := app.HTTPLoadConfig{
		Targets:     targets,
		Concurrency: o.ConcurrencyPerCore * cores,
		Seed:        o.Seed + 99,
		// Under an armed fault plane the client must survive segment
		// loss; without one the retransmit machinery stays off so the
		// event stream matches the pre-fault harness exactly.
		Retransmit: o.Fault != nil,
	}
	if o.Bulk {
		lcfg.RequestLen = bulkRequestLen
		lcfg.ResponseLen = bulkResponseLen
		lcfg.ChunkBytes = bulkChunkBytes
	}
	cli := app.NewHTTPLoad(fab.loops[1], fab.netw.Port(1), lcfg)
	return &testbed{fab: fab, k: k, client: cli}
}

// Measure runs one spec at one core count and reports the window.
func Measure(spec KernelSpec, bench Bench, cores int, o Options) Measurement {
	o = o.withDefaults()
	tb := buildBed(spec, bench, cores, o)
	return measureBed(tb, o)
}

// measureBed runs the warmup and measurement window on a built bed.
func measureBed(tb *testbed, o Options) Measurement {
	defer tb.fab.close()
	tb.client.Start()
	tb.fab.run(o.Warmup)

	startCompleted := tb.client.Completed
	startBusy := tb.k.Machine().BusySnapshot()
	startCache := tb.k.Cache().Stats()
	startStats := tb.k.Stats()
	startLocks := tb.k.LockContention()
	startSNMP := tb.k.SNMP()
	tb.client.Latencies.Reset()
	tb.client.ConnLatencies.Reset()

	tb.fab.run(o.Warmup + o.Window)

	m := Measurement{Window: o.Window, MailPosted: tb.fab.eng.Stats().Posted}
	m.Throughput = float64(tb.client.Completed-startCompleted) / o.Window.Seconds()
	m.Utilization = cpu.Utilization(startBusy, tb.k.Machine().BusySnapshot(), o.Window)
	cacheDelta := tb.k.Cache().Stats().Sub(startCache)
	m.L3MissRate = cacheDelta.MissRate()
	st := tb.k.Stats()
	if d := st.ActiveIn - startStats.ActiveIn; d > 0 {
		m.LocalPct = 100 * float64(st.ActiveLocal-startStats.ActiveLocal) / float64(d)
	}
	m.LockContended = map[string]uint64{}
	endLocks := tb.k.LockContention()
	for _, name := range kernel.LockNames {
		m.LockContended[name] = endLocks[name] - startLocks[name]
	}
	m.SoftSteers = st.SoftSteers - startStats.SoftSteers
	m.P99Latency = tb.client.Latencies.Percentile(99)
	m.Errors = tb.client.Errors
	m.P99Conn = tb.client.ConnLatencies.Percentile(99)
	m.SNMP = tb.k.SNMP().Sub(startSNMP)
	return m
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MeasureWithRFS runs the proxy bench on Linux 3.13 with or without
// Receive Flow Steering (the stock kernel's best-effort software
// locality), for the RFS-vs-RFD comparison.
func MeasureWithRFS(rfs bool, cores int, o Options) Measurement {
	o = o.withDefaults()
	spec := KernelSpec{Label: "linux-3.13", Mode: kernel.Linux313}
	tb := buildBedWith(spec, ProxyBench, cores, o, func(cfg *kernel.Config) { cfg.RFS = rfs })
	return measureBed(tb, o)
}
