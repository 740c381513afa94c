package experiment

import (
	"fmt"
	"strings"

	"fastsocket/internal/app"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
)

// LongLived validates the paper's §1 observation that motivates the
// whole work: with long-lived (keep-alive) connections, TCB and VFS
// management is too infrequent to contend, so even the baseline
// kernel scales — the scalability problem is specific to short-lived
// connections.
//
// The experiment runs the Nginx scenario with HTTP keep-alive
// (RequestsPerConn exchanges per connection) and reports requests/s
// per kernel at the given core count.
type LongLivedResult struct {
	Cores           int
	RequestsPerConn int
	RPS             map[string]float64
	// ShortLivedRPS is the same setup with one request per connection
	// for contrast.
	ShortLivedRPS map[string]float64
}

// LongLived runs the keep-alive comparison.
func LongLived(cores, requestsPerConn int, o Options) LongLivedResult {
	o = o.withDefaults()
	if requestsPerConn <= 1 {
		requestsPerConn = 100
	}
	res := LongLivedResult{
		Cores:           cores,
		RequestsPerConn: requestsPerConn,
		RPS:             map[string]float64{},
		ShortLivedRPS:   map[string]float64{},
	}
	for _, spec := range StockKernels() {
		res.RPS[spec.Label] = measureKeepAlive(spec, cores, requestsPerConn, o)
		m := Measure(spec, WebBench, cores, o)
		res.ShortLivedRPS[spec.Label] = m.Throughput
	}
	return res
}

func measureKeepAlive(spec KernelSpec, cores, reqsPerConn int, o Options) float64 {
	eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
	loop := eng.AddDomain("bed")
	port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
	k := kernel.New(loop, kernel.Config{
		Name:    spec.Label,
		Cores:   cores,
		Mode:    spec.Mode,
		Feat:    spec.Feat,
		NICMode: spec.NICMode,
		IPs:     serverIPs(min(o.ListenIPs, max(cores, 1))),
		Seed:    o.Seed,
		// Committed outputs predate the bounded-ring default.
		RXRingSize: 8192,
	})
	port.AttachKernel(k)
	srv := app.NewWebServer(k, app.WebServerConfig{KeepAlive: true})
	srv.Start()
	var targets []netproto.Addr
	for _, ip := range k.IPs() {
		targets = append(targets, netproto.Addr{IP: ip, Port: 80})
	}
	cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
		Targets:         targets,
		Concurrency:     o.ConcurrencyPerCore * cores,
		RequestsPerConn: reqsPerConn,
		Seed:            o.Seed + 99,
	})
	cli.Start()
	loop.RunUntil(o.Warmup)
	start := cli.Completed
	loop.RunUntil(o.Warmup + o.Window)
	return float64(cli.Completed-start) / o.Window.Seconds()
}

// Format renders the comparison table.
func (r LongLivedResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Long-lived vs short-lived connections at %d cores (keep-alive, %d requests/conn)\n",
		r.Cores, r.RequestsPerConn)
	fmt.Fprintf(&b, "%-14s %18s %18s %8s\n", "kernel", "long-lived req/s", "short-lived cps", "ratio")
	for _, label := range []string{"base-2.6.32", "linux-3.13", "fastsocket"} {
		ll, sl := r.RPS[label], r.ShortLivedRPS[label]
		ratio := 0.0
		if sl > 0 {
			ratio = ll / sl
		}
		fmt.Fprintf(&b, "%-14s %17.0fk %17.0fk %7.1fx\n", label, ll/1000, sl/1000, ratio)
	}
	base, fs := r.RPS["base-2.6.32"], r.RPS["fastsocket"]
	if base > 0 {
		fmt.Fprintf(&b, "fastsocket advantage with long-lived connections: +%.0f%% (short-lived: see figure4a)\n",
			100*(fs-base)/base)
	}
	return b.String()
}
