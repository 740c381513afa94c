package experiment

import (
	"fmt"
	"strings"

	"fastsocket/internal/app"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
	"fastsocket/internal/tcp"
)

// SynFloodRow is one defence configuration under attack.
type SynFloodRow struct {
	Label          string
	CleanCPS       float64 // throughput before the attack
	UnderAttackCPS float64 // throughput while flooded
	ClientErrors   uint64  // legitimate connections that failed
	CookieAccepts  uint64  // connections reconstructed from cookies
	SYNsDropped    uint64
}

// SynFloodResult compares the kernel with and without tcp_syncookies
// while a spoofed SYN flood hits the listen port — the "Security"
// production requirement (§1) that makes the paper keep the kernel's
// defences rather than bypass them.
type SynFloodResult struct {
	FloodRate float64
	Rows      []SynFloodRow
}

// SynFlood runs the attack scenario on an 8-core Fastsocket web
// server. floodRate is spoofed SYNs per second (0 = 150k).
func SynFlood(floodRate float64, o Options) SynFloodResult {
	o = o.withDefaults()
	if floodRate == 0 {
		floodRate = 150000
	}
	res := SynFloodResult{FloodRate: floodRate}
	for _, cookies := range []bool{false, true} {
		label := "no defence"
		if cookies {
			label = "tcp_syncookies"
		}
		res.Rows = append(res.Rows, runFlood(label, cookies, floodRate, o))
	}
	return res
}

func runFlood(label string, cookies bool, rate float64, o Options) SynFloodRow {
	const cores = 8
	eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
	loop := eng.AddDomain("bed")
	port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
	params := tcp.DefaultParams()
	params.SynBacklog = 256
	params.SynCookies = cookies
	k := kernel.New(loop, kernel.Config{
		Cores: cores,
		Mode:  kernel.Fastsocket,
		Feat:  kernel.FullFastsocket(),
		TCP:   params,
		Seed:  o.Seed,
		// Committed outputs predate the bounded-ring default.
		RXRingSize: 8192,
	})
	port.AttachKernel(k)
	app.NewWebServer(k, app.WebServerConfig{}).Start()
	var targets []netproto.Addr
	for _, ip := range k.IPs() {
		targets = append(targets, netproto.Addr{IP: ip, Port: 80})
	}
	cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
		Targets:     targets,
		Concurrency: 100 * cores,
		RTO:         30 * sim.Millisecond,
		MaxSYNRetry: 2,
		Seed:        o.Seed + 99,
	})
	cli.Start()

	// Clean window.
	loop.RunUntil(o.Warmup)
	cleanStart := cli.Completed
	loop.RunUntil(o.Warmup + o.Window)
	row := SynFloodRow{
		Label:    label,
		CleanCPS: float64(cli.Completed-cleanStart) / o.Window.Seconds(),
	}

	// Attack window.
	flood := app.NewSYNFlood(loop, port, app.SYNFloodConfig{
		Target: targets[0],
		Rate:   rate,
		Seed:   o.Seed + 666,
	})
	flood.Start()
	// Let the SYN queue saturate, then measure.
	settle := o.Warmup + o.Window + 20*sim.Millisecond
	loop.RunUntil(settle)
	attackStart := cli.Completed
	errStart := cli.Errors
	dropStart := k.Stats().ListenDrops
	loop.RunUntil(settle + o.Window)
	row.UnderAttackCPS = float64(cli.Completed-attackStart) / o.Window.Seconds()
	row.ClientErrors = cli.Errors - errStart
	row.CookieAccepts = k.Stats().CookieAccepts
	row.SYNsDropped = k.Stats().ListenDrops - dropStart
	return row
}

// Format renders the comparison.
func (r SynFloodResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SYN flood resilience — 8-core Fastsocket web server, %.0fk spoofed SYNs/s\n", r.FloodRate/1000)
	fmt.Fprintf(&b, "%-16s %12s %14s %12s %14s %12s\n", "defence", "clean cps", "under attack", "cli errors", "cookie accepts", "SYN drops")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %11.0fk %13.0fk %12d %14d %12d\n",
			row.Label, row.CleanCPS/1000, row.UnderAttackCPS/1000,
			row.ClientErrors, row.CookieAccepts, row.SYNsDropped)
	}
	return b.String()
}
