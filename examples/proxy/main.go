// Proxy example: the paper's HAProxy scenario (§4.2.3) showing what
// Receive Flow Deliver does for *active* connections. The same
// 16-core Fastsocket machine runs with three packet-delivery
// configurations; watch the local-packet proportion, software steer
// count, and L3 miss rate change.
package main

import (
	"flag"
	"fmt"

	"fastsocket/internal/app"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/nic"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
)

func main() {
	cores := flag.Int("cores", 16, "CPU cores of the simulated proxy")
	dur := flag.Int("ms", 100, "simulated milliseconds per configuration")
	flag.Parse()

	configs := []struct {
		name    string
		nicMode nic.Mode
		rfd     bool
	}{
		{"RSS only (no RFD)", nic.RSS, false},
		{"RFD + RSS (software steering)", nic.RSS, true},
		{"RFD + FDir Perfect-Filtering", nic.FDirPerfect, true},
	}

	for _, cfgRow := range configs {
		feat := kernel.Features{VFS: true, LocalListen: true}
		if cfgRow.rfd {
			feat.RFD = true
			feat.LocalEst = true // requires complete locality (§3.2.2)
		}
		eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
		loop := eng.AddDomain("bed")
		port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
		k := kernel.New(loop, kernel.Config{
			Cores:   *cores,
			Mode:    kernel.Fastsocket,
			Feat:    feat,
			NICMode: cfgRow.nicMode,
		})
		port.AttachKernel(k)

		backendAddr := netproto.Addr{IP: netproto.IPv4(10, 3, 0, 1), Port: 80}
		app.NewBackend(loop, port, app.BackendConfig{Addr: backendAddr})
		px := app.NewProxy(k, app.ProxyConfig{Backends: []netproto.Addr{backendAddr}})
		px.Start()

		cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
			Targets:     []netproto.Addr{{IP: k.IPs()[0], Port: 80}},
			Concurrency: 300 * *cores,
		})
		cli.Start()

		warm := 20 * sim.Millisecond
		loop.RunUntil(warm)
		base := k.Stats()
		cacheBase := k.Cache().Stats()
		completed := cli.Completed
		window := sim.Time(*dur) * sim.Millisecond
		loop.RunUntil(warm + window)

		st := k.Stats()
		localPct := 0.0
		if d := st.ActiveIn - base.ActiveIn; d > 0 {
			localPct = 100 * float64(st.ActiveLocal-base.ActiveLocal) / float64(d)
		}
		miss := k.Cache().Stats().Sub(cacheBase)
		fmt.Printf("== %s\n", cfgRow.name)
		fmt.Printf("   throughput:            %8.0f proxied conns/s\n",
			float64(cli.Completed-completed)/window.Seconds())
		fmt.Printf("   local active packets:  %7.1f%% (delivered straight to the owning core)\n", localPct)
		fmt.Printf("   software steers:       %8d\n", st.SoftSteers-base.SoftSteers)
		fmt.Printf("   L3 miss rate:          %7.1f%%\n", 100*miss.MissRate())
		fmt.Printf("   proxy errors:          %8d\n\n", px.Errors)
	}
}
