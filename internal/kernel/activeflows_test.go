package kernel_test

import (
	"testing"

	"fastsocket/internal/app"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
)

// TestActiveFlowCountMatchesMirror drives a web server (passive flows
// only) and a proxy (passive flows plus one active backend flow per
// request) with open-loop load, stops the load and lets the beds go
// quiet. After every millisecond the count Deliver consults must equal
// a recount of the flow mirror; it must stay zero on the web server
// and must not stay zero on the proxy, whose Figure 5b probe it gates.
func TestActiveFlowCountMatchesMirror(t *testing.T) {
	for _, proxy := range []bool{false, true} {
		name := map[bool]string{false: "webserver", true: "proxy"}[proxy]
		t.Run(name, func(t *testing.T) {
			const delay = 20 * sim.Microsecond
			eng := shard.NewEngine(shard.Config{Lookahead: delay})
			loop := eng.AddDomain("bed")
			netw := app.NewShardedNetwork(eng, delay)
			port := netw.Port(0)
			k := kernel.New(loop, kernel.Config{Cores: 4, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket()})
			port.AttachKernel(k)
			if proxy {
				backend := netproto.Addr{IP: netproto.IPv4(10, 3, 0, 1), Port: 80}
				app.NewBackend(loop, port, app.BackendConfig{Addr: backend})
				app.NewProxy(k, app.ProxyConfig{Backends: []netproto.Addr{backend}}).Start()
			} else {
				app.NewWebServer(k, app.WebServerConfig{}).Start()
			}
			var targets []netproto.Addr
			for _, ip := range k.IPs() {
				targets = append(targets, netproto.Addr{IP: ip, Port: 80})
			}
			cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{Targets: targets, Concurrency: 1})
			cli.StartOpenLoop(func(sim.Time) float64 { return 5000 })

			peak := 0
			check := func() {
				counted, recount := k.ActiveFlows()
				if counted != recount {
					t.Fatalf("at %v: %d active flows counted, %d in the flow mirror", loop.Now(), counted, recount)
				}
				peak = max(peak, counted)
			}
			for ms := 1; ms <= 30; ms++ {
				loop.RunUntil(sim.Time(ms) * sim.Millisecond)
				check()
			}
			cli.StopOpenLoop()
			loop.RunUntil(loop.Now() + 300*sim.Millisecond)
			check()
			if cli.Completed == 0 {
				t.Fatal("no request completed")
			}
			if proxy && peak == 0 {
				t.Error("the proxy never held an active flow")
			}
			if !proxy && peak != 0 {
				t.Errorf("the web server held %d active flows", peak)
			}
			if st := k.Stats(); proxy && st.ActiveIn == 0 {
				t.Error("no packet of an active flow was probed")
			}
		})
	}
}
