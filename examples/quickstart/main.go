// Quickstart: boot a Fastsocket kernel, serve short-lived HTTP
// connections for 100 simulated milliseconds, and print what
// happened. This is the smallest complete use of the public pieces:
// a sim.Loop, a kernel.Kernel, an app.Network, an application model
// and a load generator.
package main

import (
	"fmt"

	"fastsocket/internal/app"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
)

func main() {
	// One engine domain carries every endpoint, so its single event
	// loop drives everything; all times are simulated.
	eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
	loop := eng.AddDomain("bed")
	port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)

	// An 8-core machine running the full Fastsocket kernel.
	k := kernel.New(loop, kernel.Config{
		Cores: 8,
		Mode:  kernel.Fastsocket,
		Feat:  kernel.FullFastsocket(),
	})
	port.AttachKernel(k)

	// An Nginx-like server: one worker per core, 1200-byte cached
	// response, connection closed after each request.
	srv := app.NewWebServer(k, app.WebServerConfig{})
	srv.Start()

	// An http_load-like client keeping 2000 connections in flight.
	cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
		Targets:     []netproto.Addr{{IP: k.IPs()[0], Port: 80}},
		Concurrency: 2000,
	})
	cli.Start()

	loop.RunUntil(100 * sim.Millisecond)

	fmt.Printf("simulated %v on %d cores (%s kernel)\n",
		loop.Now(), k.Config().Cores, k.Config().Mode)
	fmt.Printf("requests served:   %d (%.0f connections/s)\n",
		srv.Served, float64(cli.Completed)/loop.Now().Seconds())
	fmt.Printf("client errors:     %d\n", cli.Errors)
	fmt.Printf("fetch latency:     %v\n", cli.Latencies)
	fmt.Printf("packets in/out:    %d/%d\n", k.Stats().PacketsIn, k.Stats().PacketsOut)
	fmt.Printf("per-worker spread: %v\n", srv.PerWorkerServed)
	fmt.Println("\nlockstat:")
	fmt.Print(k.FormatLockStats())
}
