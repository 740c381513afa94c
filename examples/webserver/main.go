// Webserver example: the paper's Nginx scenario (§4.2.2) on all
// three kernels side by side. For each kernel the same machine size
// and offered load are used; the output shows throughput, CPU
// utilization balance, and which locks hurt.
package main

import (
	"flag"
	"fmt"

	"fastsocket/internal/app"
	"fastsocket/internal/cpu"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
	"fastsocket/internal/stats"
)

func main() {
	cores := flag.Int("cores", 16, "CPU cores of the simulated server")
	dur := flag.Int("ms", 100, "simulated milliseconds per kernel")
	flag.Parse()

	specs := []struct {
		name string
		mode kernel.Mode
		feat kernel.Features
	}{
		{"base-2.6.32", kernel.Base2632, kernel.Features{}},
		{"linux-3.13", kernel.Linux313, kernel.Features{}},
		{"fastsocket", kernel.Fastsocket, kernel.FullFastsocket()},
	}

	for _, spec := range specs {
		eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
		loop := eng.AddDomain("bed")
		port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
		ips := []netproto.IP{
			netproto.IPv4(10, 1, 0, 1), netproto.IPv4(10, 1, 0, 2),
			netproto.IPv4(10, 1, 0, 3), netproto.IPv4(10, 1, 0, 4),
		}
		k := kernel.New(loop, kernel.Config{
			Cores: *cores, Mode: spec.mode, Feat: spec.feat, IPs: ips,
		})
		port.AttachKernel(k)
		srv := app.NewWebServer(k, app.WebServerConfig{})
		srv.Start()
		var targets []netproto.Addr
		for _, ip := range ips {
			targets = append(targets, netproto.Addr{IP: ip, Port: 80})
		}
		cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
			Targets:     targets,
			Concurrency: 300 * *cores,
		})
		cli.Start()

		// Warm up, then measure.
		warm := 20 * sim.Millisecond
		loop.RunUntil(warm)
		completed := cli.Completed
		busy := k.Machine().BusySnapshot()
		window := sim.Time(*dur) * sim.Millisecond
		loop.RunUntil(warm + window)

		cps := float64(cli.Completed-completed) / window.Seconds()
		util := stats.BoxOf(cpu.Utilization(busy, k.Machine().BusySnapshot(), window))
		fmt.Printf("== %-12s %8.0f conns/s  util %s\n", spec.name, cps, util)
		fmt.Println("   top contended locks:")
		for _, row := range k.LockStats() {
			if row.Contended > 0 {
				fmt.Printf("   %-12s contended %8d  wait %v\n", row.Name, row.Contended, row.WaitTime)
			}
		}
		fmt.Println()
	}
}
