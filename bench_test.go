// Macro-benchmarks: one per table/figure of the paper, plus ablation
// benches for the design choices DESIGN.md calls out. These wrap the
// experiment harness; the interesting output is the custom metrics
// (connections/s, locality, miss rates), not ns/op.
//
// Run with: go test -bench=. -benchmem
package fastsocket_test

import (
	"testing"

	"fastsocket/internal/app"
	"fastsocket/internal/experiment"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/nic"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
)

// benchOptions keeps bench iterations affordable while reaching
// steady state.
func benchOptions() experiment.Options {
	return experiment.Options{
		Warmup:             15 * sim.Millisecond,
		Window:             40 * sim.Millisecond,
		ConcurrencyPerCore: 150,
	}
}

// BenchmarkFigure4a regenerates the Nginx throughput-vs-cores curves.
func BenchmarkFigure4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Figure4(experiment.WebBench, []int{1, 12, 24}, benchOptions())
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(last.CPS["fastsocket"], "fastsocket-cps")
		b.ReportMetric(last.CPS["base-2.6.32"], "base-cps")
		b.ReportMetric(r.Speedup["fastsocket"], "fastsocket-speedup-x")
	}
}

// BenchmarkFigure4b regenerates the HAProxy curves.
func BenchmarkFigure4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Figure4(experiment.ProxyBench, []int{1, 24}, benchOptions())
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(last.CPS["fastsocket"], "fastsocket-cps")
		b.ReportMetric(last.CPS["base-2.6.32"], "base-cps")
	}
}

// BenchmarkTable1 regenerates the lockstat table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Table1(benchOptions())
		b.ReportMetric(float64(r.Counts["dcache_lock"][0]), "baseline-dcache-contended-60s")
		b.ReportMetric(float64(r.Counts["slock"][0]), "baseline-slock-contended-60s")
	}
}

// BenchmarkFigure5 regenerates the packet-delivery experiment.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Figure5(benchOptions())
		for _, row := range r.Rows {
			switch row.Label {
			case "RSS":
				b.ReportMetric(row.LocalPct, "rss-local-pct")
				b.ReportMetric(row.L3MissPct, "rss-l3miss-pct")
			case "RFD+FDir_Perfect":
				b.ReportMetric(row.LocalPct, "perfect-local-pct")
				b.ReportMetric(row.Throughput, "perfect-cps")
			}
		}
	}
}

// BenchmarkFigure3 regenerates the production-trace replay.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Figure3(experiment.Figure3Options{HourLen: 5 * sim.Millisecond})
		b.ReportMetric(r.CapacityGainPct, "capacity-gain-pct")
		b.ReportMetric(r.CPUSavingPct, "cpu-saving-pct")
	}
}

// --- Ablations: one Fastsocket component at a time -------------------

func ablationSpec(label string, feat kernel.Features) experiment.KernelSpec {
	mode := kernel.Fastsocket
	if feat == (kernel.Features{}) {
		mode = kernel.Base2632
	}
	return experiment.KernelSpec{Label: label, Mode: mode, Feat: feat}
}

// BenchmarkAblationVFS isolates the Fastsocket-aware VFS fast path.
func BenchmarkAblationVFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		off := experiment.Measure(ablationSpec("no-vfs", kernel.Features{}), experiment.WebBench, 24, benchOptions())
		on := experiment.Measure(ablationSpec("vfs", kernel.Features{VFS: true}), experiment.WebBench, 24, benchOptions())
		b.ReportMetric(on.Throughput, "with-V-cps")
		b.ReportMetric(off.Throughput, "without-V-cps")
	}
}

// BenchmarkAblationLocalListen isolates the Local Listen Table.
func BenchmarkAblationLocalListen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		off := experiment.Measure(ablationSpec("V", kernel.Features{VFS: true}), experiment.WebBench, 24, benchOptions())
		on := experiment.Measure(ablationSpec("VL", kernel.Features{VFS: true, LocalListen: true}), experiment.WebBench, 24, benchOptions())
		b.ReportMetric(on.Throughput, "with-L-cps")
		b.ReportMetric(off.Throughput, "without-L-cps")
	}
}

// BenchmarkAblationRFD isolates Receive Flow Deliver on the
// active-connection workload.
func BenchmarkAblationRFD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		off := experiment.Measure(ablationSpec("VL", kernel.Features{VFS: true, LocalListen: true}), experiment.ProxyBench, 24, benchOptions())
		on := experiment.Measure(ablationSpec("VLRE", kernel.FullFastsocket()), experiment.ProxyBench, 24, benchOptions())
		b.ReportMetric(on.Throughput, "with-RE-cps")
		b.ReportMetric(off.Throughput, "without-RE-cps")
		b.ReportMetric(on.LocalPct, "with-RE-localpct")
	}
}

// BenchmarkSyscallCostAblation shows where system-call batching (the
// paper's future work, §5) would help: halving fixed syscall entry
// costs and re-measuring.
func BenchmarkSyscallCostAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		normal := experiment.Measure(ablationSpec("fs", kernel.FullFastsocket()), experiment.WebBench, 24, o)
		b.ReportMetric(normal.Throughput, "normal-cps")

		// Batched: halve the per-call fixed costs.
		costs := kernel.DefaultCosts()
		costs.Accept /= 2
		costs.Recv /= 2
		costs.Send /= 2
		costs.Close /= 2
		costs.Epoll.Wait /= 2
		m := measureWithCosts(costs, o)
		b.ReportMetric(m, "batched-cps")
	}
}

// measureWithCosts runs the web bench at 24 cores with custom costs.
func measureWithCosts(costs *kernel.Costs, o experiment.Options) float64 {
	eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
	loop := eng.AddDomain("bed")
	port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
	k := kernel.New(loop, kernel.Config{
		Cores: 24,
		Mode:  kernel.Fastsocket,
		Feat:  kernel.FullFastsocket(),
		Costs: costs,
	})
	port.AttachKernel(k)
	srv := app.NewWebServer(k, app.WebServerConfig{})
	srv.Start()
	cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
		Targets:     []netproto.Addr{{IP: k.IPs()[0], Port: 80}},
		Concurrency: o.ConcurrencyPerCore * 24,
	})
	cli.Start()
	loop.RunUntil(o.Warmup)
	start := cli.Completed
	loop.RunUntil(o.Warmup + o.Window)
	return float64(cli.Completed-start) / o.Window.Seconds()
}

// BenchmarkNICModes sweeps the Figure 5 NIC configurations as
// individual benchmark cases.
func BenchmarkNICModes(b *testing.B) {
	cases := []struct {
		name string
		mode nic.Mode
		rfd  bool
	}{
		{"RSS", nic.RSS, false},
		{"RFD_RSS", nic.RSS, true},
		{"FDirATR", nic.FDirATR, false},
		{"RFD_FDirPerfect", nic.FDirPerfect, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				feat := kernel.Features{VFS: true, LocalListen: true}
				if c.rfd {
					feat.RFD = true
					feat.LocalEst = true
				}
				spec := experiment.KernelSpec{
					Label: c.name, Mode: kernel.Fastsocket, Feat: feat,
					NICMode: c.mode, ATRSampleRate: 2,
				}
				m := experiment.Measure(spec, experiment.ProxyBench, 16, benchOptions())
				b.ReportMetric(m.Throughput, "cps")
				b.ReportMetric(m.LocalPct, "local-pct")
				b.ReportMetric(100*m.L3MissRate, "l3miss-pct")
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures the simulator itself: events
// and simulated connections processed per wall second (useful when
// sizing experiment windows).
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
		loop := eng.AddDomain("bed")
		port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
		k := kernel.New(loop, kernel.Config{Cores: 8, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket()})
		port.AttachKernel(k)
		srv := app.NewWebServer(k, app.WebServerConfig{})
		srv.Start()
		cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
			Targets:     []netproto.Addr{{IP: k.IPs()[0], Port: 80}},
			Concurrency: 1000,
		})
		cli.Start()
		loop.RunUntil(50 * sim.Millisecond)
		b.ReportMetric(float64(loop.Fired()), "events")
		b.ReportMetric(float64(cli.Completed), "sim-conns")
	}
}
