package experiment

import (
	"fmt"
	"strings"

	"fastsocket/internal/app"
	"fastsocket/internal/cpu"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
	"fastsocket/internal/stats"
	"fastsocket/internal/workload"
)

// Figure3Options sizes the production-trace replay.
type Figure3Options struct {
	// Cores per proxy server (the production boxes had two 4-core
	// CPUs).
	Cores int
	// PeakRate is the busiest hour's offered load per server
	// (connections/s).
	PeakRate float64
	// HourLen compresses one wall-clock hour into this much simulated
	// time.
	HourLen sim.Time
	Seed    uint64
}

func (o Figure3Options) withDefaults() Figure3Options {
	if o.Cores == 0 {
		o.Cores = 8
	}
	if o.PeakRate == 0 {
		o.PeakRate = 9500
	}
	if o.HourLen == 0 {
		o.HourLen = 40 * sim.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Figure3Hour is one hour's per-core utilization box plot for both
// servers.
type Figure3Hour struct {
	Hour       int
	Base, Fast stats.Box
}

// Figure3Result is the 24-hour replay plus the §4.2.1
// effective-capacity computation at the busiest hour.
type Figure3Result struct {
	Hours []Figure3Hour
	// BusyHour is the hour used for the capacity computation (the
	// paper uses 18:30; we take the hour with the highest base max
	// utilization).
	BusyHour int
	// At the busy hour:
	BaseAvg, FastAvg float64 // mean CPU utilization
	BaseMax, FastMax float64 // most-utilized core
	// CapacityGainPct is ((FastMax)^-1 - (BaseMax)^-1) / (BaseMax)^-1,
	// the paper's effective-capacity improvement (53.5%).
	CapacityGainPct float64
	// CPUSavingPct is (BaseAvg-FastAvg)/BaseAvg (the paper's 31.5%
	// CPU-efficiency improvement).
	CPUSavingPct float64
}

type fig3server struct {
	loop   *sim.Loop
	k      *kernel.Kernel
	client *app.HTTPLoad
}

func newFig3Server(mode kernel.Mode, feat kernel.Features, o Figure3Options, d workload.Diurnal) *fig3server {
	eng := shard.NewEngine(shard.Config{Lookahead: 50 * sim.Microsecond})
	loop := eng.AddDomain("bed")
	port := app.NewShardedNetwork(eng, 50*sim.Microsecond).Port(0)
	k := kernel.New(loop, kernel.Config{
		Name:  "haproxy-" + mode.String(),
		Cores: o.Cores,
		Mode:  mode,
		Feat:  feat,
		IPs:   []netproto.IP{netproto.IPv4(10, 1, 0, 1)},
		Seed:  o.Seed,
		// Committed outputs predate the bounded-ring default.
		RXRingSize: 8192,
	})
	port.AttachKernel(k)
	backendAddr := netproto.Addr{IP: netproto.IPv4(10, 3, 0, 1), Port: 80}
	// Production traffic is heavier than the synthetic benchmark:
	// full-size Weibo responses and a proxy configured with ACLs,
	// header rewriting, and logging (user-space work both kernels pay
	// alike, diluting the kernel-side difference relative to Fig. 4b).
	app.NewBackend(loop, port, app.BackendConfig{
		Addr:        backendAddr,
		ResponseLen: netproto.DefaultResponseLen,
	})
	px := app.NewProxy(k, app.ProxyConfig{
		Backends: []netproto.Addr{backendAddr},
		Costs:    &app.AppCosts{ParseRequest: 40000, BuildResponse: 10000, Bookkeeping: 50000},
	})
	px.Start()
	cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
		Targets: []netproto.Addr{{IP: netproto.IPv4(10, 1, 0, 1), Port: 80}},
		Seed:    o.Seed + 7,
	})
	cli.StartOpenLoop(func(now sim.Time) float64 { return d.RateAt(now, o.HourLen) })
	return &fig3server{loop: loop, k: k, client: cli}
}

// Figure3 replays a compressed 24-hour Weibo-shaped diurnal trace
// against two identical 8-core HAProxy servers — one on the baseline
// kernel, one on Fastsocket — and reports each hour's per-core CPU
// utilization spread (the paper's box plots).
func Figure3(o Figure3Options) Figure3Result {
	o = o.withDefaults()
	d := workload.WeiboDiurnal(o.PeakRate)
	servers := []*fig3server{
		newFig3Server(kernel.Base2632, kernel.Features{}, o, d),
		newFig3Server(kernel.Fastsocket, kernel.FullFastsocket(), o, d),
	}
	var res Figure3Result
	utils := make([][][]float64, len(servers)) // server -> hour -> per-core
	for i := range utils {
		utils[i] = make([][]float64, 24)
	}
	for h := 0; h < 24; h++ {
		for i, s := range servers {
			before := s.k.Machine().BusySnapshot()
			s.loop.RunUntil(sim.Time(h+1) * o.HourLen)
			utils[i][h] = cpu.Utilization(before, s.k.Machine().BusySnapshot(), o.HourLen)
		}
		res.Hours = append(res.Hours, Figure3Hour{
			Hour: h,
			Base: stats.BoxOf(utils[0][h]),
			Fast: stats.BoxOf(utils[1][h]),
		})
	}
	// Busiest hour by base max-core utilization.
	busy := 0
	for h, row := range res.Hours {
		if row.Base.Max > res.Hours[busy].Base.Max {
			busy = h
		}
	}
	res.BusyHour = busy
	res.BaseAvg = res.Hours[busy].Base.Mean
	res.FastAvg = res.Hours[busy].Fast.Mean
	res.BaseMax = res.Hours[busy].Base.Max
	res.FastMax = res.Hours[busy].Fast.Max
	if res.FastMax > 0 && res.BaseMax > 0 {
		res.CapacityGainPct = 100 * ((1 / res.FastMax) - (1 / res.BaseMax)) / (1 / res.BaseMax)
	}
	if res.BaseAvg > 0 {
		res.CPUSavingPct = 100 * (res.BaseAvg - res.FastAvg) / res.BaseAvg
	}
	return res
}

// Format renders the hourly table and the capacity summary.
func (r Figure3Result) Format() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 3 — per-core CPU utilization of two 8-core HAProxy servers, 24h diurnal trace")
	fmt.Fprintf(&b, "%4s | %28s | %28s\n", "hour", "base 2.6.32 (min/med/max %)", "fastsocket (min/med/max %)")
	for _, h := range r.Hours {
		fmt.Fprintf(&b, "%4d | %8.1f %8.1f %8.1f | %8.1f %8.1f %8.1f\n",
			h.Hour,
			100*h.Base.Min, 100*h.Base.Median, 100*h.Base.Max,
			100*h.Fast.Min, 100*h.Fast.Median, 100*h.Fast.Max)
	}
	fmt.Fprintf(&b, "\nBusy hour %02d:00 — base avg %.1f%% (max core %.1f%%), fastsocket avg %.1f%% (max core %.1f%%)\n",
		r.BusyHour, 100*r.BaseAvg, 100*r.BaseMax, 100*r.FastAvg, 100*r.FastMax)
	fmt.Fprintf(&b, "CPU efficiency improvement: %.1f%% (paper: 31.5%%)\n", r.CPUSavingPct)
	fmt.Fprintf(&b, "Effective capacity improvement: %.1f%% (paper: 53.5%%)\n", r.CapacityGainPct)
	return b.String()
}
