package main

import (
	"fastsocket/internal/app"
	"fastsocket/internal/cpu"
	"fastsocket/internal/epoll"
	"fastsocket/internal/experiment"
	"fastsocket/internal/fault"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
	"fastsocket/internal/stats"
	"fastsocket/internal/tcp"
)

// runFSMMix replays the fsm experiment mix — every bed below, chosen
// so the merged runtime transition matrix exercises at least the
// coverage floor of the spec's non-defensive edges — and returns the
// merged per-kernel matrices. Each bed is deterministic (fixed seeds,
// virtual clock), so the committed FSMGRAPH_observed.json is
// byte-stable across runs.
func runFSMMix() *stats.FSMTrace {
	merged := &stats.FSMTrace{}
	fsmWebBeds(merged)
	fsmLossyWebBed(merged)
	fsmProxyBed(merged)
	fsmCookieBed(merged)
	fsmLifecycleBed(merged)
	fsmDeadBackendBed(merged)
	fsmSimulCloseBed(merged)
	return merged
}

// fsmWebBeds runs the web-server benchmark on all three stock kernels:
// the passive-open lifecycle (LISTEN birth, SYN_RCVD handshakes, the
// active-close FIN_WAIT chain, TIME_WAIT reaping).
func fsmWebBeds(merged *stats.FSMTrace) {
	const cores = 4
	for _, spec := range experiment.StockKernels() {
		eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
		loop := eng.AddDomain("bed")
		port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
		k := kernel.New(loop, kernel.Config{
			Name:  spec.Label,
			Cores: cores,
			Mode:  spec.Mode,
			Feat:  spec.Feat,
			Seed:  1,
		})
		port.AttachKernel(k)
		app.NewWebServer(k, app.WebServerConfig{}).Start()
		cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
			Targets:     []netproto.Addr{{IP: k.IPs()[0], Port: 80}},
			Concurrency: 50 * cores,
			Seed:        100,
		})
		cli.Start()
		loop.RunUntil(20 * sim.Millisecond)
		merged.Merge(k.FSMTrace())
	}
}

// fsmLossyWebBed reruns the web bench under injected segment loss with
// a retransmitting client: handshake losses exercise the
// retransmit-exhaustion aborts. (A dropped ACK of our FIN makes the
// peer's FIN carry it, which still passes through FIN_WAIT2 — see
// TestFinWait1CoalescedFINACK in internal/tcp.)
func fsmLossyWebBed(merged *stats.FSMTrace) {
	plan, err := fault.ParsePlan("loss=0.05")
	if err != nil {
		panic(err)
	}
	eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
	loop := eng.AddDomain("bed")
	port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
	k := kernel.New(loop, kernel.Config{
		Cores: 2,
		Mode:  kernel.Fastsocket,
		Feat:  kernel.FullFastsocket(),
		Seed:  6,
		Fault: &plan,
	})
	port.AttachKernel(k)
	app.NewWebServer(k, app.WebServerConfig{}).Start()
	cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
		Targets:     []netproto.Addr{{IP: k.IPs()[0], Port: 80}},
		Concurrency: 60,
		Seed:        101,
		Retransmit:  true,
		RTO:         sim.Millisecond,
		MaxSYNRetry: 3,
	})
	cli.Start()
	loop.RunUntil(60 * sim.Millisecond)
	merged.Merge(k.FSMTrace())
}

// fsmProxyBed runs the HAProxy model against an app-level backend: the
// active-open side (SYN_SENT) plus the passive-close chain (the
// backend closes first, so the proxy's outbound sockets walk
// CLOSE_WAIT -> LAST_ACK -> CLOSED).
func fsmProxyBed(merged *stats.FSMTrace) {
	eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
	loop := eng.AddDomain("bed")
	port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
	k := kernel.New(loop, kernel.Config{
		Cores: 4,
		Mode:  kernel.Fastsocket,
		Feat:  kernel.FullFastsocket(),
		Seed:  2,
		IPs:   []netproto.IP{netproto.IPv4(10, 1, 0, 1)},
	})
	port.AttachKernel(k)
	backendAddr := netproto.Addr{IP: netproto.IPv4(10, 3, 0, 1), Port: 80}
	app.NewBackend(loop, port, app.BackendConfig{Addr: backendAddr})
	px := app.NewProxy(k, app.ProxyConfig{Backends: []netproto.Addr{backendAddr}})
	px.Start()
	cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
		Targets:     []netproto.Addr{{IP: netproto.IPv4(10, 1, 0, 1), Port: 80}},
		Concurrency: 100,
		Seed:        7,
	})
	cli.Start()
	loop.RunUntil(20 * sim.Millisecond)
	merged.Merge(k.FSMTrace())
}

// fsmCookieBed floods a small SYN queue with syncookies on: validated
// cookie ACKs rebuild connections with no SYN_RCVD stage, the
// CLOSED -> ESTABLISHED extension edge.
func fsmCookieBed(merged *stats.FSMTrace) {
	eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
	loop := eng.AddDomain("bed")
	port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
	params := tcp.DefaultParams()
	params.SynBacklog = 64
	params.SynCookies = true
	k := kernel.New(loop, kernel.Config{
		Cores: 2,
		Mode:  kernel.Fastsocket,
		Feat:  kernel.FullFastsocket(),
		Seed:  3,
		TCP:   params,
	})
	port.AttachKernel(k)
	app.NewWebServer(k, app.WebServerConfig{}).Start()
	cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
		Targets:     []netproto.Addr{{IP: k.IPs()[0], Port: 80}},
		Concurrency: 8,
		Seed:        102,
		RTO:         20 * sim.Millisecond,
		MaxSYNRetry: 2,
	})
	flood := app.NewSYNFlood(loop, port, app.SYNFloodConfig{
		Target: netproto.Addr{IP: k.IPs()[0], Port: 80},
		Rate:   200000,
	})
	flood.Start()
	loop.RunUntil(5 * sim.Millisecond)
	cli.Start()
	loop.RunUntil(60 * sim.Millisecond)
	merged.Merge(k.FSMTrace())
}

// fsmLifecycleBed crashes and restarts the host under load: the
// lifecycle sweeps tear down whatever state sockets are in
// (LISTEN/ESTABLISHED/SYN_RCVD -> CLOSED) and the restart re-arms the
// listeners (CLOSED -> LISTEN again).
func fsmLifecycleBed(merged *stats.FSMTrace) {
	plan := &fault.Plan{Lifecycle: fault.LifecyclePlan{Events: []fault.LifecycleEvent{
		{At: 2 * sim.Millisecond, Action: fault.HostCrash, RestartAfter: 3 * sim.Millisecond},
		{At: 10 * sim.Millisecond, Action: fault.HostDrain, RestartAfter: 3 * sim.Millisecond},
	}}}
	eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
	loop := eng.AddDomain("bed")
	port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
	k := kernel.New(loop, kernel.Config{
		Cores: 1,
		Mode:  kernel.Fastsocket,
		Feat:  kernel.FullFastsocket(),
		Seed:  11,
		Fault: plan,
	})
	port.AttachKernel(k)
	app.NewWebServer(k, app.WebServerConfig{}).Start()
	cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
		Targets:     []netproto.Addr{{IP: k.IPs()[0], Port: 80}},
		Concurrency: 40,
		Seed:        103,
		Retransmit:  true,
		RTO:         sim.Millisecond,
		MaxSYNRetry: 2,
		BackoffCap:  8 * sim.Millisecond,
		RetryBudget: 4,
	})
	cli.Start()
	loop.RunUntil(40 * sim.Millisecond)
	merged.Merge(k.FSMTrace())
}

// fsmDeadBackendBed points the proxy at a backend nobody answers, with
// a tiny RTO so SYN-retry exhaustion fits the window: ETIMEDOUT aborts
// of half-open active connects (SYN_SENT -> CLOSED).
func fsmDeadBackendBed(merged *stats.FSMTrace) {
	eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
	loop := eng.AddDomain("bed")
	port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
	params := tcp.DefaultParams()
	params.InitialRTO = sim.Millisecond
	params.SynRetries = 2
	k := kernel.New(loop, kernel.Config{
		Cores: 2,
		Mode:  kernel.Fastsocket,
		Feat:  kernel.FullFastsocket(),
		Seed:  4,
		TCP:   params,
	})
	port.AttachKernel(k)
	px := app.NewProxy(k, app.ProxyConfig{
		Backends: []netproto.Addr{{IP: netproto.IPv4(10, 9, 9, 9), Port: 80}},
	})
	px.Start()
	cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
		Targets:     []netproto.Addr{{IP: k.IPs()[0], Port: 80}},
		Concurrency: 20,
		Seed:        104,
	})
	cli.Start()
	loop.RunUntil(30 * sim.Millisecond)
	merged.Merge(k.FSMTrace())
}

// fsmSimulCloseBed pairs two kernels on one fabric and closes both
// ends of every connection at the same instant: the FINs cross in
// flight, so each side sees the peer's FIN before the ACK of its own —
// RFC 793's simultaneous close (FIN_WAIT1 -> CLOSING -> TIME_WAIT).
func fsmSimulCloseBed(merged *stats.FSMTrace) {
	eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
	loop := eng.AddDomain("bed")
	port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
	ka := kernel.New(loop, kernel.Config{
		Cores: 1, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket(),
		Seed: 8, IPs: []netproto.IP{netproto.IPv4(10, 1, 0, 1)},
	})
	kb := kernel.New(loop, kernel.Config{
		Cores: 1, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket(),
		Seed: 9, IPs: []netproto.IP{netproto.IPv4(10, 2, 0, 1)},
	})
	port.AttachKernel(ka)
	port.AttachKernel(kb)

	// B: a boot listener and an accept-only worker.
	lsk := kb.BootListener(netproto.Addr{IP: kb.IPs()[0], Port: 80})
	pb := kb.NewProcess(0)
	var blfd int
	var bFDs []int
	pb.OnStart = func(t *cpu.Task) {
		blfd = pb.AttachListener(t, lsk)
		if kb.Config().Feat.LocalListen {
			if err := pb.LocalListen(t, blfd); err != nil {
				panic(err)
			}
		}
		pb.EpollAdd(t, blfd)
	}
	pb.OnEvents = func(t *cpu.Task, evs []epoll.Ready) {
		for _, ev := range evs {
			if ev.FD == blfd {
				for {
					cfd, ok := pb.Accept(t, blfd)
					if !ok {
						break
					}
					pb.EpollAdd(t, cfd)
					bFDs = append(bFDs, cfd)
				}
			}
		}
	}
	pb.Start()

	// A: a worker that opens a handful of connections and sits on them.
	pa := ka.NewProcess(0)
	var aFDs []int
	pa.OnStart = func(t *cpu.Task) {
		for i := 0; i < 8; i++ {
			fd := pa.Socket(t)
			if fd < 0 {
				continue
			}
			if err := pa.Connect(t, fd, netproto.Addr{IP: kb.IPs()[0], Port: 80}); err != nil {
				panic(err)
			}
			pa.EpollAdd(t, fd)
			aFDs = append(aFDs, fd)
		}
	}
	pa.Start()
	loop.RunUntil(5 * sim.Millisecond)

	// Close both ends of every pair at the same instant.
	ka.Machine().Core(0).Submit(func(t *cpu.Task) {
		for _, fd := range aFDs {
			pa.CloseFD(t, fd)
		}
	})
	kb.Machine().Core(0).Submit(func(t *cpu.Task) {
		for _, fd := range bFDs {
			pb.CloseFD(t, fd)
		}
	})
	// Long enough for the CLOSING handshakes and 2MSL reaping.
	loop.RunUntil(loop.Now() + 120*sim.Millisecond)
	merged.Merge(ka.FSMTrace())
	merged.Merge(kb.FSMTrace())
}
