package main

import (
	"fastsocket/internal/app"
	"fastsocket/internal/cpu"
	"fastsocket/internal/epoll"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
)

// Every workload runs the same machine: 8 server cores, 4 listen IPs,
// a closed-loop client, offloads off, on the shard engine with one
// worker (the serial reference). The fabric delay doubles as the
// engine's lookahead, as in the experiment harness.
const (
	serverCores = 8
	listenIPs   = 4
	fabricDelay = 20 * sim.Microsecond
	// rxRing keeps closed-loop bursts far from tail drops: the client
	// runs without retransmission, so a dropped segment would stall a
	// connection instead of failing it.
	rxRing = 8192
)

// workload is one traffic mix.
type workload struct {
	name string
	mode kernel.Mode
	feat kernel.Features
	// proxy selects the HAProxy model with a backend in a third domain;
	// otherwise the Nginx model answers directly.
	proxy        bool
	connsPerCore int
	reqsPerConn  int // 1 = Connection: close
	respLen      int // 0 = the default 1200 B page
}

var workloads = []workload{
	// Figure 4a's traffic: every request pays connection setup and
	// teardown (tcb insert/remove, accept, vfs alloc/free, TIME_WAIT).
	{
		name:         "short_fastsocket",
		mode:         kernel.Fastsocket,
		feat:         kernel.FullFastsocket(),
		connsPerCore: 300,
		reqsPerConn:  1,
	},
	// The same traffic on base-2.6.32: the global listen socket, ehash
	// and VFS locks contend, so lock and cache models are busy.
	{
		name:         "short_base",
		mode:         kernel.Base2632,
		connsPerCore: 300,
		reqsPerConn:  1,
	},
	// Keep-alive with 16 KB responses: connection management nearly
	// vanishes and the per-segment data path dominates.
	{
		name:         "keepalive_bulk",
		mode:         kernel.Fastsocket,
		feat:         kernel.FullFastsocket(),
		connsPerCore: 50,
		reqsPerConn:  100,
		respLen:      16 * 1024,
	},
	// The HAProxy model: the only mix with active opens, ephemeral
	// ports, RFD steering of active flows and wake-all accept.
	{
		name:         "proxy_fastsocket",
		mode:         kernel.Fastsocket,
		feat:         kernel.FullFastsocket(),
		proxy:        true,
		connsPerCore: 300,
		reqsPerConn:  1,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bed is one fully wired simulation of a workload.
type bed struct {
	eng    *shard.Engine
	k      *kernel.Kernel
	client *app.HTTPLoad
	// served reports the server's completed requests: WebServer.Served
	// or Proxy.Proxied.
	served func() uint64
}

// buildBed constructs a workload's bed from public constructors only.
// With a non-nil tracer the bed's layer boundaries are wrapped in
// spans; the wrappers call straight through, so the simulated outcome
// is the same as without them.
func buildBed(w workload, seed uint64, tr *tracer) *bed {
	eng := shard.NewEngine(shard.Config{Lookahead: fabricDelay, Workers: 1})
	srvLoop := eng.AddDomain("server")
	cliLoop := eng.AddDomain("client")
	var backLoop *sim.Loop
	if w.proxy {
		backLoop = eng.AddDomain("backend")
	}
	netw := app.NewShardedNetwork(eng, fabricDelay)

	ips := make([]netproto.IP, listenIPs)
	for i := range ips {
		ips[i] = netproto.IPv4(10, 1, 0, byte(i+1))
	}
	k := kernel.New(srvLoop, kernel.Config{
		Name:       w.name,
		Cores:      serverCores,
		Mode:       w.mode,
		Feat:       w.feat,
		IPs:        ips,
		Seed:       seed,
		RXRingSize: rxRing,
	})
	port := netw.Port(0)
	port.AttachKernel(k)
	var cliWire app.Wire = netw.Port(1)
	if tr != nil {
		tr.wrapKernel(port, k)
		cliWire = &tracedWire{inner: cliWire, tr: tr, rx: spanClientRx}
	}

	b := &bed{eng: eng, k: k}
	var procs []*kernel.Process
	if w.proxy {
		backendAddr := netproto.Addr{IP: netproto.IPv4(10, 3, 0, 1), Port: 80}
		var backWire app.Wire = netw.Port(2)
		if tr != nil {
			backWire = &tracedWire{inner: backWire, tr: tr, rx: spanBackendRx}
		}
		app.NewBackend(backLoop, backWire, app.BackendConfig{Addr: backendAddr, Seed: seed + 11})
		px := app.NewProxy(k, app.ProxyConfig{Backends: []netproto.Addr{backendAddr}})
		procs = px.Workers()
		b.served = func() uint64 { return px.Proxied }
	} else {
		srv := app.NewWebServer(k, app.WebServerConfig{
			ResponseLen: w.respLen,
			KeepAlive:   w.reqsPerConn > 1,
		})
		procs = srv.Workers()
		b.served = func() uint64 { return srv.Served }
	}
	for _, p := range procs {
		if tr != nil {
			on := p.OnEvents
			p.OnEvents = func(t *cpu.Task, evs []epoll.Ready) {
				tr.begin(spanEvents, netproto.FourTuple{}, false)
				on(t, evs)
				tr.end()
			}
		}
		p.Start()
	}

	targets := make([]netproto.Addr, len(ips))
	for i, ip := range ips {
		targets[i] = netproto.Addr{IP: ip, Port: 80}
	}
	b.client = app.NewHTTPLoad(cliLoop, cliWire, app.HTTPLoadConfig{
		Targets:         targets,
		Concurrency:     w.connsPerCore * serverCores,
		RequestsPerConn: w.reqsPerConn,
		ResponseLen:     w.respLen,
		Seed:            seed + 99,
	})
	netw.Freeze()
	return b
}
