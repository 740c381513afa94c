package app

import (
	"testing"

	"fastsocket/internal/fault"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/nic"
	"fastsocket/internal/sim"
	"fastsocket/internal/trace"
)

// testbed wires one server kernel, a client, and (optionally) a
// backend together.
type testbed struct {
	loop    *sim.Loop
	net     *Network
	k       *kernel.Kernel
	client  *HTTPLoad
	backend *Backend
}

func serverTargets(k *kernel.Kernel, port netproto.Port) []netproto.Addr {
	var ts []netproto.Addr
	for _, ip := range k.IPs() {
		ts = append(ts, netproto.Addr{IP: ip, Port: port})
	}
	return ts
}

func newWebBed(t *testing.T, cfg kernel.Config, concurrency int) (*testbed, *WebServer) {
	t.Helper()
	loop, net, port := oneDomain(20 * sim.Microsecond)
	k := kernel.New(loop, cfg)
	port.AttachKernel(k)
	srv := NewWebServer(k, WebServerConfig{})
	srv.Start()
	cli := NewHTTPLoad(loop, port, HTTPLoadConfig{
		Targets:     serverTargets(k, 80),
		Concurrency: concurrency,
	})
	return &testbed{loop: loop, net: net, k: k, client: cli}, srv
}

func newProxyBed(t *testing.T, cfg kernel.Config, concurrency int) (*testbed, *Proxy) {
	t.Helper()
	loop, net, port := oneDomain(20 * sim.Microsecond)
	k := kernel.New(loop, cfg)
	port.AttachKernel(k)
	backendAddr := netproto.Addr{IP: netproto.IPv4(10, 3, 0, 1), Port: 80}
	be := NewBackend(loop, port, BackendConfig{Addr: backendAddr})
	px := NewProxy(k, ProxyConfig{Backends: []netproto.Addr{backendAddr}})
	px.Start()
	cli := NewHTTPLoad(loop, port, HTTPLoadConfig{
		Targets:     serverTargets(k, 80),
		Concurrency: concurrency,
	})
	return &testbed{loop: loop, net: net, k: k, client: cli, backend: be}, px
}

func (tb *testbed) run(d sim.Time) {
	tb.client.Start()
	tb.loop.RunUntil(tb.loop.Now() + d)
}

func webConfigs() map[string]kernel.Config {
	return map[string]kernel.Config{
		"base2632":   {Cores: 4, Mode: kernel.Base2632},
		"linux313":   {Cores: 4, Mode: kernel.Linux313},
		"fastsocket": {Cores: 4, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket()},
		"fs-VL-only": {Cores: 4, Mode: kernel.Fastsocket, Feat: kernel.Features{VFS: true, LocalListen: true}},
	}
}

func TestWebServerEndToEnd(t *testing.T) {
	for name, cfg := range webConfigs() {
		t.Run(name, func(t *testing.T) {
			tb, srv := newWebBed(t, cfg, 64)
			tb.run(100 * sim.Millisecond)
			if tb.client.Completed < 100 {
				t.Fatalf("completed %d fetches, want >= 100", tb.client.Completed)
			}
			if tb.client.Errors != 0 {
				t.Errorf("client errors: %d", tb.client.Errors)
			}
			if tb.k.Stats().RSTSent != 0 {
				t.Errorf("server sent %d RSTs", tb.k.Stats().RSTSent)
			}
			if srv.Served < tb.client.Completed {
				t.Errorf("server served %d < client completed %d", srv.Served, tb.client.Completed)
			}
			if tb.net.Stats().Unroutable != 0 {
				t.Errorf("%d unroutable packets", tb.net.Stats().Unroutable)
			}
		})
	}
}

func TestProxyEndToEnd(t *testing.T) {
	for name, cfg := range webConfigs() {
		t.Run(name, func(t *testing.T) {
			tb, px := newProxyBed(t, cfg, 64)
			tb.run(100 * sim.Millisecond)
			if tb.client.Completed < 100 {
				t.Fatalf("completed %d fetches, want >= 100 (errors=%d proxied=%d RST=%d)",
					tb.client.Completed, tb.client.Errors, px.Proxied, tb.k.Stats().RSTSent)
			}
			if tb.client.Errors != 0 {
				t.Errorf("client errors: %d", tb.client.Errors)
			}
			if px.Errors != 0 {
				t.Errorf("proxy errors: %d", px.Errors)
			}
			if tb.backend.Requests < tb.client.Completed {
				t.Errorf("backend saw %d requests < %d completions", tb.backend.Requests, tb.client.Completed)
			}
		})
	}
}

func TestFastsocketNoSlockContention(t *testing.T) {
	// With complete connection locality, Table 1 says slock, ep.lock
	// and base.lock contentions drop to ~0.
	cfg := kernel.Config{Cores: 4, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket(), NICMode: nic.FDirPerfect}
	tb, _ := newProxyBed(t, cfg, 64)
	tb.run(100 * sim.Millisecond)
	if tb.client.Completed < 100 {
		t.Fatalf("completed only %d", tb.client.Completed)
	}
	lc := tb.k.LockContention()
	for _, name := range []string{"dcache_lock", "inode_lock", "slock", "ehash.lock"} {
		if lc[name] != 0 {
			t.Errorf("%s contended %d times under full Fastsocket", name, lc[name])
		}
	}
}

func TestBaselineHasContention(t *testing.T) {
	cfg := kernel.Config{Cores: 4, Mode: kernel.Base2632}
	tb, _ := newProxyBed(t, cfg, 128)
	tb.run(100 * sim.Millisecond)
	lc := tb.k.LockContention()
	if lc["dcache_lock"] == 0 {
		t.Error("baseline dcache_lock never contended")
	}
	if lc["slock"] == 0 {
		t.Error("baseline slock never contended")
	}
}

func TestRFDPerfectGivesFullLocality(t *testing.T) {
	cfg := kernel.Config{Cores: 4, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket(), NICMode: nic.FDirPerfect}
	tb, _ := newProxyBed(t, cfg, 64)
	tb.run(100 * sim.Millisecond)
	st := tb.k.Stats()
	if st.ActiveIn == 0 {
		t.Fatal("no active incoming packets observed")
	}
	if st.ActiveLocal != st.ActiveIn {
		t.Errorf("local proportion = %d/%d, want 100%%", st.ActiveLocal, st.ActiveIn)
	}
	if st.SoftSteers != 0 {
		t.Errorf("perfect filtering still did %d software steers", st.SoftSteers)
	}
}

func TestRSSLocalityIsOneOverN(t *testing.T) {
	// Without FDir, active incoming packets land on the RSS core;
	// locality ~= 1/cores.
	cfg := kernel.Config{Cores: 4, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket(), NICMode: nic.RSS}
	tb, _ := newProxyBed(t, cfg, 64)
	tb.run(100 * sim.Millisecond)
	st := tb.k.Stats()
	if st.ActiveIn == 0 {
		t.Fatal("no active incoming packets observed")
	}
	frac := float64(st.ActiveLocal) / float64(st.ActiveIn)
	if frac < 0.1 || frac > 0.45 {
		t.Errorf("RSS local proportion = %.3f, want ~0.25", frac)
	}
	if st.SoftSteers == 0 {
		t.Error("RFD did no software steering under RSS")
	}
}

func TestWorkerCrashRobustness(t *testing.T) {
	// §3.2.1 slow path: killing a Fastsocket worker must not break
	// new connections (they fall back to the global listen socket and
	// are accepted by surviving workers via the global accept queue).
	cfg := kernel.Config{Cores: 4, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket()}
	tb, srv := newWebBed(t, cfg, 32)
	tb.client.Start()
	tb.loop.RunUntil(20 * sim.Millisecond)
	before := tb.client.Completed
	srv.Workers()[2].Kill()
	tb.loop.RunUntil(120 * sim.Millisecond)
	if tb.k.Stats().RSTSent != 0 {
		t.Errorf("server sent %d RSTs after worker crash (robustness broken)", tb.k.Stats().RSTSent)
	}
	if tb.client.Completed <= before+50 {
		t.Errorf("throughput stalled after crash: %d -> %d", before, tb.client.Completed)
	}
	if tb.client.Errors != 0 {
		t.Errorf("client saw %d errors after crash", tb.client.Errors)
	}
}

func TestNaivePartitionSendsRST(t *testing.T) {
	// §2.1: the same crash under a naive partition (no global
	// fallback) rejects clients with RST.
	cfg := kernel.Config{
		Cores: 4, Mode: kernel.Fastsocket,
		Feat:            kernel.FullFastsocket(),
		NaiveNoFallback: true,
	}
	tb, srv := newWebBed(t, cfg, 32)
	tb.client.Start()
	tb.loop.RunUntil(20 * sim.Millisecond)
	srv.Workers()[2].Kill()
	tb.loop.RunUntil(120 * sim.Millisecond)
	if tb.k.Stats().RSTSent == 0 {
		t.Error("naive partition sent no RSTs after worker crash")
	}
	if tb.client.Errors == 0 {
		t.Error("clients saw no connection failures under naive partition")
	}
}

func TestProcNetTCPVisibility(t *testing.T) {
	// netstat-style tools must see sockets even with Fastsocket-aware
	// VFS (§3.4 compatibility).
	cfg := kernel.Config{Cores: 2, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket()}
	tb, _ := newWebBed(t, cfg, 16)
	tb.client.Start()
	tb.loop.RunUntil(5 * sim.Millisecond)
	entries := tb.k.ProcNetTCP()
	listeners, others := 0, 0
	for _, e := range entries {
		if e.State == "LISTEN" {
			listeners++
		} else {
			others++
		}
	}
	if listeners == 0 {
		t.Error("/proc/net/tcp shows no listeners")
	}
	if others == 0 {
		t.Error("/proc/net/tcp shows no connections under load")
	}
}

func TestFastsocketAcceptBalance(t *testing.T) {
	// Local listen tables spread accepted connections evenly across
	// workers (RSS spreads SYNs; each core accepts its own).
	cfg := kernel.Config{Cores: 4, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket()}
	tb, srv := newWebBed(t, cfg, 64)
	tb.run(200 * sim.Millisecond)
	total := uint64(0)
	for _, n := range srv.PerWorkerServed {
		total += n
	}
	if total == 0 {
		t.Fatal("no requests served")
	}
	for i, n := range srv.PerWorkerServed {
		frac := float64(n) / float64(total)
		if frac < 0.10 || frac > 0.40 {
			t.Errorf("worker %d served %.1f%% of requests (want ~25%%)", i, frac*100)
		}
	}
}

func TestPacketLossRecovery(t *testing.T) {
	// The kernel's retransmission machinery recovers from moderate
	// wire loss (a 1% link-drop plan each way); throughput continues.
	cfg := kernel.Config{
		Cores: 2, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket(),
		Fault: &fault.Plan{C2S: fault.LinkFaults{Drop: 0.01}, S2C: fault.LinkFaults{Drop: 0.01}},
	}
	tb, _ := newWebBed(t, cfg, 16)
	tb.run(300 * sim.Millisecond)
	if tb.net.FaultStats().LinkDrops == 0 {
		t.Fatal("no segment was dropped; the test is vacuous")
	}
	if tb.client.Completed < 50 {
		t.Errorf("completed only %d fetches under 1%% loss", tb.client.Completed)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		tb, _ := newWebBed(t, kernel.Config{Cores: 4, Mode: kernel.Base2632, Seed: 42}, 32)
		tb.run(50 * sim.Millisecond)
		return tb.client.Completed, tb.k.Stats().PacketsIn
	}
	c1, p1 := run()
	c2, p2 := run()
	if c1 != c2 || p1 != p2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", c1, p1, c2, p2)
	}
}

func TestPacketTraceObservesHandshake(t *testing.T) {
	// Attach a tcpdump-style ring to the kernel and verify a full
	// connection exchange appears on the wire in order.
	cfg := kernel.Config{Cores: 1, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket()}
	loop, _, port := oneDomain(20 * sim.Microsecond)
	k := kernel.New(loop, cfg)
	port.AttachKernel(k)
	ring := trace.NewRing(4096, loop.Now, nil)
	k.SetTracer(ring)
	srv := NewWebServer(k, WebServerConfig{})
	srv.Start()
	cli := NewHTTPLoad(loop, port, HTTPLoadConfig{
		Targets:     serverTargets(k, 80),
		Concurrency: 1,
	})
	cli.Start()
	loop.RunUntil(2 * sim.Millisecond)

	evs := ring.Events()
	if len(evs) < 8 {
		t.Fatalf("traced only %d packets", len(evs))
	}
	// First RX is the SYN; first TX is the SYN-ACK.
	var firstRX, firstTX *trace.Event
	for i := range evs {
		e := &evs[i]
		if e.Dir == trace.RX && firstRX == nil {
			firstRX = e
		}
		if e.Dir == trace.TX && firstTX == nil {
			firstTX = e
		}
	}
	if firstRX == nil || !firstRX.Pkt.Flags.Has(netproto.SYN) {
		t.Errorf("first RX = %v, want SYN", firstRX)
	}
	if firstTX == nil || !firstTX.Pkt.Flags.Has(netproto.SYN|netproto.ACK) {
		t.Errorf("first TX = %v, want SYN|ACK", firstTX)
	}
	// Timestamps are non-decreasing.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("trace out of order")
		}
	}
	if ring.Seen() == 0 || ring.Format() == "" {
		t.Error("ring accounting broken")
	}
}
