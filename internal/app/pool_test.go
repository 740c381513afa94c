package app

import (
	"runtime"
	"testing"

	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
)

// shardedBed is an engine-driven bed: the machine under test in domain
// 0 and every synthetic peer in a domain of its own, so packets cross
// domains and only the barrier hook can balance the pools.
type shardedBed struct {
	eng     *shard.Engine
	net     *Network
	clients []*HTTPLoad
}

// parked counts the packets parked across the ports' pools.
func (b *shardedBed) parked() int {
	n := 0
	for _, p := range b.net.ports {
		n += p.pool.Parked()
	}
	return n
}

func (b *shardedBed) completed() uint64 {
	var n uint64
	for _, c := range b.clients {
		n += c.Completed
	}
	return n
}

// newShortShardedBed is a short-lived web bed: a 2-core Fastsocket
// server and nClients closed-loop clients, each in its own domain.
func newShortShardedBed(nClients int) *shardedBed {
	eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
	srvLoop := eng.AddDomain("server")
	b := &shardedBed{eng: eng}
	cliLoops := make([]*sim.Loop, nClients)
	for i := range cliLoops {
		cliLoops[i] = eng.AddDomain("client")
	}
	b.net = NewShardedNetwork(eng, 20*sim.Microsecond)
	k := kernel.New(srvLoop, kernel.Config{Cores: 2, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket(), RXRingSize: 8192})
	b.net.Port(0).AttachKernel(k)
	NewWebServer(k, WebServerConfig{}).Start()
	for i, l := range cliLoops {
		b.clients = append(b.clients, NewHTTPLoad(l, b.net.Port(i+1), HTTPLoadConfig{
			ClientIPs:   []netproto.IP{netproto.IPv4(10, 2, byte(i), 1)},
			Targets:     serverTargets(k, 80),
			Concurrency: 100,
			Seed:        uint64(7 + i),
		}))
	}
	b.net.Freeze()
	return b
}

// newProxyShardedBed is fsperf's proxy mix at a smaller size: the
// proxy machine, its client and its backend in three domains.
func newProxyShardedBed() *shardedBed {
	eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
	srvLoop := eng.AddDomain("server")
	cliLoop := eng.AddDomain("client")
	backLoop := eng.AddDomain("backend")
	b := &shardedBed{eng: eng, net: NewShardedNetwork(eng, 20*sim.Microsecond)}
	k := kernel.New(srvLoop, kernel.Config{Cores: 2, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket(), RXRingSize: 8192})
	b.net.Port(0).AttachKernel(k)
	backendAddr := netproto.Addr{IP: netproto.IPv4(10, 3, 0, 1), Port: 80}
	NewBackend(backLoop, b.net.Port(2), BackendConfig{Addr: backendAddr})
	NewProxy(k, ProxyConfig{Backends: []netproto.Addr{backendAddr}}).Start()
	b.clients = append(b.clients, NewHTTPLoad(cliLoop, b.net.Port(1), HTTPLoadConfig{
		Targets:     serverTargets(k, 80),
		Concurrency: 200,
	}))
	b.net.Freeze()
	return b
}

// TestPoolsStayBoundedAcrossDomains runs a three-domain short-lived
// bed to 40 ms and then to 80 ms. Each client sends one more segment
// per connection than it receives; without the barrier balance that
// surplus parks in the server's pool, about one packet per request,
// and the clients allocate it afresh.
func TestPoolsStayBoundedAcrossDomains(t *testing.T) {
	b := newShortShardedBed(2)
	defer b.eng.Close()
	for _, c := range b.clients {
		c.Start()
	}
	b.eng.Run(40 * sim.Millisecond)
	parked, done := b.parked(), b.completed()
	b.eng.Run(80 * sim.Millisecond)
	grew, reqs := b.parked()-parked, b.completed()-done
	if reqs < 1000 {
		t.Fatalf("only %d requests completed between 40 and 80 ms", reqs)
	}
	t.Logf("parked %d -> %d over %d requests", parked, parked+grew, reqs)
	if grew > poolLowWater {
		t.Errorf("parked packets grew by %d over %d requests (%.3f/req), want at most %d",
			grew, reqs, float64(grew)/float64(reqs), poolLowWater)
	}
	for i := range b.net.ports {
		if n := b.net.ports[i].pool.Parked(); n == 0 {
			t.Errorf("port %d has no parked packets: the balance never reached it", i)
		}
	}
}

// TestSteadyStateAllocsPerRequest holds the request path to its
// allocation budget once warm: heap allocations over the 40-80 ms
// window, per completed request. What remains on the proxy is
// amortised growth (retransmission queues, spinlock timelines, relay
// buffers), which shrinks as the run lengthens.
func TestSteadyStateAllocsPerRequest(t *testing.T) {
	for _, tc := range []struct {
		name string
		bed  func() *shardedBed
		max  float64
	}{
		{"short", func() *shardedBed { return newShortShardedBed(2) }, 0.02},
		{"proxy", newProxyShardedBed, 0.2},
	} {
		b := tc.bed()
		for _, c := range b.clients {
			c.Start()
		}
		b.eng.Run(40 * sim.Millisecond)
		done := b.completed()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.eng.Run(80 * sim.Millisecond)
		runtime.ReadMemStats(&m1)
		b.eng.Close()
		reqs := b.completed() - done
		if reqs < 500 {
			t.Fatalf("%s: only %d requests completed in the window", tc.name, reqs)
		}
		per := float64(m1.Mallocs-m0.Mallocs) / float64(reqs)
		t.Logf("%s: %.4f allocs/req over %d requests", tc.name, per, reqs)
		if per > tc.max {
			t.Errorf("%s: %.4f allocs/req over %d requests, want at most %.2f", tc.name, per, reqs, tc.max)
		}
	}
}

// TestBackendResetDuringServiceDelay: a connection reset while its
// delayed response is pending is not answered, and the pending
// response never reaches a connection that reused its state.
func TestBackendResetDuringServiceDelay(t *testing.T) {
	loop, _, n := oneDomain(10 * sim.Microsecond)
	addr := netproto.Addr{IP: netproto.IPv4(10, 3, 0, 1), Port: 80}
	NewBackend(loop, n, BackendConfig{Addr: addr, ServiceDelay: 200 * sim.Microsecond})
	sink := &sinkEndpoint{}
	a := netproto.Addr{IP: netproto.IPv4(10, 2, 0, 1), Port: 40000}
	c := netproto.Addr{IP: netproto.IPv4(10, 2, 0, 1), Port: 40001}
	n.Attach(sink, a.IP)
	step := func(p *netproto.Packet) {
		n.Send(p)
		loop.RunUntil(loop.Now() + 20*sim.Microsecond)
	}
	// synAck opens a connection from src and returns the backend's ISN.
	synAck := func(src netproto.Addr) uint32 {
		sink.got = sink.got[:0]
		step(&netproto.Packet{Src: src, Dst: addr, Flags: netproto.SYN, Seq: 100})
		if len(sink.got) != 1 || !sink.got[0].Flags.Has(netproto.SYN|netproto.ACK) {
			t.Fatalf("%v: no SYN-ACK: %v", src, sink.got)
		}
		return sink.got[0].Seq
	}
	req := netproto.BuildRequest("/x", 200)
	request := func(src netproto.Addr, isn uint32) {
		step(&netproto.Packet{Src: src, Dst: addr, Flags: netproto.PSH | netproto.ACK, Seq: 101, Ack: isn + 1, Payload: req})
	}

	isnA := synAck(a)
	request(a, isnA)
	step(&netproto.Packet{Src: a, Dst: addr, Flags: netproto.RST, Seq: 101 + uint32(len(req))})
	isnC := synAck(c)
	// A's response comes due with C open and quiet.
	sink.got = sink.got[:0]
	loop.RunUntil(loop.Now() + 400*sim.Microsecond)
	for _, p := range sink.got {
		t.Errorf("pending response of the reset connection sent %v", p)
	}
	// C's own request is answered once, on C's sequence space.
	request(c, isnC)
	loop.RunUntil(loop.Now() + 400*sim.Microsecond)
	var resp int
	for _, p := range sink.got {
		if p.Dst != c {
			t.Errorf("segment for %v, want only %v: %v", p.Dst, c, p)
		}
		if len(p.Payload) > 0 {
			resp++
			if p.Seq != isnC+1 {
				t.Errorf("response seq %d, want %d", p.Seq, isnC+1)
			}
		}
	}
	if resp != 1 {
		t.Errorf("%d responses to the live connection, want 1", resp)
	}
}
