package app

import (
	"testing"

	"fastsocket/internal/fault"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
	"fastsocket/internal/tcp"
)

// --- Network fabric ---------------------------------------------------

// oneDomain builds a fabric over a one-domain shard engine: every
// endpoint attaches to the returned Port(0), and the test drives the
// domain's loop directly.
func oneDomain(delay sim.Time) (*sim.Loop, *Network, *Port) {
	eng := shard.NewEngine(shard.Config{Lookahead: delay})
	loop := eng.AddDomain("bed")
	n := NewShardedNetwork(eng, delay)
	return loop, n, n.Port(0)
}

type sinkEndpoint struct {
	got []*netproto.Packet
}

func (s *sinkEndpoint) Deliver(p *netproto.Packet) { s.got = append(s.got, p) }

func TestNetworkDeliversAfterDelay(t *testing.T) {
	loop, n, port := oneDomain(100 * sim.Microsecond)
	sink := &sinkEndpoint{}
	ip := netproto.IPv4(10, 0, 0, 1)
	port.Attach(sink, ip)
	port.Send(&netproto.Packet{Dst: netproto.Addr{IP: ip, Port: 80}})
	loop.RunUntil(99 * sim.Microsecond)
	if len(sink.got) != 0 {
		t.Error("packet arrived before the fabric delay")
	}
	loop.RunUntil(101 * sim.Microsecond)
	if len(sink.got) != 1 {
		t.Error("packet did not arrive after the fabric delay")
	}
	if n.Stats().Delivered != 1 {
		t.Errorf("stats = %+v", n.Stats())
	}
}

func TestNetworkUnroutable(t *testing.T) {
	loop, n, port := oneDomain(10 * sim.Microsecond)
	port.Send(&netproto.Packet{Dst: netproto.Addr{IP: netproto.IPv4(9, 9, 9, 9), Port: 1}})
	loop.Run()
	if n.Stats().Unroutable != 1 {
		t.Errorf("stats = %+v", n.Stats())
	}

	// A populated route table (grown past its first size, so some
	// addresses share a probe run) routes every attached address and
	// still counts the rest.
	loop, n, port = oneDomain(10 * sim.Microsecond)
	sink := &sinkEndpoint{}
	for i := 0; i < 40; i++ {
		port.Attach(sink, netproto.IPv4(10, 1, byte(i/8), byte(i)))
	}
	for i := 0; i < 40; i++ {
		port.Send(&netproto.Packet{Dst: netproto.Addr{IP: netproto.IPv4(10, 1, byte(i/8), byte(i)), Port: 80}})
		port.Send(&netproto.Packet{Dst: netproto.Addr{IP: netproto.IPv4(10, 2, byte(i/8), byte(i)), Port: 80}})
	}
	loop.Run()
	if st := n.Stats(); st.Unroutable != 40 || st.Delivered != 40 || len(sink.got) != 40 {
		t.Errorf("stats = %+v, %d arrivals; want 40 unroutable and 40 delivered", st, len(sink.got))
	}
}

// TestAttachAfterSendPanics: routes are bound when a packet is sent,
// so attaching once any port has sent would route packets already in
// flight by the old table. Attach panics instead, on every port.
func TestAttachAfterSendPanics(t *testing.T) {
	const delay = 10 * sim.Microsecond
	eng := shard.NewEngine(shard.Config{Lookahead: delay})
	eng.AddDomain("a")
	eng.AddDomain("b")
	n := NewShardedNetwork(eng, delay)
	a, b := n.Port(0), n.Port(1)
	ip := netproto.IPv4(10, 0, 0, 1)
	a.Attach(&sinkEndpoint{}, ip)
	b.Attach(&sinkEndpoint{}, ip) // replacing a route before any send is fine
	a.Send(&netproto.Packet{Dst: netproto.Addr{IP: ip, Port: 80}})
	for _, p := range []*Port{a, b} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Attach on port %d after a send did not panic", p.dom)
				}
			}()
			p.Attach(&sinkEndpoint{}, netproto.IPv4(10, 0, 0, 2))
		}()
	}
	eng.Run(2 * delay)
	if st := n.Stats(); st.Delivered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestNetworkLoss: a port armed with a link-drop plan accounts for
// every packet it is handed as delivered or lost, and the fabric and
// fault counters agree on the losses.
func TestNetworkLoss(t *testing.T) {
	loop, n, port := oneDomain(10 * sim.Microsecond)
	n.faults = fault.NewEngine(1, fault.Plan{C2S: fault.LinkFaults{Drop: 0.5}})
	sink := &sinkEndpoint{}
	ip := netproto.IPv4(10, 0, 0, 1)
	port.Attach(sink, ip)
	for i := 0; i < 1000; i++ {
		port.Send(&netproto.Packet{Dst: netproto.Addr{IP: ip, Port: 80}, Seq: uint32(i)})
	}
	loop.Run()
	st := n.Stats()
	if st.LostRandom < 400 || st.LostRandom > 600 {
		t.Errorf("lost %d/1000 at 50%% loss", st.LostRandom)
	}
	if st.Delivered+st.LostRandom != 1000 || uint64(len(sink.got)) != st.Delivered {
		t.Errorf("accounting mismatch: %+v, %d arrivals", st, len(sink.got))
	}
	if drops := n.FaultStats().LinkDrops; drops != st.LostRandom {
		t.Errorf("fault LinkDrops = %d, fabric LostRandom = %d", drops, st.LostRandom)
	}
}

// TestFaultStatsSumsPortViews: on a two-domain bed each sending port
// decides and counts link faults in its own sender view; FaultStats is
// their sum, and the arming engine itself counts nothing.
func TestFaultStatsSumsPortViews(t *testing.T) {
	const delay = 10 * sim.Microsecond
	eng := shard.NewEngine(shard.Config{Lookahead: delay})
	eng.AddDomain("a")
	eng.AddDomain("b")
	n := NewShardedNetwork(eng, delay)
	n.faults = fault.NewEngine(1, fault.Plan{C2S: fault.LinkFaults{Drop: 1}})
	a, b := n.Port(0), n.Port(1)
	ipA, ipB := netproto.IPv4(10, 0, 0, 1), netproto.IPv4(10, 0, 0, 2)
	a.Attach(&sinkEndpoint{}, ipA)
	b.Attach(&sinkEndpoint{}, ipB)
	for i := 0; i < 3; i++ {
		a.Send(&netproto.Packet{Dst: netproto.Addr{IP: ipB, Port: 80}, Seq: uint32(i)})
	}
	for i := 0; i < 2; i++ {
		b.Send(&netproto.Packet{Dst: netproto.Addr{IP: ipA, Port: 80}, Seq: uint32(i)})
	}
	eng.Run(sim.Millisecond)
	if got := a.faults.Stats().LinkDrops; got != 3 {
		t.Errorf("port 0 view LinkDrops = %d, want 3", got)
	}
	if got := b.faults.Stats().LinkDrops; got != 2 {
		t.Errorf("port 1 view LinkDrops = %d, want 2", got)
	}
	if got := n.FaultStats().LinkDrops; got != 5 {
		t.Errorf("FaultStats LinkDrops = %d, want 5 (sum of the port views)", got)
	}
	if got := n.faults.Stats().LinkDrops; got != 0 {
		t.Errorf("arming engine counted %d link drops, want 0", got)
	}
	if st := n.Stats(); st.LostRandom != 5 || st.Delivered != 0 {
		t.Errorf("fabric stats = %+v, want 5 lost, 0 delivered", st)
	}
}

// --- Backend mini-TCP -------------------------------------------------

func backendPair(t *testing.T) (*sim.Loop, *Port, *Backend, netproto.Addr) {
	loop, _, n := oneDomain(10 * sim.Microsecond)
	addr := netproto.Addr{IP: netproto.IPv4(10, 3, 0, 1), Port: 80}
	b := NewBackend(loop, n, BackendConfig{Addr: addr, ResponseLen: 256})
	return loop, n, b, addr
}

func TestBackendHandshakeAndResponse(t *testing.T) {
	loop, n, b, addr := backendPair(t)
	sink := &sinkEndpoint{}
	cli := netproto.Addr{IP: netproto.IPv4(10, 2, 0, 1), Port: 40000}
	n.Attach(sink, cli.IP)

	// SYN.
	n.Send(&netproto.Packet{Src: cli, Dst: addr, Flags: netproto.SYN, Seq: 100})
	loop.Run()
	if len(sink.got) != 1 || !sink.got[0].Flags.Has(netproto.SYN|netproto.ACK) {
		t.Fatalf("no SYN-ACK: %v", sink.got)
	}
	synack := sink.got[0]
	if synack.Ack != 101 {
		t.Errorf("SYN-ACK acks %d, want 101", synack.Ack)
	}
	// ACK + request.
	req := netproto.BuildRequest("/x", 200)
	n.Send(&netproto.Packet{Src: cli, Dst: addr, Flags: netproto.ACK, Seq: 101, Ack: synack.Seq + 1})
	n.Send(&netproto.Packet{
		Src: cli, Dst: addr, Flags: netproto.PSH | netproto.ACK,
		Seq: 101, Ack: synack.Seq + 1, Payload: req,
	})
	loop.Run()
	if b.Requests != 1 {
		t.Fatalf("backend saw %d requests", b.Requests)
	}
	// Expect ACK(s), a response carrying 256 bytes, and a FIN.
	var gotResp, gotFIN bool
	for _, p := range sink.got {
		if len(p.Payload) == 256 {
			gotResp = true
		}
		if p.Flags.Has(netproto.FIN) {
			gotFIN = true
		}
	}
	if !gotResp || !gotFIN {
		t.Errorf("resp=%v fin=%v (packets: %d)", gotResp, gotFIN, len(sink.got))
	}
}

func TestBackendReanswersDuplicateSYN(t *testing.T) {
	loop, n, _, addr := backendPair(t)
	sink := &sinkEndpoint{}
	cli := netproto.Addr{IP: netproto.IPv4(10, 2, 0, 1), Port: 40001}
	n.Attach(sink, cli.IP)
	n.Send(&netproto.Packet{Src: cli, Dst: addr, Flags: netproto.SYN, Seq: 5})
	loop.Run()
	// A retransmitted SYN is a fresh segment with identical fields (the
	// first one was consumed — and possibly recycled — by the backend).
	n.Send(&netproto.Packet{Src: cli, Dst: addr, Flags: netproto.SYN, Seq: 5})
	loop.Run()
	if len(sink.got) != 2 {
		t.Fatalf("%d replies to duplicate SYN", len(sink.got))
	}
	if sink.got[0].Seq != sink.got[1].Seq {
		t.Error("retransmitted SYN-ACK changed ISN")
	}
}

func TestBackendIgnoresForeignPackets(t *testing.T) {
	loop, n, b, addr := backendPair(t)
	cli := netproto.Addr{IP: netproto.IPv4(10, 2, 0, 1), Port: 40002}
	// Data for a connection that never completed a handshake.
	n.Send(&netproto.Packet{Src: cli, Dst: addr, Flags: netproto.ACK, Seq: 1})
	loop.Run()
	if b.Live() != 0 {
		t.Error("backend created state from a non-SYN packet")
	}
}

// --- HTTPLoad keep-alive ----------------------------------------------

func TestKeepAliveMultipleRequestsPerConnection(t *testing.T) {
	loop, _, port := oneDomain(20 * sim.Microsecond)
	k := kernel.New(loop, kernel.Config{Cores: 2, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket()})
	port.AttachKernel(k)
	srv := NewWebServer(k, WebServerConfig{KeepAlive: true})
	srv.Start()
	cli := NewHTTPLoad(loop, port, HTTPLoadConfig{
		Targets:         serverTargets(k, 80),
		Concurrency:     4,
		RequestsPerConn: 10,
	})
	cli.Start()
	loop.RunUntil(50 * sim.Millisecond)

	if cli.Completed < 100 {
		t.Fatalf("completed %d requests", cli.Completed)
	}
	if cli.Errors != 0 {
		t.Errorf("errors: %d", cli.Errors)
	}
	// Requests per connection: roughly 10x fewer connections than
	// requests.
	if cli.Launched() > cli.Completed/5 {
		t.Errorf("launched %d connections for %d requests — keep-alive not reusing",
			cli.Launched(), cli.Completed)
	}
	if k.Stats().RSTSent != 0 {
		t.Errorf("server sent %d RSTs", k.Stats().RSTSent)
	}
}

func TestKeepAliveServerCountsEveryRequest(t *testing.T) {
	loop, _, port := oneDomain(20 * sim.Microsecond)
	k := kernel.New(loop, kernel.Config{Cores: 1, Mode: kernel.Base2632})
	port.AttachKernel(k)
	srv := NewWebServer(k, WebServerConfig{KeepAlive: true})
	srv.Start()
	cli := NewHTTPLoad(loop, port, HTTPLoadConfig{
		Targets:         serverTargets(k, 80),
		Concurrency:     2,
		RequestsPerConn: 5,
	})
	cli.Start()
	loop.RunUntil(20 * sim.Millisecond)
	if srv.Served < cli.Completed {
		t.Errorf("server served %d < client completed %d", srv.Served, cli.Completed)
	}
	if cli.Completed == 0 {
		t.Fatal("nothing completed")
	}
}

func TestOpenLoopArrivals(t *testing.T) {
	loop, _, port := oneDomain(20 * sim.Microsecond)
	k := kernel.New(loop, kernel.Config{Cores: 2, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket()})
	port.AttachKernel(k)
	srv := NewWebServer(k, WebServerConfig{})
	srv.Start()
	cli := NewHTTPLoad(loop, port, HTTPLoadConfig{Targets: serverTargets(k, 80)})
	cli.StartOpenLoop(func(sim.Time) float64 { return 10000 }) // 10k conns/s
	loop.RunUntil(50 * sim.Millisecond)
	// ~500 expected arrivals.
	if cli.Launched() < 300 || cli.Launched() > 800 {
		t.Errorf("open loop launched %d conns at 10k/s over 50ms", cli.Launched())
	}
	cli.StopOpenLoop()
	at := cli.Launched()
	loop.RunUntil(80 * sim.Millisecond)
	if cli.Launched() > at+2 {
		t.Error("arrivals continued after StopOpenLoop")
	}
}

func TestHTTPLoadLatencyRecorded(t *testing.T) {
	loop, _, port := oneDomain(20 * sim.Microsecond)
	k := kernel.New(loop, kernel.Config{Cores: 1, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket()})
	port.AttachKernel(k)
	NewWebServer(k, WebServerConfig{}).Start()
	cli := NewHTTPLoad(loop, port, HTTPLoadConfig{Targets: serverTargets(k, 80), Concurrency: 4})
	cli.Start()
	loop.RunUntil(20 * sim.Millisecond)
	if cli.Latencies.Count() == 0 {
		t.Fatal("no latency samples")
	}
	// A fetch (request sent -> response complete) takes at least one
	// RTT through the 20us-each-way fabric.
	if cli.Latencies.Min() < 40*sim.Microsecond {
		t.Errorf("min latency %v implausibly low", cli.Latencies.Min())
	}
}

// --- SYN flood and syncookies ------------------------------------------

func floodBed(t *testing.T, synCookies bool) (*sim.Loop, *HTTPLoad, *SYNFlood, *kernel.Kernel) {
	t.Helper()
	loop, _, port := oneDomain(20 * sim.Microsecond)
	params := tcp.DefaultParams()
	params.SynBacklog = 64 // small queue so the flood bites quickly
	params.SynCookies = synCookies
	k := kernel.New(loop, kernel.Config{
		Cores: 2,
		Mode:  kernel.Fastsocket,
		Feat:  kernel.FullFastsocket(),
		TCP:   params,
	})
	port.AttachKernel(k)
	NewWebServer(k, WebServerConfig{}).Start()
	cli := NewHTTPLoad(loop, port, HTTPLoadConfig{
		Targets:     serverTargets(k, 80),
		Concurrency: 8,
		RTO:         20 * sim.Millisecond, // fail fast in the test window
		MaxSYNRetry: 2,
	})
	flood := NewSYNFlood(loop, port, SYNFloodConfig{
		Target: netproto.Addr{IP: k.IPs()[0], Port: 80},
		Rate:   200000,
	})
	return loop, cli, flood, k
}

func TestSYNFloodStarvesLegitClientsWithoutCookies(t *testing.T) {
	loop, cli, flood, k := floodBed(t, false)
	flood.Start()
	loop.RunUntil(5 * sim.Millisecond) // let the SYN queue fill
	cli.Start()
	loop.RunUntil(200 * sim.Millisecond)
	if flood.Sent < 1000 {
		t.Fatalf("flood sent only %d SYNs", flood.Sent)
	}
	if k.Stats().ListenDrops == 0 {
		t.Error("no SYN drops under flood with a full queue")
	}
	if cli.Errors == 0 {
		t.Errorf("legitimate clients unaffected by the flood (completed %d)", cli.Completed)
	}
}

func TestSynCookiesKeepServiceAliveUnderFlood(t *testing.T) {
	loop, cli, flood, k := floodBed(t, true)
	flood.Start()
	loop.RunUntil(5 * sim.Millisecond)
	cli.Start()
	loop.RunUntil(200 * sim.Millisecond)
	if cli.Errors != 0 {
		t.Errorf("legitimate clients failed %d times despite syncookies", cli.Errors)
	}
	if cli.Completed < 100 {
		t.Errorf("completed only %d fetches under flood with syncookies", cli.Completed)
	}
	if k.Stats().CookieAccepts == 0 {
		t.Error("no connections were reconstructed from cookies")
	}
}

func TestForgedCookieACKGetsRST(t *testing.T) {
	loop, _, port := oneDomain(10 * sim.Microsecond)
	params := tcp.DefaultParams()
	params.SynCookies = true
	k := kernel.New(loop, kernel.Config{Cores: 1, Mode: kernel.Fastsocket, Feat: kernel.FullFastsocket(), TCP: params})
	port.AttachKernel(k)
	NewWebServer(k, WebServerConfig{}).Start()
	loop.RunUntil(sim.Millisecond)
	// An ACK with a bogus cookie for a connection that never existed.
	k.Deliver(&netproto.Packet{
		Src:   netproto.Addr{IP: netproto.IPv4(10, 2, 0, 9), Port: 41000},
		Dst:   netproto.Addr{IP: k.IPs()[0], Port: 80},
		Flags: netproto.ACK,
		Seq:   1, Ack: 0xDEADBEEF,
	})
	loop.RunUntil(2 * sim.Millisecond)
	if k.Stats().CookieAccepts != 0 {
		t.Error("forged cookie accepted")
	}
	if k.Stats().RSTSent == 0 {
		t.Error("forged ACK not answered with RST")
	}
}
