// Package app contains everything above the simulated kernel's
// syscall layer: the network fabric connecting machines, the
// synthetic load generator (an http_load work-alike) and backend
// server (infinite-capacity peers, so the machine under test is the
// bottleneck, as in the paper's testbed), and the two benchmark
// applications — an Nginx-like web server and an HAProxy-like proxy —
// implemented against the BSD socket API.
package app

import (
	"math/bits"

	"fastsocket/internal/fault"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
)

// Endpoint receives packets addressed to its IPs.
type Endpoint interface {
	Deliver(p *netproto.Packet)
}

// Wire is the transmit-side view of the fabric an application holds:
// its own domain's Port. Everything an endpoint does to the fabric
// goes through its Wire, so cross-domain effects are funneled into the
// mailbox API by construction.
type Wire interface {
	Send(p *netproto.Packet)
	Attach(ep Endpoint, ips ...netproto.IP)
}

// NetworkStats counts fabric activity.
type NetworkStats struct {
	Delivered  uint64
	LostRandom uint64 // dropped by an injected link fault
	Unroutable uint64 // no endpoint for destination IP
}

// Add merges two fabric snapshots (per-port counters are summed in
// domain index order).
func (s NetworkStats) Add(o NetworkStats) NetworkStats {
	s.Delivered += o.Delivered
	s.LostRandom += o.LostRandom
	s.Unroutable += o.Unroutable
	return s
}

// Network is the switch fabric: constant one-way delay and — when a
// kernel with a fault plan is attached — the deterministic link-fault
// layer. Endpoints live on shard.Engine domains, each domain
// transmits through its own Port, and cross-domain arrivals ride the
// engine's deterministic mailboxes with the fabric delay as the
// lookahead window. A bed that needs no decomposition is a one-domain
// engine with every endpoint on Port(0), driven through that domain's
// loop.
type Network struct {
	delay  sim.Time
	faults *fault.Engine
	// routes resolves a destination IP once per packet, at send, to
	// its domain and its endpoint's arrival callback. It is fixed
	// before the first send (Attach panics after one), so resolving at
	// send is resolving at arrival.
	routes routeTable

	eng    *shard.Engine
	ports  []*Port // lazily created, one per domain
	frozen bool    // topology sealed before the engine runs
}

// route is where packets to one attached IP go.
type route struct {
	ip  netproto.IP
	dom int
	// arrive is the callback bound to the endpoint at Attach, shared
	// by all of its IPs; scheduled via the engine's argument form, so
	// transmission allocates no per-packet closure.
	arrive func(any)
}

// routeTable is an open-addressed hash table of routes with linear
// probing, kept at most half full. A route with a nil arrive marks an
// empty slot. The default client alone attaches 32 IPs, so a linear
// scan is too slow, and this table beats a Go map on the per-packet
// lookup.
type routeTable struct {
	slots []route
	shift uint // 32 - log2(len(slots))
	n     int
}

// slot is ip's home slot: Fibonacci hashing on the top bits.
func (t *routeTable) slot(ip netproto.IP) int {
	return int(uint32(ip) * 0x9e3779b9 >> t.shift)
}

// lookup returns ip's route, or nil.
func (t *routeTable) lookup(ip netproto.IP) *route {
	if t.n == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.slot(ip); ; i = (i + 1) & mask {
		r := &t.slots[i]
		if r.arrive == nil {
			return nil
		}
		if r.ip == ip {
			return r
		}
	}
}

// put adds r or replaces the route for its IP.
func (t *routeTable) put(r route) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		size := max(16, 2*len(old))
		t.slots, t.n = make([]route, size), 0
		t.shift = uint(32 - bits.TrailingZeros(uint(size)))
		for _, o := range old {
			if o.arrive != nil {
				t.put(o)
			}
		}
	}
	mask := len(t.slots) - 1
	i := t.slot(r.ip)
	for t.slots[i].arrive != nil && t.slots[i].ip != r.ip {
		i = (i + 1) & mask
	}
	if t.slots[i].arrive == nil {
		t.n++
	}
	t.slots[i] = r
}

// NewShardedNetwork builds a fabric over the engine's domains. The
// fabric delay must be at least the engine's lookahead, or the first
// cross-domain Send will (correctly) panic as a lookahead violation.
func NewShardedNetwork(eng *shard.Engine, delay sim.Time) *Network {
	n := &Network{delay: delay, eng: eng}
	eng.AtBarrier(n.balancePools)
	return n
}

// The water marks of the barrier-time packet balance. Every packet
// crossing domains parks in the receiver's pool, so a domain that
// receives more than it sends (the server of a short-lived mix: the
// client sends one more segment per connection than it gets) gains
// packets and its peer runs dry. At each barrier, ports holding more
// than poolHighWater parked packets give their surplus to ports
// holding fewer than poolLowWater. Packets are moved, never dropped:
// trimming a pool frees packets that some domain allocates again
// (trimming every pool to 512 made keepalive_bulk, whose server draws
// ~12 segments per request in bursts, allocate 5.4 per request).
// The figures below are the deepest net draws over one 20µs window of
// the fsperf mixes at seed 1.
const (
	// poolLowWater is what a port is refilled to. A domain that lives
	// on refills draws at most 21 (the short mixes' client) to 28 (the
	// proxy's backend) packets per window, so the reserve outlasts
	// several windows. It stays well below poolHighWater: refilling to
	// 512 (under a 1024 high mark) made keepalive_bulk's server
	// allocate again, because refills pulled packets out of a domain
	// whose traffic is balanced but bursty.
	poolLowWater = 256
	// poolHighWater is what a donor keeps. It exceeds the deepest draw
	// of such a bursty domain (keepalive_bulk's server: 384 in one
	// window), so donating never leaves the donor short in the next.
	// It is also how much surplus a domain gathers, by its peers
	// allocating, before it gives any: at 1024 a small proxy bed was
	// still allocating after 40 ms.
	poolHighWater = 512
)

// balancePools moves parked surplus packets from ports above
// poolHighWater to ports below poolLowWater, in domain index order. It
// is the engine's barrier hook: no worker runs, so every port's pool
// may be touched. Pools carry no simulated state, so the move cannot
// change a simulated outcome.
func (n *Network) balancePools() {
	for _, dst := range n.ports {
		if dst == nil || dst.pool.Parked() >= poolLowWater {
			continue
		}
		for _, src := range n.ports {
			if src == nil || src == dst {
				continue
			}
			if surplus := src.pool.Parked() - poolHighWater; surplus > 0 {
				src.pool.MoveTo(&dst.pool, min(surplus, poolLowWater-dst.pool.Parked()))
				if dst.pool.Parked() >= poolLowWater {
					break
				}
			}
		}
	}
}

// Freeze seals the sharded topology: after it, Attach panics. The
// harness calls it before the engine's first Run, making the route
// table read-only for the whole parallel phase — worker threads only
// ever read it.
func (n *Network) Freeze() { n.frozen = true }

// Stats returns a snapshot of the fabric counters, the per-port
// counters merged in domain index order.
func (n *Network) Stats() NetworkStats {
	var total NetworkStats
	for _, p := range n.ports {
		if p != nil {
			total = total.Add(p.stats)
		}
	}
	return total
}

// FaultStats merges the link-fault counters across the ports' sender
// views in domain index order. Link faults are decided and counted on
// the sending port, so the attached kernel's own engine never sees
// them.
func (n *Network) FaultStats() fault.Stats {
	var total fault.Stats
	for _, p := range n.ports {
		if p != nil {
			total = total.Add(p.faults.Stats())
		}
	}
	return total
}

// Port is one domain's handle on the fabric. Each sending domain owns
// its fault sender-view, counters and packet pool, so transmit-side
// state is never shared across worker threads; routing state (the
// route table) is sealed read-only by Freeze. Port implements Wire.
type Port struct {
	n      *Network
	dom    int
	loop   *sim.Loop
	faults *fault.Engine // sender view, created when the fabric is armed
	stats  NetworkStats
	// sent records that this port has transmitted, after which Attach
	// panics. It is per port so that workers never share a write.
	sent bool
	// pool is the domain's skb pool: the attached kernels and the
	// HTTPLoad and Backend endpoints all draw from and free into it,
	// and balancePools moves surplus between domains at barriers.
	pool netproto.PacketPool
}

// poolUser is an endpoint that adopts its domain's packet pool when it
// is attached (HTTPLoad, Backend). A wrapper around such an endpoint
// hides the method, and the endpoint then keeps its private pool.
type poolUser interface {
	usePool(pp *netproto.PacketPool)
}

// Port returns domain dom's transmit handle.
func (n *Network) Port(dom int) *Port {
	for len(n.ports) <= dom {
		n.ports = append(n.ports, nil)
	}
	if n.ports[dom] == nil {
		n.ports[dom] = &Port{n: n, dom: dom, loop: n.eng.Loop(dom)}
	}
	return n.ports[dom]
}

// Attach registers an endpoint's IPs as owned by this port's domain,
// replacing any earlier endpoint of those IPs. An endpoint that keeps
// a packet pool switches to the domain's. Routes are bound when a
// packet is sent, so Attach panics once any port has sent.
func (p *Port) Attach(ep Endpoint, ips ...netproto.IP) {
	if p.n.frozen {
		panic("app: Attach after the sharded fabric started")
	}
	for _, q := range p.n.ports {
		if q != nil && q.sent {
			panic("app: Attach after the fabric carried a packet")
		}
	}
	if u, ok := ep.(poolUser); ok {
		u.usePool(&p.pool)
	}
	arrive := func(v any) { ep.Deliver(v.(*netproto.Packet)) }
	for _, ip := range ips {
		p.n.routes.put(route{ip: ip, dom: p.dom, arrive: arrive})
	}
}

// AttachKernel wires a kernel into this port's domain; the kernel's
// loop must be the domain's loop. The kernel's skb pool becomes the
// domain's. A kernel carrying a fault engine arms the whole fabric:
// every port then derives a sender view sharing the engine's seed and
// plan.
func (p *Port) AttachKernel(k *kernel.Kernel) {
	k.SendToWire = p.Send
	k.UsePacketPool(&p.pool)
	p.Attach(k, k.IPs()...)
	if e := k.Faults(); e != nil {
		p.n.faults = e
	}
}

// Send puts a packet on the wire from this port's domain; it arrives
// after the fabric delay. This domain's fault sender view may drop,
// duplicate, delay (reorder), or corrupt it first — all wire-side,
// costing no CPU on either machine. Decisions are per-flow keyed, so
// they do not depend on how the bed is split into domains (see
// fault.SenderView).
func (p *Port) Send(pkt *netproto.Packet) {
	n := p.n
	p.sent = true
	if p.faults == nil && n.faults != nil {
		p.faults = n.faults.SenderView()
	}
	delay := n.delay
	if p.faults != nil && p.faults.Plan().LinkEnabled() {
		if pkt.GSOSize > 0 && len(pkt.Payload) > pkt.GSOSize {
			// TSO super-segment under an armed link-fault plane: the
			// NIC wire-splits it so fault decisions keep MSS (wire)
			// granularity — identical keys and outcomes to offloads-off.
			p.sendGSO(pkt, delay)
			return
		}
		switch act, extra := p.faults.LinkAction(pkt); act {
		case fault.Drop:
			p.stats.LostRandom++
			return
		case fault.Dup:
			// Deliver a distinct copy: with packet pooling the two
			// arrivals are freed independently, so they must not alias.
			d := *pkt
			p.deliver(&d, delay)
		case fault.Reorder:
			delay += extra
		case fault.Corrupt:
			pkt = fault.CorruptCopy(pkt)
		}
	}
	p.deliver(pkt, delay)
}

// sendGSO puts a TSO super-segment on a faulty wire at wire-segment
// granularity: the fault engine draws one decision per MSS-sized
// chunk, in send order, with the exact keys (tuple, per-chunk Seq,
// flags) and occurrence sequence the offloads-off transmission of the
// same bytes would have used — so drop/dup/reorder/corrupt outcomes
// are segment-for-segment identical with offloads on or off.
// Contiguous runs of unaffected chunks re-aggregate into
// sub-super-segments (the common whole-super case delivers the
// original packet, one arrival, no copies); chunks hit by a fault are
// delivered or dropped individually, exactly like the scalar path.
func (p *Port) sendGSO(pkt *netproto.Packet, delay sim.Time) {
	mss := pkt.GSOSize
	payload := pkt.Payload
	// flush emits chunks [start, end) as one wire segment (again a
	// super-segment when the run spans several chunks).
	flush := func(start, end int) {
		if start >= end {
			return
		}
		c := *pkt
		c.Seq = pkt.Seq + uint32(start)
		c.Payload = payload[start:end]
		c.GSOSize = 0
		if end-start > mss {
			c.GSOSize = mss
		}
		p.deliver(&c, delay)
	}
	// probe carries only the fields LinkAction keys on; it never
	// escapes, so the per-chunk draw allocates nothing.
	probe := netproto.Packet{Src: pkt.Src, Dst: pkt.Dst, Flags: pkt.Flags, Ack: pkt.Ack}
	faulted := false
	runStart := 0
	for off := 0; off < len(payload); off += mss {
		end := off + mss
		if end > len(payload) {
			end = len(payload)
		}
		probe.Seq = pkt.Seq + uint32(off)
		act, extra := p.faults.LinkAction(&probe)
		if act == fault.None {
			continue
		}
		faulted = true
		flush(runStart, off)
		runStart = end
		c := *pkt
		c.Seq = probe.Seq
		c.Payload = payload[off:end]
		c.GSOSize = 0
		switch act {
		case fault.Drop:
			p.stats.LostRandom++
		case fault.Dup:
			d := c
			p.deliver(&d, delay)
			p.deliver(&c, delay)
		case fault.Reorder:
			p.deliver(&c, delay+extra)
		case fault.Corrupt:
			p.deliver(fault.CorruptCopy(&c), delay)
		}
	}
	if !faulted {
		p.deliver(pkt, delay)
		return
	}
	flush(runStart, len(payload))
}

// deliver resolves the destination's route once and mails the arrival
// to its domain, bound to its endpoint. Same-domain traffic arrives
// directly; cross-domain traffic rides the engine mailbox and is
// injected at the next barrier in deterministic (time, source shard,
// source sequence) order.
//
//fsvet:mailbox the sharded fabric's sole cross-domain delivery path
func (p *Port) deliver(pkt *netproto.Packet, delay sim.Time) {
	r := p.n.routes.lookup(pkt.Dst.IP)
	if r == nil {
		p.stats.Unroutable++
		return
	}
	p.stats.Delivered++
	p.n.eng.Post(p.dom, r.dom, p.loop.Now()+delay, r.arrive, pkt)
}
