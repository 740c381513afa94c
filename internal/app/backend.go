package app

import (
	"bytes"

	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
)

// Backend is the synthetic origin server behind the proxy benchmark:
// it accepts connections, reads one request, answers a constant page
// (64 bytes in the paper's HAProxy test) and closes. Like HTTPLoad it
// has infinite capacity, so the proxy machine is the bottleneck.
type Backend struct {
	loop *sim.Loop
	net  Wire
	rng  *sim.Rand

	addr         netproto.Addr
	responseLen  int
	serviceDelay sim.Time
	respBytes    []byte // constant page, rendered once
	// respondFn is respondDelayed bound once: a ServiceDelay response
	// is scheduled with its conn as the argument, not as a closure.
	respondFn func(any)

	conns map[netproto.FourTuple]*backConn
	// pool/freeConns recycle packets and connection state (with its
	// request buffer), as HTTPLoad does. pool is private until a
	// fabric port attaches the origin, which switches it to the
	// domain's.
	pool      *netproto.PacketPool
	freeConns []*backConn

	// Results.
	Requests uint64
}

type backConn struct {
	local, remote  netproto.Addr
	sndNxt, rcvNxt uint32
	established    bool
	req            []byte
	respSent       bool
	finSent        bool
	finRcvd        bool
	finAcked       bool
	// pending marks a ServiceDelay response still scheduled: the
	// response's callback, not retire, recycles the conn.
	pending bool
}

// BackendConfig configures the origin.
type BackendConfig struct {
	Addr         netproto.Addr
	ResponseLen  int      // total bytes on the wire; default 192
	ServiceDelay sim.Time // origin think time per request
	Seed         uint64
}

// NewBackend builds the origin and attaches it to the fabric.
func NewBackend(loop *sim.Loop, net Wire, cfg BackendConfig) *Backend {
	if cfg.ResponseLen == 0 {
		// "a backend server sending a constant 64-byte page": 64-byte
		// body plus minimal headers.
		cfg.ResponseLen = 192
	}
	if cfg.Seed == 0 {
		cfg.Seed = 11
	}
	b := &Backend{
		loop:         loop,
		net:          net,
		rng:          sim.NewRand(cfg.Seed),
		addr:         cfg.Addr,
		responseLen:  cfg.ResponseLen,
		serviceDelay: cfg.ServiceDelay,
		conns:        map[netproto.FourTuple]*backConn{},
		pool:         &netproto.PacketPool{},
	}
	b.respBytes = netproto.BuildResponse(b.responseLen)
	b.respondFn = b.respondDelayed
	net.Attach(b, cfg.Addr.IP)
	return b
}

// usePool adopts the attaching port's domain pool.
func (b *Backend) usePool(pp *netproto.PacketPool) { b.pool = pp }

// getConn pops a recycled connection, keeping its request buffer's
// capacity, or builds one.
func (b *Backend) getConn() *backConn {
	if n := len(b.freeConns); n > 0 {
		c := b.freeConns[n-1]
		b.freeConns[n-1] = nil
		b.freeConns = b.freeConns[:n-1]
		*c = backConn{req: c.req[:0]}
		return c
	}
	return &backConn{}
}

// retire drops a connection from the table and recycles it, unless
// its delayed response is still scheduled.
func (b *Backend) retire(ft netproto.FourTuple, c *backConn) {
	delete(b.conns, ft)
	if !c.pending {
		b.freeConns = append(b.freeConns, c)
	}
}

// Live reports the live connection count (tests).
func (b *Backend) Live() int { return len(b.conns) }

func (b *Backend) send(c *backConn, flags netproto.Flags, payload []byte) {
	p := b.pool.Get()
	p.Src, p.Dst = c.local, c.remote
	p.Flags = flags | netproto.ACK
	p.Seq, p.Ack = c.sndNxt, c.rcvNxt
	p.Payload = payload
	b.net.Send(p)
}

// respond emits the constant page followed by the origin's FIN.
func (b *Backend) respond(c *backConn) {
	resp := b.respBytes
	b.send(c, netproto.PSH, resp)
	c.sndNxt += uint32(len(resp))
	// Connection: close — FIN right after the response.
	b.send(c, netproto.FIN, nil)
	c.sndNxt++
	c.finSent = true
}

// respondDelayed answers after the service delay. A connection reset
// meanwhile has left the table: nothing answers it, and only now,
// with no reference left, is it recycled.
func (b *Backend) respondDelayed(v any) {
	c := v.(*backConn)
	c.pending = false
	if b.conns[netproto.FourTuple{Src: c.remote, Dst: c.local}] != c {
		b.freeConns = append(b.freeConns, c)
		return
	}
	b.respond(c)
}

// Deliver implements Endpoint; the origin is the terminal consumer of
// every packet the proxy sends it.
func (b *Backend) Deliver(p *netproto.Packet) {
	b.deliver(p)
	b.pool.Put(p)
}

func (b *Backend) deliver(p *netproto.Packet) {
	if p.Corrupt {
		return // checksum failure: discard silently
	}
	if p.Dst != b.addr && p.Dst.IP != b.addr.IP {
		return
	}
	ft := p.Tuple()
	c, ok := b.conns[ft]
	if !ok {
		if p.Flags.Has(netproto.SYN) && !p.Flags.Has(netproto.ACK) {
			isn := b.rng.Uint32()
			c = b.getConn()
			c.local, c.remote = p.Dst, p.Src
			c.sndNxt, c.rcvNxt = isn, p.Seq+1
			b.conns[ft] = c
			// SYN-ACK consumes one sequence number.
			sa := b.pool.Get()
			sa.Src, sa.Dst = c.local, c.remote
			sa.Flags = netproto.SYN | netproto.ACK
			sa.Seq, sa.Ack = isn, c.rcvNxt
			b.net.Send(sa)
			c.sndNxt = isn + 1
		}
		return
	}
	if p.Flags.Has(netproto.RST) {
		b.retire(ft, c)
		return
	}
	if p.Flags.Has(netproto.SYN) {
		// Retransmitted SYN: re-answer.
		sa := b.pool.Get()
		sa.Src, sa.Dst = c.local, c.remote
		sa.Flags = netproto.SYN | netproto.ACK
		sa.Seq, sa.Ack = c.sndNxt-1, c.rcvNxt
		b.net.Send(sa)
		return
	}
	c.established = true
	advanced := false
	if len(p.Payload) > 0 && p.Seq == c.rcvNxt {
		c.req = append(c.req, p.Payload...)
		c.rcvNxt += uint32(len(p.Payload))
		advanced = true
		if !c.respSent && bytes.HasSuffix(c.req, []byte("\r\n\r\n")) {
			c.respSent = true
			b.Requests++
			if b.serviceDelay > 0 {
				c.pending = true
				b.loop.AfterArg(b.serviceDelay, b.respondFn, c)
			} else {
				b.respond(c)
			}
		}
	}
	if p.Flags.Has(netproto.FIN) && p.Seq+uint32(len(p.Payload)) == c.rcvNxt {
		c.rcvNxt++
		c.finRcvd = true
		advanced = true
	}
	if p.Flags.Has(netproto.ACK) && c.finSent && p.Ack == c.sndNxt {
		c.finAcked = true
	}
	if advanced {
		b.send(c, 0, nil)
	}
	if c.finRcvd && c.finAcked {
		b.retire(ft, c)
	}
}
