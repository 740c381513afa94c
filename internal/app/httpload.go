package app

import (
	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
	"fastsocket/internal/stats"
)

// HTTPLoad is a synthetic closed-loop HTTP client modelled on
// http_load, the workload generator the paper uses: it keeps a fixed
// number of short-lived connections in flight, fetching one URL per
// connection with Connection: close. It is an "infinite capacity"
// endpoint — its own CPU cost is zero — so the server under test is
// always the bottleneck, mirroring the paper's practice of running
// Fastsocket on the clients to saturate the server.
type HTTPLoad struct {
	loop *sim.Loop
	net  Wire
	rng  *sim.Rand

	ips     []netproto.IP   // client source addresses
	targets []netproto.Addr // server addresses, used round-robin

	reqLen      int
	respLen     int
	reqsPerConn int
	concurrency int
	maxSYNRetry int
	rto         sim.Time
	retransmit  bool
	maxRetry    int
	chunkBytes  int
	seed        uint64
	backoffCap  sim.Time
	retryBudget int

	conns      map[netproto.FourTuple]*cliConn
	nextIP     int
	nextTarget int
	portCursor []netproto.Port
	launched   uint64

	// reqBytes is the request rendered once at construction — every
	// connection sends the same bytes, as http_load does with one URL.
	reqBytes []byte
	// pool/freeConns recycle packets and connection state; the client
	// is an infinite-capacity endpoint, but its allocations still cost
	// real memory churn in long sweeps. pool is private until a fabric
	// port attaches the client, which switches it to the domain's.
	pool      *netproto.PacketPool
	freeConns []*cliConn

	// Results.
	Completed uint64
	Errors    uint64 // RSTs and SYN-retry exhaustion, after the retry budget
	Bytes     uint64
	// ConnTimeouts counts establishment attempts that exhausted their
	// SYN retries (the client-side ETIMEDOUT), a subset of the failures
	// feeding Errors/Retries.
	ConnTimeouts uint64
	// Retries counts failed attempts answered by a fresh connection
	// under RetryBudget (each consumed one unit of budget).
	Retries   uint64
	Latencies *stats.Histogram
	// ConnLatencies measures whole-connection latency (open to last
	// response), which under loss includes every retransmission
	// timeout paid along the way.
	ConnLatencies *stats.Histogram

	// openLoopStop cancels open-loop arrivals.
	openLoopStop bool
}

type cliState int

const (
	cliSynSent cliState = iota
	cliEstablished
	cliFinSent
)

type cliConn struct {
	local, remote  netproto.Addr
	state          cliState
	isn            uint32
	sndNxt, rcvNxt uint32
	got            int // response bytes received, current request
	reqsDone       int
	start          sim.Time // connection start
	reqStart       sim.Time // current request start
	finAcked       bool
	peerFin        bool
	synRetries     int
	attempt        int    // which retry-budget attempt this connection is
	maxAck         uint32 // highest cumulative ACK seen (forward-progress detection)
	synTimer       sim.Event
	// Data/FIN retransmission state (only armed when the generator is
	// built with Retransmit — loss-tolerant mode).
	rtxTimer sim.Event
	retries  int
	reqSeq   uint32 // first sequence number of the in-flight request

	// synFn/rtxFn are the persistent timer callbacks (built once per
	// cliConn, surviving recycling — no per-arm closure).
	synFn, rtxFn func()
}

// HTTPLoadConfig configures the generator.
type HTTPLoadConfig struct {
	ClientIPs  []netproto.IP
	Targets    []netproto.Addr
	RequestLen int // default 600 (the paper's Weibo request)
	// RequestsPerConn > 1 switches to HTTP keep-alive (long-lived
	// connections): the client issues that many request/response
	// exchanges before closing. ResponseLen tells the client how
	// many bytes delimit one response (no Content-Length parsing in
	// the fast path, like real load generators configured with a
	// known fetch size).
	RequestsPerConn int
	ResponseLen     int
	Concurrency     int      // closed-loop connections in flight
	RTO             sim.Time // SYN retransmission timeout
	MaxSYNRetry     int
	Seed            uint64
	// Retransmit arms a data/FIN retransmission timer per connection
	// so the client survives wire loss (required for fault-injection
	// runs; off by default, keeping fault-free runs byte-identical to
	// the original generator).
	Retransmit bool
	// MaxRetry bounds data/FIN retransmissions (default 5).
	MaxRetry int
	// ChunkBytes, when non-zero, segments outgoing requests at this
	// size (MSS-style): the bulk-payload workload uses it so a large
	// request arrives at the server as a train of wire segments —
	// GRO-mergeable — instead of one synthetic giant frame. 0 keeps
	// the original single-packet request.
	ChunkBytes int
	// BackoffCap, when non-zero, switches the SYN retransmission
	// timer from a fixed RTO to capped exponential backoff
	// (RTO, 2·RTO, 4·RTO, … up to BackoffCap) with deterministic
	// jitter hashed from (seed, tuple, attempt, retry count) — no
	// shared PRNG stream, so the schedule of one connection can never
	// shift another's. 0 keeps the original fixed-RTO behaviour.
	BackoffCap sim.Time
	// RetryBudget, when non-zero, lets a failed attempt (RST from the
	// server, or SYN retries exhausted) retry the same logical request
	// on a fresh connection after a backoff, up to this many times.
	// Only a request whose budget is exhausted counts as an Error —
	// the availability experiments measure exactly this distinction.
	// 0 keeps the original fail-fast behaviour.
	RetryBudget int
}

// NewHTTPLoad builds the generator and attaches it to the fabric.
func NewHTTPLoad(loop *sim.Loop, net Wire, cfg HTTPLoadConfig) *HTTPLoad {
	if len(cfg.ClientIPs) == 0 {
		for i := 0; i < 32; i++ {
			cfg.ClientIPs = append(cfg.ClientIPs, netproto.IPv4(10, 2, 0, byte(i+1)))
		}
	}
	if cfg.RequestLen == 0 {
		cfg.RequestLen = netproto.DefaultRequestLen
	}
	if cfg.RequestsPerConn == 0 {
		cfg.RequestsPerConn = 1
	}
	if cfg.ResponseLen == 0 {
		cfg.ResponseLen = netproto.DefaultResponseLen
	}
	if cfg.RTO == 0 {
		cfg.RTO = 200 * sim.Millisecond
	}
	if cfg.MaxSYNRetry == 0 {
		cfg.MaxSYNRetry = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	if cfg.MaxRetry == 0 {
		cfg.MaxRetry = 5
	}
	h := &HTTPLoad{
		loop:          loop,
		net:           net,
		rng:           sim.NewRand(cfg.Seed),
		ips:           cfg.ClientIPs,
		targets:       cfg.Targets,
		reqLen:        cfg.RequestLen,
		respLen:       cfg.ResponseLen,
		reqsPerConn:   cfg.RequestsPerConn,
		concurrency:   cfg.Concurrency,
		maxSYNRetry:   cfg.MaxSYNRetry,
		rto:           cfg.RTO,
		retransmit:    cfg.Retransmit,
		maxRetry:      cfg.MaxRetry,
		chunkBytes:    cfg.ChunkBytes,
		seed:          cfg.Seed,
		backoffCap:    cfg.BackoffCap,
		retryBudget:   cfg.RetryBudget,
		conns:         map[netproto.FourTuple]*cliConn{},
		pool:          &netproto.PacketPool{},
		portCursor:    make([]netproto.Port, len(cfg.ClientIPs)),
		Latencies:     stats.NewHistogram(),
		ConnLatencies: stats.NewHistogram(),
	}
	for i := range h.portCursor {
		h.portCursor[i] = netproto.EphemeralLow
	}
	h.reqBytes = netproto.BuildRequest("/hot/interface", h.reqLen)
	net.Attach(h, cfg.ClientIPs...)
	return h
}

// usePool adopts the attaching port's domain pool.
func (h *HTTPLoad) usePool(pp *netproto.PacketPool) { h.pool = pp }

// getConn pops a recycled connection or builds one with its persistent
// timer callbacks.
func (h *HTTPLoad) getConn() *cliConn {
	if n := len(h.freeConns); n > 0 {
		c := h.freeConns[n-1]
		h.freeConns[n-1] = nil
		h.freeConns = h.freeConns[:n-1]
		*c = cliConn{synFn: c.synFn, rtxFn: c.rtxFn}
		return c
	}
	c := &cliConn{}
	c.synFn = func() { h.synFire(c) }
	c.rtxFn = func() { h.retryFire(c) }
	return c
}

// Start launches the closed-loop load.
func (h *HTTPLoad) Start() {
	for i := 0; i < h.concurrency; i++ {
		h.open()
	}
}

// StartOpenLoop launches Poisson arrivals at the given mean rate
// (connections per simulated second) instead of a closed loop; used
// by the production-trace replay (Figure 3).
func (h *HTTPLoad) StartOpenLoop(rate func(now sim.Time) float64) {
	var tick func()
	tick = func() {
		if h.openLoopStop {
			return
		}
		r := rate(h.loop.Now())
		if r <= 0 {
			h.loop.After(sim.Millisecond, tick)
			return
		}
		h.open()
		mean := sim.Time(float64(sim.Second) / r)
		h.loop.After(h.rng.Exp(mean), tick)
	}
	h.loop.After(0, tick)
}

// StopOpenLoop halts open-loop arrivals.
func (h *HTTPLoad) StopOpenLoop() { h.openLoopStop = true }

// InFlight reports the live connection count.
func (h *HTTPLoad) InFlight() int { return len(h.conns) }

// Launched reports total connections started.
func (h *HTTPLoad) Launched() uint64 { return h.launched }

// open starts one connection on the next round-robin target.
func (h *HTTPLoad) open() {
	target := h.targets[h.nextTarget%len(h.targets)]
	h.nextTarget++
	h.openTo(target, 0)
}

// openTo starts one connection to a pinned target, carrying the
// retry-budget attempt number (0 for a fresh request).
func (h *HTTPLoad) openTo(target netproto.Addr, attempt int) {
	ipIdx := h.nextIP % len(h.ips)
	h.nextIP++

	var local netproto.Addr
	for tries := 0; ; tries++ {
		port := h.portCursor[ipIdx]
		h.portCursor[ipIdx]++
		if h.portCursor[ipIdx] > netproto.EphemeralHigh {
			h.portCursor[ipIdx] = netproto.EphemeralLow
		}
		local = netproto.Addr{IP: h.ips[ipIdx], Port: port}
		ft := netproto.FourTuple{Src: target, Dst: local}
		if _, busy := h.conns[ft]; !busy {
			break
		}
		if tries > 30000 {
			// Ephemeral-port space to this target is exhausted right
			// now. The retry plane re-polls after an RTO rather than
			// leaking the closed-loop slot (ports free as connections
			// retire); without it this stays the original hard error.
			if h.retryBudget > 0 {
				h.loop.After(h.rto, func() { h.openTo(target, attempt) })
			} else {
				h.Errors++
			}
			return
		}
	}
	isn := h.rng.Uint32()
	c := h.getConn()
	c.local = local
	c.remote = target
	c.state = cliSynSent
	c.isn = isn
	c.attempt = attempt
	c.maxAck = isn
	c.sndNxt = isn + 1
	c.start = h.loop.Now()
	c.reqStart = h.loop.Now()
	h.conns[netproto.FourTuple{Src: target, Dst: local}] = c
	h.launched++
	h.sendSYN(c)
	h.armSYNRetry(c)
}

func (h *HTTPLoad) sendSYN(c *cliConn) {
	p := h.pool.Get()
	p.Src, p.Dst = c.local, c.remote
	p.Flags = netproto.SYN
	p.Seq = c.isn
	h.net.Send(p)
}

func (h *HTTPLoad) armSYNRetry(c *cliConn) {
	c.synTimer = h.loop.After(h.synRTO(c), c.synFn)
}

// synRTO is the delay before the next SYN (re)transmission. With
// BackoffCap unset it is the original fixed RTO. Otherwise it doubles
// per retry up to the cap, plus deterministic jitter in [-d/8, +d/8)
// hashed purely from (seed, tuple, attempt, retry count): the same
// connection always draws the same jitter, and no draw consumes
// shared PRNG state, so cross-flow interleaving cannot move it.
func (h *HTTPLoad) synRTO(c *cliConn) sim.Time {
	if h.backoffCap <= 0 {
		return h.rto
	}
	d := h.rto << uint(c.synRetries)
	if d <= 0 || d > h.backoffCap {
		d = h.backoffCap
	}
	return d - d/8 + h.jitter(c, uint64(c.synRetries), d/4)
}

// jitter draws a pure-hash value in [0, span) for this connection's
// n-th draw of the current attempt.
func (h *HTTPLoad) jitter(c *cliConn, n uint64, span sim.Time) sim.Time {
	if span <= 0 {
		return 0
	}
	key := h.seed
	key = mixCli(key ^ uint64(c.local.IP)<<16 ^ uint64(c.local.Port))
	key = mixCli(key ^ uint64(c.remote.IP)<<16 ^ uint64(c.remote.Port))
	key = mixCli(key ^ uint64(c.attempt)<<32 ^ n)
	return sim.Time(key % uint64(span))
}

// mixCli is the splitmix64 finalizer (the same pure-hash construction
// the fault plane uses for its per-flow decisions).
func mixCli(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (h *HTTPLoad) synFire(c *cliConn) {
	if c.state != cliSynSent {
		return
	}
	c.synRetries++
	if c.synRetries > h.maxSYNRetry {
		h.ConnTimeouts++ // establishment timed out: the client ETIMEDOUT
		h.fail(c)
		return
	}
	h.sendSYN(c)
	h.armSYNRetry(c)
}

func (h *HTTPLoad) key(c *cliConn) netproto.FourTuple {
	return netproto.FourTuple{Src: c.remote, Dst: c.local}
}

// fail ends one attempt. Under RetryBudget the request survives: a
// fresh connection to the same target is opened after a backoff, and
// only budget exhaustion reaches Errors.
func (h *HTTPLoad) fail(c *cliConn) {
	if h.retryBudget > 0 && c.attempt < h.retryBudget {
		h.Retries++
		attempt := c.attempt + 1
		target := c.remote
		delay := h.rto
		if h.backoffCap > 0 {
			d := h.rto << uint(attempt-1)
			if d <= 0 || d > h.backoffCap {
				d = h.backoffCap
			}
			delay = d - d/8 + h.jitter(c, 0x7265747279, d/4)
		}
		h.closeConn(c)
		h.loop.After(delay, func() { h.openTo(target, attempt) })
		return
	}
	h.Errors++
	h.finish(c)
}

// closeConn retires the connection without the closed-loop
// replacement (the retry path schedules its own successor).
func (h *HTTPLoad) closeConn(c *cliConn) {
	c.synTimer.Cancel()
	c.rtxTimer.Cancel()
	delete(h.conns, h.key(c))
	h.freeConns = append(h.freeConns, c)
}

func (h *HTTPLoad) finish(c *cliConn) {
	h.closeConn(c)
	if h.concurrency > 0 {
		h.open() // closed loop: replace immediately
	}
}

func (h *HTTPLoad) sendRequest(c *cliConn) {
	c.reqSeq = c.sndNxt
	h.sendData(c, h.reqBytes, c.sndNxt)
	c.sndNxt += uint32(len(h.reqBytes))
	c.reqStart = h.loop.Now()
	c.retries = 0 // fresh unacked-data epoch
	h.armRetry(c)
}

// sendData transmits data starting at seq, split at ChunkBytes when
// configured. Every chunk carries the same PSH|ACK flags and the
// current Ack, so a GRO-enabled server re-merges the train into one
// delivered super-segment.
func (h *HTTPLoad) sendData(c *cliConn, data []byte, seq uint32) {
	chunk := h.chunkBytes
	if chunk <= 0 {
		chunk = len(data)
	}
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		p := h.pool.Get()
		p.Src, p.Dst = c.local, c.remote
		p.Flags = netproto.PSH | netproto.ACK
		p.Seq, p.Ack = seq+uint32(off), c.rcvNxt
		p.Payload = data[off:end]
		h.net.Send(p)
	}
}

func (h *HTTPLoad) sendFIN(c *cliConn) {
	p := h.pool.Get()
	p.Src, p.Dst = c.local, c.remote
	p.Flags = netproto.FIN | netproto.ACK
	p.Seq, p.Ack = c.sndNxt, c.rcvNxt
	h.net.Send(p)
	c.sndNxt++
	c.state = cliFinSent
	c.retries = 0 // fresh unacked-data epoch
	h.armRetry(c)
}

// armRetry (re)arms the data/FIN retransmission timer; a no-op unless
// the generator was built with Retransmit, so fault-free runs see no
// extra events.
func (h *HTTPLoad) armRetry(c *cliConn) {
	if !h.retransmit {
		return
	}
	c.rtxTimer.Cancel()
	c.rtxTimer = h.loop.After(h.dataRTO(c), c.rtxFn)
}

// dataRTO is the data/FIN retransmission delay. With BackoffCap unset
// it is the original fixed RTO. Otherwise it doubles per retry up to
// the cap with the same deterministic jitter as the SYN path — vital
// against a server that stops accepting: a thousand stalled
// connections retransmitting at a fixed short RTO is a SoftIRQ storm
// that starves the very accept loops that would drain them
// (receive-livelock), while backed-off retransmissions decay.
func (h *HTTPLoad) dataRTO(c *cliConn) sim.Time {
	if h.backoffCap <= 0 {
		return h.rto
	}
	d := h.rto << uint(c.retries)
	if d <= 0 || d > h.backoffCap {
		d = h.backoffCap
	}
	return d - d/8 + h.jitter(c, 0x64617461+uint64(c.retries), d/4)
}

func (h *HTTPLoad) retryFire(c *cliConn) {
	if c.state == cliSynSent {
		return // the SYN path has its own timer
	}
	c.retries++
	if c.retries > h.maxRetry {
		// With the retry plane on, give up the way a real client
		// kernel does: an aborting close sends RST so the server
		// tears its half down at once. Without it every abandoned
		// attempt leaves an ESTABLISHED orphan parked in the server's
		// accept queue, attracting retransmissions — the makings of a
		// livelock. RetryBudget == 0 keeps the original silent
		// abandonment.
		if h.retryBudget > 0 {
			h.abortRST(c)
		}
		h.fail(c)
		return
	}
	switch c.state {
	case cliEstablished:
		// No response progress within RTO: assume the request was
		// lost and resend it from its recorded sequence (the server
		// re-ACKs duplicates). reqStart is left untouched — the
		// latency histogram must include the recovery time.
		h.sendData(c, h.reqBytes, c.reqSeq)
	case cliFinSent:
		if !c.finAcked {
			p := h.pool.Get()
			p.Src, p.Dst = c.local, c.remote
			p.Flags = netproto.FIN | netproto.ACK
			p.Seq, p.Ack = c.sndNxt-1, c.rcvNxt
			h.net.Send(p)
		}
	}
	h.armRetry(c)
}

// abortRST is the client's aborting close: one RST at the current
// send position, so the server side is torn down immediately instead
// of discovering the abandonment by retransmission timeout.
func (h *HTTPLoad) abortRST(c *cliConn) {
	p := h.pool.Get()
	p.Src, p.Dst = c.local, c.remote
	p.Flags = netproto.RST | netproto.ACK
	p.Seq, p.Ack = c.sndNxt, c.rcvNxt
	h.net.Send(p)
}

func (h *HTTPLoad) ack(c *cliConn) {
	p := h.pool.Get()
	p.Src, p.Dst = c.local, c.remote
	p.Flags = netproto.ACK
	p.Seq, p.Ack = c.sndNxt, c.rcvNxt
	h.net.Send(p)
}

// Deliver implements Endpoint: the client-side TCP behaviour. The
// packet is recycled once the handler is done with it — the client is
// the terminal consumer of everything the server sends.
func (h *HTTPLoad) Deliver(p *netproto.Packet) {
	h.deliver(p)
	h.pool.Put(p)
}

func (h *HTTPLoad) deliver(p *netproto.Packet) {
	if p.Corrupt {
		return // checksum failure: discard silently
	}
	c, ok := h.conns[p.Tuple()]
	if !ok {
		// Late packet for a finished connection (e.g. retransmitted
		// FIN): answer RST-wise silence; the server's timers give up.
		return
	}
	if p.Flags.Has(netproto.RST) {
		h.fail(c)
		return
	}
	if h.retransmit && c.state != cliSynSent {
		// Any arrival pushes the retransmission timer out. With
		// backoff enabled, only forward progress resets the retry
		// count: a pure duplicate ACK must not let a stalled
		// connection retransmit forever (real TCP restarts its
		// counter only when the ACK advances); receive-side progress
		// resets it below where rcvNxt moves. BackoffCap == 0 keeps
		// the original any-arrival reset.
		h.armRetry(c)
		if h.backoffCap <= 0 {
			c.retries = 0
		} else if p.Flags.Has(netproto.ACK) && int32(p.Ack-c.maxAck) > 0 {
			c.maxAck = p.Ack
			c.retries = 0
		}
	}
	switch c.state {
	case cliSynSent:
		if p.Flags.Has(netproto.SYN) && p.Flags.Has(netproto.ACK) && p.Ack == c.sndNxt {
			c.synTimer.Cancel()
			c.rcvNxt = p.Seq + 1
			c.state = cliEstablished
			h.ack(c)
			h.sendRequest(c)
		}
	case cliEstablished:
		advanced := false
		if plen := len(p.Payload); plen > 0 {
			// off is how much of this segment is already sequenced; a
			// retransmitted TSO super-segment whose head chunks landed
			// can be partially duplicate (0 < off < plen) — count only
			// the new tail. Without offloads off is 0 or >= plen, the
			// original whole-segment behaviour.
			if off := int(int32(c.rcvNxt - p.Seq)); off >= 0 && off < plen {
				c.got += plen - off
				h.Bytes += uint64(plen - off)
				c.rcvNxt += uint32(plen - off)
				advanced = true
				c.retries = 0
			} else if off >= plen {
				// Fully duplicate data, e.g. a server retransmission
				// that crossed our ACK: re-ACK so the server's timer
				// stands down.
				h.ack(c)
			}
		}
		if p.Flags.Has(netproto.FIN) && p.Seq+uint32(len(p.Payload)) == c.rcvNxt {
			// Server finished the response and closed (short-lived
			// mode): fetch done.
			c.rcvNxt++
			c.peerFin = true
			h.Completed++
			h.Latencies.Add(h.loop.Now() - c.reqStart)
			h.ConnLatencies.Add(h.loop.Now() - c.start)
			// ACK the FIN and close our side.
			h.ack(c)
			h.sendFIN(c)
			return
		}
		if advanced {
			h.ack(c)
			// Keep-alive mode: count responses by size and either
			// issue the next request or actively close.
			if h.reqsPerConn > 1 && c.got >= h.respLen {
				c.got -= h.respLen
				c.reqsDone++
				h.Completed++
				h.Latencies.Add(h.loop.Now() - c.reqStart)
				if c.reqsDone < h.reqsPerConn {
					h.sendRequest(c)
				} else {
					h.ConnLatencies.Add(h.loop.Now() - c.start)
					h.sendFIN(c)
				}
			}
		}
	case cliFinSent:
		if p.Flags.Has(netproto.FIN) && p.Seq+uint32(len(p.Payload)) == c.rcvNxt {
			// The server's FIN (passive close after ours).
			c.rcvNxt++
			c.peerFin = true
			c.retries = 0
			h.ack(c)
		}
		if p.Flags.Has(netproto.ACK) && p.Ack == c.sndNxt {
			c.finAcked = true
		}
		if c.finAcked && c.peerFin {
			h.finish(c)
		}
	}
}
