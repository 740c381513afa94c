// Package tcp implements the TCP state machine of the simulated
// kernel: connection establishment (passive and active), in-order
// data transfer, FIN/RST teardown, TIME_WAIT, and a retransmission
// timer with exponential backoff.
//
// The package is pure protocol logic. Everything environmental —
// transmitting segments, arming timers, inserting sockets into TCB
// tables, waking processes — goes through the Env interface, which
// the kernel implements. CPU-time charging also happens in the
// kernel, keyed off what the protocol did; this package only decides
// *what* happens.
package tcp

import (
	"fmt"

	"fastsocket/internal/cache"
	"fastsocket/internal/cpu"
	"fastsocket/internal/lock"
	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
	"fastsocket/internal/stats"
)

// State is a TCP connection state (RFC 793 names).
type State int

// TCP states.
const (
	Closed State = iota
	Listen
	SynSent
	SynRcvd
	Established
	FinWait1
	FinWait2
	CloseWait
	LastAck
	Closing
	TimeWait
)

// NumStates is the number of TCP states (TimeWait is the last).
const NumStates = int(TimeWait) + 1

// States is a set of TCP states, bit 1<<s for state s: the priors a
// Transition declares, written as a constant union such as
// 1<<FinWait2 | 1<<Closing.
type States uint16

// AnyState is every state: the priors of the abort path, which RST,
// retransmit exhaustion and the lifecycle sweeps reach from anywhere.
const AnyState States = 1<<NumStates - 1

var stateNames = [...]string{
	"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
	"FIN_WAIT1", "FIN_WAIT2", "CLOSE_WAIT", "LAST_ACK", "CLOSING",
	"TIME_WAIT",
}

// String returns the RFC name of the state.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("State(%d)", int(s))
	}
	return stateNames[s]
}

// Params holds protocol constants shared by every socket of a kernel.
type Params struct {
	MSS        int      // maximum segment size (payload bytes)
	InitialRTO sim.Time // first retransmission timeout
	MaxRetries int      // retransmissions before aborting
	// SynRetries caps SYN retransmissions of an active open
	// (tcp_syn_retries); exhaustion aborts the connect with
	// ErrTimeout — the ETIMEDOUT the application sees — instead of
	// the generic reset. 0 falls back to MaxRetries.
	SynRetries int
	Backlog    int // accept-queue limit for listen sockets
	// SynBacklog bounds half-open (SYN_RCVD) children per listener;
	// beyond it SYNs are dropped, or answered statelessly when
	// SynCookies is on.
	SynBacklog int
	// SynCookies enables stateless SYN-ACKs under SYN-queue pressure
	// (the kernel's tcp_syncookies defence).
	SynCookies bool
	// CookieSecret keys the cookie ISN.
	CookieSecret uint32

	// TSOMaxBytes, when non-zero, enables TCP segmentation offload:
	// Send hands the NIC super-segments of up to this many payload
	// bytes (GSOSize = MSS) instead of segmenting at MSS itself. The
	// kernel installs an exact MSS multiple here when Config.TSO is
	// on, so the NIC's lazy wire-split reproduces the offloads-off
	// segment sequence bit-for-bit. 0 disables (the default).
	TSOMaxBytes int

	// Pool recycles packet headers for every segment the stack builds
	// (the skb pool). nil degrades to plain allocation; the kernel
	// installs its per-simulation pool here.
	Pool *netproto.PacketPool
	// Socks recycles TCP control blocks for the connection churn of
	// short-lived workloads. nil degrades to plain allocation.
	Socks *SockPool

	// Trace, when non-nil, receives every state transition made
	// through Sock.Transition — the kernel installs its per-kernel
	// matrix here so runtime behaviour can be diffed against the
	// fsvet fsm pass's static transition relation.
	Trace *stats.FSMTrace
}

// DefaultParams mirrors conventional Linux settings scaled for the
// simulated workloads: a benchmark-tuned box (somaxconn raised, as
// every serious short-lived-connection benchmark does) on a LAN.
func DefaultParams() *Params {
	return &Params{
		MSS:          1460,
		InitialRTO:   200 * sim.Millisecond,
		MaxRetries:   5,
		Backlog:      65536,
		SynBacklog:   1024,
		SynCookies:   false,
		CookieSecret: 0x5EC7E7,
	}
}

// Env is everything the protocol needs from the surrounding kernel.
type Env interface {
	// Transmit sends a segment originating from sk. The kernel
	// charges TX costs, lets the NIC sample it (FDir ATR), and puts
	// it on the wire.
	Transmit(t *cpu.Task, sk *Sock, p *netproto.Packet)
	// Accepted moves an ESTABLISHED child into its listener's accept
	// queue and wakes an acceptor.
	Accepted(t *cpu.Task, child *Sock)
	// ConnectDone reports active-connection completion (or failure).
	ConnectDone(t *cpu.Task, sk *Sock, err error)
	// Readable signals new data or EOF to the socket's waiters.
	Readable(t *cpu.Task, sk *Sock)
	// InsertEstablished puts a socket into the established table of
	// the current kernel configuration.
	InsertEstablished(t *cpu.Task, sk *Sock)
	// Destroy removes a finished socket from the established table
	// and cancels any timers. The socket's FD (if still open) stays
	// valid; reads return EOF/ECONNRESET.
	Destroy(t *cpu.Task, sk *Sock)
	// ArmRetransmit (re)arms sk's retransmission timer.
	ArmRetransmit(t *cpu.Task, sk *Sock, d sim.Time)
	// CancelRetransmit cancels sk's retransmission timer if armed.
	CancelRetransmit(t *cpu.Task, sk *Sock)
	// StartTimeWait parks sk in TIME_WAIT and schedules its reaping.
	StartTimeWait(t *cpu.Task, sk *Sock)
}

// Seg is an unacknowledged outbound segment kept for retransmission.
type Seg struct {
	Seq     uint32
	Flags   netproto.Flags
	Payload []byte
}

// End returns the sequence number just past the segment (SYN and FIN
// each consume one sequence number).
func (s *Seg) End() uint32 {
	end := s.Seq + uint32(len(s.Payload))
	if s.Flags.Has(netproto.SYN) || s.Flags.Has(netproto.FIN) {
		end++
	}
	return end
}

// Sock is a TCP control block (the kernel's struct sock).
type Sock struct {
	Local, Remote netproto.Addr
	State         State

	// HomeCore is the core that owns the socket: the RX core of the
	// SYN for passive connections, the connect() caller's core for
	// active ones. Connection locality means every touch happens
	// there.
	HomeCore int

	SndNxt, SndUna, RcvNxt uint32

	// RcvBuf accumulates in-order payload not yet read by the app.
	RcvBuf []byte
	// RcvFIN is set once the peer's FIN is sequenced (EOF after
	// RcvBuf drains).
	RcvFIN bool

	unacked []Seg
	retries int

	// Listen-socket state. The accept queue is acceptQ[acceptHead:]
	// (see PushAccept and PopAccept).
	acceptQ    []*Sock
	acceptHead int
	Parent     *Sock // listener that spawned this child
	// SynQueue counts half-open children (SYN_RCVD) of a listener.
	SynQueue int
	// CookiesSent / CookiesAccepted count the syncookie defence's
	// activity on a listener.
	CookiesSent, CookiesAccepted uint64

	// Slock is the per-socket spinlock ("slock" in Table 1),
	// protecting the TCB between process and interrupt context.
	Slock *lock.SpinLock
	// Lines is the TCB's cache working set for the L3 model.
	Lines cache.Lines

	Params *Params
	// User is opaque kernel-side state (fd binding, epoll refs).
	User any

	// EhashNext chains the socket into its established-table bucket,
	// like the hlist_nulls node in Linux's struct sock. Only package
	// tcb touches it, under the bucket lock for shared tables.
	EhashNext *Sock

	// Stats.
	Retransmits uint64
	DroppedSegs uint64 // out-of-window/out-of-order segments discarded
}

// Tuple returns the connection tuple from this endpoint's receive
// perspective (Src = remote, Dst = local).
func (sk *Sock) Tuple() netproto.FourTuple {
	return netproto.FourTuple{Src: sk.Remote, Dst: sk.Local}
}

// Transition moves the socket to state to, feeding the kernel's
// runtime transition matrix when one is installed. from declares the
// states the caller's own guards allow the socket to be in; a socket in
// any other state is a bug, and Transition panics. Both arguments are
// constants at every call, so the fsvet fsm pass reads each call's
// from × to edges off its arguments and diffs them against the spec,
// and this assertion holds every transition that runs to its call's
// declared set. Only the birth literals in NewSock and Reinit write
// State directly: a recycled block coming off the free list is not a
// protocol transition.
func (sk *Sock) Transition(from States, to State) {
	if from&(1<<uint(sk.State)) == 0 {
		sk.undeclaredPrior(from, to)
	}
	if tr := sk.Params.Trace; tr != nil {
		tr.Record(int(sk.State), int(to))
	}
	sk.State = to //fsvet:shared callers hold the slock except the deliberately lockless cookie path (AcceptCookieACK); runtime lockdep is the backstop
}

// undeclaredPrior panics for a Transition whose current state is
// outside its declared priors. It builds the message out of line so
// Transition's success path stays one branch with no allocation.
func (sk *Sock) undeclaredPrior(from States, to State) {
	msg := "tcp: transition " + sk.State.String() + " -> " + to.String() + " from undeclared prior; declared {"
	sep := ""
	for s := Closed; int(s) < NumStates; s++ {
		if from&(1<<uint(s)) != 0 {
			msg += sep + s.String()
			sep = ", "
		}
	}
	panic(msg + "}")
}

// NewSock returns a CLOSED socket with its slock and cache lines
// initialized.
func NewSock(params *Params, slockBounce sim.Time) *Sock {
	return &Sock{
		State:    Closed,
		HomeCore: -1,
		Slock:    lock.New("slock", slockBounce),
		Lines:    cache.NewLines(3), // sk + rx queue + wmem, ~3 hot lines
		Params:   params,
	}
}

// Reinit restores a finished socket to its NewSock state for reuse,
// keeping the Slock (reset in place, same name and bounce penalty)
// and the capacity of its slices. Identical observable behaviour to a
// fresh NewSock socket.
func (sk *Sock) Reinit(params *Params) {
	sk.Slock.Reset()
	//fsvet:shared parked socket fresh off the free list: no table entry, no fd, exclusively owned
	*sk = Sock{
		State:    Closed,
		HomeCore: -1,
		Slock:    sk.Slock,
		Lines:    cache.NewLines(3),
		Params:   params,
		RcvBuf:   sk.RcvBuf[:0],
		unacked:  sk.unacked[:0],
		acceptQ:  sk.acceptQ[:0],
	}
}

// AcceptLen reports the children waiting in the accept queue.
func (sk *Sock) AcceptLen() int { return len(sk.acceptQ) - sk.acceptHead }

// PushAccept appends an ESTABLISHED child to the accept queue. When the
// array is full and at least half of it lies before the head (already
// popped), the live entries slide to the front instead of the array
// growing.
func (sk *Sock) PushAccept(child *Sock) {
	if h := sk.acceptHead; h > 0 && len(sk.acceptQ) == cap(sk.acceptQ) && h >= len(sk.acceptQ)-h {
		n := copy(sk.acceptQ, sk.acceptQ[h:])
		clear(sk.acceptQ[n:])
		sk.acceptQ, sk.acceptHead = sk.acceptQ[:n], 0
	}
	sk.acceptQ = append(sk.acceptQ, child)
}

// PopAccept removes and returns the oldest queued child, or nil when
// the queue is empty. A pop advances the head; the queue rewinds to
// the start of its array when it drains, so the pushes that follow
// reuse its capacity.
func (sk *Sock) PopAccept() *Sock {
	if sk.acceptHead == len(sk.acceptQ) {
		return nil
	}
	child := sk.acceptQ[sk.acceptHead]
	sk.acceptQ[sk.acceptHead] = nil
	sk.acceptHead++
	if sk.acceptHead == len(sk.acceptQ) {
		sk.acceptQ, sk.acceptHead = sk.acceptQ[:0], 0
	}
	return child
}

// ClearAccept empties the accept queue (listener teardown).
func (sk *Sock) ClearAccept() {
	clear(sk.acceptQ)
	sk.acceptQ, sk.acceptHead = sk.acceptQ[:0], 0
}

// SockPool is a free list of TCP control blocks. The kernel returns a
// socket here once it is dead on both sides (table removal and fd
// close); passive opens then reuse the block — with its slock, receive
// buffer and retransmission queue capacity — instead of allocating.
// Per-kernel, never shared across simulations; nil degrades to
// NewSock.
//
//fsvet:percore TCB free lists shard per-core with the engine (per-CPU slab caches); today one event loop serializes access
type SockPool struct {
	free []*Sock
	// Gets/News/Puts count pool traffic (News = Gets that allocated).
	Gets, News, Puts uint64
}

// Get returns a CLOSED socket, recycling a parked one when available.
func (sp *SockPool) Get(params *Params, slockBounce sim.Time) *Sock {
	if sp == nil {
		return NewSock(params, slockBounce)
	}
	sp.Gets++
	if n := len(sp.free); n > 0 {
		sk := sp.free[n-1]
		sp.free[n-1] = nil
		sp.free = sp.free[:n-1]
		sk.Reinit(params)
		return sk
	}
	sp.News++
	return NewSock(params, slockBounce)
}

// Put parks a dead socket for reuse. The caller guarantees no live
// references remain (not in any table, fd closed, timers cancelled).
func (sp *SockPool) Put(sk *Sock) {
	if sp == nil || sk == nil {
		return
	}
	sp.Puts++
	sp.free = append(sp.free, sk)
}

func (sk *Sock) mkseg(flags netproto.Flags, payload []byte, ack bool) *netproto.Packet {
	p := sk.Params.Pool.Get()
	p.Src = sk.Local
	p.Dst = sk.Remote
	p.Flags = flags
	p.Seq = sk.SndNxt
	p.Payload = payload
	if ack {
		p.Flags |= netproto.ACK
		p.Ack = sk.RcvNxt
	}
	return p
}

func (sk *Sock) track(p *netproto.Packet) {
	seg := Seg{Seq: p.Seq, Flags: p.Flags, Payload: p.Payload}
	sk.unacked = append(sk.unacked, seg)
	sk.SndNxt = seg.End()
}

// ConnectStart begins an active open: SYN out, state SYN_SENT. The
// caller has already bound Local/Remote and inserted the socket into
// the established table (Linux inserts at connect time so the
// SYN-ACK can be demultiplexed).
func ConnectStart(env Env, t *cpu.Task, sk *Sock, isn uint32) {
	sk.Transition(1<<Closed, SynSent)
	sk.SndNxt, sk.SndUna = isn, isn
	p := sk.mkseg(netproto.SYN, nil, false)
	sk.track(p)
	env.Transmit(t, sk, p)
	env.ArmRetransmit(t, sk, sk.Params.InitialRTO)
}

// ListenInput handles a SYN arriving for a listen socket: it creates
// the child socket in SYN_RCVD, inserts it into the established
// table, and answers SYN-ACK. Returns the child, or nil if the
// segment was dropped (backlog full or not a SYN).
func ListenInput(env Env, t *cpu.Task, listener *Sock, p *netproto.Packet, isn uint32, slockBounce sim.Time) *Sock {
	if listener.State != Listen || !p.Flags.Has(netproto.SYN) || p.Flags.Has(netproto.ACK) {
		listener.DroppedSegs++
		return nil
	}
	if listener.AcceptLen() >= listener.Params.Backlog {
		listener.DroppedSegs++
		return nil
	}
	if listener.SynQueue >= listener.Params.SynBacklog {
		if listener.Params.SynCookies {
			// Stateless defence: answer with a cookie ISN and keep
			// no per-connection state; a valid final ACK will
			// reconstruct the connection (AcceptCookieACK).
			listener.CookiesSent++
			ck := listener.Params.Pool.Get()
			ck.Src, ck.Dst = p.Dst, p.Src
			ck.Flags = netproto.SYN | netproto.ACK
			ck.Seq = CookieISN(p.Tuple(), listener.Params.CookieSecret)
			ck.Ack = p.Seq + 1
			env.Transmit(t, listener, ck)
			return nil
		}
		listener.DroppedSegs++
		return nil
	}
	listener.SynQueue++
	child := listener.Params.Socks.Get(listener.Params, slockBounce)
	child.Local = p.Dst
	child.Remote = p.Src
	child.HomeCore = t.CoreID()
	child.Transition(1<<Closed, SynRcvd)
	child.Parent = listener
	child.RcvNxt = p.Seq + 1
	child.SndNxt, child.SndUna = isn, isn
	env.InsertEstablished(t, child)
	synack := child.mkseg(netproto.SYN, nil, true)
	child.track(synack)
	env.Transmit(t, child, synack)
	env.ArmRetransmit(t, child, child.Params.InitialRTO)
	return child
}

// ackUpdate processes the ACK field, trimming the retransmission
// queue. Returns true if it acknowledged anything new.
func ackUpdate(env Env, t *cpu.Task, sk *Sock, p *netproto.Packet) bool {
	if !p.Flags.Has(netproto.ACK) {
		return false
	}
	ack := p.Ack
	if int32(ack-sk.SndUna) <= 0 {
		return false
	}
	sk.SndUna = ack
	trimmed := sk.unacked[:0]
	for _, seg := range sk.unacked {
		if int32(seg.End()-ack) > 0 {
			trimmed = append(trimmed, seg)
		}
	}
	sk.unacked = trimmed
	sk.retries = 0
	if len(sk.unacked) == 0 {
		env.CancelRetransmit(t, sk)
	} else {
		env.ArmRetransmit(t, sk, sk.Params.InitialRTO)
	}
	return true
}

// Input runs the TCP input routine for a segment addressed to sk.
// The caller holds sk.Slock and has already charged RX costs.
func Input(env Env, t *cpu.Task, sk *Sock, p *netproto.Packet) {
	if p.Flags.Has(netproto.RST) {
		abort(env, t, sk)
		return
	}
	switch sk.State {
	case SynSent:
		inputSynSent(env, t, sk, p)
	case SynRcvd:
		inputSynRcvd(env, t, sk, p)
	case Established, FinWait1, FinWait2:
		inputStream(env, t, sk, p)
	case CloseWait, LastAck, Closing:
		inputClosingSide(env, t, sk, p)
	case TimeWait:
		// A retransmitted FIN re-elicits the final ACK.
		if p.Flags.Has(netproto.FIN) {
			env.Transmit(t, sk, sk.mkseg(0, nil, true))
		}
	default:
		sk.DroppedSegs++
	}
}

func inputSynSent(env Env, t *cpu.Task, sk *Sock, p *netproto.Packet) {
	if !p.Flags.Has(netproto.SYN) || !p.Flags.Has(netproto.ACK) {
		sk.DroppedSegs++
		return
	}
	if p.Ack != sk.SndNxt {
		sk.DroppedSegs++
		return
	}
	sk.RcvNxt = p.Seq + 1
	ackUpdate(env, t, sk, p)
	sk.Transition(1<<SynSent, Established)
	env.Transmit(t, sk, sk.mkseg(0, nil, true))
	env.ConnectDone(t, sk, nil)
}

func inputSynRcvd(env Env, t *cpu.Task, sk *Sock, p *netproto.Packet) {
	if p.Flags.Has(netproto.SYN) {
		// Retransmitted SYN: re-answer.
		r := sk.Params.Pool.Get()
		r.Src, r.Dst = sk.Local, sk.Remote
		r.Flags = netproto.SYN | netproto.ACK
		r.Seq, r.Ack = sk.SndUna, sk.RcvNxt
		env.Transmit(t, sk, r)
		return
	}
	if !ackUpdate(env, t, sk, p) {
		sk.DroppedSegs++
		return
	}
	sk.Transition(1<<SynRcvd, Established)
	if sk.Parent != nil && sk.Parent.SynQueue > 0 {
		sk.Parent.SynQueue--
	}
	env.Accepted(t, sk)
	// The handshake ACK may carry data (TCP fast open-ish clients);
	// process any payload in the same segment.
	if p.PayloadLen() > 0 || p.Flags.Has(netproto.FIN) {
		inputStream(env, t, sk, p)
	}
}

// appendPayload appends p's logical payload (Payload then any
// GRO-merged Frags, in order) beyond the first off bytes onto buf.
func appendPayload(buf []byte, p *netproto.Packet, off int) []byte {
	if off < len(p.Payload) {
		buf = append(buf, p.Payload[off:]...)
		off = 0
	} else {
		off -= len(p.Payload)
	}
	for _, f := range p.Frags {
		if off >= len(f) {
			off -= len(f)
			continue
		}
		buf = append(buf, f[off:]...)
		off = 0
	}
	return buf
}

// inputStream handles data/FIN segments in the synchronized states.
func inputStream(env Env, t *cpu.Task, sk *Sock, p *netproto.Packet) {
	acked := ackUpdate(env, t, sk, p)

	// In FIN_WAIT_1, our FIN being acknowledged advances the close.
	if sk.State == FinWait1 && acked && sk.SndUna == sk.SndNxt {
		sk.Transition(1<<FinWait1, FinWait2)
	}

	advanced := false
	if plen := p.PayloadLen(); plen > 0 {
		off := int(int32(sk.RcvNxt - p.Seq))
		switch {
		case off < 0:
			// Out-of-order future segment: the simulated wire
			// preserves per-flow ordering, so this only happens
			// after a drop. Discard and let the peer retransmit.
			sk.DroppedSegs++
			return
		case off < plen:
			// In-order (off == 0), or a partially duplicate
			// retransmission — a TSO super-segment resent after only
			// its head chunks arrived — whose tail is new: deliver
			// everything beyond RcvNxt. Without offloads off is
			// always 0 here (delivery advances in whole sender
			// segments), so this is the classic in-order append.
			sk.RcvBuf = appendPayload(sk.RcvBuf, p, off)
			sk.RcvNxt += uint32(plen - off)
			advanced = true
		default:
			// Fully duplicate: re-ACK below, do not deliver.
			advanced = true
		}
	}
	if p.Flags.Has(netproto.FIN) && p.Seq+uint32(p.PayloadLen()) == sk.RcvNxt {
		sk.RcvNxt++
		sk.RcvFIN = true
		advanced = true
		switch sk.State {
		case Established:
			sk.Transition(1<<Established, CloseWait)
		case FinWait1:
			// A FIN that also acknowledges ours moved the socket to
			// FIN_WAIT2 above, so here our FIN is still unacknowledged.
			sk.Transition(1<<FinWait1, Closing)
		case FinWait2:
			env.Transmit(t, sk, sk.mkseg(0, nil, true))
			enterTimeWait(env, t, sk)
			env.Readable(t, sk)
			return
		}
	}
	if advanced {
		env.Transmit(t, sk, sk.mkseg(0, nil, true))
		if len(sk.RcvBuf) > 0 || sk.RcvFIN {
			env.Readable(t, sk)
		}
	}
}

func inputClosingSide(env Env, t *cpu.Task, sk *Sock, p *netproto.Packet) {
	acked := ackUpdate(env, t, sk, p)
	switch sk.State {
	case LastAck:
		if acked && sk.SndUna == sk.SndNxt {
			sk.Transition(1<<LastAck, Closed)
			env.Destroy(t, sk)
		}
	case Closing:
		if acked && sk.SndUna == sk.SndNxt {
			enterTimeWait(env, t, sk)
		}
	case CloseWait:
		if p.Flags.Has(netproto.FIN) {
			// Retransmitted FIN: re-ACK.
			env.Transmit(t, sk, sk.mkseg(0, nil, true))
		}
	}
}

func enterTimeWait(env Env, t *cpu.Task, sk *Sock) {
	sk.Transition(1<<FinWait2|1<<Closing, TimeWait)
	env.CancelRetransmit(t, sk)
	env.StartTimeWait(t, sk)
}

func abort(env Env, t *cpu.Task, sk *Sock) { abortWith(env, t, sk, ErrReset) }

// abortWith tears the connection down, reporting reason to a pending
// connect (ConnectDone distinguishes ECONNRESET from ETIMEDOUT).
func abortWith(env Env, t *cpu.Task, sk *Sock, reason error) {
	if sk.State == SynRcvd && sk.Parent != nil && sk.Parent.SynQueue > 0 {
		sk.Parent.SynQueue--
	}
	wasUsable := sk.State == SynSent
	sk.Transition(AnyState, Closed)
	sk.RcvFIN = true // readers see EOF
	env.CancelRetransmit(t, sk)
	if wasUsable {
		env.ConnectDone(t, sk, reason)
	} else {
		env.Readable(t, sk)
	}
	env.Destroy(t, sk)
}

// Abort tears a connection down unilaterally (resource exhaustion,
// RST-on-accept-failure): state to CLOSED, readers see EOF, kernel
// resources released via Destroy. Caller holds the slock.
func Abort(env Env, t *cpu.Task, sk *Sock) { abort(env, t, sk) }

// ErrReset is reported when a connection is aborted by RST or
// retransmission exhaustion.
var ErrReset = fmt.Errorf("tcp: connection reset")

// ErrTimeout is reported when an active open gives up after
// Params.SynRetries SYN retransmissions (the application's ETIMEDOUT),
// distinct from ErrReset so callers can tell a refused connection from
// a silent peer.
var ErrTimeout = fmt.Errorf("tcp: connection timed out")

// Send queues and transmits application data, segmenting at MSS.
// Caller holds the slock. Returns the number of bytes sent: all of
// data, or 0 when the state allows no sending.
//
// Completion contract (MSG_ZEROCOPY's): the unacked segments keep
// slices of data, not copies, until the peer ACKs them (retransmission
// resends the same bytes), so a caller that got a nonzero return must
// not reuse or modify data before the socket can no longer transmit
// from it: once every byte is ACKed, or the socket is CLOSED. The
// kernel reports that point per buffer (kernel.Process.OnSendDone). A
// Send that returns 0 kept no reference: the caller still owns data.
func Send(env Env, t *cpu.Task, sk *Sock, data []byte) int {
	if sk.State != Established && sk.State != CloseWait {
		return 0
	}
	// With TSO the NIC accepts super-segments up to TSOMaxBytes (an
	// exact MSS multiple); the wire-split happens lazily below the
	// stack, so the TX path costs O(bytes/TSOMaxBytes) events instead
	// of O(bytes/MSS).
	max := sk.Params.MSS
	if sk.Params.TSOMaxBytes > max {
		max = sk.Params.TSOMaxBytes
	}
	sent := 0
	for len(data) > 0 {
		n := len(data)
		if n > max {
			n = max
		}
		p := sk.mkseg(netproto.PSH, data[:n], true)
		if n > sk.Params.MSS {
			p.GSOSize = sk.Params.MSS
		}
		sk.track(p)
		env.Transmit(t, sk, p)
		data = data[n:]
		sent += n
	}
	if sent > 0 {
		env.ArmRetransmit(t, sk, sk.Params.InitialRTO)
	}
	return sent
}

// Recv drains up to max bytes of in-order payload from the receive
// buffer. eof is true once the stream is fully consumed and the peer
// has FINed. Caller holds the slock.
//
// data aliases the receive buffer and stays valid only until the
// socket's next input: a read that drains the buffer rewinds it, so
// the next segment is appended into the same backing array. Callers
// copy what they keep.
func Recv(sk *Sock, max int) (data []byte, eof bool) {
	n := len(sk.RcvBuf)
	if max > 0 && n > max {
		n = max
	}
	data = sk.RcvBuf[:n]
	if n == len(sk.RcvBuf) {
		sk.RcvBuf = sk.RcvBuf[:0]
	} else {
		sk.RcvBuf = sk.RcvBuf[n:]
	}
	return data, sk.RcvFIN && len(sk.RcvBuf) == 0
}

// Close runs the application's close() on the socket. Caller holds
// the slock.
func Close(env Env, t *cpu.Task, sk *Sock) {
	switch sk.State {
	case Established:
		fin := sk.mkseg(netproto.FIN, nil, true)
		sk.track(fin)
		env.Transmit(t, sk, fin)
		env.ArmRetransmit(t, sk, sk.Params.InitialRTO)
		sk.Transition(1<<Established, FinWait1)
	case CloseWait:
		fin := sk.mkseg(netproto.FIN, nil, true)
		sk.track(fin)
		env.Transmit(t, sk, fin)
		env.ArmRetransmit(t, sk, sk.Params.InitialRTO)
		sk.Transition(1<<CloseWait, LastAck)
	case SynSent, SynRcvd:
		// Abort the half-open connection silently (the kernel sends
		// RST for SYN_RCVD; our peers give up via retransmit limits).
		if sk.State == SynRcvd && sk.Parent != nil && sk.Parent.SynQueue > 0 {
			sk.Parent.SynQueue--
		}
		sk.Transition(1<<SynSent|1<<SynRcvd, Closed)
		env.CancelRetransmit(t, sk)
		env.Destroy(t, sk)
	case Listen, Closed:
		sk.Transition(1<<Listen|1<<Closed, Closed)
	}
}

// RetransmitTimeout handles the retransmission timer firing. Caller
// holds the slock.
func RetransmitTimeout(env Env, t *cpu.Task, sk *Sock) {
	if len(sk.unacked) == 0 || sk.State == Closed || sk.State == TimeWait {
		return
	}
	sk.retries++
	limit := sk.Params.MaxRetries
	if sk.State == SynSent && sk.Params.SynRetries > 0 {
		limit = sk.Params.SynRetries
	}
	if sk.retries > limit {
		if sk.State == SynSent {
			// SYN retries exhausted: the peer never answered. Surface
			// ETIMEDOUT instead of leaving the connect hanging.
			abortWith(env, t, sk, ErrTimeout)
			return
		}
		abort(env, t, sk)
		return
	}
	sk.Retransmits++
	seg := sk.unacked[0]
	p := sk.Params.Pool.Get()
	p.Src, p.Dst = sk.Local, sk.Remote
	p.Flags = seg.Flags
	p.Seq = seg.Seq
	p.Payload = seg.Payload
	// A tracked super-segment retransmits as a super-segment.
	if len(seg.Payload) > sk.Params.MSS {
		p.GSOSize = sk.Params.MSS
	}
	// An initial SYN carries no ACK; everything else does.
	if sk.State != SynSent {
		p.Flags |= netproto.ACK
		p.Ack = sk.RcvNxt
	}
	env.Transmit(t, sk, p)
	env.ArmRetransmit(t, sk, sk.Params.InitialRTO<<uint(sk.retries))
}

// TimeWaitExpire reaps a TIME_WAIT socket.
func TimeWaitExpire(env Env, t *cpu.Task, sk *Sock) {
	if sk.State != TimeWait {
		return
	}
	sk.Transition(1<<TimeWait, Closed)
	env.Destroy(t, sk)
}

// UnackedLen reports outstanding unacknowledged segments (tests).
func (sk *Sock) UnackedLen() int { return len(sk.unacked) }

// CookieISN derives the stateless SYN-cookie initial sequence number
// for a connection tuple (a keyed hash, as tcp_syncookies computes).
func CookieISN(ft netproto.FourTuple, secret uint32) uint32 {
	h := ft.Hash() ^ (uint64(secret) * 0x9e3779b97f4a7c15)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return uint32(h)
}

// AcceptCookieACK validates the final ACK of a cookie handshake and,
// if genuine, reconstructs the connection in ESTABLISHED state (no
// SYN_RCVD stage — the whole point of the defence). Returns nil for
// forged or stale ACKs. Caller holds the listener's slock.
func AcceptCookieACK(env Env, t *cpu.Task, listener *Sock, p *netproto.Packet, slockBounce sim.Time) *Sock {
	if listener.State != Listen || !listener.Params.SynCookies {
		return nil
	}
	if !p.Flags.Has(netproto.ACK) || p.Flags.Has(netproto.SYN) || p.Flags.Has(netproto.RST) {
		return nil
	}
	if p.Ack-1 != CookieISN(p.Tuple(), listener.Params.CookieSecret) {
		return nil // forged or not ours
	}
	if listener.AcceptLen() >= listener.Params.Backlog {
		listener.DroppedSegs++ //fsvet:shared cookie validation is deliberately lockless (no listener slock on the defence path)
		return nil
	}
	listener.CookiesAccepted++ //fsvet:shared cookie validation is deliberately lockless (no listener slock on the defence path)
	child := listener.Params.Socks.Get(listener.Params, slockBounce)
	child.Local = p.Dst
	child.Remote = p.Src
	child.HomeCore = t.CoreID()
	child.Transition(1<<Closed, Established)
	child.Parent = listener
	child.RcvNxt = p.Seq
	child.SndNxt, child.SndUna = p.Ack, p.Ack
	env.InsertEstablished(t, child)
	env.Accepted(t, child)
	// The validating ACK may carry piggybacked data.
	if p.PayloadLen() > 0 || p.Flags.Has(netproto.FIN) {
		Input(env, t, child, p) //fsvet:shared child is freshly reconstructed and exclusively owned on the cookie path
	}
	return child
}
