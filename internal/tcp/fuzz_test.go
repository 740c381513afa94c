package tcp

import (
	"slices"
	"testing"

	"fastsocket/internal/netproto"
)

// FuzzInput operations. Each op byte picks a side with bit 0 (0 the
// client host a, 1 the server host b) and an operation with the rest,
// modulo numFuzzOps.
const (
	// fuzzSegment: a crafted segment arrives at the side. Four bytes
	// follow: flags, seq and ack offsets (int8) from the receiving
	// socket's RcvNxt and SndNxt, and the payload length.
	fuzzSegment = iota
	// fuzzDeliver: the side's oldest queued segment reaches the peer.
	fuzzDeliver
	fuzzClose
	// fuzzSend: one byte follows, the payload length in 16-byte units.
	fuzzSend
	fuzzRetransmitTimeout
	fuzzTimeWaitExpire
	numFuzzOps
)

// fuzzOp encodes one operation on side 0 (client) or 1 (server).
func fuzzOp(side, op int, args ...byte) []byte {
	return append([]byte{byte(op<<1 | side)}, args...)
}

// FuzzInput drives both ends of a connection whose client has just
// sent its SYN with adversarial segments and application calls. Any
// panic fails, including a Transition from a state outside the call's
// declared priors.
func FuzzInput(f *testing.F) {
	const cli, srv = 0, 1
	var (
		deliverCli = fuzzOp(cli, fuzzDeliver)
		deliverSrv = fuzzOp(srv, fuzzDeliver)
		closeCli   = fuzzOp(cli, fuzzClose)
		closeSrv   = fuzzOp(srv, fuzzClose)
		expireCli  = fuzzOp(cli, fuzzTimeWaitExpire)
		expireSrv  = fuzzOp(srv, fuzzTimeWaitExpire)
		rstCli     = fuzzOp(cli, fuzzSegment, byte(netproto.RST), 0, 0, 0)
		rstSrv     = fuzzOp(srv, fuzzSegment, byte(netproto.RST), 0, 0, 0)
		handshake  = slices.Concat(deliverCli, deliverSrv, deliverCli)
		// Client FIN out and ACKed, server FIN out: client FIN_WAIT2,
		// server LAST_ACK.
		halfClosed = slices.Concat(handshake, closeCli, deliverCli, deliverSrv, closeSrv)
	)
	for _, seed := range [][]byte{
		// Handshake with data both ways.
		slices.Concat(handshake, fuzzOp(cli, fuzzSend, 4), deliverCli, fuzzOp(srv, fuzzSend, 100),
			deliverSrv, deliverSrv, deliverSrv, deliverSrv, deliverCli),
		// Full close from the client side, then from the server side.
		slices.Concat(halfClosed, deliverSrv, deliverCli, expireCli),
		slices.Concat(handshake, closeSrv, deliverSrv, deliverCli, closeCli, deliverCli, deliverSrv, expireSrv),
		// RST in each synchronized state.
		slices.Concat(handshake, rstCli),                                 // ESTABLISHED
		slices.Concat(handshake, closeCli, rstCli),                       // FIN_WAIT1
		slices.Concat(handshake, closeCli, deliverCli, rstSrv),           // CLOSE_WAIT
		slices.Concat(halfClosed, rstCli),                                // FIN_WAIT2
		slices.Concat(halfClosed, rstSrv),                                // LAST_ACK
		slices.Concat(handshake, closeCli, closeSrv, deliverCli, rstSrv), // CLOSING
		slices.Concat(halfClosed, deliverSrv, rstCli),                    // TIME_WAIT
		// Simultaneous close: both FINs cross, both ends pass CLOSING.
		slices.Concat(handshake, closeCli, closeSrv, deliverCli, deliverSrv, deliverCli, deliverSrv, expireCli, expireSrv),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w := newWorld(t)
		client := w.dial()
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			h := w.a
			if op&1 == 1 {
				h = w.b
			}
			sk := h.listener
			if n := len(h.socks); n > 0 {
				sk = h.socks[n-1]
			}
			switch int(op>>1) % numFuzzOps {
			case fuzzSegment:
				var arg [4]byte
				data = data[copy(arg[:], data):]
				p := &netproto.Packet{
					Src: client.Remote, Dst: client.Local,
					Flags:   netproto.Flags(arg[0]) & (netproto.SYN | netproto.ACK | netproto.FIN | netproto.RST | netproto.PSH),
					Payload: make([]byte, arg[3]),
				}
				if h == w.b {
					p.Src, p.Dst = p.Dst, p.Src
				}
				var rcv, snd uint32
				if to := h.findSock(p); to != nil {
					rcv, snd = to.RcvNxt, to.SndNxt
				}
				p.Seq = rcv + uint32(int8(arg[1]))
				p.Ack = snd + uint32(int8(arg[2]))
				w.deliver(h, p)
			case fuzzDeliver:
				w.deliverOne(h)
			case fuzzClose:
				Close(h, w.task, sk)
			case fuzzSend:
				n := 0
				if len(data) > 0 {
					n, data = 16*int(data[0]), data[1:]
				}
				Send(h, w.task, sk, make([]byte, n))
			case fuzzRetransmitTimeout:
				RetransmitTimeout(h, w.task, sk)
			case fuzzTimeWaitExpire:
				TimeWaitExpire(h, w.task, sk)
			}
		}
	})
}
