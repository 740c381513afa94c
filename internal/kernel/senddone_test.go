package kernel

import (
	"testing"

	"fastsocket/internal/cpu"
	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
	"fastsocket/internal/tcp"
)

// sendDoneBed is one kernel with a listener and a process whose
// OnSendDone counts the buffers it gets back. The test plays the peer
// by hand, segment by segment.
type sendDoneBed struct {
	t    *testing.T
	loop *sim.Loop
	k    *Kernel
	p    *Process
	lfd  int
	fd   int // the accepted connection

	peer, local netproto.Addr
	peerSeq     uint32 // next sequence number the peer sends
	srvSeq      uint32 // next sequence number the server sends
	out         []*netproto.Packet

	done map[*byte]int // completions per buffer
}

func newSendDoneBed(t *testing.T) *sendDoneBed {
	t.Helper()
	loop := sim.NewLoop()
	k := New(loop, Config{Cores: 1, Mode: Fastsocket, Feat: FullFastsocket()})
	b := &sendDoneBed{
		t: t, loop: loop, k: k,
		peer:    netproto.Addr{IP: netproto.IPv4(10, 2, 0, 1), Port: 40000},
		local:   netproto.Addr{IP: k.IPs()[0], Port: 80},
		peerSeq: 1000,
		done:    map[*byte]int{},
	}
	k.SendToWire = func(p *netproto.Packet) {
		cp := *p
		b.out = append(b.out, &cp)
	}
	lsk := k.BootListener(b.local)
	b.p = k.NewProcess(0)
	b.p.OnSendDone = func(buf []byte) {
		// The socket can no longer transmit from buf: it is gone from
		// the tables, so neither input nor a timer reaches it.
		if _, hashed := k.flowHome[b.tuple()]; hashed {
			t.Errorf("buffer completed while the connection is still hashed")
		}
		b.done[&buf[0]]++
	}
	b.syscall(func(tk *cpu.Task) { b.lfd = b.p.AttachListener(tk, lsk) })

	// Handshake, then accept.
	b.deliver(netproto.SYN, 0)
	synack := b.last(netproto.SYN | netproto.ACK)
	b.srvSeq = synack.Seq + 1
	b.peerSeq++
	b.deliver(netproto.ACK, b.srvSeq)
	b.syscall(func(tk *cpu.Task) {
		fd, ok := b.p.Accept(tk, b.lfd)
		if !ok {
			t.Fatal("accept failed")
		}
		b.fd = fd
	})
	return b
}

func (b *sendDoneBed) tuple() netproto.FourTuple {
	return netproto.FourTuple{Src: b.peer, Dst: b.local}
}

// syscall runs fn as process work on core 0 and lets the machine
// settle for a simulated millisecond.
func (b *sendDoneBed) syscall(fn func(tk *cpu.Task)) {
	b.k.Machine().Core(0).Submit(fn)
	b.settle(sim.Millisecond)
}

func (b *sendDoneBed) settle(d sim.Time) { b.loop.RunUntil(b.loop.Now() + d) }

// deliver hands the server one segment from the peer.
func (b *sendDoneBed) deliver(flags netproto.Flags, ack uint32) {
	b.k.Deliver(&netproto.Packet{Src: b.peer, Dst: b.local, Flags: flags, Seq: b.peerSeq, Ack: ack})
	b.settle(sim.Millisecond)
}

// last returns the newest transmitted segment, which must carry flags.
func (b *sendDoneBed) last(flags netproto.Flags) *netproto.Packet {
	b.t.Helper()
	if len(b.out) == 0 || !b.out[len(b.out)-1].Flags.Has(flags) {
		b.t.Fatalf("server did not send %v; sent %v", flags, b.out)
	}
	return b.out[len(b.out)-1]
}

// send writes buf on the connection and returns what Send queued.
func (b *sendDoneBed) send(buf []byte) int {
	var n int
	b.syscall(func(tk *cpu.Task) { n = b.p.Send(tk, b.fd, buf) })
	return n
}

func (b *sendDoneBed) closeFD() { b.syscall(func(tk *cpu.Task) { b.p.CloseFD(tk, b.fd) }) }

// expect checks how many times each buffer came back.
func (b *sendDoneBed) expect(when string, want map[*byte]int) {
	b.t.Helper()
	for p, n := range want {
		if b.done[p] != n {
			b.t.Errorf("%s: buffer returned %d times, want %d", when, b.done[p], n)
		}
	}
	if len(b.done) > len(want) {
		b.t.Errorf("%s: %d distinct buffers returned, want at most %d", when, len(b.done), len(want))
	}
}

// TestSendDoneAfterPassiveClose: the peer ACKs the data and closes
// first; the buffer returns once the server's LAST_ACK is acknowledged,
// not before.
func TestSendDoneAfterPassiveClose(t *testing.T) {
	b := newSendDoneBed(t)
	buf := []byte("response")
	if n := b.send(buf); n != len(buf) {
		t.Fatalf("Send = %d, want %d", n, len(buf))
	}
	b.srvSeq += uint32(len(buf))
	b.deliver(netproto.ACK, b.srvSeq)
	b.deliver(netproto.FIN|netproto.ACK, b.srvSeq)
	b.peerSeq++
	b.closeFD()
	b.last(netproto.FIN)
	b.expect("in LAST_ACK", map[*byte]int{&buf[0]: 0})
	b.deliver(netproto.ACK, b.srvSeq+1)
	b.expect("after the final ACK", map[*byte]int{&buf[0]: 1})
}

// TestSendDoneAfterTimeWait: the server closes first, so the socket is
// freed only when TIME_WAIT expires, and the buffers come back then.
func TestSendDoneAfterTimeWait(t *testing.T) {
	b := newSendDoneBed(t)
	head, tail := []byte("head"), []byte("tail")
	b.send(head)
	b.send(tail)
	b.srvSeq += uint32(len(head) + len(tail))
	b.closeFD()
	b.deliver(netproto.ACK, b.srvSeq+1) // data and FIN acknowledged: FIN_WAIT2
	b.k.Deliver(&netproto.Packet{Src: b.peer, Dst: b.local, Flags: netproto.FIN | netproto.ACK, Seq: b.peerSeq, Ack: b.srvSeq + 1})
	b.settle(b.k.Config().TimeWait / 2)
	if st := b.k.flowHome[b.tuple()].sk.State; st != tcp.TimeWait {
		t.Fatalf("state %v, want TIME_WAIT", st)
	}
	b.expect("in TIME_WAIT", map[*byte]int{&head[0]: 0, &tail[0]: 0})
	b.settle(b.k.Config().TimeWait)
	b.expect("after TIME_WAIT", map[*byte]int{&head[0]: 1, &tail[0]: 1})
}

// TestSendDoneAfterReset: an RST aborts the connection with the data
// unacknowledged. The buffer stays with the socket until the
// application closes the fd, and a Send on the dead socket returns 0
// and keeps nothing.
func TestSendDoneAfterReset(t *testing.T) {
	b := newSendDoneBed(t)
	buf, late := []byte("unacked"), []byte("late")
	b.send(buf)
	b.deliver(netproto.RST, 0)
	b.expect("reset, fd open", map[*byte]int{&buf[0]: 0})
	if n := b.send(late); n != 0 {
		t.Fatalf("Send on a reset socket = %d, want 0", n)
	}
	b.closeFD()
	b.settle(sim.Second) // past every retransmission timeout
	b.expect("after close", map[*byte]int{&buf[0]: 1, &late[0]: 0})
}
