package tcp

import (
	"errors"
	"strings"
	"testing"

	"fastsocket/internal/cpu"
	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
	"fastsocket/internal/stats"
)

// host is a fake Env: one endpoint with a listener and/or connection
// sockets, recording every callback. Packets are queued rather than
// delivered so tests control interleaving.
type host struct {
	name     string
	listener *Sock
	socks    []*Sock
	out      []*netproto.Packet

	accepted    []*Sock
	connectErr  []error
	connectOK   int
	readable    int
	destroyed   []*Sock
	rtxArm      int
	rtxCancel   int
	rtxDelay    sim.Time
	twStarted   []*Sock
	established []*Sock
}

func (h *host) Transmit(t *cpu.Task, sk *Sock, p *netproto.Packet) {
	h.out = append(h.out, p)
}
func (h *host) Accepted(t *cpu.Task, child *Sock) { h.accepted = append(h.accepted, child) }
func (h *host) ConnectDone(t *cpu.Task, sk *Sock, err error) {
	if err != nil {
		h.connectErr = append(h.connectErr, err)
	} else {
		h.connectOK++
	}
}
func (h *host) Readable(t *cpu.Task, sk *Sock) { h.readable++ }
func (h *host) InsertEstablished(t *cpu.Task, sk *Sock) {
	h.established = append(h.established, sk)
	h.socks = append(h.socks, sk)
}
func (h *host) Destroy(t *cpu.Task, sk *Sock) { h.destroyed = append(h.destroyed, sk) }
func (h *host) ArmRetransmit(t *cpu.Task, sk *Sock, d sim.Time) {
	h.rtxArm++
	h.rtxDelay = d
}
func (h *host) CancelRetransmit(t *cpu.Task, sk *Sock) { h.rtxCancel++ }
func (h *host) StartTimeWait(t *cpu.Task, sk *Sock)    { h.twStarted = append(h.twStarted, sk) }

// findSock locates the socket matching an incoming packet.
func (h *host) findSock(p *netproto.Packet) *Sock {
	for _, sk := range h.socks {
		if sk.Local == p.Dst && sk.Remote == p.Src && sk.State != Closed {
			return sk
		}
	}
	return nil
}

// world wires two hosts together.
type world struct {
	t      *testing.T
	task   *cpu.Task
	a, b   *host
	params *Params
}

// newWorld builds two hosts driven from one work item that stays open
// until the test ends: a *cpu.Task is valid only while its item runs,
// so the item parks on a channel, on the loop's goroutine, until
// cleanup.
func newWorld(t *testing.T) *world {
	loop := sim.NewLoop()
	m := cpu.NewMachine(loop, 1)
	w := &world{t: t, params: DefaultParams()}
	w.a = &host{name: "a"}
	w.b = &host{name: "b"}
	tasks := make(chan *cpu.Task)
	release, done := make(chan struct{}), make(chan struct{})
	m.Core(0).Submit(func(tk *cpu.Task) {
		tasks <- tk
		<-release
	})
	go func() {
		loop.Run()
		close(done)
	}()
	w.task = <-tasks
	t.Cleanup(func() {
		close(release)
		<-done
	})
	return w
}

func (w *world) peer(h *host) *host {
	if h == w.a {
		return w.b
	}
	return w.a
}

// deliverOne pops the oldest outbound packet of h and delivers it to
// the peer, returning the packet (nil when queue empty).
func (w *world) deliverOne(h *host) *netproto.Packet {
	if len(h.out) == 0 {
		return nil
	}
	p := h.out[0]
	h.out = h.out[1:]
	w.deliver(w.peer(h), p)
	return p
}

// deliver hands p to the socket of dst it is addressed to: a matching
// connection, else a listener for a bare SYN, else the floor.
func (w *world) deliver(dst *host, p *netproto.Packet) {
	if sk := dst.findSock(p); sk != nil {
		Input(dst, w.task, sk, p)
		return
	}
	if dst.listener != nil && p.Dst == dst.listener.Local && p.Flags.Has(netproto.SYN) && !p.Flags.Has(netproto.ACK) {
		ListenInput(dst, w.task, dst.listener, p, 9000, 0)
	}
}

// pump delivers until both queues are empty.
func (w *world) pump() {
	for len(w.a.out)+len(w.b.out) > 0 {
		w.deliverOne(w.a)
		w.deliverOne(w.b)
	}
}

// dial sets up b as a listener on :80 and starts an active connect
// from a, returning the client socket.
func (w *world) dial() *Sock {
	lst := NewSock(w.params, 0)
	lst.Local = netproto.Addr{IP: netproto.IPv4(2, 2, 2, 2), Port: 80}
	lst.State = Listen
	w.b.listener = lst

	cli := NewSock(w.params, 0)
	cli.Local = netproto.Addr{IP: netproto.IPv4(1, 1, 1, 1), Port: 40000}
	cli.Remote = lst.Local
	cli.HomeCore = 0
	w.a.socks = append(w.a.socks, cli)
	ConnectStart(w.a, w.task, cli, 1000)
	return cli
}

func (w *world) established() (cli, srv *Sock) {
	cli = w.dial()
	w.pump()
	if len(w.b.accepted) != 1 {
		w.t.Fatal("no accepted child after handshake")
	}
	return cli, w.b.accepted[0]
}

func TestThreeWayHandshake(t *testing.T) {
	w := newWorld(t)
	cli := w.dial()
	if cli.State != SynSent {
		t.Fatalf("client state = %v after connect", cli.State)
	}
	w.pump()
	if cli.State != Established {
		t.Errorf("client state = %v, want ESTABLISHED", cli.State)
	}
	if w.a.connectOK != 1 {
		t.Errorf("connectOK = %d, want 1", w.a.connectOK)
	}
	if len(w.b.accepted) != 1 {
		t.Fatalf("accepted %d children", len(w.b.accepted))
	}
	srv := w.b.accepted[0]
	if srv.State != Established {
		t.Errorf("server child state = %v", srv.State)
	}
	if srv.HomeCore != 0 {
		t.Errorf("child HomeCore = %d", srv.HomeCore)
	}
	if len(w.b.established) != 1 {
		t.Errorf("child inserted into established table %d times", len(w.b.established))
	}
	// Sequence numbers synchronized.
	if cli.RcvNxt != srv.SndNxt || srv.RcvNxt != cli.SndNxt {
		t.Errorf("seq desync: cli{rcv %d snd %d} srv{rcv %d snd %d}",
			cli.RcvNxt, cli.SndNxt, srv.RcvNxt, srv.SndNxt)
	}
}

func TestDataTransfer(t *testing.T) {
	w := newWorld(t)
	cli, srv := w.established()
	req := netproto.BuildRequest("/x", 600)
	if n := Send(w.a, w.task, cli, req); n != 600 {
		t.Fatalf("Send = %d, want 600", n)
	}
	w.pump()
	data, eof := Recv(srv, 0)
	if len(data) != 600 || eof {
		t.Fatalf("server received %d bytes, eof=%v", len(data), eof)
	}
	if string(data) != string(req) {
		t.Error("payload corrupted in transit")
	}
	// Server answers.
	resp := netproto.BuildResponse(1200)
	Send(w.b, w.task, srv, resp)
	w.pump()
	got, _ := Recv(cli, 0)
	if len(got) != 1200 {
		t.Fatalf("client received %d bytes, want 1200", len(got))
	}
}

func TestSendSegmentsAtMSS(t *testing.T) {
	w := newWorld(t)
	cli, srv := w.established()
	big := make([]byte, 4000)
	Send(w.a, w.task, cli, big)
	// 4000/1460 -> 3 segments.
	if len(w.a.out) != 3 {
		t.Fatalf("queued %d segments, want 3", len(w.a.out))
	}
	w.pump()
	data, _ := Recv(srv, 0)
	if len(data) != 4000 {
		t.Errorf("received %d bytes, want 4000", len(data))
	}
}

func TestRecvPartialReads(t *testing.T) {
	w := newWorld(t)
	cli, srv := w.established()
	Send(w.a, w.task, cli, []byte("hello world"))
	w.pump()
	d1, eof := Recv(srv, 5)
	if string(d1) != "hello" || eof {
		t.Fatalf("first read = %q eof=%v", d1, eof)
	}
	d2, _ := Recv(srv, 0)
	if string(d2) != " world" {
		t.Errorf("second read = %q", d2)
	}
}

// A read that drains the receive buffer rewinds it, so the next
// segment is appended into the same backing array instead of a fresh
// one; a partial read leaves the unread tail in place.
func TestRecvDrainReusesBuffer(t *testing.T) {
	w := newWorld(t)
	cli, srv := w.established()
	Send(w.a, w.task, cli, []byte("hello world"))
	w.pump()
	d1, _ := Recv(srv, 0)
	if string(d1) != "hello world" {
		t.Fatalf("first read = %q", d1)
	}
	Send(w.a, w.task, cli, []byte("again"))
	w.pump()
	if len(srv.RcvBuf) == 0 || &srv.RcvBuf[0] != &d1[0] {
		t.Error("segment after a full Recv did not land in the drained backing array")
	}
	if d2, _ := Recv(srv, 3); string(d2) != "aga" {
		t.Fatalf("partial read = %q", d2)
	}
	if d3, _ := Recv(srv, 0); string(d3) != "in" {
		t.Errorf("tail read = %q", d3)
	}
}

func TestFullCloseSequence(t *testing.T) {
	w := newWorld(t)
	cli, srv := w.established()
	// Server closes first (HTTP Connection: close).
	Close(w.b, w.task, srv)
	if srv.State != FinWait1 {
		t.Fatalf("server state = %v after close", srv.State)
	}
	w.pump()
	if srv.State != FinWait2 {
		t.Fatalf("server state = %v, want FIN_WAIT2 (client ACKed FIN, has not closed)", srv.State)
	}
	if cli.State != CloseWait {
		t.Fatalf("client state = %v, want CLOSE_WAIT", cli.State)
	}
	if _, eof := Recv(cli, 0); !eof {
		t.Error("client should see EOF after FIN")
	}
	// Client closes its side.
	Close(w.a, w.task, cli)
	if cli.State != LastAck {
		t.Fatalf("client state = %v, want LAST_ACK", cli.State)
	}
	w.pump()
	if cli.State != Closed {
		t.Errorf("client state = %v, want CLOSED", cli.State)
	}
	if srv.State != TimeWait {
		t.Errorf("server state = %v, want TIME_WAIT", srv.State)
	}
	if len(w.b.twStarted) != 1 {
		t.Errorf("TIME_WAIT started %d times", len(w.b.twStarted))
	}
	if len(w.a.destroyed) != 1 {
		t.Errorf("client destroyed %d times", len(w.a.destroyed))
	}
	// Reap TIME_WAIT.
	TimeWaitExpire(w.b, w.task, srv)
	if srv.State != Closed || len(w.b.destroyed) != 1 {
		t.Error("TIME_WAIT socket not reaped")
	}
}

// TestFinWait1CoalescedFINACK drops the client's ACK of the server's
// FIN, so the client's own FIN carries that ACK. The server processes
// the ACK before the FIN in the same segment: FIN_WAIT1 -> FIN_WAIT2 ->
// TIME_WAIT, never FIN_WAIT1 -> TIME_WAIT directly.
func TestFinWait1CoalescedFINACK(t *testing.T) {
	w := newWorld(t)
	tr := &stats.FSMTrace{}
	w.params.Trace = tr
	cli, srv := w.established()
	Close(w.b, w.task, srv)
	w.deliverOne(w.b) // server FIN -> client, which ACKs it
	if cli.State != CloseWait || len(w.a.out) != 1 {
		t.Fatalf("client state = %v with %d queued segments, want CLOSE_WAIT and one ACK", cli.State, len(w.a.out))
	}
	w.a.out = nil // the ACK is lost
	Close(w.a, w.task, cli)
	fin := w.a.out[0]
	if !fin.Flags.Has(netproto.FIN) || !fin.Flags.Has(netproto.ACK) || fin.Ack != srv.SndNxt {
		t.Fatalf("client FIN %+v does not acknowledge the server's FIN (SndNxt %d)", fin, srv.SndNxt)
	}
	w.pump()
	if srv.State != TimeWait {
		t.Fatalf("server state = %v, want TIME_WAIT", srv.State)
	}
	if len(w.b.twStarted) != 1 {
		t.Errorf("TIME_WAIT started %d times, want 1", len(w.b.twStarted))
	}
	if got := tr.Counts[FinWait1][FinWait2]; got != 1 {
		t.Errorf("FIN_WAIT1 -> FIN_WAIT2 recorded %d times, want 1", got)
	}
	if got := tr.Counts[FinWait2][TimeWait]; got != 1 {
		t.Errorf("FIN_WAIT2 -> TIME_WAIT recorded %d times, want 1", got)
	}
	if got := tr.Counts[FinWait1][TimeWait]; got != 0 {
		t.Errorf("FIN_WAIT1 -> TIME_WAIT recorded %d times, want 0", got)
	}
	if cli.State != Closed {
		t.Errorf("client state = %v, want CLOSED", cli.State)
	}
}

func TestSimultaneousClose(t *testing.T) {
	w := newWorld(t)
	cli, srv := w.established()
	Close(w.a, w.task, cli)
	Close(w.b, w.task, srv)
	w.pump()
	// Both sides sent FIN before seeing the peer's: CLOSING -> TIME_WAIT.
	for _, sk := range []*Sock{cli, srv} {
		if sk.State != TimeWait {
			t.Errorf("state after simultaneous close = %v, want TIME_WAIT", sk.State)
		}
	}
}

func TestDuplicateDataReACKed(t *testing.T) {
	w := newWorld(t)
	cli, srv := w.established()
	Send(w.a, w.task, cli, []byte("abc"))
	dup := *w.a.out[0]
	w.pump()
	// Redeliver the same segment.
	txBefore := len(w.b.out)
	Input(w.b, w.task, srv, &dup)
	if got, _ := Recv(srv, 0); string(got) != "abc" {
		t.Errorf("duplicate delivered twice: %q", got)
	}
	if len(w.b.out) != txBefore+1 {
		t.Error("duplicate segment not re-ACKed")
	}
}

func TestOutOfOrderSegmentDropped(t *testing.T) {
	w := newWorld(t)
	cli, srv := w.established()
	future := &netproto.Packet{
		Src: cli.Local, Dst: cli.Remote,
		Flags: netproto.PSH | netproto.ACK,
		Seq:   cli.SndNxt + 5000, Ack: cli.RcvNxt,
		Payload: []byte("future"),
	}
	Input(w.b, w.task, srv, future)
	if srv.DroppedSegs != 1 {
		t.Errorf("DroppedSegs = %d, want 1", srv.DroppedSegs)
	}
	if data, _ := Recv(srv, 0); len(data) != 0 {
		t.Error("out-of-order payload delivered")
	}
}

func TestRSTAborts(t *testing.T) {
	w := newWorld(t)
	cli, _ := w.established()
	rst := &netproto.Packet{Src: cli.Remote, Dst: cli.Local, Flags: netproto.RST}
	Input(w.a, w.task, cli, rst)
	if cli.State != Closed {
		t.Errorf("state after RST = %v", cli.State)
	}
	if len(w.a.destroyed) != 1 {
		t.Error("RST did not destroy the socket")
	}
	if _, eof := Recv(cli, 0); !eof {
		t.Error("reader not unblocked with EOF after RST")
	}
}

func TestRSTDuringConnectReportsError(t *testing.T) {
	w := newWorld(t)
	cli := w.dial()
	rst := &netproto.Packet{Src: cli.Remote, Dst: cli.Local, Flags: netproto.RST}
	Input(w.a, w.task, cli, rst)
	if len(w.a.connectErr) != 1 || !errors.Is(w.a.connectErr[0], ErrReset) {
		t.Errorf("connectErr = %v, want ErrReset", w.a.connectErr)
	}
}

func TestRetransmitWithBackoff(t *testing.T) {
	w := newWorld(t)
	cli := w.dial()
	w.a.out = nil // SYN lost
	RetransmitTimeout(w.a, w.task, cli)
	if cli.Retransmits != 1 || len(w.a.out) != 1 {
		t.Fatalf("retransmits = %d, queued = %d", cli.Retransmits, len(w.a.out))
	}
	if !w.a.out[0].Flags.Has(netproto.SYN) {
		t.Error("retransmitted segment is not the SYN")
	}
	if w.a.rtxDelay != w.params.InitialRTO*2 {
		t.Errorf("backoff delay = %v, want %v", w.a.rtxDelay, w.params.InitialRTO*2)
	}
	// Retransmitted SYN completes the handshake.
	w.pump()
	if cli.State != Established {
		t.Errorf("state = %v after retransmitted handshake", cli.State)
	}
}

func TestRetransmitGivesUp(t *testing.T) {
	w := newWorld(t)
	cli := w.dial()
	for i := 0; i <= w.params.MaxRetries; i++ {
		w.a.out = nil
		RetransmitTimeout(w.a, w.task, cli)
	}
	if cli.State != Closed {
		t.Errorf("state = %v after exhausting retries", cli.State)
	}
	if len(w.a.connectErr) != 1 {
		t.Errorf("connect error not reported: %v", w.a.connectErr)
	}
	if len(w.a.destroyed) != 1 {
		t.Error("socket not destroyed after giving up")
	}
}

func TestAckCancelsRetransmit(t *testing.T) {
	w := newWorld(t)
	cli, _ := w.established()
	Send(w.a, w.task, cli, []byte("ping"))
	cancels := w.a.rtxCancel
	w.pump()
	if cli.UnackedLen() != 0 {
		t.Errorf("unacked = %d after ACK", cli.UnackedLen())
	}
	if w.a.rtxCancel != cancels+1 {
		t.Error("retransmit timer not cancelled on full ACK")
	}
}

func TestListenBacklogOverflow(t *testing.T) {
	w := newWorld(t)
	params := DefaultParams()
	params.Backlog = 2
	lst := NewSock(params, 0)
	lst.Local = netproto.Addr{IP: netproto.IPv4(2, 2, 2, 2), Port: 80}
	lst.State = Listen
	env := &host{name: "srv"}
	for i := 0; i < 3; i++ {
		syn := &netproto.Packet{
			Src:   netproto.Addr{IP: netproto.IPv4(1, 1, 1, 1), Port: netproto.Port(40000 + i)},
			Dst:   lst.Local,
			Flags: netproto.SYN,
			Seq:   100,
		}
		child := ListenInput(env, w.task, lst, syn, 50, 0)
		if child != nil {
			child.State = Established
			lst.PushAccept(child)
		}
	}
	if lst.AcceptLen() != 2 {
		t.Errorf("accept queue = %d, want 2 (backlog)", lst.AcceptLen())
	}
	if lst.DroppedSegs != 1 {
		t.Errorf("DroppedSegs = %d, want 1", lst.DroppedSegs)
	}
}

func TestListenRejectsNonSYN(t *testing.T) {
	w := newWorld(t)
	lst := NewSock(w.params, 0)
	lst.Local = netproto.Addr{IP: netproto.IPv4(2, 2, 2, 2), Port: 80}
	lst.State = Listen
	env := &host{}
	ack := &netproto.Packet{
		Src:   netproto.Addr{IP: netproto.IPv4(1, 1, 1, 1), Port: 40000},
		Dst:   lst.Local,
		Flags: netproto.ACK,
	}
	if child := ListenInput(env, w.task, lst, ack, 50, 0); child != nil {
		t.Error("listener spawned child from non-SYN segment")
	}
}

func TestSynRetransmitReanswered(t *testing.T) {
	w := newWorld(t)
	cli := w.dial()
	syn := w.a.out[0]
	w.pump() // handshake completes
	_ = cli
	srv := w.b.accepted[0]
	// A delayed duplicate SYN shows up for the now-ESTABLISHED child;
	// put child back in SYN_RCVD to exercise the re-answer path.
	srv.State = SynRcvd
	before := len(w.b.out)
	Input(w.b, w.task, srv, syn)
	if len(w.b.out) != before+1 || !w.b.out[before].Flags.Has(netproto.SYN|netproto.ACK) {
		t.Error("duplicate SYN not re-answered with SYN-ACK")
	}
}

func TestPiggybackedDataOnHandshakeACK(t *testing.T) {
	w := newWorld(t)
	cli := w.dial()
	w.deliverOne(w.a) // SYN -> server
	w.deliverOne(w.b) // SYN-ACK -> client
	// Client is ESTABLISHED; its pure ACK is queued. Replace it with
	// an ACK carrying data (request piggybacked on handshake ACK).
	if cli.State != Established {
		t.Fatalf("client state = %v", cli.State)
	}
	w.a.out = nil
	Send(w.a, w.task, cli, []byte("GET"))
	w.pump()
	srv := w.b.accepted[0]
	if srv.State != Established {
		t.Fatalf("server state = %v", srv.State)
	}
	if data, _ := Recv(srv, 0); string(data) != "GET" {
		t.Errorf("piggybacked data = %q", data)
	}
}

func TestTimeWaitReACKsFIN(t *testing.T) {
	w := newWorld(t)
	cli, srv := w.established()
	Close(w.b, w.task, srv)
	w.pump()
	Close(w.a, w.task, cli)
	finDup := *w.a.out[0]
	w.pump()
	if srv.State != TimeWait {
		t.Fatalf("server state = %v", srv.State)
	}
	before := len(w.b.out)
	Input(w.b, w.task, srv, &finDup)
	if len(w.b.out) != before+1 {
		t.Error("TIME_WAIT did not re-ACK retransmitted FIN")
	}
}

func TestCloseWaitReACKsFINDup(t *testing.T) {
	w := newWorld(t)
	cli, srv := w.established()
	Close(w.b, w.task, srv)
	fin := w.b.out[0]
	w.pump()
	if cli.State != CloseWait {
		t.Fatalf("client state = %v", cli.State)
	}
	before := len(w.a.out)
	Input(w.a, w.task, cli, fin)
	if len(w.a.out) != before+1 {
		t.Error("CLOSE_WAIT did not re-ACK duplicate FIN")
	}
}

func TestCloseHalfOpenSocket(t *testing.T) {
	w := newWorld(t)
	cli := w.dial()
	Close(w.a, w.task, cli)
	if cli.State != Closed {
		t.Errorf("state = %v after closing SYN_SENT socket", cli.State)
	}
	if len(w.a.destroyed) != 1 {
		t.Error("half-open socket not destroyed on close")
	}
}

func TestSendOnClosedSocketReturnsZero(t *testing.T) {
	w := newWorld(t)
	sk := NewSock(w.params, 0)
	if n := Send(w.a, w.task, sk, []byte("x")); n != 0 {
		t.Errorf("Send on CLOSED = %d", n)
	}
}

func TestConnectOnNonClosedPanics(t *testing.T) {
	w := newWorld(t)
	cli := w.dial()
	defer func() {
		if recover() == nil {
			t.Error("double connect did not panic")
		}
	}()
	ConnectStart(w.a, w.task, cli, 1)
}

// TestTransitionUndeclaredPriorPanics: a socket outside the call's
// declared priors is a caller bug; the panic names the current state,
// the target and the declared set.
func TestTransitionUndeclaredPriorPanics(t *testing.T) {
	sk := NewSock(DefaultParams(), 0)
	sk.Transition(1<<Closed, Listen)
	defer func() {
		msg, ok := recover().(string)
		if !ok {
			t.Fatal("transition from an undeclared prior did not panic with a message")
		}
		for _, want := range []string{"LISTEN -> TIME_WAIT", "{FIN_WAIT2, CLOSING}"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic message %q does not name %q", msg, want)
			}
		}
	}()
	sk.Transition(1<<FinWait2|1<<Closing, TimeWait)
}

// TestTransitionTracesOnceWithoutAllocating: every call records exactly
// one old -> new count in the kernel's tracer, and the success path
// allocates nothing.
func TestTransitionTracesOnceWithoutAllocating(t *testing.T) {
	p := DefaultParams()
	tr := &stats.FSMTrace{}
	p.Trace = tr
	sk := NewSock(p, 0)
	steps := []struct {
		from States
		to   State
	}{
		{1 << Closed, Listen},
		{1<<Listen | 1<<Closed, Closed},
		{AnyState, Closed},
		{1 << Closed, SynSent},
	}
	for i, st := range steps {
		prior := sk.State
		before := tr.Counts[prior][st.to]
		sk.Transition(st.from, st.to)
		if tr.Total() != uint64(i+1) || tr.Counts[prior][st.to] != before+1 {
			t.Fatalf("step %d (%v -> %v): total %d, cell %d, want %d and %d",
				i, prior, st.to, tr.Total(), tr.Counts[prior][st.to], i+1, before+1)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		sk.Transition(1<<SynSent, Closed)
		sk.Transition(1<<Closed, SynSent)
	})
	if allocs != 0 {
		t.Errorf("Transition allocated %.1f times per run, want 0", allocs)
	}
}

func TestStateString(t *testing.T) {
	if Established.String() != "ESTABLISHED" || TimeWait.String() != "TIME_WAIT" {
		t.Error("state names wrong")
	}
	if State(99).String() != "State(99)" {
		t.Error("out-of-range state name wrong")
	}
}

func TestSegEnd(t *testing.T) {
	if (&Seg{Seq: 10, Flags: netproto.SYN}).End() != 11 {
		t.Error("SYN should consume one sequence number")
	}
	if (&Seg{Seq: 10, Payload: make([]byte, 5)}).End() != 15 {
		t.Error("payload length not counted")
	}
	if (&Seg{Seq: 10, Flags: netproto.FIN, Payload: make([]byte, 5)}).End() != 16 {
		t.Error("FIN+payload end wrong")
	}
}

func TestTupleOrientation(t *testing.T) {
	sk := NewSock(DefaultParams(), 0)
	sk.Local = netproto.Addr{IP: netproto.IPv4(1, 1, 1, 1), Port: 80}
	sk.Remote = netproto.Addr{IP: netproto.IPv4(2, 2, 2, 2), Port: 5000}
	ft := sk.Tuple()
	if ft.Src != sk.Remote || ft.Dst != sk.Local {
		t.Errorf("Tuple() = %+v (must be receive-perspective)", ft)
	}
}

// --- SYN backlog and syncookies -----------------------------------------

func TestSynQueueCountsHalfOpen(t *testing.T) {
	w := newWorld(t)
	lst := NewSock(w.params, 0)
	lst.Local = netproto.Addr{IP: netproto.IPv4(2, 2, 2, 2), Port: 80}
	lst.State = Listen
	env := &host{}
	for i := 0; i < 3; i++ {
		syn := &netproto.Packet{
			Src:   netproto.Addr{IP: netproto.IPv4(1, 1, 1, byte(i+1)), Port: 40000},
			Dst:   lst.Local,
			Flags: netproto.SYN, Seq: 1,
		}
		ListenInput(env, w.task, lst, syn, 50, 0)
	}
	if lst.SynQueue != 3 {
		t.Fatalf("SynQueue = %d, want 3", lst.SynQueue)
	}
	// Completing one handshake drains one slot.
	child := env.established[0]
	Input(env, w.task, child, &netproto.Packet{
		Src: child.Remote, Dst: child.Local,
		Flags: netproto.ACK, Seq: 2, Ack: child.SndNxt,
	})
	if lst.SynQueue != 2 {
		t.Errorf("SynQueue = %d after one handshake, want 2", lst.SynQueue)
	}
	// Aborting another (retransmission exhaustion) drains one more.
	victim := env.established[1]
	for i := 0; i <= w.params.MaxRetries; i++ {
		RetransmitTimeout(env, w.task, victim)
	}
	if lst.SynQueue != 1 {
		t.Errorf("SynQueue = %d after abort, want 1", lst.SynQueue)
	}
}

func TestSynBacklogDropsWithoutCookies(t *testing.T) {
	w := newWorld(t)
	params := DefaultParams()
	params.SynBacklog = 2
	lst := NewSock(params, 0)
	lst.Local = netproto.Addr{IP: netproto.IPv4(2, 2, 2, 2), Port: 80}
	lst.State = Listen
	env := &host{}
	for i := 0; i < 4; i++ {
		syn := &netproto.Packet{
			Src:   netproto.Addr{IP: netproto.IPv4(1, 1, 1, byte(i+1)), Port: 40000},
			Dst:   lst.Local,
			Flags: netproto.SYN, Seq: 1,
		}
		ListenInput(env, w.task, lst, syn, 50, 0)
	}
	if lst.SynQueue != 2 || lst.DroppedSegs != 2 {
		t.Errorf("SynQueue=%d dropped=%d, want 2/2", lst.SynQueue, lst.DroppedSegs)
	}
}

func TestCookieISNDeterministicAndKeyed(t *testing.T) {
	ft := netproto.FourTuple{
		Src: netproto.Addr{IP: netproto.IPv4(1, 1, 1, 1), Port: 40000},
		Dst: netproto.Addr{IP: netproto.IPv4(2, 2, 2, 2), Port: 80},
	}
	if CookieISN(ft, 7) != CookieISN(ft, 7) {
		t.Error("cookie not deterministic")
	}
	if CookieISN(ft, 7) == CookieISN(ft, 8) {
		t.Error("cookie ignores the secret")
	}
	other := ft
	other.Src.Port = 40001
	if CookieISN(ft, 7) == CookieISN(other, 7) {
		t.Error("cookie ignores the tuple")
	}
}

func TestCookieHandshakeEndToEnd(t *testing.T) {
	w := newWorld(t)
	params := DefaultParams()
	params.SynBacklog = 0 // force the cookie path immediately
	params.SynCookies = true
	lst := NewSock(params, 0)
	lst.Local = netproto.Addr{IP: netproto.IPv4(2, 2, 2, 2), Port: 80}
	lst.State = Listen
	env := &host{}
	cli := netproto.Addr{IP: netproto.IPv4(1, 1, 1, 1), Port: 40000}
	syn := &netproto.Packet{Src: cli, Dst: lst.Local, Flags: netproto.SYN, Seq: 100}
	if child := ListenInput(env, w.task, lst, syn, 50, 0); child != nil {
		t.Fatal("cookie path created state for the SYN")
	}
	if lst.CookiesSent != 1 || len(env.out) != 1 {
		t.Fatalf("no stateless SYN-ACK (sent=%d)", lst.CookiesSent)
	}
	synack := env.out[0]
	if !synack.Flags.Has(netproto.SYN | netproto.ACK) {
		t.Fatalf("reply = %v", synack)
	}
	// Echo the cookie back as a legitimate client would.
	ack := &netproto.Packet{
		Src: cli, Dst: lst.Local,
		Flags: netproto.ACK,
		Seq:   101, Ack: synack.Seq + 1,
	}
	child := AcceptCookieACK(env, w.task, lst, ack, 0)
	if child == nil {
		t.Fatal("valid cookie ACK rejected")
	}
	if child.State != Established {
		t.Errorf("child state = %v", child.State)
	}
	if lst.CookiesAccepted != 1 {
		t.Errorf("CookiesAccepted = %d", lst.CookiesAccepted)
	}
	if len(env.accepted) != 1 {
		t.Error("child not queued for accept")
	}
	// Data flows on the reconstructed connection.
	Input(env, w.task, child, &netproto.Packet{
		Src: cli, Dst: lst.Local,
		Flags: netproto.PSH | netproto.ACK,
		Seq:   101, Ack: synack.Seq + 1,
		Payload: []byte("GET"),
	})
	if data, _ := Recv(child, 0); string(data) != "GET" {
		t.Errorf("reconstructed connection lost data: %q", data)
	}
}

func TestCookieForgedACKRejected(t *testing.T) {
	w := newWorld(t)
	params := DefaultParams()
	params.SynCookies = true
	lst := NewSock(params, 0)
	lst.Local = netproto.Addr{IP: netproto.IPv4(2, 2, 2, 2), Port: 80}
	lst.State = Listen
	env := &host{}
	forged := &netproto.Packet{
		Src:   netproto.Addr{IP: netproto.IPv4(6, 6, 6, 6), Port: 41000},
		Dst:   lst.Local,
		Flags: netproto.ACK,
		Seq:   1, Ack: 0x12345678,
	}
	if AcceptCookieACK(env, w.task, lst, forged, 0) != nil {
		t.Error("forged ACK accepted")
	}
	// Cookies disabled: even a "valid" ACK is rejected.
	lst.Params = DefaultParams()
	valid := &netproto.Packet{
		Src: forged.Src, Dst: lst.Local, Flags: netproto.ACK,
		Seq: 1, Ack: CookieISN(forged.Tuple(), lst.Params.CookieSecret) + 1,
	}
	if AcceptCookieACK(env, w.task, lst, valid, 0) != nil {
		t.Error("cookie ACK accepted while the defence is off")
	}
}

// TestAcceptQueueFIFOKeepsCapacity: pops come out in push order across
// interleavings, and once the queue has reached its working size a
// push/pop cycle allocates nothing.
func TestAcceptQueueFIFOKeepsCapacity(t *testing.T) {
	lst := NewSock(DefaultParams(), 0)
	kids := make([]*Sock, 64)
	for i := range kids {
		kids[i] = NewSock(DefaultParams(), 0)
	}
	next, want := 0, 0
	push := func(n int) {
		for ; n > 0; n-- {
			lst.PushAccept(kids[next%len(kids)])
			next++
		}
	}
	pop := func(n int) {
		for ; n > 0; n-- {
			got := lst.PopAccept()
			if got != kids[want%len(kids)] {
				t.Fatalf("pop %d out of order", want)
			}
			want++
		}
	}
	for _, step := range [][2]int{{3, 1}, {5, 2}, {1, 6}, {8, 3}, {2, 7}, {4, 4}} {
		push(step[0])
		pop(step[1])
		if lst.AcceptLen() != next-want {
			t.Fatalf("AcceptLen %d, want %d", lst.AcceptLen(), next-want)
		}
	}
	if lst.PopAccept() != nil {
		t.Fatal("pop from an empty queue returned a child")
	}
	allocs := testing.AllocsPerRun(100, func() {
		push(8)
		pop(3)
		push(2)
		pop(7)
	})
	if allocs != 0 {
		t.Errorf("steady push/pop allocates %.1f per cycle", allocs)
	}
}
