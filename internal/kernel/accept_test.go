package kernel

import (
	"testing"

	"fastsocket/internal/cpu"
	"fastsocket/internal/epoll"
	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
	"fastsocket/internal/tcp"
)

// mkChild fabricates an ESTABLISHED child socket ready for an accept
// queue.
func mkChild(k *Kernel, parent *tcp.Sock, i int) *tcp.Sock {
	child := tcp.NewSock(k.cfg.TCP, 0)
	child.Local = parent.Local
	child.Remote = netproto.Addr{IP: netproto.IPv4(10, 2, 0, byte(i)), Port: netproto.Port(40000 + i)}
	child.State = tcp.Established
	child.Parent = parent
	child.User = &sockExt{sk: child, fd: -1}
	return child
}

func TestAcceptChecksGlobalQueueFirst(t *testing.T) {
	// §3.2.1: the accept path must check the global listen socket's
	// queue (the robustness slow path) before the local clone;
	// otherwise a busy local queue starves slow-path connections
	// forever.
	loop, k := bootFastsocket(t, 2)
	lsk := k.BootListener(netproto.Addr{IP: k.IPs()[0], Port: 80})
	p := k.NewProcess(0)
	var acceptedRemote netproto.Addr
	k.Machine().Core(0).Submit(func(tk *cpu.Task) {
		fd := p.AttachListener(tk, lsk)
		if err := p.LocalListen(tk, fd); err != nil {
			t.Fatal(err)
		}
		clone := ext(lsk).listen.clones[0]
		// A connection waits in each queue.
		globalChild := mkChild(k, lsk, 1)
		localChild := mkChild(k, clone, 2)
		lsk.PushAccept(globalChild)
		clone.PushAccept(localChild)

		cfd, ok := p.Accept(tk, fd)
		if !ok {
			t.Fatal("accept failed")
		}
		acceptedRemote = p.FDs.Get(cfd).Sock.(*tcp.Sock).Remote
	})
	loop.Run()
	if acceptedRemote.Port != 40001 {
		t.Errorf("accepted %v first, want the global-queue connection (port 40001)", acceptedRemote)
	}
}

func TestAcceptDrainsLocalAfterGlobal(t *testing.T) {
	loop, k := bootFastsocket(t, 1)
	lsk := k.BootListener(netproto.Addr{IP: k.IPs()[0], Port: 80})
	p := k.NewProcess(0)
	k.Machine().Core(0).Submit(func(tk *cpu.Task) {
		fd := p.AttachListener(tk, lsk)
		if err := p.LocalListen(tk, fd); err != nil {
			t.Fatal(err)
		}
		clone := ext(lsk).listen.clones[0]
		clone.PushAccept(mkChild(k, clone, 3))
		if _, ok := p.Accept(tk, fd); !ok {
			t.Error("local-queue connection not accepted")
		}
		if _, ok := p.Accept(tk, fd); ok {
			t.Error("accept succeeded on empty queues")
		}
	})
	loop.Run()
	if k.Stats().Accepts != 1 || k.Stats().AcceptEmpty != 1 {
		t.Errorf("stats = %+v", k.Stats())
	}
}

func TestWakePolicies(t *testing.T) {
	for _, wakeAll := range []bool{false, true} {
		loop, k := bootFastsocket(t, 4)
		k.SetAcceptWakeAll(wakeAll)
		lsk := k.BootListener(netproto.Addr{IP: k.IPs()[0], Port: 80})
		// Four workers epoll the shared listener (no local clones, so
		// the shared-socket wake path is exercised).
		notified := 0
		for i := 0; i < 4; i++ {
			p := k.NewProcess(i)
			i := i
			k.Machine().Core(i).Submit(func(tk *cpu.Task) {
				fd := p.AttachListener(tk, lsk)
				p.EpollAdd(tk, fd)
				_ = i
			})
		}
		loop.Run()
		for _, pw := range ext(lsk).listen.watchers {
			pw := pw
			before := pw.proc.Ep.Stats().Notifies
			_ = before
		}
		// Deliver a ready child via the Env hook.
		k.Machine().Core(0).Submit(func(tk *cpu.Task) {
			child := mkChild(k, lsk, 9)
			k.Accepted(tk, child)
		})
		loop.Run()
		for _, pw := range ext(lsk).listen.watchers {
			if pw.proc.Ep.Stats().Notifies > 0 {
				notified++
			}
		}
		want := 1
		if wakeAll {
			want = 4
		}
		if notified != want {
			t.Errorf("wakeAll=%v notified %d epolls, want %d", wakeAll, notified, want)
		}
	}
}

func TestRFSRecordsAndSteers(t *testing.T) {
	loop := sim.NewLoop()
	k := New(loop, Config{Cores: 4, Mode: Linux313, RFS: true})
	k.SendToWire = func(p *netproto.Packet) {}
	sk := tcp.NewSock(k.cfg.TCP, 0)
	sk.Local = netproto.Addr{IP: k.IPs()[0], Port: 80}
	sk.Remote = netproto.Addr{IP: netproto.IPv4(10, 2, 0, 1), Port: 40000}
	sk.State = tcp.Established
	sk.HomeCore = 2
	sk.User = &sockExt{sk: sk, fd: -1}
	// The app "reads" on core 2 -> flow table learns core 2.
	k.Machine().Core(2).Submit(func(tk *cpu.Task) {
		k.rfsRecord(tk, sk)
	})
	loop.Run()
	if k.RFSStats().Updates != 1 {
		t.Fatalf("RFS stats = %+v", k.RFSStats())
	}
	p := &netproto.Packet{Src: sk.Remote, Dst: sk.Local, Flags: netproto.ACK}
	if got := k.rfsTarget(p); got != 2 {
		t.Errorf("rfsTarget = %d, want 2", got)
	}
	if k.RFSStats().Hits != 1 {
		t.Errorf("RFS hits = %d", k.RFSStats().Hits)
	}
	// Unknown flow: no opinion.
	other := &netproto.Packet{
		Src: netproto.Addr{IP: netproto.IPv4(9, 9, 9, 9), Port: 1234},
		Dst: sk.Local,
	}
	if got := k.rfsTarget(other); got != -1 {
		t.Errorf("rfsTarget for unknown flow = %d", got)
	}
}

func TestRFSDisabledUnderRFD(t *testing.T) {
	cfg := Config{Mode: Fastsocket, Feat: FullFastsocket(), RFS: true}.withDefaults()
	if cfg.RFS {
		t.Error("RFS not disabled when RFD is on")
	}
}

func TestRFSBadTableSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad RFS table size did not panic")
		}
	}()
	newRFSTable(1000)
}

func TestEpollStatsAccessor(t *testing.T) {
	// Smoke-check the epoll stats used by TestWakePolicies.
	loop, k := bootFastsocket(t, 1)
	p := k.NewProcess(0)
	k.Machine().Core(0).Submit(func(tk *cpu.Task) {
		fd := p.Socket(tk)
		p.EpollAdd(tk, fd)
		e := p.sockAt(fd)
		p.Ep.Notify(tk, e.watch, epoll.In)
	})
	loop.Run()
	if p.Ep.Stats().Notifies != 1 {
		t.Errorf("notifies = %d", p.Ep.Stats().Notifies)
	}
}
