package kernel

import (
	"strings"
	"testing"

	"fastsocket/internal/cpu"
	"fastsocket/internal/epoll"
	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
	"fastsocket/internal/tcp"
	"fastsocket/internal/vfs"
)

func bootFastsocket(t *testing.T, cores int) (*sim.Loop, *Kernel) {
	t.Helper()
	loop := sim.NewLoop()
	k := New(loop, Config{Cores: cores, Mode: Fastsocket, Feat: FullFastsocket()})
	k.SendToWire = func(p *netproto.Packet) {} // drop outbound traffic
	return loop, k
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Cores != 1 || len(cfg.IPs) != 1 || cfg.Costs == nil || cfg.TCP == nil {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.EhashBuckets == 0 || cfg.TimeWait == 0 {
		t.Error("table/timewait defaults missing")
	}
}

func TestConfigStripsFeaturesOnStockKernels(t *testing.T) {
	cfg := Config{Mode: Base2632, Feat: FullFastsocket()}.withDefaults()
	if cfg.Feat != (Features{}) {
		t.Error("Base2632 kept Fastsocket features")
	}
}

func TestLocalEstRequiresRFD(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LocalEst without RFD did not panic")
		}
	}()
	Config{Mode: Fastsocket, Feat: Features{LocalEst: true}}.withDefaults()
}

func TestVFSModeMapping(t *testing.T) {
	cases := []struct {
		cfg  Config
		want vfs.Mode
	}{
		{Config{Mode: Base2632}, vfs.Legacy2632},
		{Config{Mode: Linux313}, vfs.Sharded313},
		{Config{Mode: Fastsocket, Feat: Features{VFS: true}}, vfs.Fastpath},
		{Config{Mode: Fastsocket}, vfs.Legacy2632},
	}
	for _, c := range cases {
		if got := c.cfg.vfsMode(); got != c.want {
			t.Errorf("vfsMode(%v feat=%+v) = %v, want %v", c.cfg.Mode, c.cfg.Feat, got, c.want)
		}
	}
}

func TestModeString(t *testing.T) {
	if Base2632.String() != "base-2.6.32" || Fastsocket.String() != "fastsocket" ||
		Linux313.String() != "linux-3.13" || !strings.Contains(Mode(9).String(), "9") {
		t.Error("mode names wrong")
	}
}

func TestSocketSyscallAllocatesLowestFD(t *testing.T) {
	loop, k := bootFastsocket(t, 1)
	p := k.NewProcess(0)
	var fd1, fd2 int
	k.Machine().Core(0).Submit(func(tk *cpu.Task) {
		fd1 = p.Socket(tk)
		fd2 = p.Socket(tk)
	})
	loop.Run()
	if fd1 != 3 || fd2 != 4 {
		t.Errorf("fds = %d, %d, want 3, 4", fd1, fd2)
	}
}

func TestBindValidatesAddress(t *testing.T) {
	loop, k := bootFastsocket(t, 1)
	p := k.NewProcess(0)
	k.Machine().Core(0).Submit(func(tk *cpu.Task) {
		fd := p.Socket(tk)
		if err := p.Bind(tk, fd, netproto.Addr{IP: netproto.IPv4(9, 9, 9, 9), Port: 80}); err == nil {
			t.Error("bind to non-local IP succeeded")
		}
		if err := p.Bind(tk, fd, netproto.Addr{IP: k.IPs()[0], Port: 80}); err != nil {
			t.Errorf("bind to local IP failed: %v", err)
		}
		if err := p.Bind(tk, 99, netproto.Addr{}); err == nil {
			t.Error("bind on bad fd succeeded")
		}
	})
	loop.Run()
}

func TestConnectAllocatesRFDPort(t *testing.T) {
	loop, k := bootFastsocket(t, 4)
	p := k.NewProcess(2)
	var local netproto.Addr
	var marked bool
	k.Machine().Core(2).Submit(func(tk *cpu.Task) {
		fd := p.Socket(tk)
		if err := p.Connect(tk, fd, netproto.Addr{IP: netproto.IPv4(10, 3, 0, 1), Port: 80}); err != nil {
			t.Fatalf("connect: %v", err)
		}
		f := p.FDs.Get(fd)
		local = f.Sock.(*tcp.Sock).Local
		marked = k.usedPorts[local]
	})
	loop.Run() // SYNs are dropped; retransmission gives up and frees the port
	// RFD invariant: the chosen source port hashes to the caller's core.
	if got := int(local.Port) & 3; got != 2 {
		t.Errorf("source port %d hashes to core %d, want 2", local.Port, got)
	}
	if !marked {
		t.Error("allocated port not marked used")
	}
	if k.usedPorts[local] {
		t.Error("port not freed after the connection was destroyed")
	}
}

func TestConnectPortsUniquePerIP(t *testing.T) {
	loop, k := bootFastsocket(t, 1)
	p := k.NewProcess(0)
	seen := map[netproto.Port]bool{}
	k.Machine().Core(0).Submit(func(tk *cpu.Task) {
		for i := 0; i < 50; i++ {
			fd := p.Socket(tk)
			if err := p.Connect(tk, fd, netproto.Addr{IP: netproto.IPv4(10, 3, 0, 1), Port: 80}); err != nil {
				t.Fatalf("connect %d: %v", i, err)
			}
			port := p.FDs.Get(fd).Sock.(*tcp.Sock).Local.Port
			if seen[port] {
				t.Fatalf("port %d allocated twice", port)
			}
			seen[port] = true
		}
	})
	loop.Run()
}

func TestBootListenerVisibleInTables(t *testing.T) {
	_, k := bootFastsocket(t, 2)
	lsk := k.BootListener(netproto.Addr{IP: k.IPs()[0], Port: 80})
	if lsk.State != tcp.Listen {
		t.Error("boot listener not in LISTEN")
	}
	if k.tables.GlobalListen.Len() != 1 {
		t.Error("boot listener missing from global table")
	}
	entries := k.ProcNetTCP()
	if len(entries) != 1 || entries[0].State != "LISTEN" || entries[0].Inode == 0 {
		t.Errorf("/proc entries = %+v", entries)
	}
}

func TestLocalListenClonesIntoCoreTable(t *testing.T) {
	loop, k := bootFastsocket(t, 2)
	lsk := k.BootListener(netproto.Addr{IP: k.IPs()[0], Port: 80})
	p := k.NewProcess(1)
	k.Machine().Core(1).Submit(func(tk *cpu.Task) {
		fd := p.AttachListener(tk, lsk)
		if err := p.LocalListen(tk, fd); err != nil {
			t.Fatalf("local_listen: %v", err)
		}
	})
	loop.Run()
	if k.tables.LocalListen[1].Len() != 1 {
		t.Error("clone missing from core 1's local listen table")
	}
	if k.tables.LocalListen[0].Len() != 0 {
		t.Error("clone leaked into core 0's table")
	}
}

func TestLocalListenRejectedOnStockKernel(t *testing.T) {
	loop := sim.NewLoop()
	k := New(loop, Config{Cores: 1, Mode: Base2632})
	lsk := k.BootListener(netproto.Addr{IP: k.IPs()[0], Port: 80})
	p := k.NewProcess(0)
	k.Machine().Core(0).Submit(func(tk *cpu.Task) {
		fd := p.AttachListener(tk, lsk)
		if err := p.LocalListen(tk, fd); err == nil {
			t.Error("local_listen succeeded on base kernel")
		}
	})
	loop.Run()
}

func TestRSTForUnknownPacket(t *testing.T) {
	loop, k := bootFastsocket(t, 1)
	var sent []*netproto.Packet
	k.SendToWire = func(p *netproto.Packet) { sent = append(sent, p) }
	k.Deliver(&netproto.Packet{
		Src:   netproto.Addr{IP: netproto.IPv4(1, 1, 1, 1), Port: 12345},
		Dst:   netproto.Addr{IP: k.IPs()[0], Port: 4242},
		Flags: netproto.ACK,
	})
	loop.Run()
	if k.Stats().RSTSent != 1 || len(sent) != 1 || !sent[0].Flags.Has(netproto.RST) {
		t.Errorf("no RST for unknown packet: stats=%+v sent=%v", k.Stats(), sent)
	}
	// Never RST an RST.
	k.Deliver(&netproto.Packet{
		Src:   netproto.Addr{IP: netproto.IPv4(1, 1, 1, 1), Port: 12345},
		Dst:   netproto.Addr{IP: k.IPs()[0], Port: 4242},
		Flags: netproto.RST,
	})
	loop.Run()
	if k.Stats().RSTSent != 1 {
		t.Error("RST answered with RST")
	}
}

func TestLockStatsRowsComplete(t *testing.T) {
	_, k := bootFastsocket(t, 2)
	rows := k.LockStats()
	if len(rows) != len(LockNames) {
		t.Fatalf("%d lock rows, want %d", len(rows), len(LockNames))
	}
	got := map[string]bool{}
	for _, r := range rows {
		got[r.Name] = true
	}
	for _, name := range LockNames {
		if !got[name] {
			t.Errorf("lock %q missing from report", name)
		}
	}
	if !strings.Contains(k.FormatLockStats(), "dcache_lock") {
		t.Error("formatted lockstat missing rows")
	}
}

func TestProcessPanicsOnBadCore(t *testing.T) {
	_, k := bootFastsocket(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("NewProcess(5) on 2-core machine did not panic")
		}
	}()
	k.NewProcess(5)
}

func TestMemPressureScalesWithCores(t *testing.T) {
	loop := sim.NewLoop()
	k1 := New(loop, Config{Cores: 1, Mode: Fastsocket, Feat: FullFastsocket()})
	k24 := New(loop, Config{Cores: 24, Mode: Fastsocket, Feat: FullFastsocket()})
	var d1, d24 sim.Time
	k1.Machine().Core(0).Submit(func(tk *cpu.Task) {
		start := tk.Now()
		tk.Charge(1000)
		d1 = tk.Now() - start
	})
	k24.Machine().Core(0).Submit(func(tk *cpu.Task) {
		start := tk.Now()
		tk.Charge(1000)
		d24 = tk.Now() - start
	})
	loop.Run()
	if d1 != 1000 {
		t.Errorf("single-core charge stretched: %v", d1)
	}
	if d24 <= d1 {
		t.Errorf("24-core charge not stretched: %v", d24)
	}
}

// TestKernelToKernelLoopback wires two kernels directly (no app
// layer): a client process on machine A connects to a hand-rolled
// acceptor on machine B, exchanges data, and closes — covering the
// full NET_RX, syscall, timer, and teardown paths inside this
// package.
func TestKernelToKernelLoopback(t *testing.T) {
	loop := sim.NewLoop()
	a := New(loop, Config{
		Cores: 2, Mode: Fastsocket, Feat: FullFastsocket(),
		IPs: []netproto.IP{netproto.IPv4(10, 0, 0, 1)},
	})
	b := New(loop, Config{
		Cores: 2, Mode: Base2632,
		IPs: []netproto.IP{netproto.IPv4(10, 0, 0, 2)},
	})
	// Direct wire with a small delay.
	connect := func(from, to *Kernel) {
		from.SendToWire = func(p *netproto.Packet) {
			loop.After(10*sim.Microsecond, func() { to.Deliver(p) })
		}
	}
	connect(a, b)
	connect(b, a)

	// Machine B: a listener whose worker echoes one message and
	// closes.
	lsk := b.BootListener(netproto.Addr{IP: b.IPs()[0], Port: 700})
	srv := b.NewProcess(0)
	var served []byte
	srvConns := map[int]bool{}
	var listenFD int
	srv.OnStart = func(tk *cpu.Task) {
		listenFD = srv.AttachListener(tk, lsk)
		srv.EpollAdd(tk, listenFD)
	}
	srv.OnEvents = func(tk *cpu.Task, evs []epoll.Ready) {
		for _, ev := range evs {
			fd := ev.FD
			if fd == listenFD {
				for {
					cfd, ok := srv.Accept(tk, fd)
					if !ok {
						break
					}
					srv.EpollAdd(tk, cfd)
					srvConns[cfd] = true
				}
				continue
			}
			if !srvConns[fd] {
				continue
			}
			data, eof, _ := srv.Recv(tk, fd, 0)
			served = append(served, data...)
			if len(data) > 0 {
				srv.Send(tk, fd, []byte("pong"))
				srv.CloseFD(tk, fd)
				delete(srvConns, fd)
			} else if eof {
				srv.CloseFD(tk, fd)
				delete(srvConns, fd)
			}
		}
	}
	srv.Start()

	// Machine A: a client that connects, sends, reads the reply.
	cli := a.NewProcess(1)
	var got []byte
	var cliDone bool
	var connFD int
	cli.OnStart = func(tk *cpu.Task) {
		connFD = cli.Socket(tk)
		if err := cli.Connect(tk, connFD, netproto.Addr{IP: b.IPs()[0], Port: 700}); err != nil {
			t.Fatalf("connect: %v", err)
		}
		cli.EpollAdd(tk, connFD)
	}
	cli.OnEvents = func(tk *cpu.Task, evs []epoll.Ready) {
		for _, ev := range evs {
			if ev.Events&epoll.Out != 0 && !cliDone {
				cli.Send(tk, connFD, []byte("ping"))
			}
			if ev.Events&epoll.In != 0 {
				data, eof, _ := cli.Recv(tk, connFD, 0)
				got = append(got, data...)
				if eof {
					cliDone = true
					cli.CloseFD(tk, connFD)
				}
			}
		}
	}
	cli.Start()

	loop.RunUntil(20 * sim.Millisecond)
	if string(served) != "ping" {
		t.Errorf("server received %q", served)
	}
	if string(got) != "pong" {
		t.Errorf("client received %q", got)
	}
	if !cliDone {
		t.Error("client never saw EOF")
	}
	if a.Stats().RSTSent+b.Stats().RSTSent != 0 {
		t.Errorf("RSTs on loopback: %d/%d", a.Stats().RSTSent, b.Stats().RSTSent)
	}
	// Connection state fully cleaned up on both machines (TIME_WAIT
	// has expired within 20ms).
	for name, k := range map[string]*Kernel{"a": a, "b": b} {
		for _, e := range k.ProcNetTCP() {
			if e.State != "LISTEN" {
				t.Errorf("machine %s leaked socket: %+v", name, e)
			}
		}
	}
}
