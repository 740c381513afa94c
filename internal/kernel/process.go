package kernel

import (
	"fmt"

	"fastsocket/internal/cpu"
	"fastsocket/internal/epoll"
	"fastsocket/internal/fault"
	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
	"fastsocket/internal/tcp"
	"fastsocket/internal/vfs"
)

// Process is one application worker, pinned to a core (as every
// benchmark in the paper pins its workers). It owns an fd table and
// one epoll instance, and runs an event loop: epoll_wait, hand the
// batch to the application callback, repeat.
type Process struct {
	K    *Kernel
	PID  int
	Core int
	FDs  *vfs.FDTable
	Ep   *epoll.Instance

	// OnStart runs once, in process context, before the first wait
	// (socket setup, initial connects).
	OnStart func(t *cpu.Task)
	// OnEvents handles one epoll_wait batch of (fd, events) pairs.
	OnEvents func(t *cpu.Task, evs []epoll.Ready)
	// BatchMax caps events per epoll_wait (nginx uses 512).
	BatchMax int
	// OnSendDone, when set, gets back every buffer Send queued, once
	// the socket can no longer transmit from it: at the socket's free
	// point, when its TCB is unhashed, its fd closed and no timer
	// handler of it is pending. That is MSG_ZEROCOPY's completion
	// notification, and the earliest the buffer may be reused. Each
	// such buffer comes back exactly once, on whichever core frees the
	// socket, without a charge. When it is nil Send records nothing.
	OnSendDone func(buf []byte)

	//fsvet:percore set once on the process's first run, on its own core
	started bool
	//fsvet:shared the wakeup flag is written cross-core by epoll Notify (try_to_wake_up); the schedule guard makes the race idempotent
	scheduled bool
	dead      bool
	//fsvet:percore set and cleared by the lifecycle plane on the worker's own core
	draining bool
	//fsvet:percore read and written only by run, on the process's own core
	wasAsleep bool
	// runFn is p.run bound once, so a wakeup submits it without
	// allocating a method value.
	//fsvet:percore bound on the first schedule and never rebound; every schedule targets the process's own core
	runFn cpu.Work
}

// NewProcess creates a worker pinned to the given core.
func (k *Kernel) NewProcess(coreID int) *Process {
	if coreID < 0 || coreID >= k.cfg.Cores {
		panic(fmt.Sprintf("kernel: process pinned to invalid core %d", coreID))
	}
	p := &Process{
		K:        k,
		PID:      len(k.procs) + 1000,
		Core:     coreID,
		FDs:      vfs.NewFDTable(),
		Ep:       epoll.New(k.cfg.Costs.LockBounce, k.cfg.Costs.Epoll),
		BatchMax: 16,
	}
	p.Ep.SetWaker(p.schedule)
	k.procs = append(k.procs, p)
	return p
}

// Procs returns the machine's processes.
func (k *Kernel) Procs() []*Process { return k.procs }

// Start schedules the process's first run.
func (p *Process) Start() { p.schedule() }

// Kill marks the process dead: it stops running, and its local listen
// clones are torn down — the robustness scenario of §2.1/§3.2.1.
func (p *Process) Kill() {
	p.dead = true
	// The kernel reaps the process's local listen clones.
	for _, lsk := range p.K.allListeners {
		lex := ext(lsk).listen
		if lex == nil {
			continue
		}
		if clone, ok := lex.clones[p.Core]; ok && clone.HomeCore == p.Core {
			// Run as kernel work on the process's core.
			cl := clone
			p.K.machine.Core(p.Core).Submit(func(t *cpu.Task) {
				p.K.tables.RemoveLocalListener(t, cl)
			})
			delete(lex.clones, p.Core)
		}
		// Remove the dead process from the wake list.
		ws := lex.watchers[:0]
		for _, pw := range lex.watchers {
			if pw.proc != p {
				ws = append(ws, pw)
			}
		}
		lex.watchers = ws
	}
}

// Dead reports whether Kill was called.
func (p *Process) Dead() bool { return p.dead }

// Reset rebuilds the process for a cold restart after a lifecycle
// crash or drain: a fresh fd table and epoll instance (the old ones
// died with the process image) and cleared run state, so Start reruns
// OnStart exactly as at boot.
func (p *Process) Reset() {
	p.dead = false
	p.draining = false
	p.started = false
	p.scheduled = false
	p.wasAsleep = false
	p.FDs = vfs.NewFDTable()
	p.Ep = epoll.New(p.K.cfg.Costs.LockBounce, p.K.cfg.Costs.Epoll)
	p.Ep.SetWaker(p.schedule)
}

func (p *Process) schedule() {
	if p.scheduled || p.dead {
		return
	}
	p.scheduled = true
	if p.runFn == nil {
		p.runFn = p.run
	}
	p.K.machine.Core(p.Core).Submit(p.runFn)
}

//fsvet:hotpath the process event loop: epoll_wait plus the app's event handlers
func (p *Process) run(t *cpu.Task) {
	p.scheduled = false
	if p.dead {
		return
	}
	if p.wasAsleep {
		// Waking from epoll_wait costs a context switch; herds of
		// pointless wakeups on a shared listen socket each pay it.
		p.wasAsleep = false
		t.Charge(p.K.cfg.Costs.ContextSwitch)
	}
	if !p.started {
		p.started = true
		if p.OnStart != nil {
			p.OnStart(t)
		}
	}
	evs := p.Ep.Wait(t, p.BatchMax)
	if len(evs) == 0 {
		p.wasAsleep = true
	}
	if len(evs) > 0 {
		if p.OnEvents != nil {
			p.OnEvents(t, evs)
		}
		// Re-enter epoll_wait; an empty wait marks us sleeping so
		// the next Notify wakes us.
		p.schedule()
	}
}

// --- Syscall layer ----------------------------------------------------

// Socket creates a TCP socket and returns its fd, or -1 when the
// inode/dentry allocation fails under injected memory pressure
// (-ENOMEM to the application).
//
//fsvet:hotpath socket() runs once per short-lived active connection
func (p *Process) Socket(t *cpu.Task) int {
	k := p.K
	c := k.cfg.Costs
	t.Charge(c.SockAlloc)
	if !k.faults.AllocOK(fault.SiteSocket, 0) {
		k.stats.AllocFails++
		return -1
	}
	sk := k.socks.Get(k.cfg.TCP, c.LockBounce)
	e := k.getExt(sk)
	e.owner = p
	e.file = k.vfsl.AllocSocketFile(t, sk)
	e.fd = p.FDs.Install(e.file)
	return e.fd
}

func (p *Process) sockAt(fd int) *sockExt {
	f := p.FDs.Get(fd)
	if f == nil {
		return nil
	}
	sk, ok := f.Sock.(*tcp.Sock)
	if !ok {
		return nil
	}
	return ext(sk)
}

// Bind assigns the local address.
func (p *Process) Bind(t *cpu.Task, fd int, addr netproto.Addr) error {
	e := p.sockAt(fd)
	if e == nil {
		return errBadFD(fd)
	}
	if !p.K.isLocalIP(addr.IP) && addr.IP != 0 {
		return fmt.Errorf("kernel: bind to non-local address %v", addr)
	}
	e.sk.Local = addr
	return nil
}

// Listen turns the socket into a listener and registers it in the
// global listen table. Under Linux313 each process calls this on its
// own socket (SO_REUSEPORT); under the other profiles one shared
// socket is attached to every worker via AttachListener.
func (p *Process) Listen(t *cpu.Task, fd int) error {
	k := p.K
	e := p.sockAt(fd)
	if e == nil {
		return errBadFD(fd)
	}
	if e.sk.State != tcp.Closed {
		return fmt.Errorf("kernel: listen on %v socket", e.sk.State)
	}
	t.Charge(k.cfg.Costs.ListenSetup)
	e.sk.Transition(1<<tcp.Closed, tcp.Listen)
	e.listen = &listenExt{global: e.sk, clones: map[int]*tcp.Sock{}}
	k.tables.GlobalListen.Insert(t, e.sk)
	k.allListeners = append(k.allListeners, e.sk)
	return nil
}

// BootListener creates a listening socket at boot time (the master
// process's socket/bind/listen before forking workers): uncharged,
// since it happens once outside the measured workload.
func (k *Kernel) BootListener(addr netproto.Addr) *tcp.Sock {
	sk := tcp.NewSock(k.cfg.TCP, k.cfg.Costs.LockBounce)
	sk.Local = addr
	sk.Transition(1<<tcp.Closed, tcp.Listen)
	e := k.getExt(sk)
	e.listen = &listenExt{global: sk, clones: map[int]*tcp.Sock{}}
	e.file = k.vfsl.AllocBoot(sk)
	k.tables.GlobalListen.Insert(nil, sk)
	k.allListeners = append(k.allListeners, sk)
	k.bootListeners = append(k.bootListeners, sk)
	return sk
}

// AttachListener installs an already-listening socket (created by the
// parent before fork) into this process's fd table.
func (p *Process) AttachListener(t *cpu.Task, lsk *tcp.Sock) int {
	e := ext(lsk)
	fd := p.FDs.Install(e.file)
	return fd
}

// LocalListen is Fastsocket's local_listen(): clone the listener into
// this core's local listen table.
func (p *Process) LocalListen(t *cpu.Task, fd int) error {
	k := p.K
	f := p.FDs.Get(fd)
	if f == nil {
		return errBadFD(fd)
	}
	lsk := f.Sock.(*tcp.Sock)
	e := ext(lsk)
	if e.listen == nil {
		return fmt.Errorf("kernel: local_listen on non-listening fd %d", fd)
	}
	if !k.cfg.Feat.LocalListen {
		return fmt.Errorf("kernel: local_listen unsupported on %v", k.cfg.Mode)
	}
	t.Charge(k.cfg.Costs.ListenSetup)
	clone := k.tables.CloneListener(t, lsk, p.Core)
	clone.User = lsk.User // share the listenExt
	e.listen.clones[p.Core] = clone
	return nil
}

// EpollAdd registers fd with the process's epoll instance.
//
//fsvet:hotpath epoll_ctl(ADD) runs once per accepted connection
func (p *Process) EpollAdd(t *cpu.Task, fd int) {
	f := p.FDs.Get(fd)
	if f == nil {
		return
	}
	sk := f.Sock.(*tcp.Sock)
	e := ext(sk)
	w := p.Ep.Register(t, fd)
	if e.listen != nil {
		lex := e.listen
		core := p.Core
		// With the lifecycle plane armed, listen fds are
		// level-triggered, as in real epoll: Wait keeps reporting the
		// fd while a queue this process can accept from (the shared
		// queue, or its core's local clone) is non-empty. Without
		// this, an accept loop bounded per wakeup strands the
		// backlog's tail whenever the edge notifications were
		// coalesced and no further connections arrive — exactly the
		// post-restart flood the lifecycle experiments drive. Gated on
		// the plan so a zero-valued LifecyclePlan leaves the original
		// edge-triggered schedule untouched.
		if p.K.lifePlan.Enabled() {
			p.Ep.SetLevel(w, func() epoll.Events {
				if lex.global.AcceptLen() > 0 {
					return epoll.In
				}
				if cl := lex.clones[core]; cl != nil && cl.AcceptLen() > 0 {
					return epoll.In
				}
				return 0
			})
		}
		lex.watchers = append(lex.watchers, procWatch{proc: p, watch: w})
		return
	}
	e.watch = w
	// Level-triggered ADD semantics: if the socket is already
	// readable (data raced ahead of accept()) or writable, report it
	// immediately, as real epoll_ctl does.
	if len(sk.RcvBuf) > 0 || sk.RcvFIN {
		p.Ep.Notify(t, w, epoll.In)
	}
}

// Accept dequeues a ready connection: the global accept queue is
// checked first with a lock-free read (Fastsocket's ordering, so the
// slow path cannot starve), then the core's local listen clone. It
// returns the new fd, or ok=false for EAGAIN.
//
//fsvet:hotpath accept() runs once per passive connection
func (p *Process) Accept(t *cpu.Task, fd int) (int, bool) {
	k := p.K
	c := k.cfg.Costs
	t.Charge(c.Accept)
	f := p.FDs.Get(fd)
	if f == nil {
		return -1, false
	}
	lsk := f.Sock.(*tcp.Sock)
	lex := ext(lsk).listen
	if lex == nil {
		return -1, false
	}

	// Dequeue under the owning socket's lock, charging the shared or
	// local pop cost (written out — no per-accept closure). Children
	// that died while queued (client aborted with RST before anyone
	// accepted) are reaped here and the dequeue retried: delivering
	// them would hand the application a dead fd it can only close.
	var child *tcp.Sock
	clone := lex.clones[p.Core]
dequeue:
	if clone != nil {
		// Fast path: lock-free check of the global queue first.
		t.Charge(c.AtomicCheck)
		if lex.global.AcceptLen() > 0 {
			g := lex.global
			g.Slock.With(t, func() {
				if g.AcceptLen() > 0 {
					t.Charge(c.AcceptPopShared)
					child = g.PopAccept()
				} else {
					t.Charge(c.AcceptEmpty)
				}
			})
		}
		if child == nil && clone.AcceptLen() > 0 {
			clone.Slock.With(t, func() {
				if clone.AcceptLen() > 0 {
					t.Charge(c.AcceptPop)
					child = clone.PopAccept()
				} else {
					t.Charge(c.AcceptEmpty)
				}
			})
		}
	} else {
		// Stock path: the (possibly shared) listen socket lock.
		lsk.Slock.With(t, func() {
			k.touch(t, lsk)
			if lsk.AcceptLen() > 0 {
				t.Charge(c.AcceptPopShared)
				child = lsk.PopAccept()
			} else {
				t.Charge(c.AcceptEmpty)
			}
		})
	}

	if child == nil {
		k.stats.AcceptEmpty++
		return -1, false
	}
	if child.State == tcp.Closed {
		// Aborted while un-accepted: its TCB is already unhashed
		// (Destroy ran under the RST); releasing the would-be fd side
		// lets the socket recycle. Retry the dequeue — real accept()
		// never surfaces these.
		e := ext(child)
		e.appClosed = true
		k.putSock(e)
		child = nil
		goto dequeue
	}
	if !k.faults.AllocOK(fault.SiteAccept, child.Tuple().Hash()) {
		// Memory pressure: the child's file allocation fails. The
		// kernel resets the connection and accept() returns an error;
		// nothing may leak — the TCB is unhashed and its timers
		// cancelled via the abort path.
		k.stats.AllocFails++
		t.Charge(c.SendRST)
		k.stats.RSTSent++
		rst := k.pool.Get()
		rst.Src = child.Local
		rst.Dst = child.Remote
		rst.Flags = netproto.RST
		rst.Seq = child.SndNxt
		k.rawTransmit(t, rst)
		child.Slock.With(t, func() { tcp.Abort(k, t, child) })
		return -1, false
	}
	k.stats.Accepts++
	e := ext(child)
	e.owner = p
	e.file = k.vfsl.AllocSocketFile(t, child)
	e.fd = p.FDs.Install(e.file)
	k.touch(t, child)
	return e.fd, true
}

// Connect opens an active connection to raddr. The socket's home core
// is the caller's; with RFD the source port encodes it.
//
//fsvet:hotpath connect() runs once per active connection
func (p *Process) Connect(t *cpu.Task, fd int, raddr netproto.Addr) error {
	k := p.K
	c := k.cfg.Costs
	e := p.sockAt(fd)
	if e == nil {
		return errBadFD(fd)
	}
	t.Charge(c.Connect)
	localIP := e.sk.Local.IP
	if localIP == 0 {
		localIP = k.cfg.IPs[0]
	}
	port, ok := k.allocPort(p.Core, localIP)
	if !ok {
		return fmt.Errorf("kernel: ephemeral ports exhausted on %v", localIP)
	}
	e.sk.Local = netproto.Addr{IP: localIP, Port: port}
	e.sk.Remote = raddr
	e.sk.HomeCore = p.Core
	e.active = true
	e.portBound = true
	k.usedPorts[e.sk.Local] = true
	k.stats.Connects++

	e.sk.Slock.With(t, func() {
		// Linux hashes the socket at connect time so the SYN-ACK can
		// be demultiplexed.
		k.InsertEstablished(t, e.sk)
		k.l3.Background(t, 3)
		tcp.ConnectStart(k, t, e.sk, k.nextISN())
	})
	return nil
}

// allocPort picks an ephemeral source port: RFD-aware when the module
// is loaded, a simple cursor otherwise. It takes no task: the scan is
// part of the connect syscall, charged by the caller.
func (k *Kernel) allocPort(coreID int, ip netproto.IP) (netproto.Port, bool) {
	inUse := func(p netproto.Port) bool {
		return k.usedPorts[netproto.Addr{IP: ip, Port: p}]
	}
	if k.rfd != nil {
		return k.rfd.ChoosePort(coreID, inUse)
	}
	span := int(netproto.EphemeralHigh - netproto.EphemeralLow + 1)
	p := k.portCursor
	for i := 0; i < span; i++ {
		if !inUse(p) {
			next := p + 1
			if next > netproto.EphemeralHigh {
				next = netproto.EphemeralLow
			}
			k.portCursor = next
			return p, true
		}
		p++
		if p > netproto.EphemeralHigh {
			p = netproto.EphemeralLow
		}
	}
	return 0, false
}

// Recv reads up to max bytes (0 = all available). data aliases the
// socket's receive buffer and stays valid only until the socket's
// next input (see tcp.Recv): copy what you keep.
//
//fsvet:hotpath read() runs per request on the steady-state path
func (p *Process) Recv(t *cpu.Task, fd int, max int) (data []byte, eof bool, ok bool) {
	k := p.K
	c := k.cfg.Costs
	e := p.sockAt(fd)
	if e == nil {
		return nil, false, false
	}
	t.Charge(c.Recv)
	e.sk.Slock.With(t, func() {
		k.touch(t, e.sk)
		data, eof = tcp.Recv(e.sk, max)
	})
	k.rfsRecord(t, e.sk)
	t.Charge(c.RecvPerByte * sim.Time(len(data)))
	return data, eof, true
}

// Send writes data to the connection, returning bytes queued: all of
// data, or 0 (a bad fd, or a socket past sending). After a nonzero
// return the socket keeps the slice itself until it can no longer
// retransmit from it (see tcp.Send), so the caller must not reuse it
// before OnSendDone hands it back; without OnSendDone, never. After a
// 0 return the caller still owns data.
//
//fsvet:hotpath write() runs per response on the steady-state path
func (p *Process) Send(t *cpu.Task, fd int, data []byte) int {
	k := p.K
	c := k.cfg.Costs
	e := p.sockAt(fd)
	if e == nil {
		return 0
	}
	t.Charge(c.Send + c.SendPerByte*sim.Time(len(data)))
	var n int
	e.sk.Slock.With(t, func() {
		k.touch(t, e.sk)
		n = tcp.Send(k, t, e.sk, data)
	})
	if n > 0 && p.OnSendDone != nil {
		e.sent = append(e.sent, data)
	}
	return n
}

// CloseFD closes the descriptor: epoll deregistration, VFS teardown,
// and the TCP close handshake for connection sockets.
//
//fsvet:hotpath close() runs once per connection
func (p *Process) CloseFD(t *cpu.Task, fd int) {
	k := p.K
	c := k.cfg.Costs
	f := p.FDs.Release(fd)
	if f == nil {
		return
	}
	t.Charge(c.Close)
	sk, okSock := f.Sock.(*tcp.Sock)
	if !okSock {
		return
	}
	e := ext(sk)
	if e.watch != nil {
		p.Ep.Unregister(t, e.watch)
		e.watch = nil
	}
	e.appClosed = true
	if e.listen != nil {
		// Closing a listen fd in one worker does not tear down the
		// shared listener; a full teardown is out of scope for the
		// benchmarks (processes run for the whole experiment).
		return
	}
	k.vfsl.FreeSocketFile(t, e.file)
	sk.Slock.With(t, func() {
		k.touch(t, sk)
		tcp.Close(k, t, sk)
	})
	// If the TCB was already destroyed (RST, or TIME_WAIT expired
	// before the app got around to close()), this is the free point.
	k.putSock(e)
}

func errBadFD(fd int) error { return fmt.Errorf("kernel: bad file descriptor %d", fd) }
