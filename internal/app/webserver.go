package app

import (
	"bytes"

	"fastsocket/internal/cpu"
	"fastsocket/internal/epoll"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
	"fastsocket/internal/tcp"
)

// AppCosts is the user-space CPU the applications burn per request —
// the part of the workload that is not the kernel's fault.
type AppCosts struct {
	ParseRequest  sim.Time
	BuildResponse sim.Time
	Bookkeeping   sim.Time // per-connection state machine upkeep
}

// DefaultAppCosts approximates a tuned Nginx/HAProxy worker (a few
// microseconds of user time per request).
func DefaultAppCosts() AppCosts {
	return AppCosts{ParseRequest: 1200, BuildResponse: 900, Bookkeeping: 500}
}

// WebServer is the Nginx-model: N worker processes pinned to cores,
// all serving the same port on every configured IP, reading one
// request and answering a cached page with Connection: close.
type WebServer struct {
	K *kernel.Kernel

	Port        netproto.Port
	ResponseLen int
	KeepAlive   bool
	Costs       AppCosts

	listeners []*tcp.Sock // shared listeners (nil under SO_REUSEPORT)
	workers   []*srvWorker

	// Served counts completed requests (responses fully written and
	// connection closed).
	Served uint64
	// PerWorkerServed exposes the accept balance (Figure 3's subject).
	PerWorkerServed []uint64
}

type srvWorker struct {
	s        *WebServer
	p        *kernel.Process
	idx      int
	listenFD map[int]bool
	conns    []*srvConn // fd-indexed
	resp     []byte
}

type srvConn struct {
	req  []byte
	live bool
}

// WebServerConfig configures the server.
type WebServerConfig struct {
	Port        netproto.Port
	ResponseLen int // wire bytes of the response (default 1200)
	Workers     int // default one per core
	// KeepAlive leaves connections open after each response
	// (long-lived mode); the client closes when done.
	KeepAlive bool
	Costs     *AppCosts
}

// NewWebServer builds the server on a kernel. Call Start to launch.
func NewWebServer(k *kernel.Kernel, cfg WebServerConfig) *WebServer {
	if cfg.Port == 0 {
		cfg.Port = 80
	}
	if cfg.ResponseLen == 0 {
		cfg.ResponseLen = netproto.DefaultResponseLen
	}
	if cfg.Workers == 0 {
		cfg.Workers = k.Config().Cores
	}
	costs := DefaultAppCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	s := &WebServer{
		K:               k,
		Port:            cfg.Port,
		ResponseLen:     cfg.ResponseLen,
		KeepAlive:       cfg.KeepAlive,
		Costs:           costs,
		PerWorkerServed: make([]uint64, cfg.Workers),
	}
	// Under Base2632/Fastsocket the master creates the listeners
	// before forking; workers inherit them. Under Linux313 each
	// worker creates SO_REUSEPORT copies in OnStart.
	if !k.Config().Reuseport() {
		for _, ip := range k.IPs() {
			s.listeners = append(s.listeners, k.BootListener(netproto.Addr{IP: ip, Port: cfg.Port}))
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &srvWorker{
			s:        s,
			idx:      i,
			listenFD: map[int]bool{},
			resp:     netproto.BuildResponse(cfg.ResponseLen),
		}
		w.p = k.NewProcess(i % k.Config().Cores)
		w.p.OnStart = w.start
		w.p.OnEvents = w.events
		s.workers = append(s.workers, w)
	}
	return s
}

// Start launches every worker.
func (s *WebServer) Start() {
	for _, w := range s.workers {
		w.p.Start()
	}
}

// Workers returns the worker processes (tests, fault injection).
func (s *WebServer) Workers() []*kernel.Process {
	ps := make([]*kernel.Process, len(s.workers))
	for i, w := range s.workers {
		ps[i] = w.p
	}
	return ps
}

func (w *srvWorker) start(t *cpu.Task) {
	k := w.s.K
	if len(w.listenFD) > 0 || len(w.conns) > 0 {
		// Cold restart after a lifecycle crash/drain: the process got a
		// fresh fd table, so all recorded fds are stale.
		w.listenFD = map[int]bool{}
		w.conns = w.conns[:0]
	}
	if k.Config().Reuseport() {
		for _, ip := range k.IPs() {
			fd := w.p.Socket(t)
			if fd < 0 {
				continue // boot-time alloc failure under injected memory pressure
			}
			if err := w.p.Bind(t, fd, netproto.Addr{IP: ip, Port: w.s.Port}); err != nil {
				panic(err)
			}
			if err := w.p.Listen(t, fd); err != nil {
				panic(err)
			}
			w.p.EpollAdd(t, fd)
			w.listenFD[fd] = true
		}
		return
	}
	for _, lsk := range w.s.listeners {
		fd := w.p.AttachListener(t, lsk)
		if k.Config().Feat.LocalListen {
			if err := w.p.LocalListen(t, fd); err != nil {
				panic(err)
			}
		}
		w.p.EpollAdd(t, fd)
		w.listenFD[fd] = true
	}
}

func (w *srvWorker) conn(fd int) *srvConn {
	for fd >= len(w.conns) {
		w.conns = append(w.conns, nil)
	}
	if w.conns[fd] == nil {
		w.conns[fd] = &srvConn{}
	}
	return w.conns[fd]
}

func (w *srvWorker) events(t *cpu.Task, evs []epoll.Ready) {
	for _, ev := range evs {
		fd := ev.FD
		if w.listenFD[fd] {
			w.acceptLoop(t, fd)
			continue
		}
		w.handleConn(t, fd, ev.Events)
	}
}

// acceptBatch bounds connections accepted per wakeup, keeping any
// single scheduling quantum short (nginx bounds its accept loop the
// same way).
const acceptBatch = 16

func (w *srvWorker) acceptLoop(t *cpu.Task, lfd int) {
	for i := 0; i < acceptBatch; i++ {
		cfd, ok := w.p.Accept(t, lfd)
		if !ok {
			return
		}
		c := w.conn(cfd)
		c.req = c.req[:0]
		c.live = true
		// Registration reports any data that raced ahead of the
		// accept (level-triggered ADD), so no inline poll is needed.
		w.p.EpollAdd(t, cfd)
	}
}

func (w *srvWorker) handleConn(t *cpu.Task, fd int, ev epoll.Events) {
	c := w.conn(fd)
	if !c.live {
		return
	}
	if ev&epoll.Err != 0 {
		w.close(t, fd, c)
		return
	}
	data, eof, ok := w.p.Recv(t, fd, 0)
	if !ok {
		w.close(t, fd, c)
		return
	}
	c.req = append(c.req, data...)
	if bytes.HasSuffix(c.req, []byte("\r\n\r\n")) {
		t.Charge(w.s.Costs.ParseRequest)
		if !netproto.ValidRequest(c.req) {
			w.close(t, fd, c)
			return
		}
		t.Charge(w.s.Costs.BuildResponse)
		w.p.Send(t, fd, w.resp)
		w.s.Served++
		w.s.PerWorkerServed[w.idx]++
		if w.s.KeepAlive {
			// Long-lived mode: wait for the next request on the same
			// connection; the client closes when it is done.
			c.req = c.req[:0]
			return
		}
		w.close(t, fd, c)
		return
	}
	if eof {
		// Client went away before completing the request.
		w.close(t, fd, c)
	}
}

func (w *srvWorker) close(t *cpu.Task, fd int, c *srvConn) {
	c.live = false
	// Keep the request buffer's capacity: fds are reused
	// lowest-first, so the slot's next connection appends into the
	// same backing array instead of growing a fresh one.
	c.req = c.req[:0]
	w.p.CloseFD(t, fd)
}
