package app

import (
	"bytes"

	"fastsocket/internal/cpu"
	"fastsocket/internal/epoll"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/tcp"
)

// Proxy is the HAProxy model: worker processes accept client
// connections, open an *active* connection to a backend per request
// (HTTP keep-alive off, as in the paper's production setup), relay
// the request and response, and close both sides. The active
// connections are what exercise Receive Flow Deliver.
//
// Connection state is kept in fd-indexed slices — the same
// lowest-available-fd assumption real HAProxy makes (§5, Relaxing
// System Call Restrictions), which Fastsocket preserves.
type Proxy struct {
	K *kernel.Kernel

	Port     netproto.Port
	Backends []netproto.Addr
	Costs    AppCosts

	listeners []*tcp.Sock
	workers   []*pxWorker

	// Proxied counts completed request/response relays.
	Proxied uint64
	// Errors counts backend connect failures and resets.
	Errors uint64
	// PerWorkerProxied exposes the accept balance.
	PerWorkerProxied []uint64
}

type pxWorker struct {
	px       *Proxy
	p        *kernel.Process
	idx      int
	listenFD map[int]bool
	conns    []*pxConn // fd-indexed (the HAProxy idiom)
	nextBk   int
	// bufs is the worker's free list of relay buffers. A request is
	// read into one, handed to the backend socket without a copy, and
	// a response likewise to the client socket. A buffer passed to Send
	// belongs to the socket until the kernel hands it back through the
	// process's OnSendDone (putBuf).
	bufs [][]byte
}

type pxState int

const (
	pxIdle pxState = iota
	pxFrontReading
	pxBackConnecting
	pxBackReading
)

type pxConn struct {
	state   pxState
	isFront bool
	peer    int    // the other side's fd, -1 if none
	buf     []byte // from the worker's free list; nil once sent or idle
}

// ProxyConfig configures the proxy.
type ProxyConfig struct {
	Port     netproto.Port
	Backends []netproto.Addr
	Workers  int
	Costs    *AppCosts
}

// NewProxy builds the proxy on a kernel. Call Start to launch.
func NewProxy(k *kernel.Kernel, cfg ProxyConfig) *Proxy {
	if cfg.Port == 0 {
		cfg.Port = 80
	}
	if len(cfg.Backends) == 0 {
		panic("app: proxy needs at least one backend")
	}
	if cfg.Workers == 0 {
		cfg.Workers = k.Config().Cores
	}
	costs := DefaultAppCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	px := &Proxy{
		K:                k,
		Port:             cfg.Port,
		Backends:         cfg.Backends,
		Costs:            costs,
		PerWorkerProxied: make([]uint64, cfg.Workers),
	}
	// HAProxy's multi-process mode has every worker polling the
	// shared listen sockets with no accept serialization: a real
	// thundering herd.
	k.SetAcceptWakeAll(true)
	if !k.Config().Reuseport() {
		for _, ip := range k.IPs() {
			px.listeners = append(px.listeners, k.BootListener(netproto.Addr{IP: ip, Port: cfg.Port}))
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &pxWorker{px: px, idx: i, listenFD: map[int]bool{}}
		w.p = k.NewProcess(i % k.Config().Cores)
		w.p.OnStart = w.start
		w.p.OnEvents = w.events
		w.p.OnSendDone = w.putBuf
		px.workers = append(px.workers, w)
	}
	return px
}

// Start launches every worker.
func (px *Proxy) Start() {
	for _, w := range px.workers {
		w.p.Start()
	}
}

// Workers returns the worker processes.
func (px *Proxy) Workers() []*kernel.Process {
	ps := make([]*kernel.Process, len(px.workers))
	for i, w := range px.workers {
		ps[i] = w.p
	}
	return ps
}

func (w *pxWorker) start(t *cpu.Task) {
	k := w.px.K
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
			if err := w.p.Bind(t, fd, netproto.Addr{IP: ip, Port: w.px.Port}); err != nil {
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
	for _, lsk := range w.px.listeners {
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

// recvInto appends data to c's buffer, first taking an empty one off
// the free list (append allocates when the list is empty).
func (w *pxWorker) recvInto(c *pxConn, data []byte) {
	if n := len(w.bufs); c.buf == nil && n > 0 {
		c.buf = w.bufs[n-1]
		w.bufs[n-1] = nil
		w.bufs = w.bufs[:n-1]
	}
	c.buf = append(c.buf, data...)
}

// putBuf returns a relay buffer to the free list: the kernel's
// completion for a sent one, or the worker's own for one never sent.
func (w *pxWorker) putBuf(b []byte) {
	if cap(b) > 0 {
		w.bufs = append(w.bufs, b[:0])
	}
}

// send passes c's buffer to the socket, or takes it back when Send
// queued nothing.
func (w *pxWorker) send(t *cpu.Task, fd int, c *pxConn) {
	if w.p.Send(t, fd, c.buf) == 0 {
		w.putBuf(c.buf)
	}
	c.buf = nil
}

// idle retires c's state, returning an unsent buffer.
func (w *pxWorker) idle(c *pxConn) {
	w.putBuf(c.buf)
	c.state = pxIdle
	c.buf = nil
	c.peer = -1
}

func (w *pxWorker) conn(fd int) *pxConn {
	for fd >= len(w.conns) {
		w.conns = append(w.conns, nil)
	}
	if w.conns[fd] == nil {
		w.conns[fd] = &pxConn{peer: -1}
	}
	return w.conns[fd]
}

func (w *pxWorker) events(t *cpu.Task, evs []epoll.Ready) {
	for _, ev := range evs {
		fd := ev.FD
		if w.listenFD[fd] {
			w.acceptLoop(t, fd)
			continue
		}
		c := w.conn(fd)
		if c.state == pxIdle {
			continue // stale event for a finished connection
		}
		if ev.Events&epoll.Err != 0 {
			w.px.Errors++
			w.teardown(t, fd, c)
			continue
		}
		switch {
		case c.isFront:
			w.frontReadable(t, fd, c)
		case c.state == pxBackConnecting && ev.Events&epoll.Out != 0:
			w.backConnected(t, fd, c)
		default:
			if ev.Events&epoll.In != 0 {
				w.backReadable(t, fd, c)
			}
		}
	}
}

func (w *pxWorker) acceptLoop(t *cpu.Task, lfd int) {
	for i := 0; i < acceptBatch; i++ {
		cfd, ok := w.p.Accept(t, lfd)
		if !ok {
			return
		}
		c := w.conn(cfd)
		*c = pxConn{state: pxFrontReading, isFront: true, peer: -1}
		w.p.EpollAdd(t, cfd)
	}
}

func (w *pxWorker) frontReadable(t *cpu.Task, fd int, c *pxConn) {
	if c.state != pxFrontReading {
		return
	}
	data, eof, ok := w.p.Recv(t, fd, 0)
	if !ok {
		w.teardown(t, fd, c)
		return
	}
	w.recvInto(c, data)
	if bytes.HasSuffix(c.buf, []byte("\r\n\r\n")) {
		t.Charge(w.px.Costs.ParseRequest + w.px.Costs.Bookkeeping)
		// Open the backend connection (the active side).
		bfd := w.p.Socket(t)
		backend := w.px.Backends[w.nextBk%len(w.px.Backends)]
		w.nextBk++
		if err := w.p.Connect(t, bfd, backend); err != nil {
			w.px.Errors++
			w.teardown(t, fd, c)
			return
		}
		w.p.EpollAdd(t, bfd)
		bc := w.conn(bfd)
		// The request moves to the backend side as it is.
		*bc = pxConn{state: pxBackConnecting, peer: fd, buf: c.buf}
		c.peer = bfd
		c.buf = nil
		return
	}
	if eof {
		w.teardown(t, fd, c)
	}
}

func (w *pxWorker) backConnected(t *cpu.Task, fd int, c *pxConn) {
	t.Charge(w.px.Costs.Bookkeeping)
	w.send(t, fd, c)
	c.state = pxBackReading
}

func (w *pxWorker) backReadable(t *cpu.Task, fd int, c *pxConn) {
	if c.state != pxBackReading && c.state != pxBackConnecting {
		return
	}
	data, eof, ok := w.p.Recv(t, fd, 0)
	if !ok {
		w.teardown(t, fd, c)
		return
	}
	w.recvInto(c, data)
	if !eof {
		return
	}
	// Backend sent the full response and closed: relay and finish.
	t.Charge(w.px.Costs.Bookkeeping)
	front := c.peer
	if front >= 0 && front < len(w.conns) && w.conns[front] != nil && w.conns[front].state != pxIdle {
		w.send(t, front, c)
		w.idle(w.conns[front])
		w.p.CloseFD(t, front)
		w.px.Proxied++
		w.px.PerWorkerProxied[w.idx]++
	}
	w.idle(c)
	w.p.CloseFD(t, fd)
}

// teardown closes a connection pair after an error.
func (w *pxWorker) teardown(t *cpu.Task, fd int, c *pxConn) {
	peer := c.peer
	w.idle(c)
	w.p.CloseFD(t, fd)
	if peer >= 0 && peer < len(w.conns) && w.conns[peer] != nil && w.conns[peer].state != pxIdle {
		w.idle(w.conns[peer])
		w.p.CloseFD(t, peer)
	}
}
