// Package kernel assembles the simulated machine: CPU cores, NIC,
// NET_RX SoftIRQ processing, TCB tables (global or Fastsocket-local),
// VFS, epoll, per-core timer wheels, and the BSD socket syscall layer
// that the application models call.
//
// One Kernel is one machine. Several kernels can share a sim.Loop and
// be wired together (plus synthetic endpoints) by internal/app's
// Network.
package kernel

import (
	"fastsocket/internal/cache"
	"fastsocket/internal/core"
	"fastsocket/internal/cpu"
	"fastsocket/internal/epoll"
	"fastsocket/internal/fault"
	"fastsocket/internal/ktimer"
	"fastsocket/internal/lock"
	"fastsocket/internal/netproto"
	"fastsocket/internal/nic"
	"fastsocket/internal/sim"
	"fastsocket/internal/stats"
	"fastsocket/internal/tcb"
	"fastsocket/internal/tcp"
	"fastsocket/internal/vfs"
)

// Stats counts kernel-wide events.
type Stats struct {
	PacketsIn, PacketsOut uint64
	SoftSteers            uint64 // RFD software re-queues
	NAPIPolls             uint64 // NET_RX poll wakeups (loop events)
	RSTSent               uint64
	// ActiveIn / ActiveLocal measure, for active-connection incoming
	// packets only, whether the NIC delivered them to the flow's home
	// core — the paper's Figure 5b "local packet proportion".
	ActiveIn, ActiveLocal uint64
	Accepts, AcceptEmpty  uint64
	Connects              uint64
	ListenDrops           uint64
	CookieAccepts         uint64
	RetransSegs           uint64 // TCP segments resent by the RTO timer
	CsumErrors            uint64 // corrupt frames discarded after checksum
	AllocFails            uint64 // inode/dentry/TCB allocations failed under memory pressure
	TSOSuperSegs          uint64 // TSO super-segments handed to the NIC (each worth PacketsOut wire segments)
	GROMergedSegs         uint64 // RX ring segments absorbed into a GRO super-segment
	CoalescedWakeups      uint64 // ring arrivals that rode an armed coalescing timer instead of raising NAPI

	// Lifecycle-plane counters (see lifecycle.go).
	RSTRcvd        uint64 // RST segments received (the receive-side mirror of RSTSent)
	ConnTimeouts   uint64 // active opens aborted after SYN-retry exhaustion (ETIMEDOUT)
	Retries        uint64 // handshake (SYN/SYN-ACK) retransmissions, a subset of RetransSegs
	DrainedConns   uint64 // connections that completed normally while the host was draining
	AbortedOnDrain uint64 // connections RST-swept at a drain deadline
	CrashAborts    uint64 // connections dropped by a host or worker crash
	HostRestarts   uint64 // cold restarts (host-wide or single worker)
	DeadSegs       uint64 // segments that arrived while the host was down
}

// sockExt is the kernel-side extension of a tcp.Sock (stored in
// Sock.User): fd binding, epoll watch, timers, port ownership.
// Extensions are pooled together with their sockets (see putSock);
// the timer handlers are built once per extension and survive reuse.
//
//fsvet:percore an extension belongs to its flow's home core (RFD locality); every touch runs on that core's softirq or its owner process
type sockExt struct {
	sk    *tcp.Sock
	owner *Process
	fd    int
	file  *vfs.File
	watch *epoll.Watch

	rtx *ktimer.Timer
	tw  *ktimer.Timer

	// rtxFn/twFn are the persistent timer handlers (they capture the
	// sockExt, not a per-arm closure).
	rtxFn, twFn func(*cpu.Task)
	// pendingRtx/pendingTw count timer fires whose softirq handler has
	// not yet run but whose Timer reference was dropped (cancelled or
	// re-armed after the fire). While nonzero the extension must not
	// be recycled: the queued handler must run against this very
	// socket so its charges and rng draws match the unpooled
	// execution exactly. Same-core softirqs run FIFO, so handlers of a
	// kind drain in the order the counters were raised.
	pendingRtx, pendingTw int

	// sent lists the buffers Send queued on the socket, handed back
	// through the owner's OnSendDone at the free point (putSock). Its
	// capacity survives recycling.
	sent [][]byte

	active    bool // opened via connect()
	portBound bool // owns an ephemeral port to free on destroy
	appClosed bool
	destroyed bool // unhashed via Destroy
	freed     bool // parked in the free lists (double-free guard)

	listen *listenExt // only for listen sockets
}

type procWatch struct {
	proc  *Process
	watch *epoll.Watch
}

// listenExt is the shared state of one listen address: the global
// socket, the processes polling it, and per-core Fastsocket clones.
type listenExt struct {
	global   *tcp.Sock
	watchers []procWatch
	clones   map[int]*tcp.Sock // core id -> local listen socket
	nextWake int               // rotation cursor for wake-one policy
}

func ext(sk *tcp.Sock) *sockExt { return sk.User.(*sockExt) }

// Kernel is one simulated machine.
type Kernel struct {
	cfg     Config
	loop    *sim.Loop
	machine *cpu.Machine
	rng     *sim.Rand
	nic     *nic.NIC
	l3      *cache.Domain

	tables *core.Tables
	rfd    *core.RFD
	//fsvet:shared the software flow-steering table is RCU-protected in Linux (rps_sock_flow_table); the model's single-writer-per-flow updates race benignly
	rfs    *rfsTable
	vfsl   *vfs.Layer
	wheels []*ktimer.Wheel

	ehashLocks *lock.Sharded

	procs        []*Process
	allListeners []*tcp.Sock // global + reuseport listen sockets

	// flowHome mirrors the established tables for instrumentation
	// (figure 5b locality accounting) without charging lookups.
	//
	//fsvet:shared instrumentation mirror of the established tables, not kernel state; shards with them when the engine shards
	flowHome map[netproto.FourTuple]*sockExt
	// activeFlows counts the flowHome entries opened by connect(); while
	// it is zero, Deliver skips the Figure 5b probe.
	//
	//fsvet:shared rides with flowHome: the count of its active entries
	activeFlows int

	// NAPI state: per-core softnet backlog of software-steered
	// packets, and whether a poll item is already queued on the core
	// (at most one — that is the interrupt mitigation).
	//
	//fsvet:percore indexed by core: core c's backlog is filled by RFD steering and drained only by core c's NAPI poll
	backlog []nic.Ring
	//fsvet:shared written cross-core when software steering raises the remote core's poll (the IPI of softnet); a benign flag race at worst double-schedules
	napiActive []bool

	// IRQ-coalescing state: per queue, whether a deferred-wakeup timer
	// is armed and its handle (cancelled on adaptive early fire).
	//
	//fsvet:percore indexed by queue: queue q's coalescing window is armed and fired only by q's ring arrivals and its own timer
	coalArmed []bool
	//fsvet:percore rides with coalArmed: the armed timer's cancel handle
	coalTimer []sim.Event

	//fsvet:shared machine-wide ephemeral-port bitmap (inet_bind_hash); per-core port ranges are ROADMAP work, today one softirq runs at a time
	usedPorts map[netproto.Addr]bool
	//fsvet:shared rides with usedPorts: the global ephemeral-port allocation cursor
	portCursor netproto.Port
	isn        uint32

	// faults is the machine's fault-injection engine (nil-safe: nil
	// means no fault plane is configured).
	faults *fault.Engine

	// Lifecycle-plane state (see lifecycle.go). life is lifeUp for the
	// whole run unless a LifecyclePlan schedules events; every check is
	// a single predictable branch on the clean path.
	//fsvet:shared lifecycle transitions run as kernel tasks on core 0; reads elsewhere see a stable value between transitions
	life lifeState
	//fsvet:shared rides with life: the declarative policy block, written once at boot
	lifePlan fault.LifecyclePlan
	// bootListeners remembers the pre-fork listen sockets so a cold
	// restart can re-register them (the app keeps pointers to them).
	bootListeners []*tcp.Sock
	// drainSweeping marks the forced-abort sweep so Destroy can tell a
	// swept connection from one that finished on its own while
	// draining.
	//fsvet:percore set and cleared within one drain-sweep task on core 0
	drainSweeping bool

	// pool/socks/extFree recycle packet headers, TCBs and their
	// kernel-side extensions (enable_skb_pool and the sock slabs).
	// socks and extFree are per-kernel; pool starts private and
	// becomes the fabric domain's shared pool on attach
	// (UsePacketPool). The sweep runner executes whole simulations on
	// separate goroutines, so pools are never shared across loops.
	pool  *netproto.PacketPool
	socks *tcp.SockPool
	// fsm is the runtime TCP transition matrix, installed into the
	// cloned tcp.Params so every Sock.Transition of this kernel lands
	// here (the dynamic half of the fsvet fsm cross-check).
	fsm *stats.FSMTrace
	//fsvet:percore extension free list shards per-core with the engine (per-CPU slab caches); today one event loop serializes access
	extFree []*sockExt

	// napiFns are the per-queue NET_RX poll closures, built at boot so
	// scheduling a poll never allocates.
	napiFns []cpu.Work
	// wireFn hands a transmitted packet to SendToWire (via DeferArg,
	// so the TX path schedules without a per-packet closure).
	wireFn func(any)
	// coalFn is the shared coalescing-timer handler (queue id boxed as
	// the arg; small ints box allocation-free).
	coalFn func(any)
	// hlFn/hlTask replace the per-packet listener-probe closure RFD
	// steering would otherwise allocate; hlTask is only valid for the
	// duration of one netrx call.
	hlFn func(netproto.Addr) bool
	//fsvet:shared netrx-local scratch: set on entry, read only by hlFn during that same netrx call, on one core
	hlTask *cpu.Task

	//fsvet:shared accumulated lockstat of destroyed sockets; folded in at Destroy, which runs under the socket's slock
	slockAgg lock.Stats // accumulated stats of destroyed sockets

	acceptWakeAll bool

	//fsvet:shared machine-wide aggregate counters (netstat -s); become per-core splits summed at snapshot when the engine shards
	stats Stats

	// SendToWire carries an outbound packet to the network fabric.
	SendToWire func(p *netproto.Packet)

	tracer PacketTracer
}

// PacketTracer observes every packet the machine receives or
// transmits (see internal/trace). dir follows trace.Dir: 0 = RX,
// 1 = TX. core is the RX steering target or the transmitting core.
type PacketTracer interface {
	Trace(dir int, p *netproto.Packet, core int)
}

// New boots a machine on the shared event loop.
func New(loop *sim.Loop, cfg Config) *Kernel {
	cfg = cfg.withDefaults()
	k := &Kernel{
		cfg:        cfg,
		loop:       loop,
		machine:    cpu.NewMachine(loop, cfg.Cores),
		rng:        sim.NewRand(cfg.Seed),
		flowHome:   map[netproto.FourTuple]*sockExt{},
		usedPorts:  map[netproto.Addr]bool{},
		portCursor: netproto.EphemeralLow,
		isn:        1,
	}
	c := cfg.Costs
	if c.MemPressurePerMilleCore > 0 && cfg.Cores > 1 {
		k.machine.SetWorkScale(1000+c.MemPressurePerMilleCore*int64(cfg.Cores-1), 1000)
	}
	if cfg.Fault != nil && cfg.Fault.Enabled() {
		k.faults = fault.NewEngine(cfg.Seed, *cfg.Fault)
	}
	if cfg.Fault != nil && cfg.Fault.Lifecycle.Enabled() {
		k.lifePlan = cfg.Fault.Lifecycle
		k.scheduleLifecycle()
	}
	k.l3 = cache.NewDomain(c.L3Miss, c.BgMissRate, k.rng)
	k.nic = nic.New(nic.Config{
		Queues:        cfg.Cores,
		Mode:          cfg.NICMode,
		ATRTableSize:  cfg.ATRTableSize,
		ATRSampleRate: cfg.ATRSampleRate,
		RingSize:      cfg.RXRingSize,
	})
	k.vfsl = vfs.NewLayer(cfg.vfsMode(), c.VFS, c.VFSBounce)
	k.ehashLocks = lock.NewSharded("ehash.lock", cfg.EhashLockShards, c.LockBounce)

	k.tables = &core.Tables{
		GlobalListen:    tcb.NewListen(c.TCB, k.l3),
		GlobalEst:       tcb.NewEstablished(cfg.EhashBuckets, k.ehashLocks, c.TCB),
		NaiveNoFallback: cfg.NaiveNoFallback,
	}
	if cfg.Feat.LocalListen {
		k.tables.LocalListen = make([]*tcb.ListenTable, cfg.Cores)
		for i := range k.tables.LocalListen {
			k.tables.LocalListen[i] = tcb.NewListen(c.TCB, nil)
		}
	}
	if cfg.Feat.LocalEst {
		k.tables.LocalEst = make([]*tcb.EstablishedTable, cfg.Cores)
		for i := range k.tables.LocalEst {
			k.tables.LocalEst[i] = tcb.NewEstablished(cfg.LocalEhashBuckets, nil, c.TCB)
		}
	}
	if cfg.Feat.RFD {
		k.rfd = core.NewRFD(cfg.Cores, cfg.RFDSalt)
		if cfg.RFDRandomBits {
			k.rfd.SelectBits(k.rng)
		}
		k.rfd.Precise = cfg.RFDPrecise
		if cfg.NICMode == nic.FDirPerfect {
			k.rfd.ProgramNIC(k.nic)
		}
	}
	if cfg.RFS {
		k.rfs = newRFSTable(cfg.RFSTableSize)
	}
	k.wheels = make([]*ktimer.Wheel, cfg.Cores)
	for i := range k.wheels {
		k.wheels[i] = ktimer.NewWheel(k.machine.Core(i), loop, c.LockBounce, c.Timer)
	}
	k.backlog = make([]nic.Ring, cfg.Cores)
	k.napiActive = make([]bool, cfg.Cores)
	k.coalArmed = make([]bool, cfg.Cores)
	k.coalTimer = make([]sim.Event, cfg.Cores)
	k.pool = &netproto.PacketPool{}
	k.socks = &tcp.SockPool{}
	// Clone the TCP params so the pools stay private to this kernel
	// even when several configs share one *tcp.Params.
	tcpp := *k.cfg.TCP
	tcpp.Pool = k.pool
	tcpp.Socks = k.socks
	k.fsm = &stats.FSMTrace{}
	tcpp.Trace = k.fsm
	if cfg.TSO {
		// An exact MSS multiple, so the NIC's lazy wire-split
		// reproduces the offloads-off segment sequence bit-for-bit.
		tcpp.TSOMaxBytes = (cfg.TSOMaxBytes / tcpp.MSS) * tcpp.MSS
	}
	k.cfg.TCP = &tcpp
	k.napiFns = make([]cpu.Work, cfg.Cores)
	for i := range k.napiFns {
		q := i
		k.napiFns[q] = func(t *cpu.Task) { k.napiPoll(t, q) }
	}
	k.wireFn = func(v any) { k.SendToWire(v.(*netproto.Packet)) }
	k.coalFn = func(v any) { k.coalFire(v.(int)) }
	k.hlFn = func(a netproto.Addr) bool { return k.tables.HasListener(k.hlTask, a) }
	return k
}

// Accessors used by applications, experiments, and tools.

// Config returns the (defaulted) configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Loop returns the shared event loop.
func (k *Kernel) Loop() *sim.Loop { return k.loop }

// Machine returns the CPU model.
func (k *Kernel) Machine() *cpu.Machine { return k.machine }

// NIC returns the adapter model.
func (k *Kernel) NIC() *nic.NIC { return k.nic }

// Cache returns the L3 domain.
func (k *Kernel) Cache() *cache.Domain { return k.l3 }

// VFS returns the VFS layer.
func (k *Kernel) VFS() *vfs.Layer { return k.vfsl }

// Tables returns the TCB policy layer.
func (k *Kernel) Tables() *core.Tables { return k.tables }

// Stats returns a snapshot of the kernel counters.
func (k *Kernel) Stats() Stats { return k.stats }

// FSMTrace returns the kernel's runtime TCP transition matrix.
func (k *Kernel) FSMTrace() *stats.FSMTrace { return k.fsm }

// Faults returns the fault-injection engine (nil when no plan is
// configured; a nil engine is safe to call).
func (k *Kernel) Faults() *fault.Engine { return k.faults }

// PacketPool returns the machine's skb free list (tests and the
// allocation cross-check read its counters). Once the kernel is
// attached to a fabric port it is the domain's shared pool, so the
// counters include the other endpoints of that domain.
func (k *Kernel) PacketPool() *netproto.PacketPool { return k.pool }

// UsePacketPool makes pp the machine's skb free list, for the stack's
// own segments too (the cloned tcp.Params every socket points at). The
// fabric calls it when the kernel is attached, before the run, so
// every endpoint of a domain shares one pool.
func (k *Kernel) UsePacketPool(pp *netproto.PacketPool) {
	k.pool = pp
	k.cfg.TCP.Pool = pp
}

// TCBPool returns the machine's socket free list.
func (k *Kernel) TCBPool() *tcp.SockPool { return k.socks }

// SNMP assembles the netstat-style counter block from the kernel,
// NIC, and listener state.
func (k *Kernel) SNMP() stats.SNMP {
	s := stats.SNMP{
		RetransSegs:    k.stats.RetransSegs,
		ListenDrops:    k.stats.ListenDrops,
		SynCookiesRecv: k.stats.CookieAccepts,
		RxRingDrops:    k.nic.Stats().RXRingDrops,
		AllocFails:     k.stats.AllocFails,
		CsumErrors:     k.stats.CsumErrors,

		TSOSuperSegs:     k.stats.TSOSuperSegs,
		GROMergedSegs:    k.stats.GROMergedSegs,
		CoalescedWakeups: k.stats.CoalescedWakeups,

		RSTRcvd:        k.stats.RSTRcvd,
		ConnTimeouts:   k.stats.ConnTimeouts,
		Retries:        k.stats.Retries,
		DrainedConns:   k.stats.DrainedConns,
		AbortedOnDrain: k.stats.AbortedOnDrain,
		HostRestarts:   k.stats.HostRestarts,
	}
	for _, lsk := range k.allListeners {
		s.SynCookiesSent += lsk.CookiesSent
		lex := ext(lsk).listen
		if lex == nil {
			continue
		}
		for core := 0; core < k.cfg.Cores; core++ {
			if clone, ok := lex.clones[core]; ok {
				s.SynCookiesSent += clone.CookiesSent
			}
		}
	}
	return s
}

// Rand returns the kernel's PRNG (for workload generators sharing the
// deterministic stream).
func (k *Kernel) Rand() *sim.Rand { return k.rng }

// IPs returns the machine's local addresses.
func (k *Kernel) IPs() []netproto.IP { return k.cfg.IPs }

func (k *Kernel) nextISN() uint32 {
	k.isn += 64019 // arbitrary odd stride
	return k.isn
}

func (k *Kernel) isLocalIP(ip netproto.IP) bool {
	for _, a := range k.cfg.IPs {
		if a == ip {
			return true
		}
	}
	return false
}

// --- RX path ---------------------------------------------------------

// Deliver is the wire handing a packet to the NIC: steer to an RX
// queue, enqueue on that queue's ring, and — NAPI-style — raise the
// interrupt only if no poll is already pending on the core. The poll
// then drains up to Config.NAPIBudget segments per wakeup, so a burst
// costs one loop event instead of one per packet.
//
//fsvet:hotpath wire ingress, runs once per delivered segment
func (k *Kernel) Deliver(p *netproto.Packet) {
	if k.life == lifeDown {
		k.deadDeliver(p)
		return
	}
	q := k.nic.SteerRX(p)
	k.stats.PacketsIn++
	// Figure 5b instrumentation: first-touch locality for active
	// flows (not charged; pure measurement). A kernel with no active
	// flow (a plain web server) has nothing to look up.
	if k.activeFlows > 0 {
		if e, ok := k.flowHome[p.Tuple()]; ok && e.active {
			k.stats.ActiveIn++
			if e.sk.HomeCore == q {
				k.stats.ActiveLocal++
			}
		}
	}
	if k.tracer != nil {
		k.tracer.Trace(0, p, q)
	}
	if !k.nic.EnqueueRX(q, p) {
		// Ring full: hardware tail drop, no interrupt. The queue's
		// NAPI poll is necessarily already pending (the ring can only
		// be full if the kernel is behind on it).
		return
	}
	if !k.cfg.Coalesce {
		k.scheduleNAPI(q)
		return
	}
	k.coalesceRX(q)
}

// coalesceRX is the adaptive IRQ-mitigation decision for one ring
// arrival: instead of raising NAPI immediately, the first arrival of a
// quiet period arms a CoalesceUsecs timer and later arrivals ride it
// (CoalescedWakeups); once the ring backlog reaches CoalesceFrames the
// pending window fires early (the adaptive-rx behaviour of ethtool -C
// rx-usecs/rx-frames). Software-steered backlog pushes bypass this
// path — they model IPIs, not NIC interrupts.
//
//fsvet:hotpath runs once per ring arrival when coalescing is enabled
func (k *Kernel) coalesceRX(q int) {
	if k.napiActive[q] {
		// A poll is already pending or running; it will drain us.
		return
	}
	if k.nic.RXBacklog(q) >= k.cfg.CoalesceFrames {
		// The ring is filling faster than the timer window: fire now.
		if k.coalArmed[q] {
			k.coalArmed[q] = false
			k.coalTimer[q].Cancel()
		}
		k.scheduleNAPI(q)
		return
	}
	if k.coalArmed[q] {
		k.stats.CoalescedWakeups++
		return
	}
	k.coalArmed[q] = true
	k.coalTimer[q] = k.loop.AfterArg(k.cfg.CoalesceUsecs, k.coalFn, q)
}

// coalFire is the coalescing window expiring: wake the queue's NAPI
// poll if there is still work and none pending.
func (k *Kernel) coalFire(q int) {
	if !k.coalArmed[q] {
		return
	}
	k.coalArmed[q] = false
	if !k.napiActive[q] && (k.nic.RXBacklog(q) > 0 || k.backlog[q].Len() > 0) {
		k.scheduleNAPI(q)
	}
}

// scheduleNAPI queues the NET_RX poll on a core unless one is already
// pending or running there.
func (k *Kernel) scheduleNAPI(q int) {
	if k.napiActive[q] {
		return
	}
	k.napiActive[q] = true
	k.machine.Core(q).SubmitSoftIRQ(k.napiFns[q])
}

// napiPoll is one NET_RX SoftIRQ wakeup: drain the core's softnet
// backlog (software-steered segments, already demuxed on their RX
// core) and then the NIC ring, up to the budget. If work remains the
// poll re-queues itself — yielding the core to already-queued SoftIRQ
// work (timer expiries) in between, as softirq processing does
// between netdev_budget rounds.
//
//fsvet:hotpath NET_RX SoftIRQ poll, drains the ring every wakeup
func (k *Kernel) napiPoll(t *cpu.Task, q int) {
	k.stats.NAPIPolls++
	for budget := k.cfg.NAPIBudget; budget > 0; budget-- {
		if p, ok := k.backlog[q].Pop(); ok {
			k.netrx(t, p, true)
			continue
		}
		p, ok := k.nic.PollRX(q)
		if !ok {
			break
		}
		if k.cfg.GRO {
			k.groMerge(q, p)
		}
		k.netrx(t, p, false)
	}
	if k.backlog[q].Len() > 0 || k.nic.RXBacklog(q) > 0 {
		k.machine.Core(q).SubmitSoftIRQ(k.napiFns[q])
	} else {
		k.napiActive[q] = false
	}
}

// groMerge coalesces the in-order same-flow data segments queued
// behind head in queue q's RX ring into head, GRO-style: the donors'
// payload slices are stolen onto head.Frags (zero-copy, zero-alloc in
// steady state — the Frags backing array survives pool recycling) and
// the donor descriptors return to the pool immediately. The merge
// terminates on a sequence gap, any flag or peer difference, a
// checksum-corrupt segment, an empty payload, or the GROMaxSegs
// budget. SYN/FIN/RST segments and pure ACKs are never merge heads.
// The merged super-segment then costs one netrx, one tcp input and
// one ACK instead of one per wire segment.
//
//fsvet:hotpath runs inside every NAPI poll when GRO is enabled
func (k *Kernel) groMerge(q int, head *netproto.Packet) {
	if head.Corrupt || len(head.Payload) == 0 ||
		head.Flags.Has(netproto.SYN) || head.Flags.Has(netproto.FIN) || head.Flags.Has(netproto.RST) {
		return
	}
	merged := 1
	end := head.Seq + uint32(head.PayloadLen())
	for merged < k.cfg.GROMaxSegs {
		next, ok := k.nic.PeekRX(q)
		if !ok || next.Corrupt || next.Flags != head.Flags ||
			next.Src != head.Src || next.Dst != head.Dst ||
			next.Seq != end || next.Ack != head.Ack ||
			len(next.Payload) == 0 {
			return
		}
		k.nic.PollRX(q) // consume the peeked segment
		if head.Frags == nil {
			// Size the frag list for a full merge up front: one
			// allocation per descriptor lifetime (the backing array
			// survives pool recycling) instead of log2(GROMaxSegs)
			// doubling steps.
			head.Frags = make([][]byte, 0, k.cfg.GROMaxSegs-1)
		}
		head.Frags = append(head.Frags, next.Payload)
		end += uint32(len(next.Payload))
		k.stats.GROMergedSegs++
		k.pool.Put(next)
		merged++
	}
}

// SetTracer attaches a packet tracer (nil detaches).
func (k *Kernel) SetTracer(tr PacketTracer) { k.tracer = tr }

// touch records an access to a socket's cache working set plus the
// surrounding core-local traffic (keeps the bounce share of total L3
// traffic realistic).
func (k *Kernel) touch(t *cpu.Task, sk *tcp.Sock) {
	k.l3.Access(t, &sk.Lines)
	k.l3.Background(t, 3)
}

func (k *Kernel) inputCost(p *netproto.Packet) sim.Time {
	c := k.cfg.Costs
	switch {
	case p.Flags.Has(netproto.SYN):
		return c.InputSYN
	case p.PayloadLen() > 0:
		return c.InputData
	case p.Flags.Has(netproto.FIN):
		return c.InputFIN
	default:
		return c.InputACK
	}
}

// netrx is NET_RX SoftIRQ: demux, (optional) RFD steering, TCP input.
//
//fsvet:hotpath per-segment softirq input, the paper's receive path
func (k *Kernel) netrx(t *cpu.Task, p *netproto.Packet, steered bool) {
	c := k.cfg.Costs
	if steered {
		// The sk_buff was already received and demuxed on the RX
		// core; the target core only dequeues it from its backlog.
		t.Charge(c.RxSteered)
	} else {
		// One RxBase per delivered frame — for a GRO super-segment
		// that is the win — but every byte still pays RxPerByte.
		t.Charge(c.RxBase + c.RxPerByte*sim.Time(p.PayloadLen()))
	}

	if p.Corrupt {
		// Checksum failure: the full RX cost was paid before the
		// verify, then the segment is discarded.
		k.stats.CsumErrors++
		k.pool.Put(p)
		return
	}
	if p.Flags.Has(netproto.RST) {
		// Receive-side reset accounting (the mirror of RSTSent); the
		// segment still flows through demux and TCP input below.
		k.stats.RSTRcvd++
	}

	if k.rfd != nil && !steered {
		k.hlTask = t
		if target, active := k.rfd.Steer(p, k.hlFn); active && target != t.CoreID() {
			t.Charge(c.RFDSteer)
			k.stats.SoftSteers++
			k.backlog[target].Push(p)
			k.scheduleNAPI(target)
			return
		}
	} else if k.rfs != nil && !steered {
		// Best-effort RFS: consult the flow table; collisions may
		// mis-steer, which is harmless with global TCB tables.
		t.Charge(c.RFSLookup)
		if target := k.rfsTarget(p); target >= 0 && target != t.CoreID() {
			t.Charge(c.RFDSteer)
			k.rfs.steers++
			k.stats.SoftSteers++
			k.backlog[target].Push(p)
			k.scheduleNAPI(target)
			return
		}
	}

	ft := p.Tuple()
	if sk := k.tables.LookupEstablished(t, ft); sk != nil {
		sk.Slock.With(t, func() {
			k.touch(t, sk)
			t.Charge(k.inputCost(p))
			tcp.Input(k, t, sk, p)
		})
		k.pool.Put(p)
		return
	}

	if p.Flags.Has(netproto.SYN) && !p.Flags.Has(netproto.ACK) {
		// The SO_REUSEPORT selection hash (inet_ehashfn-derived) is
		// unrelated to the NIC's RSS Toeplitz hash, so the chosen
		// worker is uncorrelated with the RX core.
		lsk, _ := k.tables.LookupListen(t, p.Dst, uint32(ft.Hash()>>13), k.cfg.Reuseport())
		if lsk != nil {
			if !k.faults.AllocOK(fault.SiteTCB, ft.Hash()^uint64(p.Seq)) {
				// Memory pressure: the request-sock/TCB allocation
				// fails and the SYN is silently dropped — the client's
				// SYN retransmit will redraw.
				k.stats.AllocFails++
				k.pool.Put(p)
				return
			}
			var child *tcp.Sock
			var before uint64
			lsk.Slock.With(t, func() {
				k.touch(t, lsk)
				before = lsk.DroppedSegs
				child = tcp.ListenInput(k, t, lsk, p, k.nextISN(), c.LockBounce)
			})
			if child == nil && lsk.DroppedSegs > before {
				k.stats.ListenDrops++
			}
			k.pool.Put(p)
			return
		}
	}

	// A valid SYN-cookie ACK reconstructs its connection statelessly.
	if k.cfg.TCP.SynCookies && p.Flags.Has(netproto.ACK) && !p.Flags.Has(netproto.SYN) && !p.Flags.Has(netproto.RST) {
		lsk, _ := k.tables.LookupListen(t, p.Dst, uint32(ft.Hash()>>13), k.cfg.Reuseport())
		if lsk != nil {
			// Cookie validation is stateless (no listener lock —
			// that is the point of the defence); only a successful
			// reconstruction touches the accept queue, inside
			// Accepted.
			t.Charge(c.CookieCheck)
			if !k.faults.AllocOK(fault.SiteTCB, ft.Hash()^uint64(p.Ack)) {
				// The reconstructed TCB cannot be allocated; drop the
				// ACK (the client will retransmit data and redraw).
				k.stats.AllocFails++
				k.pool.Put(p)
				return
			}
			if child := tcp.AcceptCookieACK(k, t, lsk, p, c.LockBounce); child != nil {
				k.stats.CookieAccepts++
				k.pool.Put(p)
				return
			}
		}
	}

	// No socket wants this packet. While draining with the silent
	// policy, unmatched segments (the refused SYNs) vanish instead of
	// drawing a RST — the LB-has-already-moved-on behaviour.
	if k.life == lifeDraining && k.lifePlan.DrainSilent {
		k.pool.Put(p)
		return
	}
	// Answer RST (never RST an RST).
	if !p.Flags.Has(netproto.RST) {
		t.Charge(c.SendRST)
		k.stats.RSTSent++
		rst := k.pool.Get()
		rst.Src = p.Dst
		rst.Dst = p.Src
		rst.Flags = netproto.RST
		rst.Seq = p.Ack
		k.rawTransmit(t, rst)
	}
	k.pool.Put(p)
}

func (k *Kernel) rawTransmit(t *cpu.Task, p *netproto.Packet) {
	c := k.cfg.Costs
	// A TSO super-segment pays TxBase once (the descriptor handoff —
	// that is the offload's win) while every byte still pays
	// TxPerByte; PacketsOut counts the wire segments the NIC emits.
	t.Charge(c.TxBase + c.TxPerByte*sim.Time(len(p.Payload)))
	k.nic.ObserveTX(p, t.CoreID())
	if p.GSOSize > 0 && len(p.Payload) > p.GSOSize {
		k.stats.TSOSuperSegs++
		k.stats.PacketsOut += uint64((len(p.Payload) + p.GSOSize - 1) / p.GSOSize)
	} else {
		k.stats.PacketsOut++
	}
	if k.tracer != nil {
		k.tracer.Trace(1, p, t.CoreID())
	}
	if k.SendToWire != nil {
		t.DeferArg(k.wireFn, p)
	}
}

// --- tcp.Env implementation ------------------------------------------

var _ tcp.Env = (*Kernel)(nil)

// Transmit implements tcp.Env.
func (k *Kernel) Transmit(t *cpu.Task, sk *tcp.Sock, p *netproto.Packet) {
	k.rawTransmit(t, p)
}

// InsertEstablished implements tcp.Env.
func (k *Kernel) InsertEstablished(t *cpu.Task, sk *tcp.Sock) {
	if sk.User == nil {
		// Passive child created inside ListenInput.
		k.getExt(sk)
	}
	k.tables.InsertEstablished(t, sk)
	k.setFlowHome(sk.Tuple(), ext(sk))
	k.touch(t, sk) // first touch of the new TCB
}

// setFlowHome points the flow mirror's entry for ft at e, or removes
// it when e is nil, keeping activeFlows equal to the number of entries
// opened by connect().
func (k *Kernel) setFlowHome(ft netproto.FourTuple, e *sockExt) {
	if old, ok := k.flowHome[ft]; ok && old.active {
		k.activeFlows--
	}
	if e == nil {
		delete(k.flowHome, ft)
		return
	}
	k.flowHome[ft] = e
	if e.active {
		k.activeFlows++
	}
}

// Accepted implements tcp.Env: queue the ESTABLISHED child on its
// listener and wake acceptors.
func (k *Kernel) Accepted(t *cpu.Task, child *tcp.Sock) {
	c := k.cfg.Costs
	parent := child.Parent
	if parent == nil {
		return
	}
	parent.Slock.With(t, func() {
		t.Charge(c.AcceptPush)
		parent.PushAccept(child)
	})

	lex := ext(parent).listen
	if lex == nil {
		return
	}
	if parent.HomeCore >= 0 && parent.Parent != nil {
		// Local listen clone: wake the one process on its core.
		for _, pw := range lex.watchers {
			if pw.proc.Core == parent.HomeCore {
				pw.proc.Ep.Notify(t, pw.watch, epoll.In)
				return
			}
		}
		return
	}
	// Shared (or reuseport-private) listen socket.
	if len(lex.watchers) == 0 {
		return
	}
	if k.acceptWakeAll {
		// Thundering herd: epoll queues the event on every instance
		// that registered the fd (HAProxy's multi-process mode; no
		// accept serialization). The wake order starts from a slowly
		// drifting index — the scheduler favours the same runnable
		// workers for a while, which is what sustains the load
		// imbalance of Figure 3, but the preference does migrate.
		n := len(lex.watchers)
		start := (lex.nextWake / 64) % n
		lex.nextWake++
		for i := 0; i < n; i++ {
			pw := lex.watchers[(start+i)%n]
			pw.proc.Ep.Notify(t, pw.watch, epoll.In)
		}
		return
	}
	// Accept-mutex discipline (Nginx default in the paper's era):
	// only one worker polls the shared listen sockets at a time;
	// model it as a rotating single wakeup.
	pw := lex.watchers[lex.nextWake%len(lex.watchers)]
	lex.nextWake++
	pw.proc.Ep.Notify(t, pw.watch, epoll.In)
}

// SetAcceptWakeAll selects how readiness of a *shared* listen socket
// wakes pollers: true = wake every registered epoll (thundering
// herd, HAProxy-style), false = rotate a single wakeup (Nginx's
// accept_mutex discipline). Irrelevant for SO_REUSEPORT and local
// listen tables, where each listener has one owner.
func (k *Kernel) SetAcceptWakeAll(v bool) { k.acceptWakeAll = v }

// ConnectDone implements tcp.Env.
func (k *Kernel) ConnectDone(t *cpu.Task, sk *tcp.Sock, err error) {
	if err == tcp.ErrTimeout {
		k.stats.ConnTimeouts++
	}
	e := ext(sk)
	if e.owner == nil || e.watch == nil {
		return
	}
	ev := epoll.Events(epoll.Out)
	if err != nil {
		ev = epoll.Err
	}
	e.owner.Ep.Notify(t, e.watch, ev)
}

// Readable implements tcp.Env.
func (k *Kernel) Readable(t *cpu.Task, sk *tcp.Sock) {
	e := ext(sk)
	if e.owner == nil || e.watch == nil {
		return
	}
	e.owner.Ep.Notify(t, e.watch, epoll.In)
}

// getExt pairs a socket with a (possibly recycled) kernel extension.
// The timer handlers survive recycling: they capture the extension,
// which is stable across reuse, not the socket.
func (k *Kernel) getExt(sk *tcp.Sock) *sockExt {
	if n := len(k.extFree); n > 0 {
		e := k.extFree[n-1]
		k.extFree[n-1] = nil
		k.extFree = k.extFree[:n-1]
		*e = sockExt{sk: sk, fd: -1, rtxFn: e.rtxFn, twFn: e.twFn, sent: e.sent[:0]}
		sk.User = e //fsvet:shared socket fresh off the free list: unhashed, no fd, exclusively owned by this call
		return e
	}
	e := &sockExt{sk: sk, fd: -1}
	e.rtxFn = func(ht *cpu.Task) { k.rtxFire(ht, e) }
	e.twFn = func(ht *cpu.Task) { k.twFire(ht, e) }
	sk.User = e //fsvet:shared socket fresh off the free list: unhashed, no fd, exclusively owned by this call
	return e
}

// putSock recycles a socket and its extension once nothing can reach
// them: the TCB is unhashed (Destroy), the application dropped its fd
// (or never had one it still holds), and no fired-but-unhandled timer
// softirq is queued. Both Destroy and CloseFD call this; whichever
// happens second frees. Nothing can transmit from the socket's send
// buffers any more, so this is also where they complete
// (Process.OnSendDone). Listen sockets are never pooled.
func (k *Kernel) putSock(e *sockExt) {
	if e.freed || !e.destroyed || !e.appClosed || e.pendingRtx > 0 || e.pendingTw > 0 {
		return
	}
	if e.listen != nil {
		return
	}
	e.freed = true
	for i, buf := range e.sent {
		e.sent[i] = nil
		e.owner.OnSendDone(buf)
	}
	e.sent = e.sent[:0]
	sk := e.sk
	e.sk, e.owner, e.file, e.watch = nil, nil, nil, nil
	sk.User = nil
	k.socks.Put(sk)
	k.extFree = append(k.extFree, e)
}

// rtxFire is the persistent RTO handler: identical charges, touches and
// rng draws to the per-arm closure it replaced.
//
//fsvet:hotpath RTO timer fire, runs from the timer softirq
func (k *Kernel) rtxFire(ht *cpu.Task, e *sockExt) {
	if e.pendingRtx > 0 {
		e.pendingRtx--
	}
	sk := e.sk
	sk.Slock.With(ht, func() {
		k.touch(ht, sk)
		before := sk.Retransmits
		handshake := sk.State == tcp.SynSent || sk.State == tcp.SynRcvd
		tcp.RetransmitTimeout(k, ht, sk)
		// SNMP RetransSegs aggregates the per-socket counters, so the
		// two accountings agree by construction.
		k.stats.RetransSegs += sk.Retransmits - before
		if handshake {
			k.stats.Retries += sk.Retransmits - before
		}
	})
	k.putSock(e)
}

// twFire is the persistent TIME_WAIT handler.
//
//fsvet:hotpath TIME_WAIT expiry, runs once per short-lived connection
func (k *Kernel) twFire(ht *cpu.Task, e *sockExt) {
	if e.pendingTw > 0 {
		e.pendingTw--
	}
	sk := e.sk
	sk.Slock.With(ht, func() { tcp.TimeWaitExpire(k, ht, sk) })
	k.putSock(e)
}

// Destroy implements tcp.Env: unlink the socket and release kernel
// resources (the fd, if open, stays; reads see EOF).
func (k *Kernel) Destroy(t *cpu.Task, sk *tcp.Sock) {
	e := ext(sk)
	if e.rtx != nil {
		// A fired-but-unhandled timer keeps the socket out of the pool
		// until its queued softirq handler has run.
		if e.rtx.Expiring() {
			e.pendingRtx++
		}
		e.rtx.Cancel(t)
		e.rtx = nil
	}
	if e.tw != nil {
		if e.tw.Expiring() {
			e.pendingTw++
		}
		e.tw.Cancel(t)
		e.tw = nil
	}
	if _, ok := k.flowHome[sk.Tuple()]; ok {
		k.tables.RemoveEstablished(t, sk)
		k.setFlowHome(sk.Tuple(), nil)
	}
	if e.portBound {
		delete(k.usedPorts, sk.Local)
		e.portBound = false
	}
	if !k.drainSweeping &&
		(k.life == lifeDraining || (e.owner != nil && e.owner.draining)) {
		// A connection that ran to completion under a host or worker
		// drain grace period (the sweep's own aborts are counted as
		// AbortedOnDrain by the sweep itself).
		k.stats.DrainedConns++
	}
	addLockStats(&k.slockAgg, sk.Slock.Stats())
	e.destroyed = true
	k.putSock(e)
}

// ArmRetransmit implements tcp.Env.
func (k *Kernel) ArmRetransmit(t *cpu.Task, sk *tcp.Sock, d sim.Time) {
	e := ext(sk)
	if e.rtx != nil {
		if e.rtx.Expiring() {
			e.pendingRtx++
		}
		e.rtx.Cancel(t)
	}
	w := k.wheels[k.timerCore(sk)]
	e.rtx = w.Arm(t, d, e.rtxFn)
}

// CancelRetransmit implements tcp.Env.
func (k *Kernel) CancelRetransmit(t *cpu.Task, sk *tcp.Sock) {
	e := ext(sk)
	if e.rtx != nil {
		if e.rtx.Expiring() {
			e.pendingRtx++
		}
		e.rtx.Cancel(t)
		e.rtx = nil
	}
}

// StartTimeWait implements tcp.Env.
func (k *Kernel) StartTimeWait(t *cpu.Task, sk *tcp.Sock) {
	e := ext(sk)
	w := k.wheels[k.timerCore(sk)]
	e.tw = w.Arm(t, k.cfg.TimeWait, e.twFn)
}

// timerCore picks the wheel a socket's timers live on: its home core
// (where the TCB was created), as in Linux where the timer base is
// bound at socket initialization.
func (k *Kernel) timerCore(sk *tcp.Sock) int {
	if sk.HomeCore >= 0 && sk.HomeCore < k.cfg.Cores {
		return sk.HomeCore
	}
	return 0
}

func addLockStats(dst *lock.Stats, s lock.Stats) {
	dst.Acquisitions += s.Acquisitions
	dst.Contended += s.Contended
	dst.WaitTime += s.WaitTime
	dst.HoldTime += s.HoldTime
	dst.Bounces += s.Bounces
}
