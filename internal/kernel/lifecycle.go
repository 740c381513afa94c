package kernel

// The host lifecycle plane: scheduled crashes, graceful drains, and
// cold restarts of a whole machine or a single worker process, driven
// by the declarative fault.LifecyclePlan. Everything here runs as
// ordinary kernel work on core 0 (or the worker's core), at fixed
// simulated times, so the plane inherits the simulator's determinism
// with no extra contract: no draws, no map iteration (sweeps walk the
// flow table in sorted tuple order), and identical behaviour at any
// shard worker count.
//
// Semantics, by event kind:
//
//   - HostCrash: the machine dies instantly. Every established TCB is
//     dropped without a word on the wire (a crashed kernel transmits
//     nothing), listeners and per-core listen tables are torn down,
//     NIC rings are flushed, processes die. Segments that arrive while
//     the host is down are answered per fault.DeadPolicy: silence
//     (default — the unplugged-machine behaviour) or RST.
//   - HostDrain: listeners close but the machine keeps serving.
//     New SYNs find no listener and are refused (RST, or silently
//     dropped under LifecyclePlan.DrainSilent); established
//     connections run to completion until the event's Deadline, when
//     the leftovers are swept with RST. TIME_WAIT sockets are left to
//     their timers — they hold no application state.
//   - WorkerCrash / WorkerDrain: the same, scoped to one process:
//     its local listen clone and wake registrations disappear (new
//     connections rebalance onto the surviving workers via the global
//     listen fallback), and only connections it owns are swept.
//   - RestartAfter: a cold restart that long after the event
//     completes. The kernel re-registers its boot listeners with
//     empty queues, processes get fresh fd tables and epoll instances
//     and rerun their startup (re-creating SO_REUSEPORT listeners and
//     local listen clones), and every cache — flow table, ephemeral
//     ports, accept queues — starts empty.

import (
	"sort"

	"fastsocket/internal/cpu"
	"fastsocket/internal/fault"
	"fastsocket/internal/netproto"
	"fastsocket/internal/tcp"
)

// lifeState is the machine's lifecycle phase.
type lifeState int

const (
	lifeUp lifeState = iota
	lifeDraining
	lifeDown
)

// scheduleLifecycle arms the plan's events on the loop. Called once
// from New when the plan schedules anything.
func (k *Kernel) scheduleLifecycle() {
	for _, ev := range k.lifePlan.Events {
		ev := ev
		k.loop.At(ev.At, func() {
			k.machine.Core(0).Submit(func(t *cpu.Task) { k.lifeFire(t, ev) })
		})
	}
}

// lifeFire dispatches one lifecycle event in kernel-task context.
func (k *Kernel) lifeFire(t *cpu.Task, ev fault.LifecycleEvent) {
	switch ev.Action {
	case fault.HostCrash:
		k.hostCrash(t, ev)
	case fault.HostDrain:
		k.hostDrain(t, ev)
	case fault.WorkerCrash, fault.WorkerDrain:
		if ev.Worker < 0 || ev.Worker >= len(k.procs) {
			return
		}
		k.workerEvent(t, ev)
	}
}

// sortedFlowExts snapshots the established-flow mirror in sorted
// tuple order — the deterministic sweep order (flowHome is a map; its
// iteration order must never reach behaviour).
func (k *Kernel) sortedFlowExts() []*sockExt {
	tuples := make([]netproto.FourTuple, 0, len(k.flowHome))
	for ft := range k.flowHome {
		tuples = append(tuples, ft)
	}
	sort.Slice(tuples, func(i, j int) bool { return tupleLess(tuples[i], tuples[j]) })
	exts := make([]*sockExt, len(tuples))
	for i, ft := range tuples {
		exts[i] = k.flowHome[ft]
	}
	return exts
}

func tupleLess(a, b netproto.FourTuple) bool {
	if a.Src.IP != b.Src.IP {
		return a.Src.IP < b.Src.IP
	}
	if a.Src.Port != b.Src.Port {
		return a.Src.Port < b.Src.Port
	}
	if a.Dst.IP != b.Dst.IP {
		return a.Dst.IP < b.Dst.IP
	}
	return a.Dst.Port < b.Dst.Port
}

// lifeRST answers a swept connection's peer with RST (the drain
// deadline and worker-crash sweeps; a host crash sends nothing).
func (k *Kernel) lifeRST(t *cpu.Task, sk *tcp.Sock) {
	t.Charge(k.cfg.Costs.SendRST)
	k.stats.RSTSent++
	rst := k.pool.Get()
	rst.Src = sk.Local
	rst.Dst = sk.Remote
	rst.Flags = netproto.RST
	rst.Seq = sk.SndNxt
	k.rawTransmit(t, rst)
}

// abortBacklog force-closes every connection still parented on a
// closing listener — queued in its accept queue or mid-handshake —
// answering the peer with RST, as inet_csk_listen_stop does when a
// listen fd goes away. Without this the backlog's TCBs would sit
// ESTABLISHED forever: no process will ever accept them, while the
// peers keep retransmitting into them. Silent mode (host crash)
// skips the RST — the sweep there has already killed everything and
// a dead kernel transmits nothing anyway.
func (k *Kernel) abortBacklog(t *cpu.Task, parent *tcp.Sock, silent, drain bool) {
	for _, e := range k.sortedFlowExts() {
		// sk.Parent stays set after accept, so owner==nil is what
		// distinguishes the undelivered backlog from connections an
		// application already owns (those are the drain grace period's
		// business, not the listener teardown's).
		if e.destroyed || e.sk == nil || e.sk.Parent != parent || e.owner != nil {
			continue
		}
		sk := e.sk
		if !silent {
			k.lifeRST(t, sk)
		}
		e.appClosed = true // never delivered to an application
		k.drainSweeping = true
		sk.Slock.With(t, func() { tcp.Abort(k, t, sk) })
		k.drainSweeping = false
		if drain {
			k.stats.AbortedOnDrain++
		} else {
			k.stats.CrashAborts++
		}
	}
	parent.ClearAccept()
	parent.SynQueue = 0
}

// dropListeners tears every listener out of the lookup tables: local
// clones, watcher registrations, global entries, queued children
// (RST-aborted per abortBacklog unless silent). Boot listeners stay
// remembered in k.bootListeners for restart.
func (k *Kernel) dropListeners(t *cpu.Task, silent, drain bool) {
	for _, lsk := range k.allListeners {
		lex := ext(lsk).listen
		if lex == nil {
			continue
		}
		for core := 0; core < k.cfg.Cores; core++ {
			if clone, ok := lex.clones[core]; ok {
				k.abortBacklog(t, clone, silent, drain)
				k.tables.RemoveLocalListener(t, clone)
				delete(lex.clones, core)
			}
		}
		lex.watchers = lex.watchers[:0]
		lex.nextWake = 0
		k.tables.GlobalListen.Remove(t, lsk)
		k.abortBacklog(t, lsk, silent, drain)
		lsk.Transition(1<<tcp.Listen, tcp.Closed)
	}
	k.allListeners = k.allListeners[:0]
}

// flushNIC drops every frame parked in the RX rings and softnet
// backlogs and disarms pending coalescing windows.
func (k *Kernel) flushNIC() {
	for q := 0; q < k.cfg.Cores; q++ {
		for {
			p, ok := k.nic.PollRX(q)
			if !ok {
				break
			}
			k.pool.Put(p)
		}
		for {
			p, ok := k.backlog[q].Pop()
			if !ok {
				break
			}
			k.pool.Put(p)
		}
		if k.coalArmed[q] {
			k.coalArmed[q] = false
			k.coalTimer[q].Cancel()
		}
	}
}

// hostCrash kills the machine: processes die, every TCB is dropped
// silently, listeners and rings are torn down, ports are forgotten.
func (k *Kernel) hostCrash(t *cpu.Task, ev fault.LifecycleEvent) {
	if k.life == lifeDown {
		return
	}
	k.life = lifeDown
	for _, p := range k.procs {
		p.dead = true
	}
	// Drop every established TCB. A crashed host sends nothing — the
	// peers' own timers (or the dead-segment policy on their next
	// transmission) discover the failure.
	for _, e := range k.sortedFlowExts() {
		if e.destroyed || e.sk == nil {
			continue
		}
		e.appClosed = true // the crashed process's fds are gone
		sk := e.sk
		sk.Slock.With(t, func() { tcp.Abort(k, t, sk) })
		k.stats.CrashAborts++
	}
	k.dropListeners(t, true, false)
	k.flushNIC()
	k.usedPorts = map[netproto.Addr]bool{}
	k.portCursor = netproto.EphemeralLow
	if ev.RestartAfter > 0 {
		k.loop.After(ev.RestartAfter, func() {
			k.machine.Core(0).Submit(k.hostRestart)
		})
	}
}

// hostRestart cold-boots the machine after a crash or completed
// drain: boot listeners are re-registered with empty queues, and
// every process gets a fresh fd table and epoll instance and reruns
// its startup (which re-creates SO_REUSEPORT listeners and local
// listen clones). All caches start empty.
func (k *Kernel) hostRestart(t *cpu.Task) {
	if k.life == lifeUp {
		return
	}
	k.life = lifeUp
	k.stats.HostRestarts++
	for _, lsk := range k.bootListeners {
		if lsk.State != tcp.Closed {
			// dropListeners closed every boot listener when the host
			// went down; anything else is still registered and must
			// not be double-inserted.
			continue
		}
		lex := ext(lsk).listen
		lsk.Transition(1<<tcp.Closed, tcp.Listen)
		lsk.ClearAccept()
		lsk.SynQueue = 0
		lex.clones = map[int]*tcp.Sock{}
		lex.watchers = lex.watchers[:0]
		lex.nextWake = 0
		k.tables.GlobalListen.Insert(t, lsk)
		k.allListeners = append(k.allListeners, lsk)
	}
	for _, p := range k.procs {
		p.Reset()
		p.Start()
	}
}

// hostDrain closes the listeners and schedules the deadline sweep.
func (k *Kernel) hostDrain(t *cpu.Task, ev fault.LifecycleEvent) {
	if k.life != lifeUp {
		return
	}
	k.life = lifeDraining
	k.dropListeners(t, false, true)
	k.loop.After(ev.Deadline, func() {
		k.machine.Core(0).Submit(func(st *cpu.Task) { k.drainSweep(st, ev) })
	})
}

// drainSweep force-closes whatever outlived the drain deadline:
// non-TIME_WAIT connections are answered RST and aborted (TIME_WAIT
// holds no application state and is left to its timers). Then, if the
// event restarts, the re-listen is scheduled.
func (k *Kernel) drainSweep(t *cpu.Task, ev fault.LifecycleEvent) {
	if k.life != lifeDraining {
		return
	}
	k.drainSweeping = true
	for _, e := range k.sortedFlowExts() {
		if e.destroyed || e.sk == nil || e.sk.State == tcp.TimeWait {
			continue
		}
		sk := e.sk
		k.lifeRST(t, sk)
		sk.Slock.With(t, func() { tcp.Abort(k, t, sk) })
		k.stats.AbortedOnDrain++
	}
	k.drainSweeping = false
	if ev.RestartAfter > 0 {
		k.loop.After(ev.RestartAfter, func() {
			k.machine.Core(0).Submit(k.drainRestart)
		})
	}
}

// drainRestart re-opens a drained host: same cold re-listen as a
// crash restart (the processes' surviving state is only TIME_WAIT by
// now, which the fresh fd tables simply orphan to its timers).
func (k *Kernel) drainRestart(t *cpu.Task) {
	if k.life != lifeDraining {
		return
	}
	k.life = lifeDown // through the common restart path below
	k.hostRestart(t)
}

// workerEvent crashes or drains a single process: its listen
// presence disappears (new connections rebalance onto peers), and its
// connections are swept — immediately for a crash, at the deadline
// for a drain.
func (k *Kernel) workerEvent(t *cpu.Task, ev fault.LifecycleEvent) {
	p := k.procs[ev.Worker]
	k.detachWorkerListeners(t, p, ev.Action == fault.WorkerDrain)
	if ev.Action == fault.WorkerCrash {
		p.dead = true
		k.sweepWorker(t, p, true)
	} else {
		// Grace period: connections the worker still owns may run to
		// completion until the deadline (each counted in DrainedConns
		// by Destroy), then the sweep aborts the stragglers.
		p.draining = true
		k.loop.After(ev.Deadline, func() {
			k.machine.Core(p.Core).Submit(func(st *cpu.Task) {
				k.sweepWorker(st, p, false)
				p.draining = false
			})
		})
	}
	if ev.RestartAfter > 0 {
		delay := ev.RestartAfter
		if ev.Action == fault.WorkerDrain {
			delay += ev.Deadline
		}
		k.loop.After(delay, func() {
			k.machine.Core(p.Core).Submit(func(st *cpu.Task) { k.workerRestart(st, p) })
		})
	}
}

// detachWorkerListeners removes one process from every listener: its
// core's local listen clone, its wake registrations, and (under
// SO_REUSEPORT) its private listen sockets. Each closing listener's
// backlog is RST-aborted (abortBacklog) — those connections belonged
// to the departing worker and no one else will ever accept them.
func (k *Kernel) detachWorkerListeners(t *cpu.Task, p *Process, drain bool) {
	kept := k.allListeners[:0]
	for _, lsk := range k.allListeners {
		e := ext(lsk)
		lex := e.listen
		if lex == nil {
			kept = append(kept, lsk)
			continue
		}
		if clone, ok := lex.clones[p.Core]; ok && clone.HomeCore == p.Core {
			k.abortBacklog(t, clone, false, drain)
			k.tables.RemoveLocalListener(t, clone)
			delete(lex.clones, p.Core)
		}
		ws := lex.watchers[:0]
		for _, pw := range lex.watchers {
			if pw.proc != p {
				ws = append(ws, pw)
			}
		}
		lex.watchers = ws
		if e.owner == p {
			// The worker's own SO_REUSEPORT listener dies with it.
			k.tables.GlobalListen.Remove(t, lsk)
			k.abortBacklog(t, lsk, false, drain)
			lsk.Transition(1<<tcp.Listen, tcp.Closed)
			continue
		}
		kept = append(kept, lsk)
	}
	k.allListeners = kept
}

// sweepWorker force-closes the connections one process owns. crash
// distinguishes the counter (CrashAborts vs AbortedOnDrain); both
// sweeps answer the peer with RST — for a crash that is the kernel
// resetting the dead process's fds (the host is still up), for a
// drain it is the deadline expiring.
func (k *Kernel) sweepWorker(t *cpu.Task, p *Process, crash bool) {
	for _, e := range k.sortedFlowExts() {
		if e.destroyed || e.sk == nil || e.owner != p || e.listen != nil {
			continue
		}
		if e.sk.State == tcp.TimeWait {
			continue
		}
		sk := e.sk
		k.lifeRST(t, sk)
		if crash {
			e.appClosed = true // the dead process's fd is gone
			k.stats.CrashAborts++
		} else {
			k.stats.AbortedOnDrain++
		}
		k.drainSweeping = true
		sk.Slock.With(t, func() { tcp.Abort(k, t, sk) })
		k.drainSweeping = false
	}
}

// workerRestart brings one process back: fresh fd table and epoll,
// startup rerun (re-attaching boot listeners, re-cloning the local
// listen table, or re-creating its SO_REUSEPORT sockets).
func (k *Kernel) workerRestart(t *cpu.Task, p *Process) {
	if k.life != lifeUp {
		return // the whole host went down meanwhile
	}
	k.stats.HostRestarts++
	p.Reset()
	p.Start()
}

// deadDeliver is the wire reaching a dead host: per DeadPolicy the
// segment vanishes (an unplugged machine answers nothing) or draws an
// immediate RST (a rebooted kernel with no TCBs, or an
// ICMP-translating load balancer). Uncharged — no CPU is alive.
func (k *Kernel) deadDeliver(p *netproto.Packet) {
	k.stats.DeadSegs++
	if k.lifePlan.Dead == fault.DeadRST && !p.Flags.Has(netproto.RST) && k.SendToWire != nil {
		rst := k.pool.Get()
		rst.Src = p.Dst
		rst.Dst = p.Src
		rst.Flags = netproto.RST
		rst.Seq = p.Ack
		k.SendToWire(rst)
	}
	k.pool.Put(p)
}

// Lifecycle test/experiment accessors.

// Draining reports whether the host is currently draining.
func (k *Kernel) Draining() bool { return k.life == lifeDraining }

// Down reports whether the host is currently crashed/stopped.
func (k *Kernel) Down() bool { return k.life == lifeDown }
