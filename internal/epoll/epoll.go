// Package epoll models the kernel event-notification facility the
// benchmark applications (Nginx, HAProxy) are built on.
//
// Each instance's ready list is protected by "ep.lock" (Table 1).
// When NET_RX SoftIRQ makes a socket readable it queues the socket's
// watch on the owning instance's ready list — taking ep.lock from
// whatever core the packet was processed on. Without connection
// locality that is a remote core, and ep.lock bounces; with
// Fastsocket it is always the instance owner's core.
package epoll

import (
	"fastsocket/internal/cpu"
	"fastsocket/internal/lock"
	"fastsocket/internal/sim"
)

// Events is the epoll event bitmask.
type Events uint8

// Event bits.
const (
	In  Events = 1 << iota // readable (data or EOF)
	Out                    // writable (connect completed)
	Err                    // error (reset)
)

// Costs charges epoll operations.
type Costs struct {
	Ctl    sim.Time // EPOLL_CTL_ADD/DEL bookkeeping
	Notify sim.Time // queueing one ready event (under ep.lock)
	Wait   sim.Time // epoll_wait fixed syscall cost
	PerEv  sim.Time // per returned event copyout
}

// Stats counts instance activity.
type Stats struct {
	Notifies, Waits, Delivered uint64
}

// Watch is one registered interest (one socket in one instance).
// Edge-triggered watches are recycled through the instance's free
// list once unregistered and off the ready list, so a *Watch must not
// be used after Unregister.
type Watch struct {
	inst   *Instance
	fd     int // the registered file descriptor
	events Events
	queued bool
	//fsvet:shared written only by the owning process (epoll_ctl); Notify's unlocked read races benignly — dead watches are discarded lazily at Wait
	dead bool
	// level, when set, makes the watch level-triggered: every Wait
	// re-probes the callback and re-reports the watch while it says
	// ready. Listen sockets need this — real epoll keeps returning a
	// listen fd as long as its accept queue is non-empty, which is
	// what lets an accept loop bounded at N per wakeup drain a deep
	// backlog without a fresh edge for every leftover connection.
	//fsvet:shared written once by the owning process at registration time (epoll_ctl), before any Wait or Notify can observe the watch
	level func() Events
}

// Instance is one epoll file descriptor's worth of state.
type Instance struct {
	Lock  *lock.SpinLock // "ep.lock"
	ready []*Watch
	// free parks unregistered edge-triggered watches for Register to
	// reuse.
	//fsvet:percore touched only by the owning process (epoll_ctl and epoll_wait), on its own core
	free []*Watch
	// out is Wait's result buffer, reused across calls.
	//fsvet:percore written only by Wait, which runs on the owning process's core
	out []Ready
	// levels holds the level-triggered watches, probed at every Wait.
	//fsvet:shared appended only by the owning process at registration time (epoll_ctl); Wait runs on the same owner
	levels []*Watch
	costs  Costs
	//fsvet:shared lossy aggregate counters, bumped outside ep.lock on purpose (the hold window stays minimal)
	stats Stats

	// waker is invoked (at most once per sleep) when a notification
	// arrives while the owner sleeps in epoll_wait.
	waker    func()
	sleeping bool
}

// New builds an instance. bounce is the ep.lock transfer penalty.
func New(bounce sim.Time, costs Costs) *Instance {
	return &Instance{
		Lock:  lock.New("ep.lock", bounce),
		costs: costs,
	}
}

// Stats returns a snapshot of the counters.
func (ep *Instance) Stats() Stats { return ep.stats }

// SetWaker installs the owner's wakeup callback.
func (ep *Instance) SetWaker(fn func()) { ep.waker = fn }

// Register adds fd to the interest list (EPOLL_CTL_ADD), reusing a
// parked watch when one is free.
func (ep *Instance) Register(t *cpu.Task, fd int) *Watch {
	t.Charge(ep.costs.Ctl)
	if n := len(ep.free); n > 0 {
		w := ep.free[n-1]
		ep.free[n-1] = nil
		ep.free = ep.free[:n-1]
		*w = Watch{inst: ep, fd: fd}
		return w
	}
	return &Watch{inst: ep, fd: fd}
}

// SetLevel makes w level-triggered: probe is consulted on every Wait
// and the watch is re-reported while it returns a non-zero mask.
// Called once at registration time (epoll_ctl), before any Wait can
// observe the watch.
func (ep *Instance) SetLevel(w *Watch, probe func() Events) {
	w.level = probe
	ep.levels = append(ep.levels, w)
}

// Unregister removes the watch (EPOLL_CTL_DEL). Pending ready events
// for it are discarded lazily at Wait time. An edge-triggered watch
// is parked for reuse here if it is not queued, otherwise when Wait
// drops it; level-triggered watches are never reused.
func (ep *Instance) Unregister(t *cpu.Task, w *Watch) {
	if w == nil || w.dead {
		return
	}
	t.Charge(ep.costs.Ctl)
	w.dead = true
	if !w.queued {
		ep.park(w)
	}
}

// park puts a dead watch on the free list.
func (ep *Instance) park(w *Watch) {
	if w.level == nil {
		ep.free = append(ep.free, w)
	}
}

// Notify marks the watch ready with ev. It is called from the TCP
// stack (any core); ep.lock serializes the ready list. If the owner
// sleeps in epoll_wait it is woken exactly once.
func (ep *Instance) Notify(t *cpu.Task, w *Watch, ev Events) {
	if w == nil || w.dead {
		return
	}
	var wake bool
	ep.Lock.With(t, func() {
		t.Charge(ep.costs.Notify)
		w.events |= ev
		if !w.queued {
			w.queued = true
			ep.ready = append(ep.ready, w)
		}
		wake = ep.sleeping
		ep.sleeping = false
	})
	ep.stats.Notifies++
	if wake && ep.waker != nil {
		ep.waker()
	}
}

// Ready is one event returned by Wait.
type Ready struct {
	FD     int
	Events Events
}

// Wait drains up to max ready events (0 = all). If nothing is ready
// it returns nil and marks the owner sleeping, so the next Notify
// fires the waker. The returned slice is the instance's reused result
// buffer: it stays valid only until the next Wait.
func (ep *Instance) Wait(t *cpu.Task, max int) []Ready {
	var out []Ready
	ep.Lock.With(t, func() {
		t.Charge(ep.costs.Wait)
		ep.stats.Waits++
		// Level-triggered pass: re-report any still-ready level watch
		// that has no queued edge (its last event was delivered but the
		// condition — a non-empty accept queue — persists).
		for _, w := range ep.levels {
			if w.dead || w.queued {
				continue
			}
			if ev := w.level(); ev != 0 {
				w.events |= ev
				w.queued = true
				ep.ready = append(ep.ready, w)
			}
		}
		n := len(ep.ready)
		if max > 0 && n > max {
			n = max
		}
		out = ep.out[:0]
		for i := 0; i < n; i++ {
			w := ep.ready[i]
			w.queued = false
			if w.dead {
				ep.park(w)
				continue
			}
			t.Charge(ep.costs.PerEv)
			out = append(out, Ready{FD: w.fd, Events: w.events})
			w.events = 0
		}
		// Compact in place so the ready list keeps its capacity.
		rest := copy(ep.ready, ep.ready[n:])
		clear(ep.ready[rest:])
		ep.ready = ep.ready[:rest]
		ep.out = out
		if len(out) == 0 && len(ep.ready) == 0 {
			ep.sleeping = true
		}
		ep.stats.Delivered += uint64(len(out))
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// PendingReady reports queued-but-undelivered events (tests).
func (ep *Instance) PendingReady() int { return len(ep.ready) }
