// Package ktimer models the kernel's per-CPU timer wheels.
//
// Each core owns one wheel protected by its "base.lock" spinlock —
// the lock the paper's Table 1 shows contended in the baseline
// kernel. TCP arms a retransmission timer when it sends and cancels
// it when the ACK arrives; without connection locality the arm
// happens in process context on one core while the cancel happens in
// NET_RX SoftIRQ on another, so base.lock bounces between them. With
// Fastsocket's complete connection locality both touches happen on
// the wheel's own core and the lock is never contended.
//
// Timer expiry executes in interrupt context on the wheel's core, as
// in Linux.
//
// The wheel's *cost model* (base.lock, arm/cancel/expire charges)
// lives here; the *storage* for armed deadlines is the simulator's
// own far-timer tier. Every deadline this package arms (RTO ~200ms,
// TIME_WAIT ~250us) is far beyond sim's level-0 wheel granularity,
// so each armed timer is a pooled timer-wheel node in internal/sim —
// not a heap event — and the overwhelmingly common cancel-before-fire
// path is an O(1) unlink that allocates nothing and leaves no
// residue in the event heap.
package ktimer

import (
	"fastsocket/internal/cpu"
	"fastsocket/internal/lock"
	"fastsocket/internal/sim"
)

// Costs charges wheel operations.
type Costs struct {
	Arm    sim.Time // enqueueing a timer (lock hold)
	Cancel sim.Time // dequeueing a timer (lock hold)
	Expire sim.Time // expiry bookkeeping before the handler runs
}

// Stats counts wheel activity.
type Stats struct {
	Armed, Cancelled, Fired uint64
}

// Wheel is one core's timer wheel.
//
//fsvet:percore one wheel per core (the per-core timer base); list mutation under base.lock, counters and free list owned by the wheel's core
type Wheel struct {
	core  *cpu.Core
	loop  *sim.Loop
	Lock  *lock.SpinLock // "base.lock"
	costs Costs
	stats Stats
	// free is the wheel's Timer free list (the timer_list equivalent of
	// the skb pool): a Timer carries its fire/expire callbacks built
	// once, so the arm/cancel/expire churn of the retransmission path
	// allocates nothing in steady state. Per-wheel (= per-core within
	// one simulation), never shared across loops.
	free []*Timer
}

// NewWheel builds the wheel for a core. bounce is the base.lock
// cache-line transfer penalty.
func NewWheel(core *cpu.Core, loop *sim.Loop, bounce sim.Time, costs Costs) *Wheel {
	return &Wheel{
		core:  core,
		loop:  loop,
		Lock:  lock.New("base.lock", bounce),
		costs: costs,
	}
}

// Stats returns a snapshot of the counters.
func (w *Wheel) Stats() Stats { return w.stats }

// Core returns the owning core.
func (w *Wheel) Core() *cpu.Core { return w.core }

// Timer is one armed timer. Timers are pooled per wheel: a recycled
// Timer keeps its two callbacks (built on first construction), and
// only the handler field changes between arms. A *Timer pointer is
// valid until the timer fires or is cancelled; holders that can
// observe expiry must clear their pointer in the handler (the handler
// runs after the Timer returns to the pool).
//
//fsvet:percore a timer belongs to its wheel's core; arm/cancel/expire are serialized on that core's softirq context
type Timer struct {
	wheel    *Wheel
	ev       sim.Event
	fn       func(*cpu.Task)
	fired    bool
	parked   bool // on the wheel's free list (double-free guard)
	fireFn   func()
	expireFn cpu.Work
}

// get pops a recycled Timer or builds one with its persistent
// callbacks.
func (w *Wheel) get() *Timer {
	if n := len(w.free); n > 0 {
		tm := w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		tm.parked = false
		tm.fired = false
		return tm
	}
	tm := &Timer{wheel: w}
	tm.fireFn = func() {
		tm.fired = true
		tm.wheel.core.SubmitSoftIRQ(tm.expireFn)
	}
	tm.expireFn = func(ht *cpu.Task) {
		// Expiry re-takes base.lock to dequeue.
		wh := tm.wheel
		wh.Lock.Hold(ht, wh.costs.Expire)
		wh.stats.Fired++
		fn := tm.fn
		wh.put(tm)
		fn(ht)
	}
	return tm
}

// put parks a finished Timer for reuse.
func (w *Wheel) put(tm *Timer) {
	if tm.parked {
		return
	}
	tm.parked = true
	tm.fn = nil
	tm.ev = sim.Event{}
	w.free = append(w.free, tm)
}

// Arm schedules fn to run on the wheel's core after d. The calling
// context pays the base.lock costs (contending if the wheel belongs
// to another core).
func (w *Wheel) Arm(t *cpu.Task, d sim.Time, fn func(*cpu.Task)) *Timer {
	w.Lock.Hold(t, w.costs.Arm)
	w.stats.Armed++
	tm := w.get()
	tm.fn = fn
	tm.ev = w.loop.At(t.Now()+d, tm.fireFn)
	return tm
}

// Cancel deactivates the timer; a no-op if it already fired or was
// cancelled. The calling context pays the base.lock costs.
func (tm *Timer) Cancel(t *cpu.Task) {
	if tm == nil || tm.fired || tm.parked || !tm.ev.Live() {
		return
	}
	w := tm.wheel
	w.Lock.Hold(t, w.costs.Cancel)
	w.stats.Cancelled++
	tm.ev.Cancel()
	w.put(tm)
}

// Active reports whether the timer is still pending.
func (tm *Timer) Active() bool {
	return tm != nil && !tm.fired && !tm.parked && tm.ev.Live()
}

// Expiring reports whether the timer has fired but its handler has not
// yet run (the expiry SoftIRQ is queued). A holder dropping its *Timer
// reference while this is true must expect the handler to still run;
// inside the handler itself this is always false (the Timer is parked
// before the handler is called).
func (tm *Timer) Expiring() bool {
	return tm != nil && tm.fired && !tm.parked
}
