// Package sim provides the discrete-event simulation engine underneath
// the Fastsocket reproduction: a simulated clock, a pooled event
// scheduler (4-ary min-heap plus a hierarchical timer wheel) with O(1)
// cancellation, a handle-free lane for packet arrivals, and a
// deterministic pseudo-random number generator.
//
// All simulation state transitions happen inside a single-threaded
// event loop, so no locking is required anywhere in the simulated
// kernel; the "spinlocks" in internal/lock are models of contention,
// not real synchronization primitives.
package sim

import "fmt"

// Time is a point in simulated time, in nanoseconds since simulation
// start. It is deliberately distinct from time.Duration so that real
// and simulated time cannot be mixed by accident.
type Time int64

// Convenient simulated-duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// maxTime is the sentinel "no deadline".
const maxTime = Time(1<<63 - 1)

// String renders the time with an adaptive unit, e.g. "12.5us".
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3gus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6gs", float64(t)/float64(Second))
	}
}

// Seconds converts a simulated time span to float seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Event is a handle to a scheduled callback, created by Loop.At/After.
// It is a small value (not a pointer into the scheduler): the event
// state itself lives in the loop's pool and is reused after the event
// fires or is cancelled. A generation counter makes a stale handle's
// Cancel a safe no-op. The zero Event is inert: Cancel does nothing,
// Live and Cancelled report false.
type Event struct {
	l   *Loop
	idx int32
	gen uint32
	at  Time
}

// At returns the simulated time the event was scheduled to fire.
func (e Event) At() Time { return e.at }

// Live reports whether the event is still scheduled (neither fired nor
// cancelled).
func (e Event) Live() bool {
	if e.l == nil {
		return false
	}
	n := &e.l.nodes[e.idx]
	return n.gen == e.gen && n.where != whereFree
}

// Cancel prevents the event from firing. Cancelling an event that has
// already fired or been cancelled is a no-op. A wheel-resident event
// (far deadline) is unlinked in O(1) and its pool slot reused
// immediately; a heap-resident one is reaped lazily (or eagerly once
// stale entries accumulate past a threshold).
func (e Event) Cancel() {
	l := e.l
	if l == nil {
		return
	}
	n := &l.nodes[e.idx]
	if n.gen != e.gen || n.where == whereFree {
		return
	}
	switch n.where {
	case whereWheel:
		l.wheelUnlink(e.idx)
		l.stats.CancelledWheel++
	case whereHeap:
		// The heap entry stays behind; it is skipped on pop (the pool
		// slot's generation no longer matches) and compacted away once
		// enough garbage accumulates.
		l.stale++
		l.stats.CancelledHeap++
	}
	l.freeNode(e.idx, fateCancelled)
	l.maybeReap()
}

// Cancelled reports whether the event was cancelled. It is accurate
// until the event's pool slot is reused for a later event; after that
// (the handle is long dead either way) it conservatively reports true.
// A fired event reports false while its slot is unreused.
func (e Event) Cancelled() bool {
	if e.l == nil {
		return false
	}
	n := &e.l.nodes[e.idx]
	if n.gen != e.gen {
		return true // slot reused: this event ended long ago
	}
	return n.where == whereFree && n.fate == fateCancelled
}

// SchedStats counts scheduler-internal activity, for benchmarks and
// regression tests of the engine itself. Arrivals that ride the lane
// (Loop.Arrive) are none of these: they are counted only by Fired and
// Pending.
type SchedStats struct {
	ScheduledHeap  uint64 // events placed directly in the near heap
	ScheduledWheel uint64 // events placed in the timer-wheel tier
	CancelledHeap  uint64 // cancellations leaving a stale heap entry
	CancelledWheel uint64 // O(1) wheel unlinks
	Cascades       uint64 // wheel slots migrated toward the heap
	Reaps          uint64 // eager compactions of stale heap entries
	FastForwards   uint64 // RunUntil returns that skipped all wheel work
}

// Add merges two scheduler snapshots (the sharded engine aggregates
// per-domain counters in index order; plain counter sums commute, so
// the merge is deterministic regardless of worker count).
func (s SchedStats) Add(o SchedStats) SchedStats {
	s.ScheduledHeap += o.ScheduledHeap
	s.ScheduledWheel += o.ScheduledWheel
	s.CancelledHeap += o.CancelledHeap
	s.CancelledWheel += o.CancelledWheel
	s.Cascades += o.Cascades
	s.Reaps += o.Reaps
	s.FastForwards += o.FastForwards
	return s
}

// Loop is a discrete-event loop. The zero value is not usable; call
// NewLoop.
type Loop struct {
	now     Time
	seq     uint64
	stopped bool

	// fired counts events executed, for diagnostics and budget caps.
	fired uint64

	// Event pool: all scheduled events live in nodes; free is the head
	// of the free list (-1 when empty); live counts scheduled,
	// uncancelled events.
	nodes []node
	free  int32
	live  int

	// Near tier: an index-free 4-ary min-heap ordered by (at, seq).
	// Entries carry a generation so cancelled events leave no work
	// behind beyond a stale entry; stale counts those.
	heap  []heapEnt
	stale int

	// Far tier: hierarchical timer wheel. whead caches wheelNext's
	// answer while wheadOK (see wheelHead).
	wheelOcc   [wheelLevels]uint64
	wheelSlots [wheelLevels][wheelSlotCount]int32
	wheelCount int
	whead      wheelPos
	wheadOK    bool

	// Arrival lane: a ring of laneLen entries from lane[laneHead],
	// sorted by (at, seq) (see Arrive).
	lane     []laneEnt
	laneHead int
	laneLen  int

	stats SchedStats
}

// NewLoop returns an event loop with the clock at zero.
func NewLoop() *Loop {
	l := &Loop{free: -1}
	for lvl := range l.wheelSlots {
		for i := range l.wheelSlots[lvl] {
			l.wheelSlots[lvl][i] = -1
		}
	}
	return l
}

// Now returns the current simulated time.
func (l *Loop) Now() Time { return l.now }

// Fired returns the number of events executed so far.
func (l *Loop) Fired() uint64 { return l.fired }

// Pending returns the number of scheduled, uncancelled events, lane
// arrivals included. (Cancelled events no longer count: their pool
// slots are reused and stale heap entries are reaped, so long
// cancel-heavy runs hold no hidden memory.)
func (l *Loop) Pending() int { return l.live + l.laneLen }

// SchedStats returns a snapshot of the scheduler counters.
func (l *Loop) SchedStats() SchedStats { return l.stats }

// At schedules fn to run at absolute simulated time t. Scheduling in
// the past (t < Now) panics: it would silently reorder causality.
// Events due within the current wheel slot go to the near heap;
// farther deadlines (armed timers, TIME_WAIT) go to the wheel tier,
// where cancellation is O(1) and costs the heap nothing.
func (l *Loop) At(t Time, fn func()) Event {
	idx := l.schedule(t)
	l.nodes[idx].fn = fn
	return Event{l: l, idx: idx, gen: l.nodes[idx].gen, at: t}
}

// AtArg schedules fn(arg) at absolute simulated time t. It is the
// allocation-free form of At for hot paths: fn is a long-lived
// callback (built once, reused for every event) and arg carries the
// per-event value. A pointer stored in arg is not boxed, so scheduling
// a packet delivery or a softirq costs no heap allocation at all.
// Firing order relative to At events is the usual (at, seq).
func (l *Loop) AtArg(t Time, fn func(any), arg any) Event {
	idx := l.schedule(t)
	n := &l.nodes[idx]
	n.afn, n.arg = fn, arg
	return Event{l: l, idx: idx, gen: n.gen, at: t}
}

// Arrive schedules fn(arg) at t like AtArg, with the same sequence
// number and so the same firing order, but as an arrival: it takes no
// pool node and returns no handle, so it cannot be cancelled, and it
// never enters the wheel or the heap. It appends to the arrival lane,
// a FIFO that stays sorted because arrivals come in time order (every
// packet crosses the fabric with the same delay). An arrival due
// before the lane's newest one (a reordered packet's extra delay)
// falls back to AtArg, which orders it exactly.
func (l *Loop) Arrive(t Time, fn func(any), arg any) {
	if t < l.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, l.now))
	}
	if l.laneLen > 0 && t < l.laneTail().at {
		l.AtArg(t, fn, arg)
		return
	}
	l.seq++
	l.lanePush(laneEnt{at: t, seq: l.seq, fn: fn, arg: arg})
}

// schedule allocates and links a node for deadline t; the caller fills
// in the callback.
func (l *Loop) schedule(t Time) int32 {
	if t < l.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, l.now))
	}
	l.seq++
	idx := l.alloc()
	n := &l.nodes[idx]
	n.at, n.seq = t, l.seq
	l.live++
	if l.wheelInsert(idx, t) {
		l.stats.ScheduledWheel++
	} else {
		n.where = whereHeap
		l.heapPush(heapEnt{at: t, seq: n.seq, idx: idx, gen: n.gen})
		l.stats.ScheduledHeap++
	}
	return idx
}

// After schedules fn to run d nanoseconds from now.
func (l *Loop) After(d Time, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return l.At(l.now+d, fn)
}

// AfterArg schedules fn(arg) d nanoseconds from now (see AtArg).
func (l *Loop) AfterArg(d Time, fn func(any), arg any) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return l.AtArg(l.now+d, fn, arg)
}

// Step executes the next event, advancing the clock. It returns false
// when no events remain. Firing order is exactly (at, seq): the wheel
// tier cascades due slots into the heap before they can fire, and the
// lane and the heap are merged by (at, seq), so the split is invisible
// to the simulation.
func (l *Loop) Step() bool {
	_, lane, ok := l.next()
	if ok {
		l.fire(lane)
	}
	return ok
}

// fire executes the event next picked: the lane head or the heap top.
func (l *Loop) fire(lane bool) {
	l.fired++
	if lane {
		e := &l.lane[l.laneHead]
		fn, arg := e.fn, e.arg
		l.now = e.at
		*e = laneEnt{} // release the callback's argument
		l.laneHead = (l.laneHead + 1) & (len(l.lane) - 1)
		l.laneLen--
		fn(arg)
		return
	}
	e := l.heap[0]
	l.heapPop()
	l.now = e.at
	n := &l.nodes[e.idx]
	fn, afn, arg := n.fn, n.afn, n.arg
	l.freeNode(e.idx, fateFired)
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
}

// Run executes events until none remain or Stop is called.
func (l *Loop) Run() {
	l.stopped = false
	for !l.stopped && l.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock
// to exactly t. Events scheduled after t remain pending.
//
// When the loop is idle up to t — the lane head, the live heap top and
// the earliest occupied wheel slot all start after t — RunUntil
// fast-forwards: it advances the clock without cascading any wheel
// slot, so a window-at-a-time driver polling a loop whose only pending
// work is far-future timers (armed RTOs, keep-alive ticks on
// long-lived connections) pays O(1) per window (the cached wheel head)
// instead of migrating timers heapward each call.
// A slot's start time lower-bounds every deadline in it, so skipping a
// slot that starts after t can never skip a due event, and events that
// do fire still cascade through next() in exact (at, seq) order —
// firing order is identical with or without the fast path.
func (l *Loop) RunUntil(t Time) {
	l.stopped = false
	for !l.stopped {
		if !l.dueBy(t) {
			break
		}
		at, lane, ok := l.next()
		if !ok || at > t {
			break
		}
		l.fire(lane)
	}
	if l.now < t {
		l.now = t
	}
}

// Stop makes Run/RunUntil return after the current event completes.
func (l *Loop) Stop() { l.stopped = true }
