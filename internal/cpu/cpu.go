// Package cpu models the CPU cores of the simulated machine.
//
// Each core executes work items strictly serially in simulated time.
// A work item runs inside a Task context that accumulates charged
// time (useful work, spin-waits on locks, cache-miss penalties); the
// core is busy for exactly the accumulated duration. Two priority
// levels mirror the kernel: SoftIRQ work (NET_RX) preempts pending
// process-context work, which is how a packet flood can starve the
// application on one core and create the load imbalance the paper's
// Figure 3 shows.
package cpu

import (
	"fmt"

	"fastsocket/internal/sim"
)

// Work is a unit of execution charged to a core.
type Work func(*Task)

// Core is one CPU core.
type Core struct {
	id      int
	loop    *sim.Loop
	machine *Machine

	busyUntil sim.Time
	pumping   bool
	// drainFn is c.drain bound once at machine construction: passing a
	// method value to loop.At allocates a closure per call, and kick
	// runs for every queued work item.
	drainFn func()

	softirq []Work // high priority (interrupt context)
	procs   []Work // normal priority (process context)

	// task is the context of the running work item. A core runs one
	// item at a time, so drain re-initialises this one Task for every
	// item instead of allocating a fresh one.
	task Task

	// Cumulative accounting.
	busyTime sim.Time // total busy (includes spin)
	spinTime sim.Time // busy time wasted spinning on locks
	works    uint64

	maxQueue int
}

// ID returns the core number.
func (c *Core) ID() int { return c.id }

// BusyTime returns cumulative busy time (useful work + spinning).
func (c *Core) BusyTime() sim.Time { return c.busyTime }

// SpinTime returns cumulative time wasted spinning on locks.
func (c *Core) SpinTime() sim.Time { return c.spinTime }

// Works returns the number of work items executed.
func (c *Core) Works() uint64 { return c.works }

// MaxQueue returns the high-water mark of queued work items.
func (c *Core) MaxQueue() int { return c.maxQueue }

// QueueLen returns the number of currently queued work items.
func (c *Core) QueueLen() int { return len(c.softirq) + len(c.procs) }

// SubmitSoftIRQ enqueues interrupt-context work (runs before any
// pending process-context work).
func (c *Core) SubmitSoftIRQ(w Work) {
	c.softirq = append(c.softirq, w)
	c.noteQueue()
	c.kick()
}

// Submit enqueues process-context work.
func (c *Core) Submit(w Work) {
	c.procs = append(c.procs, w)
	c.noteQueue()
	c.kick()
}

func (c *Core) noteQueue() {
	if q := c.QueueLen(); q > c.maxQueue {
		c.maxQueue = q
	}
}

func (c *Core) kick() {
	if c.pumping {
		return
	}
	c.pumping = true
	at := c.loop.Now()
	if c.busyUntil > at {
		at = c.busyUntil
	}
	c.loop.At(at, c.drainFn)
}

func (c *Core) drain() {
	var w Work
	switch {
	case len(c.softirq) > 0:
		w = c.softirq[0]
		copy(c.softirq, c.softirq[1:])
		c.softirq = c.softirq[:len(c.softirq)-1]
	case len(c.procs) > 0:
		w = c.procs[0]
		copy(c.procs, c.procs[1:])
		c.procs = c.procs[:len(c.procs)-1]
	default:
		c.pumping = false
		return
	}
	start := c.loop.Now()
	t := &c.task
	*t = Task{core: c, now: start}
	c.works++
	w(t)
	elapsed := t.now - start
	c.busyTime += elapsed
	c.spinTime += t.spin
	c.busyUntil = t.now
	// The item is over: a *Task kept past it must fail loudly, not
	// charge the next item's time.
	t.core = nil
	if c.QueueLen() > 0 {
		c.loop.At(c.busyUntil, c.drainFn)
	} else {
		c.pumping = false
	}
}

// Task is the execution context of one work item. It accumulates
// simulated time as the work charges costs; the owning core is busy
// until the task's final virtual time. Task implements lock.Context
// and cache.Context.
//
// A *Task is valid only while its work item runs: the core reuses the
// same Task for its next item, and every method that reaches the core
// panics once the item has returned.
type Task struct {
	core *Core
	now  sim.Time
	spin sim.Time
}

// Now returns the task's current virtual time.
func (t *Task) Now() sim.Time { return t.now }

// Charge advances the task's virtual time by d of useful work,
// stretched by the machine's memory-pressure work scale.
func (t *Task) Charge(d sim.Time) {
	if d < 0 {
		panic("cpu: negative charge")
	}
	m := t.core.machine
	t.now += sim.Time(int64(d) * m.scaleNum / m.scaleDen)
}

// SetWorkScale sets the memory-pressure multiplier as a rational
// num/den (e.g. 118/100 for an 18% stretch).
func (m *Machine) SetWorkScale(num, den int64) {
	if num <= 0 || den <= 0 {
		panic("cpu: invalid work scale")
	}
	m.scaleNum, m.scaleDen = num, den
}

// Spin advances the task's virtual time by d of busy-waiting.
func (t *Task) Spin(d sim.Time) {
	if d < 0 {
		panic("cpu: negative spin")
	}
	t.now += d
	t.spin += d
}

// CoreID returns the executing core's id.
func (t *Task) CoreID() int { return t.core.id }

// Core returns the executing core.
func (t *Task) Core() *Core { return t.core }

// Machine returns the machine the core belongs to.
func (t *Task) Machine() *Machine { return t.core.machine }

// Defer schedules fn to run (outside any core) at the task's current
// virtual time — e.g. a packet leaving the NIC when the TX path
// finishes. fn runs as a plain event, not charged to any core.
func (t *Task) Defer(fn func()) {
	t.core.loop.At(t.now, fn)
}

// DeferArg is the allocation-free form of Defer: fn is a long-lived
// callback and arg the per-event value (see sim.Loop.AtArg).
func (t *Task) DeferArg(fn func(any), arg any) {
	t.core.loop.AtArg(t.now, fn, arg)
}

// Machine is a set of cores sharing an event loop (one simulated box).
type Machine struct {
	loop  *sim.Loop
	cores []*Core

	// Work scaling models shared memory-system pressure: with more
	// active cores the uncore/DRAM path queues and every cycle of
	// work takes slightly longer. Charged work is multiplied by
	// scaleNum/scaleDen (1/1 by default).
	scaleNum, scaleDen int64
}

// NewMachine creates n cores on the given loop.
func NewMachine(loop *sim.Loop, n int) *Machine {
	if n <= 0 {
		panic(fmt.Sprintf("cpu: invalid core count %d", n))
	}
	m := &Machine{loop: loop, scaleNum: 1, scaleDen: 1}
	m.cores = make([]*Core, n)
	for i := range m.cores {
		c := &Core{id: i, loop: loop, machine: m}
		c.drainFn = c.drain
		m.cores[i] = c
	}
	return m
}

// Loop returns the event loop.
func (m *Machine) Loop() *sim.Loop { return m.loop }

// NumCores returns the core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// Cores returns all cores.
func (m *Machine) Cores() []*Core { return m.cores }

// BusySnapshot returns each core's cumulative busy time; two
// snapshots bracket a measurement window.
func (m *Machine) BusySnapshot() []sim.Time {
	s := make([]sim.Time, len(m.cores))
	for i, c := range m.cores {
		s[i] = c.busyTime
	}
	return s
}

// Utilization converts two busy snapshots over a window into per-core
// utilization fractions in [0, 1].
func Utilization(before, after []sim.Time, window sim.Time) []float64 {
	u := make([]float64, len(before))
	if window <= 0 {
		return u
	}
	for i := range u {
		f := float64(after[i]-before[i]) / float64(window)
		if f > 1 {
			f = 1
		}
		u[i] = f
	}
	return u
}
