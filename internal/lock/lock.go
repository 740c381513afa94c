// Package lock models kernel spinlocks with lockstat-style accounting.
//
// These are not real synchronization primitives: the whole simulation
// is single-threaded. A SpinLock keeps a timeline of busy intervals in
// simulated time; an acquirer takes the earliest free slot at or after
// its own virtual timestamp, "spinning" (burning its core's cycles)
// until then. A wait is recorded as a contended acquisition — the
// statistic the paper's Table 1 reports from /proc/lock_stat.
//
// Two memory-system effects ride on top: a cross-core handoff charges
// a cache-line transfer penalty to the new holder (detected by recency
// of other-core acquisitions, not event order), and deep spin queues
// degrade the handoff further (ticket-spinlock line ping-pong). These
// are the mechanisms that make a hot global lock's effective cost grow
// with core count and produce the baseline kernel's throughput
// collapse beyond 12 cores (Figure 4a).
package lock

import "fastsocket/internal/sim"

// Context is the execution context an acquirer runs in. It is
// implemented by cpu.Task; the indirection keeps this package free of
// a dependency on the CPU model.
type Context interface {
	// Now returns the context's current virtual time (task start plus
	// everything charged so far).
	Now() sim.Time
	// Spin charges d of busy-wait time to the executing core.
	Spin(d sim.Time)
	// Charge charges d of useful work time to the executing core.
	Charge(d sim.Time)
	// CoreID identifies the executing core.
	CoreID() int
}

// Stats is a snapshot of a lock's lockstat counters.
type Stats struct {
	Acquisitions uint64   // total acquisitions
	Contended    uint64   // acquisitions that had to wait
	WaitTime     sim.Time // total simulated time spent spinning
	HoldTime     sim.Time // total simulated time the lock was held
	Bounces      uint64   // cross-core ownership transfers
}

// Sub returns the counter deltas since an earlier snapshot.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Acquisitions: s.Acquisitions - prev.Acquisitions,
		Contended:    s.Contended - prev.Contended,
		WaitTime:     s.WaitTime - prev.WaitTime,
		HoldTime:     s.HoldTime - prev.HoldTime,
		Bounces:      s.Bounces - prev.Bounces,
	}
}

type holdRec struct {
	c  Context
	at sim.Time
}

type interval struct{ start, end sim.Time }

// PruneHorizon bounds how far back a lock remembers busy intervals.
// Tasks in the discrete-event model can run ahead of the global clock
// by at most one task length, so intervals older than the horizon can
// never affect a future acquirer.
const PruneHorizon = 2 * sim.Millisecond

// SpinLock is a simulated kernel spinlock.
//
// Contention semantics: the lock keeps a timeline of busy intervals
// (merged, sorted). An acquirer at virtual time ta takes the earliest
// instant >= ta not covered by an existing interval, spinning for the
// difference. This preserves true serialization (saturated locks
// queue) while letting an acquirer that ran *earlier in virtual time*
// than the latest holder use the gap that physically existed then —
// tasks in the event model execute ahead of each other, and a naive
// single free-at timestamp would anachronistically block earlier work
// on other cores.
type SpinLock struct {
	name string

	// intervals[head:] is the timeline: sorted by start, with a
	// strict gap between neighbours (each start > the previous end),
	// so the ends are sorted too. intervals[:head] is the pruned
	// prefix, reclaimed by compact.
	intervals []interval
	head      int
	holds     []holdRec
	avgHold   sim.Time // EWMA of hold durations, sizes gap-fitting

	// recent1/recent2 track the most recent acquisition and the most
	// recent acquisition by a *different* core, for bounce detection:
	// if any other core took the lock within BounceHorizon of us, the
	// line has left our cache regardless of event execution order.
	recent1, recent2 struct {
		core int
		at   sim.Time
	}

	// BouncePenalty is the cache-line transfer cost charged on a
	// cross-core handoff. Zero disables the model.
	BouncePenalty sim.Time

	stats Stats
}

// BounceHorizon is how long a lock's cache line plausibly survives in
// the holder's cache under concurrent traffic: another core acquiring
// within this window of us means we re-fetch the line.
const BounceHorizon = 25 * sim.Microsecond

// New returns a named spinlock. The name appears in lockstat reports.
func New(name string, bouncePenalty sim.Time) *SpinLock {
	l := &SpinLock{name: name, BouncePenalty: bouncePenalty}
	l.recent1.core = -1
	l.recent2.core = -1
	return l
}

// Name returns the lockstat name.
func (l *SpinLock) Name() string { return l.name }

// Stats returns a snapshot of the lockstat counters.
func (l *SpinLock) Stats() Stats { return l.stats }

// Reset restores the lock to its freshly constructed state (empty
// timeline, no recency, zero counters), keeping name and penalty.
// Used when the struct the lock protects is recycled through a free
// list: a reset lock is observationally identical to lock.New's.
func (l *SpinLock) Reset() {
	l.intervals, l.head = l.intervals[:0], 0
	l.holds = l.holds[:0]
	l.avgHold = 0
	l.recent1.core, l.recent1.at = -1, 0
	l.recent2.core, l.recent2.at = -1, 0
	l.stats = Stats{}
}

// slotAt returns the earliest instant >= ta at which the lock is free
// for an expected hold duration on the reserved timeline.
func (l *SpinLock) slotAt(ta sim.Time) sim.Time {
	need := l.avgHold
	if need <= 0 {
		need = 1
	}
	tl := l.intervals[l.head:]
	// Intervals ending at or before ta cannot delay the acquirer; the
	// ends are sorted, so skip them by binary search.
	lo, hi := 0, len(tl)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if tl[m].end <= ta {
			lo = m + 1
		} else {
			hi = m
		}
	}
	t := ta
	for _, iv := range tl[lo:] {
		if iv.end <= t {
			continue
		}
		if iv.start <= t {
			t = iv.end
			continue
		}
		if iv.start-t >= need {
			// A gap wide enough for a typical hold: take it.
			break
		}
		t = iv.end
	}
	return t
}

// prune drops intervals that no future acquirer can observe.
func (l *SpinLock) prune(ta sim.Time) {
	for l.head < len(l.intervals) && l.intervals[l.head].end < ta-PruneHorizon {
		l.head++
	}
	// Reclaim the dead prefix once it outgrows the live part, so the
	// copying stays amortised constant per dropped interval.
	if l.head > 0 && l.head >= len(l.intervals)-l.head {
		l.compact()
	}
}

// compact moves the timeline to the front of its backing array.
func (l *SpinLock) compact() {
	n := copy(l.intervals, l.intervals[l.head:])
	l.intervals, l.head = l.intervals[:n], 0
}

// insert merges [start, end] into the timeline.
func (l *SpinLock) insert(start, end sim.Time) {
	tl := l.intervals[l.head:]
	// lo is the first interval starting after start. Only its
	// predecessor and the run from lo that starts at or before the
	// merged end can touch the new interval.
	lo, hi := 0, len(tl)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if tl[m].start <= start {
			lo = m + 1
		} else {
			hi = m
		}
	}
	first, last := lo, lo
	if lo > 0 && start <= tl[lo-1].end {
		first = lo - 1
		start = tl[first].start
		end = max(end, tl[first].end)
	}
	for last < len(tl) && tl[last].start <= end {
		end = max(end, tl[last].end)
		last++
	}
	// Splice: tl[first:last] becomes the one merged interval.
	if first == last {
		if len(l.intervals) == cap(l.intervals) && l.head > 0 {
			// Reuse the dead prefix before append grows the array.
			l.compact()
		}
		l.intervals = append(l.intervals, interval{})
		tl = l.intervals[l.head:]
		copy(tl[first+1:], tl[first:])
	} else if last-first > 1 {
		n := copy(tl[first+1:], tl[last:])
		l.intervals = l.intervals[:l.head+first+1+n]
	}
	tl[first] = interval{start, end}
}

// acquire takes the lock in context c, spinning (in simulated time)
// until the timeline has a free slot. Panics on recursive acquisition
// by the same context.
func (l *SpinLock) acquire(c Context) {
	lockdepAcquire(l, c)
	for _, h := range l.holds {
		if h.c == c {
			panic("lock: recursive acquisition of " + l.name)
		}
	}
	l.stats.Acquisitions++
	now := c.Now()
	l.prune(now)
	var waiters sim.Time
	if slot := l.slotAt(now); slot > now {
		wait := slot - now
		c.Spin(wait)
		l.stats.Contended++
		l.stats.WaitTime += wait
		if l.avgHold > 0 {
			waiters = wait / l.avgHold // queue-depth estimate
			if waiters > 32 {
				waiters = 32
			}
		}
	}
	// The hold window starts here: the cache-line transfer and any
	// contention-induced slowdown happen while others spin.
	start := c.Now()
	if l.bounced(c.CoreID(), start) {
		l.stats.Bounces++
		if l.BouncePenalty > 0 {
			// Pulling the lock word (and the data it protects)
			// across the interconnect costs the new holder time
			// while holding the lock, inflating everyone's wait.
			c.Charge(l.BouncePenalty)
			// Spinners hammering the line slow the handoff further
			// (ticket-spinlock ping-pong); this positive feedback is
			// what collapses a saturated lock's throughput as cores
			// are added (the paper's Figure 4a baseline).
			if waiters > 1 {
				c.Charge(l.BouncePenalty * (waiters - 1) / 4)
			}
		}
	}
	l.noteAcquire(c.CoreID(), start)
	l.holds = append(l.holds, holdRec{c: c, at: start})
}

// bounced reports whether core's copy of the lock line is stale: some
// other core acquired the lock recently (first acquisitions ever also
// count — a cold fetch).
func (l *SpinLock) bounced(core int, at sim.Time) bool {
	if l.recent1.core == -1 {
		return false // never held: creation-time cold miss is charged elsewhere
	}
	if l.recent1.core != core && l.recent1.at >= at-BounceHorizon {
		return true
	}
	if l.recent2.core != -1 && l.recent2.core != core && l.recent2.at >= at-BounceHorizon {
		return true
	}
	return false
}

func (l *SpinLock) noteAcquire(core int, at sim.Time) {
	if l.recent1.core == core || l.recent1.core == -1 {
		l.recent1.core = core
		if at > l.recent1.at {
			l.recent1.at = at
		}
		return
	}
	l.recent2 = l.recent1
	l.recent1.core = core
	l.recent1.at = at
}

// release drops the lock. The release time is the context's current
// virtual time, so the effective hold duration is whatever the holder
// charged between acquire and release.
func (l *SpinLock) release(c Context) {
	lockdepRelease(l, c)
	idx := -1
	for i, h := range l.holds {
		if h.c == c {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("lock: release of " + l.name + " by non-holder")
	}
	h := l.holds[idx]
	l.holds = append(l.holds[:idx], l.holds[idx+1:]...)
	now := c.Now()
	dur := now - h.at
	l.stats.HoldTime += dur
	if l.avgHold == 0 {
		l.avgHold = dur
	} else {
		l.avgHold += (dur - l.avgHold) / 8
	}
	l.insert(h.at, now)
}

// Hold takes the lock in context c, charges d of work under it and
// releases it: the critical section of a site whose only work under
// the lock is its cost.
func (l *SpinLock) Hold(c Context, d sim.Time) {
	l.acquire(c)
	c.Charge(d)
	l.release(c)
}

// With runs fn while holding the lock in context c. Hold and With are
// the only ways to take a lock, so every acquisition is released by
// the call that made it. fn is a function literal written at the call
// site; results leave it through captured locals. With does not keep
// fn, so the compiler leaves such a literal on the caller's stack.
func (l *SpinLock) With(c Context, fn func()) {
	l.acquire(c)
	fn()
	l.release(c)
}

// Sharded is a set of spinlocks indexed by hash, modelling the
// finer-grained locking mainline Linux adopted between 2.6.32 and
// 3.13 (per-bucket / per-superblock locks instead of one global
// dcache_lock). Stats aggregate across all shards so lockstat output
// still reports one line.
type Sharded struct {
	name   string
	shards []*SpinLock
}

// NewSharded returns n spinlocks behind one name. n must be a power
// of two.
func NewSharded(name string, n int, bouncePenalty sim.Time) *Sharded {
	if n <= 0 || n&(n-1) != 0 {
		panic("lock: shard count must be a positive power of two")
	}
	s := &Sharded{name: name, shards: make([]*SpinLock, n)}
	for i := range s.shards {
		s.shards[i] = New(name, bouncePenalty)
	}
	return s
}

// Shard returns the lock for the given hash key.
func (s *Sharded) Shard(key uint64) *SpinLock {
	return s.shards[key&uint64(len(s.shards)-1)]
}

// Name returns the lockstat name.
func (s *Sharded) Name() string { return s.name }

// Stats sums the counters across shards.
func (s *Sharded) Stats() Stats {
	var sum Stats
	for _, l := range s.shards {
		st := l.Stats()
		sum.Acquisitions += st.Acquisitions
		sum.Contended += st.Contended
		sum.WaitTime += st.WaitTime
		sum.HoldTime += st.HoldTime
		sum.Bounces += st.Bounces
	}
	return sum
}
