package lock

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fastsocket/internal/sim"
)

// fakeCtx is a minimal lock.Context for tests.
type fakeCtx struct {
	now  sim.Time
	spin sim.Time
	core int
}

func (f *fakeCtx) Now() sim.Time     { return f.now }
func (f *fakeCtx) Spin(d sim.Time)   { f.now += d; f.spin += d }
func (f *fakeCtx) Charge(d sim.Time) { f.now += d }
func (f *fakeCtx) CoreID() int       { return f.core }

func TestUncontendedAcquire(t *testing.T) {
	l := New("test", 0)
	c := &fakeCtx{now: 100, core: 0}
	l.acquire(c)
	c.Charge(50)
	l.release(c)
	st := l.Stats()
	if st.Acquisitions != 1 || st.Contended != 0 {
		t.Errorf("stats = %+v, want 1 acquisition, 0 contended", st)
	}
	if st.HoldTime != 50 {
		t.Errorf("HoldTime = %v, want 50", st.HoldTime)
	}
	if c.spin != 0 {
		t.Errorf("uncontended acquire spun %v", c.spin)
	}
}

func TestContendedAcquireSpins(t *testing.T) {
	l := New("test", 0)
	a := &fakeCtx{now: 100, core: 0}
	l.acquire(a)
	a.Charge(200)
	l.release(a) // lock free at 300

	b := &fakeCtx{now: 150, core: 1}
	l.acquire(b)
	if b.now != 300 {
		t.Errorf("contender resumed at %v, want 300", b.now)
	}
	if b.spin != 150 {
		t.Errorf("contender spun %v, want 150", b.spin)
	}
	st := l.Stats()
	if st.Contended != 1 {
		t.Errorf("Contended = %d, want 1", st.Contended)
	}
	if st.WaitTime != 150 {
		t.Errorf("WaitTime = %v, want 150", st.WaitTime)
	}
	l.release(b)
}

func TestBouncePenaltyChargedCrossCore(t *testing.T) {
	l := New("test", 40)
	a := &fakeCtx{now: 0, core: 0}
	l.acquire(a)
	l.release(a)

	// Same core again: no bounce.
	a2 := &fakeCtx{now: 10, core: 0}
	l.acquire(a2)
	if a2.now != 10 {
		t.Errorf("same-core reacquire charged %v", a2.now-10)
	}
	l.release(a2)

	// Different core: bounce penalty charged while holding.
	b := &fakeCtx{now: 20, core: 1}
	l.acquire(b)
	if b.now != 60 {
		t.Errorf("cross-core acquire time = %v, want 60 (20+40)", b.now)
	}
	l.release(b)
	if got := l.Stats().Bounces; got != 1 {
		t.Errorf("Bounces = %d, want 1", got)
	}
}

func TestRecursiveAcquirePanics(t *testing.T) {
	l := New("test", 0)
	c := &fakeCtx{}
	// Intentional unreleased acquire; the test ends in a panic.
	l.acquire(c)
	defer func() {
		if recover() == nil {
			t.Error("recursive acquire did not panic")
		}
	}()
	// Deliberate recursive acquire to assert the panic.
	l.acquire(c)
}

func TestReleaseByNonHolderPanics(t *testing.T) {
	l := New("test", 0)
	a := &fakeCtx{core: 0}
	b := &fakeCtx{core: 1}
	// Intentionally left held; the mismatched release panics.
	l.acquire(a)
	defer func() {
		if recover() == nil {
			t.Error("release by non-holder did not panic")
		}
	}()
	l.release(b)
}

func TestWith(t *testing.T) {
	l := New("test", 0)
	c := &fakeCtx{now: 5}
	ran := false
	l.With(c, func() {
		ran = true
		c.Charge(10)
	})
	if !ran {
		t.Fatal("With did not run fn")
	}
	if l.Stats().HoldTime != 10 {
		t.Errorf("HoldTime = %v, want 10", l.Stats().HoldTime)
	}
}

func TestHold(t *testing.T) {
	l := New("test", 0)
	a := &fakeCtx{now: 100, core: 0}
	l.Hold(a, 50)
	if a.now != 150 || l.Stats().HoldTime != 50 {
		t.Errorf("holder at %v with HoldTime %v, want 150 and 50", a.now, l.Stats().HoldTime)
	}
	// A contender inside the hold spins to its end, then pays its own d.
	b := &fakeCtx{now: 120, core: 1}
	l.Hold(b, 10)
	if b.spin != 30 || b.now != 160 {
		t.Errorf("contender spun %v and ended at %v, want 30 and 160", b.spin, b.now)
	}
}

func TestWithAndHoldAllocateNothing(t *testing.T) {
	// fsvet's alloc pass reads a With body as code of the function
	// that contains it, with no closure site of its own. That holds
	// only while With keeps no reference to fn, so the compiler can
	// leave a capturing literal on the caller's stack.
	l := New("test", 0)
	c := &fakeCtx{}
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		c.now += PruneHorizon // keep the timeline short
		l.With(c, func() {
			n++
			c.Charge(1)
		})
		l.Hold(c, 1)
	})
	if allocs != 0 {
		t.Errorf("With and Hold allocate %.1f times per call pair, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("With did not run its body")
	}
}

func TestStatsSubAndReset(t *testing.T) {
	l := New("test", 0)
	c := &fakeCtx{}
	l.With(c, func() { c.Charge(5) })
	before := l.Stats()
	l.With(c, func() { c.Charge(7) })
	d := l.Stats().Sub(before)
	if d.Acquisitions != 1 || d.HoldTime != 7 {
		t.Errorf("delta = %+v, want 1 acquisition / 7 hold", d)
	}
	l.Reset()
	if l.Stats() != (Stats{}) {
		t.Errorf("Reset left %+v", l.Stats())
	}
}

func TestShardedDistributesContention(t *testing.T) {
	s := NewSharded("ehash", 4, 0)
	// Different keys map to different shards at least sometimes.
	seen := map[*SpinLock]bool{}
	for k := uint64(0); k < 16; k++ {
		seen[s.Shard(k)] = true
	}
	if len(seen) != 4 {
		t.Errorf("16 sequential keys hit %d shards, want 4", len(seen))
	}
	// Aggregate stats sum across shards.
	c := &fakeCtx{}
	for k := uint64(0); k < 8; k++ {
		l := s.Shard(k)
		l.acquire(c)
		l.release(c)
	}
	if got := s.Stats().Acquisitions; got != 8 {
		t.Errorf("aggregate Acquisitions = %d, want 8", got)
	}
}

func TestShardedBadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSharded(3) did not panic")
		}
	}()
	NewSharded("x", 3, 0)
}

func TestSerializationBound(t *testing.T) {
	// N contexts hammering one lock serialize: the last release time
	// is at least N * hold.
	l := New("hot", 0)
	const hold = 100
	const n = 16
	var last sim.Time
	for i := 0; i < n; i++ {
		c := &fakeCtx{now: 0, core: i}
		l.acquire(c)
		c.Charge(hold)
		l.release(c)
		last = c.now
	}
	if last < n*hold {
		t.Errorf("final release at %v, want >= %v", last, sim.Time(n*hold))
	}
	if got := l.Stats().Contended; got != n-1 {
		t.Errorf("Contended = %d, want %d", got, n-1)
	}
}

func TestTimelineIntervalsDisjointProperty(t *testing.T) {
	// Property: after any sequence of acquisitions at arbitrary
	// virtual times with arbitrary hold durations, the lock's busy
	// timeline stays sorted with a strict gap between neighbours —
	// the invariant that makes serialization sound and that lets
	// insert merge only the new interval's neighbours. Times span
	// about two PruneHorizons so that prune runs.
	var pruned bool
	f := func(ops []uint16) bool {
		l := New("prop", 0)
		for i, op := range ops {
			at := sim.Time(op) * 64
			hold := (sim.Time(op%97) + 1) * sim.Microsecond
			for _, iv := range l.intervals[l.head:] {
				if iv.end < at-PruneHorizon {
					pruned = true
				}
			}
			c := &fakeCtx{now: at, core: i % 8}
			l.acquire(c)
			c.Charge(hold)
			l.release(c)
			tl := l.intervals[l.head:]
			for j := 1; j < len(tl); j++ {
				if prev, cur := tl[j-1], tl[j]; cur.start <= prev.end {
					return false // overlap or touching neighbours
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if !pruned {
		t.Error("no acquisition pruned the timeline; widen the times")
	}
}

// refTimeline is the linear timeline SpinLock kept before slotAt and
// insert searched it and prune stopped copying: each operation walks
// or rewrites the whole slice. It is the reference the randomized test
// checks the lock against.
type refTimeline struct{ intervals []interval }

func (r *refTimeline) slotAt(ta, avgHold sim.Time) sim.Time {
	need := avgHold
	if need <= 0 {
		need = 1
	}
	t := ta
	for _, iv := range r.intervals {
		if iv.end <= t {
			continue
		}
		if iv.start <= t {
			t = iv.end
			continue
		}
		if iv.start-t >= need {
			break
		}
		t = iv.end
	}
	return t
}

func (r *refTimeline) prune(ta sim.Time) {
	cut := 0
	for cut < len(r.intervals) && r.intervals[cut].end < ta-PruneHorizon {
		cut++
	}
	if cut > 0 {
		r.intervals = append(r.intervals[:0], r.intervals[cut:]...)
	}
}

func (r *refTimeline) insert(start, end sim.Time) {
	i := len(r.intervals)
	for i > 0 && r.intervals[i-1].start > start {
		i--
	}
	r.intervals = append(r.intervals, interval{})
	copy(r.intervals[i+1:], r.intervals[i:])
	r.intervals[i] = interval{start, end}
	out := r.intervals[:0]
	for _, iv := range r.intervals {
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	r.intervals = out
}

func TestTimelineMatchesLinearReference(t *testing.T) {
	// Random insert/prune/slotAt/Reset sequences on a SpinLock and on
	// the linear reference must leave identical timelines and give
	// identical slots after every operation. Each phase moves the
	// clock at its own pace, from many intervals per PruneHorizon to a
	// few, so the timeline grows, shrinks and is pruned empty.
	phases := []struct {
		step, hold sim.Time // mean clock advance per operation, mean hold
		ops        int
	}{
		{step: 2 * sim.Microsecond, hold: sim.Microsecond, ops: 6000},
		{step: 20 * sim.Microsecond, hold: 5 * sim.Microsecond, ops: 3000},
		{step: 300 * sim.Microsecond, hold: 30 * sim.Microsecond, ops: 300},
		{step: 500, hold: 400, ops: 6000},
	}
	l := New("ref", 0)
	ref := &refTimeline{}
	rng := rand.New(rand.NewSource(1))
	var clock sim.Time
	var waits, equalStarts, zeroHolds, swallows, pruneCompactions, appendCompactions int
	for round := 0; round < 3; round++ {
		for p, ph := range phases {
			for op := 0; op < ph.ops; op++ {
				clock += sim.Time(rng.Int63n(int64(2 * ph.step)))
				headBefore, capBefore := l.head, cap(l.intervals)
				kind := "insert"
				switch r := rng.Intn(1000); {
				case r < 600:
					// Most releases land near the newest interval; some
					// fall back into the timeline or reuse a start.
					start := clock - sim.Time(rng.Int63n(int64(4*ph.step)+1))
					if rng.Intn(8) == 0 && len(ref.intervals) > 0 {
						start = ref.intervals[rng.Intn(len(ref.intervals))].start
						equalStarts++
					}
					var hold sim.Time
					switch rng.Intn(10) {
					case 0:
						zeroHolds++
					case 1:
						hold = 10 * ph.hold // swallows the intervals after start
					default:
						hold = sim.Time(rng.Int63n(int64(2 * ph.hold)))
					}
					before := len(ref.intervals)
					l.insert(start, start+hold)
					ref.insert(start, start+hold)
					if len(ref.intervals) < before {
						swallows++
					}
				case r < 850:
					kind = "prune"
					ta := clock - sim.Time(rng.Int63n(int64(ph.step)+1))
					l.prune(ta)
					ref.prune(ta)
				case r < 999:
					kind = "slotAt"
					l.avgHold = sim.Time(rng.Int63n(int64(2*ph.hold) + 1))
					ta := clock - sim.Time(rng.Int63n(int64(PruneHorizon)))
					got, want := l.slotAt(ta), ref.slotAt(ta, l.avgHold)
					if got != want {
						t.Fatalf("round %d phase %d op %d: slotAt(%v) avgHold %v = %v, reference %v",
							round, p, op, ta, l.avgHold, got, want)
					}
					if got > ta {
						waits++
					}
				default:
					kind = "Reset"
					l.Reset()
					ref.intervals = ref.intervals[:0]
				}
				if got := l.intervals[l.head:]; !slices.Equal(got, ref.intervals) {
					t.Fatalf("round %d phase %d op %d (%s): timeline %v, reference %v",
						round, p, op, kind, got, ref.intervals)
				}
				if headBefore > 0 && l.head == 0 && kind != "Reset" {
					switch {
					case kind == "prune":
						pruneCompactions++
					case cap(l.intervals) == capBefore:
						appendCompactions++
					}
				}
			}
		}
	}
	if waits == 0 || equalStarts == 0 || zeroHolds == 0 || swallows == 0 || pruneCompactions == 0 || appendCompactions == 0 {
		t.Errorf("vacuous run: %d waiting slots, %d equal starts, %d zero-length holds, %d swallowing holds, %d prune compactions, %d append compactions",
			waits, equalStarts, zeroHolds, swallows, pruneCompactions, appendCompactions)
	}
}

func TestEarlyAcquirerUsesGap(t *testing.T) {
	// A context whose virtual time precedes the latest reservation
	// acquires without waiting when a real gap existed there — the
	// event-order fairness rule.
	l := New("gap", 0)
	late := &fakeCtx{now: 1000, core: 0}
	l.acquire(late)
	late.Charge(100)
	l.release(late) // busy [1000, 1100]

	early := &fakeCtx{now: 200, core: 1}
	l.acquire(early)
	if early.spin != 0 {
		t.Errorf("early acquirer spun %v against a future reservation", early.spin)
	}
	early.Charge(50)
	l.release(early) // busy [200, 250] + [1000, 1100]

	// A third acquirer inside the early hold's window must wait.
	mid := &fakeCtx{now: 220, core: 2}
	l.acquire(mid)
	if mid.now != 250 {
		t.Errorf("mid acquirer resumed at %v, want 250", mid.now)
	}
	l.release(mid)
}

func TestSaturatedLockSerializes(t *testing.T) {
	// Offered demand > 1: the timeline must push completions out so
	// aggregate throughput through the lock is bounded by 1/hold.
	l := New("sat", 0)
	const hold = 100
	var maxEnd sim.Time
	// 64 acquirers all arriving within [0, 100): total demand 6400ns
	// over a 100ns window.
	for i := 0; i < 64; i++ {
		c := &fakeCtx{now: sim.Time(i), core: i % 8}
		l.acquire(c)
		c.Charge(hold)
		l.release(c)
		if c.now > maxEnd {
			maxEnd = c.now
		}
	}
	if maxEnd < 64*hold {
		t.Errorf("64 x %dns holds finished by %v — lock did not serialize", hold, maxEnd)
	}
}
