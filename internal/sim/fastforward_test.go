package sim

import (
	"sort"
	"testing"
)

// runUntilCascading is RunUntil without the dueBy fast-forward guard —
// the pre-fast-forward behavior, kept as the regression baseline: its
// next() call cascades wheel slots toward the heap even when the
// surfaced event is beyond t.
func runUntilCascading(l *Loop, t Time) {
	l.stopped = false
	for !l.stopped {
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

// TestRunUntilFastForwardOrderIdentical drives two identically-seeded
// loops — one with plain Run, one window-at-a-time through RunUntil
// with awkward window sizes — and requires the exact same (at, seq)
// firing sequence. This is the firing-order regression gate for the
// fast-forward path.
func TestRunUntilFastForwardOrderIdentical(t *testing.T) {
	type ref struct {
		at  Time
		seq int
	}
	spans := []Time{
		100 * Nanosecond, // same-slot, heap
		10 * Microsecond, // around the level-0 slot boundary
		Millisecond,      // level 0/1
		80 * Millisecond, // level 1/2
		5 * Second,       // level 2/3
	}
	build := func() (*Loop, *[]ref) {
		l := NewLoop()
		rng := NewRand(11)
		fired := &[]ref{}
		seq := 0
		schedule := func(base Time) {
			for i := 0; i < 300; i++ {
				at := base + rng.Duration(0, spans[rng.Intn(len(spans))])
				s := seq
				seq++
				l.At(at, func() { *fired = append(*fired, ref{l.Now(), s}) })
			}
		}
		schedule(0)
		l.At(40*Millisecond, func() { schedule(l.Now()) })
		seq++
		return l, fired
	}

	lRun, gotRun := build()
	lRun.Run()

	lWin, gotWin := build()
	// Windows chosen to land on and between slot boundaries at several
	// levels; the final Run drains the tail.
	for t := Time(777 * Microsecond); t < 6*Second; t = t*2 + 13*Microsecond {
		lWin.RunUntil(t)
	}
	lWin.Run()

	if len(*gotRun) != len(*gotWin) {
		t.Fatalf("windowed run fired %d events, plain run fired %d", len(*gotWin), len(*gotRun))
	}
	for i := range *gotRun {
		if (*gotRun)[i] != (*gotWin)[i] {
			t.Fatalf("firing[%d]: windowed (t=%v seq=%d), plain (t=%v seq=%d)",
				i, (*gotWin)[i].at, (*gotWin)[i].seq, (*gotRun)[i].at, (*gotRun)[i].seq)
		}
	}
	if !sort.SliceIsSorted(*gotWin, func(i, j int) bool {
		a, b := (*gotWin)[i], (*gotWin)[j]
		return a.at < b.at || (a.at == b.at && a.seq < b.seq)
	}) {
		t.Error("windowed firing sequence not in (at, seq) order")
	}
}

// TestRunUntilFastForwardSkipsIdleWheel pins the fast path itself: a
// loop whose only pending work is far-future wheel timers must absorb
// window-at-a-time polling with zero cascades, and the timers must
// still fire at their exact deadlines afterwards. The 150/151ms
// deadlines land in the level-2 slot starting at 2<<26 ns ≈ 134.2ms,
// so polls up to 133ms stay strictly below every occupied slot's
// start (the fast path's no-cascade precondition).
func TestRunUntilFastForwardSkipsIdleWheel(t *testing.T) {
	l := NewLoop()
	var fired []Time
	deadlines := []Time{150 * Millisecond, 151 * Millisecond, 3 * Second}
	for _, d := range deadlines {
		d := d
		l.At(d, func() { fired = append(fired, l.Now()) })
	}
	if got := l.SchedStats().ScheduledWheel; got != 3 {
		t.Fatalf("expected all 3 timers in the wheel tier, ScheduledWheel = %d", got)
	}

	for w := Millisecond; w <= 133*Millisecond; w += Millisecond {
		l.RunUntil(w)
	}
	st := l.SchedStats()
	if st.Cascades != 0 {
		t.Errorf("idle polling below the first occupied slot cascaded %d slots, want 0", st.Cascades)
	}
	if st.FastForwards != 133 {
		t.Errorf("FastForwards = %d, want 133 (one per idle window)", st.FastForwards)
	}
	if len(fired) != 0 {
		t.Fatalf("%d timers fired before their deadlines", len(fired))
	}
	if l.Now() != 133*Millisecond {
		t.Fatalf("clock = %v after fast-forwarding, want 133ms", l.Now())
	}

	l.RunUntil(200 * Millisecond)
	if len(fired) != 2 || fired[0] != deadlines[0] || fired[1] != deadlines[1] {
		t.Fatalf("after RunUntil(200ms) fired = %v, want exactly %v", fired, deadlines[:2])
	}
	l.Run()
	if len(fired) != 3 || fired[2] != deadlines[2] {
		t.Fatalf("final firing = %v, want %v", fired, deadlines)
	}
}

// TestRunUntilFastForwardThenSchedule checks that scheduling resumes
// correctly after the clock has been fast-forwarded across many empty
// level-0 slots (insertion routing is relative to the new now).
func TestRunUntilFastForwardThenSchedule(t *testing.T) {
	l := NewLoop()
	l.At(500*Millisecond, func() {})
	l.RunUntil(123 * Millisecond) // idle fast-forward, no cascades
	if got := l.SchedStats().Cascades; got != 0 {
		t.Fatalf("fast-forward cascaded %d slots", got)
	}
	var order []int
	l.After(100*Microsecond, func() { order = append(order, 1) })
	l.After(50*Millisecond, func() { order = append(order, 2) })
	l.After(Microsecond, func() { order = append(order, 0) })
	l.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("post-fast-forward firing order = %v, want [0 1 2]", order)
	}
}

// benchmarkSparsePoll models the sparse long-lived workload: a few
// hundred connections whose only pending events are keep-alive timers
// ~200ms out, while a harness polls the loop in 1ms windows (the
// experiment drivers' pattern) and a few connections per window see
// traffic that re-arms their timer (cancel + reschedule). With the
// fast-forward the idle polls are O(levels) bitmap peeks and the
// timers stay wheel-resident, so every cancel is an O(1) unlink;
// without it, polling migrates timers heapward, where each re-arm
// leaves a stale heap entry behind.
func benchmarkSparsePoll(b *testing.B, fastForward bool) {
	const (
		conns     = 256
		keepalive = 200 * Millisecond
		windows   = 300
		rearms    = 8 // connections seeing traffic per window
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := NewLoop()
		timers := make([]Event, conns)
		for j := range timers {
			timers[j] = l.At(keepalive+Time(j)*1563*Nanosecond, func() {})
		}
		next := 0
		for w := 0; w < windows; w++ {
			t := Time(w+1) * Millisecond
			if fastForward {
				l.RunUntil(t)
			} else {
				runUntilCascading(l, t)
			}
			for r := 0; r < rearms; r++ {
				c := next % conns
				next++
				timers[c].Cancel()
				timers[c] = l.After(keepalive, func() {})
			}
		}
		for _, ev := range timers {
			ev.Cancel()
		}
		l.Run()
	}
}

func BenchmarkRunUntilSparseLongLived(b *testing.B) {
	b.Run("fastforward", func(b *testing.B) { benchmarkSparsePoll(b, true) })
	b.Run("cascading", func(b *testing.B) { benchmarkSparsePoll(b, false) })
}
