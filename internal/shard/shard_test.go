package shard

import (
	"testing"

	"fastsocket/internal/sim"
)

// ringTrace runs a deterministic multi-domain workload — token rings
// of cross-domain posts plus local timer churn — and returns each
// domain's private trace of (time, token) observations. Traces are
// per-domain because during a window only that domain's worker may
// touch its state; cross-domain convergence (several sources mailing
// one destination for the same tick) makes the (at, src, seq) drain
// order load-bearing, not decorative.
func ringTrace(workers, domains int, until sim.Time) ([][]uint64, *Engine) {
	const hop = 50 * sim.Microsecond
	e := NewEngine(Config{Lookahead: hop, Workers: workers})
	loops := make([]*sim.Loop, domains)
	rngs := make([]*sim.Rand, domains)
	for i := 0; i < domains; i++ {
		loops[i] = e.AddDomain("d")
		rngs[i] = sim.NewRand(uint64(i + 1))
	}
	traces := make([][]uint64, domains)
	hopFn := make([]func(any), domains)
	for i := 0; i < domains; i++ {
		i := i
		hopFn[i] = func(v any) {
			token := v.(uint64)
			traces[i] = append(traces[i], uint64(loops[i].Now())<<16|token&0xFFFF)
			// Local churn: schedule-and-cancel plus a short local event,
			// drawn from the domain's own stream.
			ev := loops[i].After(sim.Time(rngs[i].Intn(40))*sim.Microsecond, func() {})
			if rngs[i].Bool(0.5) {
				ev.Cancel()
			}
			// Tokens hop the ring with a bounded lifetime; quantized
			// delays make simultaneous arrivals from different sources
			// common.
			if token&0xFF >= 200 {
				return
			}
			at := loops[i].Now() + hop + sim.Time(rngs[i].Intn(3))*hop
			e.Post(i, (i+1)%domains, at, hopFn[(i+1)%domains], token+1)
		}
	}
	// Seed several tokens per domain at staggered times.
	for i := 0; i < domains; i++ {
		for t := 0; t < 3; t++ {
			loops[i].AtArg(sim.Time(t+1)*13*sim.Microsecond, hopFn[i], uint64(t))
		}
	}
	e.Run(until)
	e.Close()
	return traces, e
}

// TestParallelMatchesSerial is the engine's core promise: the trace of
// every domain-local observation is bit-identical whether the domains
// run on one goroutine or several. Run under -race this also proves
// the barrier protocol is well-synchronized.
func TestParallelMatchesSerial(t *testing.T) {
	const domains = 5
	until := 20 * sim.Millisecond
	ref, refEng := ringTrace(1, domains, until)
	total := 0
	for _, tr := range ref {
		total += len(tr)
	}
	if total == 0 {
		t.Fatal("workload fired nothing; test is vacuous")
	}
	if refEng.Stats().Posted == 0 {
		t.Fatal("no cross-domain mail; test is vacuous")
	}
	for _, workers := range []int{2, 3, 8} {
		got, eng := ringTrace(workers, domains, until)
		for d := range ref {
			if len(got[d]) != len(ref[d]) {
				t.Fatalf("workers=%d domain %d: %d observations vs %d serial",
					workers, d, len(got[d]), len(ref[d]))
			}
			for i := range ref[d] {
				if got[d][i] != ref[d][i] {
					t.Fatalf("workers=%d domain %d: trace diverges at %d: %#x vs %#x",
						workers, d, i, got[d][i], ref[d][i])
				}
			}
		}
		if eng.Fired() != refEng.Fired() {
			t.Fatalf("workers=%d: fired %d vs serial %d", workers, eng.Fired(), refEng.Fired())
		}
		if eng.Stats() != refEng.Stats() {
			t.Fatalf("workers=%d: stats %+v vs serial %+v", workers, eng.Stats(), refEng.Stats())
		}
	}
}

// TestPendingAggregatesAcrossShards is the churn regression for the
// Pending()/counter accounting: through heavy schedule/cancel/mail
// churn the engine total must equal the sorted per-shard sum plus
// undelivered mail at every barrier, and must drain to exactly zero —
// independent of worker count.
func TestPendingAggregatesAcrossShards(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const hop = 100 * sim.Microsecond
		e := NewEngine(Config{Lookahead: hop, Workers: workers})
		a := e.AddDomain("a")
		b := e.AddDomain("b")
		c := e.AddDomain("c")
		loops := []*sim.Loop{a, b, c}
		// Three bouncing tokens, one seeded per domain; each arg encodes
		// (hopCount, currentDomain) so the only state a bounce touches is
		// its own domain's — per-domain hop tallies, no cross-thread
		// sharing even when workers run domains concurrently.
		hopTally := [3]int{}
		var bounce func(any)
		bounce = func(v any) {
			enc := v.(int)
			count, d := enc>>2, enc&3
			hopTally[d]++
			if count >= 167 {
				return
			}
			nd := (d + 1) % 3
			e.Post(d, nd, loops[d].Now()+hop+sim.Time(count%7)*sim.Microsecond, bounce, (count+1)<<2|nd)
		}
		// Cancel-heavy local churn on every domain plus the bouncing mail.
		for i, l := range loops {
			for j := 0; j < 200; j++ {
				ev := l.After(sim.Time(j)*3*sim.Microsecond, func() {})
				if j%2 == 0 {
					ev.Cancel()
				}
			}
			l.AtArg(sim.Time(i+1)*10*sim.Microsecond, bounce, 0<<2|i)
		}

		want := 0
		for _, l := range loops {
			want += l.Pending()
		}
		if got := e.Pending(); got != want {
			t.Fatalf("workers=%d: Pending %d, per-shard sum %d", workers, got, want)
		}
		// Step in barrier-sized slices, checking the aggregate at each.
		for step := sim.Time(0); step < 100*sim.Millisecond; step += 5 * sim.Millisecond {
			e.Run(step)
			want = 0
			for _, l := range loops {
				want += l.Pending()
			}
			mailed := 0
			for _, row := range e.mail {
				for _, mb := range row {
					mailed += len(mb.items)
				}
			}
			if got := e.Pending(); got != want+mailed {
				t.Fatalf("workers=%d at %v: Pending %d, want %d local + %d mailed",
					workers, step, got, want, mailed)
			}
		}
		e.Run(sim.Second)
		if got := e.Pending(); got != 0 {
			t.Fatalf("workers=%d: %d events pending after drain-out", workers, got)
		}
		if total := hopTally[0] + hopTally[1] + hopTally[2]; total != 3*168 {
			t.Fatalf("workers=%d: bounce ran %d hops, want %d", workers, total, 3*168)
		}
		e.Close()
	}
}

// TestLookaheadViolationPanics: a cross-domain post inside the
// current window is a modelling bug and must fail loudly.
func TestLookaheadViolationPanics(t *testing.T) {
	e := NewEngine(Config{Lookahead: 100 * sim.Microsecond})
	a := e.AddDomain("a")
	e.AddDomain("b")
	a.At(10*sim.Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("in-window cross-domain post did not panic")
			}
		}()
		e.Post(0, 1, 20*sim.Microsecond, func(any) {}, nil)
	})
	e.Run(sim.Millisecond)
	e.Close()
}

// TestRepeatedRunsContinue: warmup-then-window call patterns must not
// lose or replay barriers.
func TestRepeatedRunsContinue(t *testing.T) {
	e := NewEngine(Config{Lookahead: 50 * sim.Microsecond, Workers: 2})
	a := e.AddDomain("a")
	b := e.AddDomain("b")
	_ = b
	fired := 0
	for i := 1; i <= 20; i++ {
		a.At(sim.Time(i)*sim.Millisecond, func() { fired++ })
	}
	e.Run(5 * sim.Millisecond)
	if fired != 5 {
		t.Fatalf("after first Run: fired %d, want 5", fired)
	}
	e.Run(20 * sim.Millisecond)
	if fired != 20 {
		t.Fatalf("after second Run: fired %d, want 20", fired)
	}
	if e.Now() != 20*sim.Millisecond {
		t.Fatalf("Now %v, want 20ms", e.Now())
	}
	e.Close()
}

// TestBarrierHookSeesEveryDomainAtTheBarrier: the hook runs once per
// window (the degenerate epoch included) on the coordinator, with every
// domain stopped exactly at the barrier, so it may touch state the
// domains' workers own (under -race with two workers, a hook that ran
// while a worker did would be reported).
func TestBarrierHookSeesEveryDomainAtTheBarrier(t *testing.T) {
	e := NewEngine(Config{Lookahead: 50 * sim.Microsecond, Workers: 2})
	loops := []*sim.Loop{e.AddDomain("a"), e.AddDomain("b")}
	counts := make([]int, len(loops)) // each written only by its domain
	for i, l := range loops {
		i, l := i, l
		var tick func()
		tick = func() {
			counts[i]++
			l.After(7*sim.Microsecond, tick)
		}
		l.At(0, tick)
	}
	hooks := 0
	var seen []int
	e.AtBarrier(func() {
		hooks++
		for i, l := range loops {
			if l.Now() != e.Now() {
				t.Errorf("hook %d: domain %d at %v, barrier %v", hooks, i, l.Now(), e.Now())
			}
		}
		seen = append(seen[:0], counts...)
	})
	e.Run(sim.Millisecond)
	e.Close()
	if want := int(e.Stats().Epochs); hooks != want {
		t.Errorf("hook ran %d times over %d windows", hooks, want)
	}
	for i := range counts {
		if seen[i] != counts[i] {
			t.Errorf("domain %d: hook saw %d ticks, domain made %d", i, seen[i], counts[i])
		}
	}
}
