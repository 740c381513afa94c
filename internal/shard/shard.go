// Package shard is the conservative-lookahead parallel execution
// layer over internal/sim: one simulation becomes N shard schedulers
// (domains), each owning its own pooled event heap + timer wheel (a
// whole sim.Loop), synchronized in lookahead-sized windows so the
// domains may run on real threads while every simulated outcome stays
// bit-identical to serial execution.
//
// The decomposition unit is a *coupling domain*, not a simulated
// core: the cores of one machine share the spin-lock contention
// timeline and the L3 cache model, which couple them at nanosecond
// granularity — there is no nonzero lookahead between them, so they
// must stay on one scheduler (DESIGN.md §4.8 has the proof sketch).
// Between machines the only coupling is the network fabric, whose
// one-way delay is the classic conservative (CMB-style) lookahead
// window: an event executing in window (w-L, w] can only schedule
// cross-domain work at or after its own timestamp plus the link
// delay, which lands strictly after w. LiveStack (PAPERS.md) applies
// the same discipline at cluster scale.
//
// Determinism does not depend on thread scheduling: cross-domain
// injections go through per-(src,dst) mailboxes, each kept sorted by
// (time, source sequence) as it is posted to, and drained only at
// window barriers by merging one destination's mailboxes in (time,
// source shard, source sequence) order — a total order fixed by
// simulated causality alone. Each domain then executes its window
// alone on its own loop. Workers=1 runs the
// same algorithm with the domains stepped in index order on the
// calling goroutine: the serial reference the race-checked equality
// tests compare against.
package shard

import (
	"fmt"
	"sort"
	"sync"

	"fastsocket/internal/sim"
)

// Config sizes an Engine.
type Config struct {
	// Lookahead is the conservative window: the minimum simulated
	// latency of any cross-domain effect. Posts closer than the
	// current window's end panic (a modelling bug, not a race).
	Lookahead sim.Time
	// Workers is the number of real goroutines stepping domains.
	// 0 or 1 means serial reference execution on the caller; more
	// workers than domains are capped.
	Workers int
}

// item is one mailed cross-domain injection. Its source sequence is
// its position in the mailbox: posts are kept in (at, post order).
type item struct {
	at  sim.Time
	fn  func(any)
	arg any
}

// mailbox is the per-(src,dst) channel of pending injections,
// items[head:], sorted by (at, post order). It is written only by the
// source domain's worker during a window and read only by the
// coordinator at barriers, so it needs no lock.
type mailbox struct {
	items []item
	head  int
}

// post adds an item after every pending item due no later than it. A
// post is almost always the latest (every packet crosses the fabric
// with the same delay), so the common case is the append alone.
func (mb *mailbox) post(it item) {
	n := len(mb.items)
	mb.items = append(mb.items, it)
	if n > mb.head && it.at < mb.items[n-1].at {
		// Out of order (a reordered packet's extra delay): move it
		// before the pending items due after it.
		i := mb.head + sort.Search(n-mb.head, func(j int) bool { return mb.items[mb.head+j].at > it.at })
		copy(mb.items[i+1:], mb.items[i:n])
		mb.items[i] = it
	}
}

// due reports whether the mailbox's next item is due by w, and its
// time.
func (mb *mailbox) due(w sim.Time) (sim.Time, bool) {
	if mb.head == len(mb.items) {
		return 0, false
	}
	at := mb.items[mb.head].at
	return at, at <= w
}

// settle reclaims the drained prefix: at once when nothing is pending,
// else once it is at least as long as the pending part, so the copying
// stays amortised constant per drained item.
func (mb *mailbox) settle() {
	switch {
	case mb.head == len(mb.items):
		mb.items, mb.head = mb.items[:0], 0
	case mb.head >= len(mb.items)-mb.head:
		n := copy(mb.items, mb.items[mb.head:])
		clear(mb.items[n:]) // don't pin the moved items' args twice
		mb.items, mb.head = mb.items[:n], 0
	}
}

// Stats counts engine activity (all deterministic).
type Stats struct {
	Epochs  uint64 // barrier windows executed
	Posted  uint64 // cross-domain injections mailed
	Drained uint64 // injections delivered into destination loops
}

// Engine owns the domains and the barrier protocol.
type Engine struct {
	cfg   Config
	loops []*sim.Loop
	names []string
	mail  [][]*mailbox // [src][dst]

	now     sim.Time // last completed barrier
	horizon sim.Time // end of the window in flight (read-only during it)
	running bool
	stats   Stats

	workers []*worker
	wg      sync.WaitGroup

	// barrier holds the coordinator hooks run after every window.
	barrier []func()
}

// worker steps a fixed subset of domains each window.
type worker struct {
	start chan sim.Time
	done  chan struct{}
	loops []*sim.Loop
}

// NewEngine builds an engine; add domains before the first Run.
func NewEngine(cfg Config) *Engine {
	if cfg.Lookahead <= 0 {
		panic("shard: lookahead must be positive")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	return &Engine{cfg: cfg}
}

// AddDomain creates one shard scheduler — a private sim.Loop with its
// own event pool, heap and timer wheel — and returns it. The index
// order of AddDomain calls is the deterministic tie-break order for
// simultaneous cross-domain arrivals, so construction order is part
// of the simulated configuration.
func (e *Engine) AddDomain(name string) *sim.Loop {
	if e.running {
		panic("shard: AddDomain after Run")
	}
	l := sim.NewLoop()
	e.loops = append(e.loops, l)
	e.names = append(e.names, name)
	// Rebuild the mailbox grid so endpoints may Post during bed
	// construction, before the first Run.
	n := len(e.loops)
	mail := make([][]*mailbox, n)
	for s := range mail {
		mail[s] = make([]*mailbox, n)
		for d := range mail[s] {
			if s < len(e.mail) && d < len(e.mail[s]) {
				mail[s][d] = e.mail[s][d]
			} else {
				mail[s][d] = &mailbox{}
			}
		}
	}
	e.mail = mail
	return l
}

// AtBarrier registers fn to run on the coordinator after every window
// (the degenerate epoch at a Run's start included), while no worker is
// running: the one point where state owned by different domains may be
// touched together. Hooks run in registration order. A hook must not
// change simulated state — it runs at a cadence set by the lookahead,
// not by simulated causality — so it may only move host-side resources
// such as pooled packet headers between domains.
func (e *Engine) AtBarrier(fn func()) { e.barrier = append(e.barrier, fn) }

// Domains reports the shard count.
func (e *Engine) Domains() int { return len(e.loops) }

// Loop returns domain i's scheduler.
func (e *Engine) Loop(i int) *sim.Loop { return e.loops[i] }

// Now is the last completed barrier time: every domain's clock is at
// least here, and no event before it remains anywhere.
func (e *Engine) Now() sim.Time { return e.now }

// Stats returns the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Post mails fn(arg) to run at time at on domain dst, from domain
// src, as an arrival (sim.Loop.Arrive): it cannot be cancelled.
// Same-domain posts arrive directly. Cross-domain posts must respect
// the lookahead: at must land strictly after the window in flight, or
// the caller's latency model is finer than the configured lookahead
// and conservative execution would be unsound — that is a panic,
// never a silent reorder.
func (e *Engine) Post(src, dst int, at sim.Time, fn func(any), arg any) {
	if src == dst {
		e.loops[dst].Arrive(at, fn, arg)
		return
	}
	if e.running && at <= e.horizon {
		panic(fmt.Sprintf("shard: conservative lookahead violated: %s -> %s at %v, window ends %v",
			e.names[src], e.names[dst], at, e.horizon))
	}
	e.mail[src][dst].post(item{at: at, fn: fn, arg: arg})
}

// freeze finalizes the topology on first Run.
func (e *Engine) freeze() {
	n := len(e.loops)
	if n == 0 {
		panic("shard: no domains")
	}
	w := e.cfg.Workers
	if w > n {
		w = n
	}
	if w > 1 {
		e.workers = make([]*worker, w)
		for j := range e.workers {
			e.workers[j] = &worker{
				start: make(chan sim.Time),
				done:  make(chan struct{}),
			}
		}
		// Domains are dealt round-robin so heterogeneous mixes (the
		// harness adds all servers, then all clients) spread evenly.
		for i, l := range e.loops {
			e.workers[i%w].loops = append(e.workers[i%w].loops, l)
		}
		for _, wk := range e.workers {
			e.wg.Add(1)
			go wk.run(&e.wg)
		}
	}
	e.running = true
}

func (wk *worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for until := range wk.start {
		for _, l := range wk.loops {
			l.RunUntil(until)
		}
		wk.done <- struct{}{}
	}
}

// drain moves every mailed item due by w into its destination loop,
// in (at, src, seq) order per destination: a merge of the sorted
// mailboxes' due prefixes that takes runs from one source at a time
// and never looks past an item due after w. It runs only between
// windows, on the coordinator, so the total injection order — and
// therefore each destination's event sequence numbers — depends only
// on simulated time and topology, never on thread interleaving.
func (e *Engine) drain(w sim.Time) {
	for d, dl := range e.loops {
		for {
			// The earliest due head by (at, src), and the runner-up
			// that bounds the run taken from it.
			best, next := -1, -1
			var bestAt, nextAt sim.Time
			for s := range e.loops {
				at, ok := e.mail[s][d].due(w)
				switch {
				case !ok:
				case best < 0 || at < bestAt:
					next, nextAt = best, bestAt
					best, bestAt = s, at
				case next < 0 || at < nextAt:
					next, nextAt = s, at
				}
			}
			if best < 0 {
				break
			}
			mb := e.mail[best][d]
			for {
				it := mb.items[mb.head]
				mb.items[mb.head] = item{} // don't pin the arg
				mb.head++
				dl.Arrive(it.at, it.fn, it.arg)
				e.stats.Drained++
				e.stats.Posted++
				at, ok := mb.due(w)
				// A tie with the runner-up goes to the lower source.
				if !ok || (next >= 0 && (at > nextAt || (at == nextAt && next < best))) {
					break
				}
			}
		}
		for s := range e.loops {
			e.mail[s][d].settle()
		}
	}
}

// step runs every domain to exactly w, in parallel when workers
// exist, else in index order on the caller.
func (e *Engine) step(w sim.Time) {
	if len(e.workers) > 0 {
		for _, wk := range e.workers {
			wk.start <- w
		}
		for _, wk := range e.workers {
			<-wk.done
		}
	} else {
		for _, l := range e.loops {
			l.RunUntil(w)
		}
	}
}

// Run advances every domain to exactly until, window by window. It
// may be called repeatedly (warmup, then measurement windows); each
// call continues from the last barrier.
func (e *Engine) Run(until sim.Time) {
	if !e.running {
		e.freeze()
	}
	// Degenerate epoch at the current barrier: work scheduled from
	// outside the engine between Run calls (t=0 bootstrap events, an
	// app's Start/SetRate at a measurement boundary) lands at exactly
	// e.now. Execute it with horizon e.now, so a cross-domain post at
	// exactly the lookahead bound — the tightest legal latency — is
	// accepted; folding it into the first regular window would make
	// its horizon a full lookahead later and wrongly reject such
	// posts. Loops are idempotent at the barrier (everything up to
	// e.now already ran), and mailboxes only hold items strictly
	// after e.now, so the epoch re-delivers nothing.
	e.horizon = e.now
	e.drain(e.now)
	e.step(e.now)
	e.atBarrier()
	e.stats.Epochs++
	for e.now < until {
		w := e.now + e.cfg.Lookahead
		if w > until {
			w = until
		}
		e.horizon = w
		e.drain(w)
		e.step(w)
		e.now = w
		e.atBarrier()
		e.stats.Epochs++
	}
}

// atBarrier runs the coordinator hooks between windows.
func (e *Engine) atBarrier() {
	for _, fn := range e.barrier {
		fn()
	}
}

// Close releases the worker goroutines. Safe to call more than once;
// an engine that never ran parallel workers closes trivially.
func (e *Engine) Close() {
	for _, wk := range e.workers {
		close(wk.start)
	}
	e.wg.Wait()
	e.workers = nil
}

// Pending sums live events across domains in index (sorted shard)
// order, plus mailed injections not yet delivered — the sharded
// analogue of sim.Loop.Pending, independent of worker count.
func (e *Engine) Pending() int {
	total := 0
	for _, l := range e.loops {
		total += l.Pending()
	}
	for _, row := range e.mail {
		for _, mb := range row {
			total += len(mb.items) - mb.head
		}
	}
	return total
}

// Fired sums executed events across domains in index order.
func (e *Engine) Fired() uint64 {
	var total uint64
	for _, l := range e.loops {
		total += l.Fired()
	}
	return total
}

// SchedStats merges the per-domain scheduler counters in index order.
func (e *Engine) SchedStats() sim.SchedStats {
	var total sim.SchedStats
	for _, l := range e.loops {
		total = total.Add(l.SchedStats())
	}
	return total
}
