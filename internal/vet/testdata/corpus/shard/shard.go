// Golden corpus for the shard pass: one "kernel" object with a field
// of every protection class. Mutations from the hot closure must sit
// in a With body, inherit a locked entry context, hit state marked
// //fsvet:percore, or carry a //fsvet:shared waiver — everything else
// is a finding.
package corpus

import "fastsocket/internal/lock"

type counters struct{ hits uint64 }

// perCore is covered by a type-level marker: any mutation rooted at a
// perCore receiver is clean.
//
//fsvet:percore corpus fixture: owned by one core by construction
type perCore struct{ events uint64 }

func (p *perCore) bump() { p.events++ }

type state struct {
	mu     *lock.SpinLock
	shared counters // unprotected: mutations must be locked or waived
	pc     perCore  // covered by the marker on its receiver type
	//fsvet:percore corpus fixture: indexed by the owning core
	local counters
	//fsvet:shared corpus fixture: lossy counter by design
	waived uint64
	table  map[int]int
}

// pkgTotal is package-level shared state.
var pkgTotal int

// NewState builds the fixture (the lock name feeds class resolution).
func NewState() *state {
	return &state{mu: lock.New("corpus.s", 0), table: map[int]int{}}
}

// Root is the corpus hot-path root. The two bare writes before the
// lock section are findings; everything after exercises a clean
// protection mechanism.
//
//fsvet:hotpath corpus shard-scan root
func Root(ctx lock.Context, s *state, k int) {
	s.shared.hits++ // want "hot-path write to shared state.shared in internal/kernel/vetcorpus_shard.Root"
	pkgTotal++      // want "hot-path write to shared package var pkgTotal"
	s.local.hits++
	s.waived++
	s.pc.bump()
	locked(ctx, s)
	s.mu.With(ctx, func() { enteredHeld(s) })
	enteredBare(s, k)
	afterHold(ctx, s)
}

// locked mutates only inside its own With body: clean.
func locked(ctx lock.Context, s *state) {
	s.mu.With(ctx, func() { s.shared.hits++ })
}

// enteredHeld holds no lock itself, but its only hot entry (from Root)
// is inside a With body on s.mu — the entry-context fixpoint covers it.
func enteredHeld(s *state) {
	s.shared.hits++
}

// enteredBare is entered with nothing held and mutates shared state.
func enteredBare(s *state, k int) {
	delete(s.table, k) // want "hot-path write to shared state.table in internal/kernel/vetcorpus_shard.enteredBare"
}

// afterHold writes after its Hold has returned, when the lock is free
// again.
func afterHold(ctx lock.Context, s *state) {
	s.mu.Hold(ctx, 1)
	s.shared.hits++ // want "hot-path write to shared state.shared in internal/kernel/vetcorpus_shard.afterHold"
}
