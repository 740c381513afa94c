// Golden corpus for the lockorder pass: held-set propagation, the
// With idiom, TryAcquire branches, a leak, a leak in a scheduled
// callback, and an order inversion (the inversion finding attaches to
// the whole-graph pseudo-file and is asserted directly by the test,
// not via a want comment).
package corpus

import (
	"fastsocket/internal/cpu"
	"fastsocket/internal/lock"
)

type Pair struct {
	A *lock.SpinLock
	B *lock.SpinLock
}

func NewPair() *Pair {
	return &Pair{
		A: lock.New("corpus.a", 0),
		B: lock.New("corpus.b", 0),
	}
}

// LockAB establishes the edge corpus.a -> corpus.b.
func LockAB(ctx lock.Context, p *Pair) {
	p.A.Acquire(ctx)
	lockBHeld(ctx, p)
	p.A.Release(ctx)
}

// lockBHeld acquires B; the edge is emitted at the call site in
// LockAB through the transitive-acquire summary.
func lockBHeld(ctx lock.Context, p *Pair) {
	p.B.Acquire(ctx)
	p.B.Release(ctx)
}

// LockBA inverts the order: corpus.b -> corpus.a closes a cycle with
// LockAB and must be reported as a potential inversion.
func LockBA(ctx lock.Context, p *Pair) {
	p.B.Acquire(ctx)
	p.A.Acquire(ctx)
	p.A.Release(ctx)
	p.B.Release(ctx)
}

// WithNested exercises the With closure: the body runs under A.
func WithNested(ctx lock.Context, p *Pair) {
	p.A.With(ctx, func() {
		p.B.Acquire(ctx)
		p.B.Release(ctx)
	})
}

// Leak can return with A held.
func Leak(ctx lock.Context, p *Pair, fail bool) bool {
	p.A.Acquire(ctx)
	if fail {
		return false // want "may return while holding \"corpus.a\""
	}
	p.A.Release(ctx)
	return true
}

// SubmitLeak hands Core.Submit a callback that can return with B held.
// The callback (parameter 0) runs later with nothing held and is
// checked on its own.
func SubmitLeak(c *cpu.Core, p *Pair, fail bool) {
	c.Submit(func(t *cpu.Task) {
		p.B.Acquire(t)
		if fail {
			return // want "may return while holding \"corpus.b\""
		}
		p.B.Release(t)
	})
}

// TryBranches releases on every path where the acquire succeeded.
func TryBranches(ctx lock.Context, p *Pair, n int) int {
	if !p.A.TryAcquire(ctx) {
		return 0
	}
	n *= 2
	p.A.Release(ctx)
	return n
}
