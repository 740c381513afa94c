// Golden corpus for the lockorder pass: held-set propagation, the
// With idiom, TryAcquire branches, an order inversion (the inversion
// finding attaches to the whole-graph pseudo-file and is asserted
// directly by the test, not via a want comment), and lock pairing —
// leaks on a return path, at the end of a function and in function
// literals, re-acquire, a lock carried across loop iterations, a
// leaking TryAcquire guard, an unclassed lock — each next to the clean
// shape it must not be confused with.
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

// HeldAtEnd falls off its end still holding A.
func HeldAtEnd(ctx lock.Context, p *Pair) {
	p.A.Acquire(ctx)
} // want "may return while holding \"corpus.a\""

// AcquireForCaller takes A on behalf of its caller, which releases it;
// the waiver sits on the line above the exit finding.
func AcquireForCaller(ctx lock.Context, p *Pair) {
	p.A.Acquire(ctx)
	//fsvet:ignore lockorder corpus: the caller releases A
}

// ReleaseBothBranches releases on the early return and on the way out.
func ReleaseBothBranches(ctx lock.Context, p *Pair, bad bool) int {
	p.A.Acquire(ctx)
	if bad {
		p.A.Release(ctx)
		return -1
	}
	p.A.Release(ctx)
	return 0
}

// DeferRelease covers every return path with one deferred Release.
func DeferRelease(ctx lock.Context, p *Pair, bad bool) int {
	p.A.Acquire(ctx)
	defer p.A.Release(ctx)
	if bad {
		return -1
	}
	return 0
}

// Reacquire takes A twice under the same context.
func Reacquire(ctx lock.Context, p *Pair) {
	p.A.Acquire(ctx)
	p.A.Acquire(ctx) // want "acquires p.A\(ctx\) \[corpus.a\] again while already holding it"
	p.A.Release(ctx)
	p.A.Release(ctx)
}

// TwoContexts takes one lock under two contexts: two holds, not a
// re-acquire.
func TwoContexts(a, b lock.Context, p *Pair) {
	p.A.Acquire(a)
	p.A.Acquire(b)
	p.A.Release(a)
	p.A.Release(b)
}

// Twins are two instances of one class.
type Twins struct {
	X *lock.SpinLock
	Y *lock.SpinLock
}

func NewTwins() *Twins {
	return &Twins{X: lock.New("corpus.twin", 0), Y: lock.New("corpus.twin", 0)}
}

// BothTwins holds both instances of the class at once: not a
// re-acquire.
func BothTwins(ctx lock.Context, tw *Twins) {
	tw.X.Acquire(ctx)
	tw.Y.Acquire(ctx)
	tw.Y.Release(ctx)
	tw.X.Release(ctx)
}

// LoopCarry takes B in every iteration and never releases it.
func LoopCarry(ctx lock.Context, p *Pair, n int) {
	for i := 0; i < n; i++ {
		p.B.Acquire(ctx) // want "acquires \"corpus.b\" in a loop body and still holds it when the body ends"
	}
}

// LoopBalanced releases B before each next iteration.
func LoopBalanced(ctx lock.Context, p *Pair, xs []int) int {
	n := 0
	for _, x := range xs {
		p.B.Acquire(ctx)
		n += x
		p.B.Release(ctx)
	}
	return n
}

// TryGuard releases inside the branch its TryAcquire guards.
func TryGuard(ctx lock.Context, p *Pair, n int) int {
	if p.B.TryAcquire(ctx) {
		n++
		p.B.Release(ctx)
	}
	return n
}

// TryGuardLeak falls out of the guarded branch holding B, so the code
// after it runs with B held on one outcome and free on the other.
func TryGuardLeak(ctx lock.Context, p *Pair, n int) int {
	if p.B.TryAcquire(ctx) { // want "\"corpus.b\" from this TryAcquire is still held when the guarded branch falls through"
		n++
	}
	return n
}

// LitLeak hands a synchronous helper a literal that ends holding B: a
// literal's lock pairing is its own.
func LitLeak(ctx lock.Context, p *Pair) {
	run(func() {
		p.B.Acquire(ctx)
	}) // want "may return while holding \"corpus.b\""
}

func run(f func()) { f() }

// Hook holds a callback for later.
type Hook struct{ fn func() }

// StoredLeak stores callbacks, in a field and in a local, that end
// holding B.
func StoredLeak(ctx lock.Context, p *Pair, h *Hook) {
	h.fn = func() {
		p.B.Acquire(ctx)
	} // want "may return while holding \"corpus.b\""
	later := func() {
		p.B.Acquire(ctx)
	} // want "may return while holding \"corpus.b\""
	h.fn = later
}

// Unclassed locks a SpinLock that no lock.New call names, so its class
// does not resolve and every other lock check would skip it.
func Unclassed(ctx lock.Context, l *lock.SpinLock) {
	l.Acquire(ctx) // want "l.Acquire on a lock with no resolved class"
	l.Release(ctx) // want "l.Release on a lock with no resolved class"
}
