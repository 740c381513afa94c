// Golden corpus for the lockorder pass: held-set propagation through
// With bodies and callee summaries, an order inversion (the inversion
// finding attaches to the whole-graph pseudo-file and is asserted
// directly by the test, not via a want comment), literals that run
// later with nothing held, and the two shapes every other lock check
// would skip — an unclassed lock and a With body that is not a literal
// at the call site — each next to the clean shape it must not be
// confused with.
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
	p.A.With(ctx, func() { lockBHeld(ctx, p) })
}

// lockBHeld takes B; the edge is emitted at the call site in LockAB
// through the transitive-acquire summary.
func lockBHeld(ctx lock.Context, p *Pair) {
	p.B.Hold(ctx, 1)
}

// LockBA inverts the order: corpus.b -> corpus.a closes a cycle with
// LockAB and must be reported as a potential inversion.
func LockBA(ctx lock.Context, p *Pair) {
	p.B.With(ctx, func() { p.A.Hold(ctx, 1) })
}

// WithNested nests one With body in another: code in the inner body
// runs under both locks.
func WithNested(ctx lock.Context, p *Pair, n *int) {
	p.A.With(ctx, func() {
		p.B.With(ctx, func() { *n++ })
	})
}

var late = lock.New("corpus.late", 0)

// SubmitUnderLock hands Core.Submit a callback from inside a With body.
// The callback (parameter 0) runs later with nothing held, so the graph
// has no corpus.a -> corpus.late edge.
func SubmitUnderLock(ctx lock.Context, c *cpu.Core, p *Pair) {
	p.A.With(ctx, func() {
		c.Submit(func(t *cpu.Task) { late.Hold(t, 1) })
	})
}

// Twins are two instances of one class.
type Twins struct {
	X *lock.SpinLock
	Y *lock.SpinLock
}

func NewTwins() *Twins {
	return &Twins{X: lock.New("corpus.twin", 0), Y: lock.New("corpus.twin", 0)}
}

// BothTwins holds both instances of the class at once: shards of one
// class have no canonical order, so no edge.
func BothTwins(ctx lock.Context, tw *Twins) {
	tw.X.With(ctx, func() { tw.Y.Hold(ctx, 1) })
}

// Unclassed locks a SpinLock that no lock.New call names, so its class
// does not resolve and every other lock check would skip it.
func Unclassed(ctx lock.Context, l *lock.SpinLock) {
	l.Hold(ctx, 1)         // want "l.Hold on a lock with no resolved class"
	l.With(ctx, func() {}) // want "l.With on a lock with no resolved class"
}

// NamedBody passes With a function value: the scan cannot see what
// runs under A.
func NamedBody(ctx lock.Context, p *Pair, body func()) {
	p.A.With(ctx, body) // want "p.A.With body is not a function literal written at the call site"
}
