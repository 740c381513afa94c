package corpus

import "fastsocket/internal/sim"

// Scheduled callbacks: the cpu.Core shape. A method bound once into a
// struct field (drainFn) or a function literal stored in one (litFn)
// runs only when a hot function hands the field to the loop, so no
// call edge reaches it. The hot set follows the field instead: what
// Kick schedules is scanned, what only cold code schedules is not.
type pump struct {
	loop                   *sim.Loop
	drainFn, litFn, coldFn func()
}

func newPump(loop *sim.Loop) *pump {
	p := &pump{loop: loop}
	p.drainFn = p.drain
	p.litFn = func() { p.viaLit() }
	p.coldFn = p.coldDrain
	return p
}

// Kick schedules the bound callbacks from the hot path.
//
//fsvet:hotpath corpus scheduled-callback root
func (p *pump) Kick() {
	p.loop.At(p.loop.Now(), p.drainFn)
	p.loop.At(p.loop.Now(), p.litFn)
}

func (p *pump) drain() {
	b := &blob{a: 1} // want "hot-path allocation \(composite\) in .*\(\*pump\)\.drain "
	_ = sink(b)
}

func (p *pump) viaLit() {
	b := &blob{a: 2} // want "hot-path allocation \(composite\) in .*\(\*pump\)\.viaLit "
	_ = sink(b)
}

// cold hands coldFn to the loop, but nothing hot calls cold, so
// coldDrain stays out of the hot set and its allocation is not a
// finding.
func (p *pump) cold() {
	p.loop.At(p.loop.Now(), p.coldFn)
}

func (p *pump) coldDrain() {
	_ = sink(&blob{a: 3})
}
