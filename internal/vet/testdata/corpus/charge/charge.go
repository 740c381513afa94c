// Golden corpus for the charge pass: functions handed a charging
// context must pay for the state they mutate, directly or through a
// callee (taking a lock charges internally, so locked sections pass).
package corpus

import (
	"fastsocket/internal/cpu"
	"fastsocket/internal/lock"
)

type Table struct {
	n     int
	slots map[int]int
	mu    *lock.SpinLock
}

// NewTable names the table's lock, so its class resolves.
func NewTable() *Table {
	return &Table{slots: map[int]int{}, mu: lock.New("corpus.table", 0)}
}

func (tb *Table) FreeMutate(t *cpu.Task) {
	tb.n++ // want "never calls Charge/Spin"
}

func (tb *Table) PaidMutate(t *cpu.Task) {
	t.Charge(100)
	tb.n++
}

func (tb *Table) PaidViaHelper(t *cpu.Task) {
	pay(t)
	delete(tb.slots, tb.n)
}

func (tb *Table) PaidViaLock(t *cpu.Task) {
	tb.mu.With(t, func() { tb.n++ })
}

// LocalOnly mutates nothing reachable: clean without charging.
func (tb *Table) LocalOnly(t *cpu.Task) int {
	x := tb.n
	x++
	return x
}

// pay charges but mutates nothing itself: clean, and a charge source
// for its callers.
func pay(t *cpu.Task) { t.Charge(50) }
