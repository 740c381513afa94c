// Unrestricted module helper for the corpus. It wraps wall-clock
// functionality so the restricted reach caller has no direct forbidden
// import, only a call chain; it also shows which checks stay silent
// outside restricted packages (imports, units) and which apply to all
// module code (lock pairing).
package reachutil

import (
	"time"

	"fastsocket/internal/lock"
	"fastsocket/internal/sim"
)

func WallClock() int64 { return time.Now().UnixNano() }

func Pure(a, b int) int { return a + b }

// Counts returns a map for the determinism corpus to range over.
func Counts() map[string]int { return map[string]int{"a": 1} }

// Tick uses a bare magnitude as sim.Time: allowed outside restricted
// packages.
func Tick() sim.Time { return sim.Time(250000) }

var guard = lock.New("corpus.util", 0)

// HoldGuard ends holding its lock: lock pairing is checked in every
// module package, restricted or not.
func HoldGuard(ctx lock.Context) {
	guard.Acquire(ctx)
} // want "may return while holding \"corpus.util\""
