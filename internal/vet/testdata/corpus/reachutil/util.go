// Unrestricted module helper for the corpus. It wraps wall-clock
// functionality so the restricted reach caller has no direct forbidden
// import, only a call chain; it also shows which checks stay silent
// outside restricted packages (imports, units) and which apply to all
// module code (lock classes).
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

// HoldGuard locks a SpinLock that no lock.New call names: lock classes
// are checked in every module package, restricted or not.
func HoldGuard(ctx lock.Context, guard *lock.SpinLock) {
	guard.Hold(ctx, 1) // want "guard.Hold on a lock with no resolved class"
}
