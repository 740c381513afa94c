package lock

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// Runtime lockdep: a dynamic complement to the static checks in
// internal/vet (fsvet).
//
// Hold and With pair every acquisition with its release, and the
// static analyzer reads lock nesting from With bodies; lockdep watches
// the lock model at run time and records the discipline violations
// only execution can see:
//
//   - double acquisition of the same lock by the same context,
//   - release of a lock the context does not hold,
//   - lock-order inversions: context X takes A then B while some
//     earlier context took B then A. In a real kernel that pair is a
//     deadlock candidate; in the simulation it means lockstat hold
//     and wait attribution is no longer comparable across kernels.
//
// Like Linux's lockdep it works on lock *names*, so all shards of a
// Sharded lock validate as one class; same-name pairs are skipped
// (nested shard acquisition of one class has no canonical order).
//
// Beyond violations, the tracker records the *observed order graph*:
// every (outer class, inner class) nesting it sees, with the functions
// that performed the inner acquisition. Dep.GraphJSON exports it in a
// stable sorted form so fsvet can diff the runtime truth against its
// static lock-order graph (its lockdep cross-check): an observed edge
// the static graph misses is an analyzer bug; a static edge never
// observed across the experiment suite is an untested lock interaction.
//
// Everything here is deterministic: violations are recorded in
// detection order, maps are used for membership only and every export
// is sorted, and the whole simulation is single-threaded — so the
// tracker needs no real synchronization.

// Dep is the lockdep tracker state. The package keeps one global
// tracker (the simulation is single-threaded); Lockdep returns it.
type Dep struct {
	enabled bool
	// held tracks, per context, the locks currently held, in
	// acquisition order.
	held map[Context][]*SpinLock
	// edges is the set of observed name orderings "A->B", membership
	// queries only; edgeSites collects, per edge, the set of functions
	// that performed the inner acquisition.
	edges     map[[2]string]bool
	edgeSites map[[2]string]map[string]bool
	// violations in detection order; seen dedupes repeats so a hot
	// path cannot flood the report.
	violations []string
	seen       map[string]bool
}

var lockdep Dep

// Lockdep returns the global tracker, for graph export. The tracker
// only records between EnableLockdep and DisableLockdep.
func Lockdep() *Dep { return &lockdep }

// EnableLockdep resets the tracker and starts recording. Tests enable
// it to assert a run is discipline-clean (or that a seeded violation
// is caught).
func EnableLockdep() {
	lockdep = Dep{
		enabled:   true,
		held:      map[Context][]*SpinLock{},
		edges:     map[[2]string]bool{},
		edgeSites: map[[2]string]map[string]bool{},
		seen:      map[string]bool{},
	}
}

// DisableLockdep stops recording and drops all state.
func DisableLockdep() {
	lockdep = Dep{}
}

// LockdepEnabled reports whether the tracker is active.
func LockdepEnabled() bool { return lockdep.enabled }

// LockdepViolations returns the recorded violations in detection
// order (deterministic under a deterministic simulation).
func LockdepViolations() []string {
	return append([]string(nil), lockdep.violations...)
}

// ObservedEdge is one nesting the tracker saw: Inner was acquired
// while Outer was held. Sites are the functions that performed the
// inner acquisition, sorted.
type ObservedEdge struct {
	Outer string   `json:"outer"`
	Inner string   `json:"inner"`
	Sites []string `json:"sites,omitempty"`
}

// Edges returns the observed order graph as a sorted edge list.
func (d *Dep) Edges() []ObservedEdge {
	keys := make([][2]string, 0, len(d.edges))
	for e := range d.edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]ObservedEdge, 0, len(keys))
	for _, e := range keys {
		var sites []string
		for s := range d.edgeSites[e] {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		out = append(out, ObservedEdge{Outer: e[0], Inner: e[1], Sites: sites})
	}
	return out
}

// GraphJSON renders the observed order graph as indented JSON: a
// stable, sorted edge list with acquisition sites. Byte-identical
// across identically-seeded runs of the same binary.
func (d *Dep) GraphJSON() []byte {
	b, err := json.MarshalIndent(d.Edges(), "", "  ")
	if err != nil { // a slice of plain structs cannot fail to marshal
		panic("lock: GraphJSON: " + err.Error())
	}
	return append(b, '\n')
}

func lockdepViolation(format string, args ...any) {
	v := fmt.Sprintf(format, args...)
	if lockdep.seen[v] {
		return
	}
	lockdep.seen[v] = true
	lockdep.violations = append(lockdep.violations, v)
}

// acquireSite walks up the stack for the innermost caller outside
// this package — the function performing the acquisition. Function
// names (not file:line) keep the exported graph stable across
// unrelated edits.
func acquireSite() string {
	var pcs [8]uintptr
	n := runtime.Callers(3, pcs[:]) // skip Callers, acquireSite, lockdepAcquire
	frames := runtime.CallersFrames(pcs[:n])
	for {
		fr, more := frames.Next()
		if fr.Function == "" {
			break
		}
		if !strings.Contains(fr.Function, "/internal/lock.") {
			return fr.Function
		}
		if !more {
			break
		}
	}
	return "?"
}

// lockdepAcquire runs at the top of acquire, before the model's own
// recursive-acquisition panic, so the report survives a recover().
func lockdepAcquire(l *SpinLock, c Context) {
	if !lockdep.enabled {
		return
	}
	held := lockdep.held[c]
	var site string
	for _, h := range held {
		if h == l {
			lockdepViolation("lockdep: double acquire of %s by one context", l.name)
		}
		if h.name == l.name {
			continue
		}
		if lockdep.edges[[2]string{l.name, h.name}] {
			lockdepViolation("lockdep: lock order inversion: %s -> %s, but %s -> %s was also observed",
				h.name, l.name, l.name, h.name)
		}
		e := [2]string{h.name, l.name}
		lockdep.edges[e] = true
		if site == "" {
			site = acquireSite()
		}
		sites := lockdep.edgeSites[e]
		if sites == nil {
			sites = map[string]bool{}
			lockdep.edgeSites[e] = sites
		}
		sites[site] = true
	}
	lockdep.held[c] = append(held, l)
}

// lockdepRelease runs at the top of release, before the non-holder
// panic.
func lockdepRelease(l *SpinLock, c Context) {
	if !lockdep.enabled {
		return
	}
	held := lockdep.held[c]
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == l {
			held = append(held[:i], held[i+1:]...)
			if len(held) == 0 {
				delete(lockdep.held, c)
			} else {
				lockdep.held[c] = held
			}
			return
		}
	}
	lockdepViolation("lockdep: release of %s while not held", l.name)
}
