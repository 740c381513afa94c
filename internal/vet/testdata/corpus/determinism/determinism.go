// Golden corpus for the determinism pass. Loaded by the vet tests
// under a synthetic restricted import path; never built normally.
package corpus

import (
	"sort"

	"fastsocket/vetcorpus/reachutil"
)

// Registry hides a map behind a named type: the syntactic analyzer
// cannot see map-ness here, the typed pass can.
type Registry map[string]int

func Spawn(fn func()) {
	go fn() // want "goroutines are forbidden"
}

func UseChannel(c chan int) { // want "channel types are forbidden"
	c <- 1 // want "channel sends are forbidden"
	<-c    // want "channel receives are forbidden"
}

func Block() {
	select {} // want "select statements are forbidden"
}

func RangeNamedMap(r Registry) int {
	total := 0
	for _, v := range r { // want "iteration over map r"
		total += v
	}
	return total
}

func RangeSortedCollect(r Registry) []string {
	var keys []string
	for k := range r { // allowed: append-only body, sorted after
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func RangeCollectUnsorted(r Registry) []string {
	var keys []string
	for k := range r { // want "iteration over map r"
		keys = append(keys, k)
	}
	return keys
}

// RangeSlice must not be flagged: same identifier shape as a map
// range, but the type checker knows it is a slice.
func RangeSlice(xs []int) int {
	total := 0
	for _, v := range xs {
		total += v
	}
	return total
}

type table struct{ rows map[int]string }

// RangeLocalAndField ranges over a local map and a map-typed field.
func RangeLocalAndField(tb *table) int {
	n := 0
	local := make(map[int]bool)
	for range local { // want "iteration over map local"
		n++
	}
	for range tb.rows { // want "iteration over map tb.rows"
		n++
	}
	return n
}

// RangeCallResult ranges over a map that a function in another package
// returns, directly and through a local.
func RangeCallResult() int {
	n := 0
	for range reachutil.Counts() { // want "iteration over map reachutil.Counts\(\)"
		n++
	}
	m := reachutil.Counts()
	for range m { // want "iteration over map m"
		n++
	}
	return n
}
