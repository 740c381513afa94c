// Golden corpus for the alloc pass: every allocation kind the scanner
// classifies, plus the budget interplay (clean-when-budgeted,
// over-budget, and the three stale-entry shapes). The fixture budget
// entries live in the committed .fsvet-allocbudget.json under
// internal/kernel/vetcorpus_alloc.* keys; GenerateAllocBudget
// preserves them across regeneration.
package corpus

import "fastsocket/internal/lock"

type blob struct{ a, b int }

// Root is the corpus hot-path root: every helper below is in its
// closure and therefore scanned.
//
//fsvet:hotpath corpus allocation-scan root
func Root(c lock.Context, n int) int {
	return composites(n) + builtins(n) + growth(n) + boxing(n) +
		variadics(n) + strconvs("x") + closures(n) + withBody(c, n) +
		budgeted(n) + overBudget(n) + staleNone(n) + staleFewer(n) + kindsChanged(n)
}

// composites: &T{...}, map and slice literals all heap-allocate.
func composites(n int) int {
	p := &blob{a: n}       // want "hot-path allocation \(composite\)"
	m := map[int]int{n: n} // want "hot-path allocation \(composite\)"
	s := []int{n}          // want "hot-path allocation \(composite\)"
	return p.a + m[n] + s[0]
}

// builtins: new and make.
func builtins(n int) int {
	p := new(blob)      // want "hot-path allocation \(new\)"
	s := make([]int, n) // want "hot-path allocation \(make\)"
	p.a = len(s)
	return p.a
}

// growth: slice append and map insertion both may grow backing store.
func growth(n int) int {
	var s []int
	s = append(s, n)       // want "hot-path allocation \(append\)"
	m := make(map[int]int) // want "hot-path allocation \(make\)"
	m[n] = n               // want "hot-path allocation \(map-insert\)"
	m[n]++                 // want "hot-path allocation \(map-insert\)"
	return len(s) + len(m)
}

func sink(v any) int {
	if i, ok := v.(int); ok {
		return i
	}
	return 0
}

// boxing: a non-pointer value converted to an interface argument is
// heap-boxed (pointers would fit the interface word and stay exempt).
func boxing(n int) int {
	p := &blob{}             // want "hot-path allocation \(composite\)"
	return sink(n) + sink(p) // want "hot-path allocation \(box\)"
}

func sinkV(vs ...int) int { return len(vs) }

// variadics: the call materializes a backing slice for vs.
func variadics(n int) int {
	return sinkV(n, n) // want "hot-path allocation \(variadic\)"
}

// strconvs: string<->[]byte conversions and concatenation copy.
func strconvs(s string) int {
	b := []byte(s) // want "hot-path allocation \(string\)"
	t := s + s     // want "hot-path allocation \(string\)"
	return len(b) + len(t)
}

// closures: the function-literal header allocates when it captures.
func closures(n int) int {
	f := func() int { return n } // want "hot-path allocation \(closure\)"
	return f()
}

var mu = lock.New("corpus.alloc", 0)

// withBody: a lock With body stays on the caller's stack, so it is no
// closure site, and what it allocates counts here.
func withBody(c lock.Context, n int) int {
	var s []int
	mu.With(c, func() {
		s = append(s, n) // want "hot-path allocation \(append\) in internal/kernel/vetcorpus_alloc.withBody"
	})
	return len(s)
}

// budgeted has exactly the sites its committed entry allows: clean.
func budgeted(n int) int {
	var s []int
	s = append(s, n)
	return len(s)
}

// overBudget allocates at two sites against an entry allowing one.
func overBudget(n int) int { // want "allocates at 2 hot-path sites \(append x2\), budget allows 1"
	var s, t []int
	s = append(s, n)
	t = append(t, n)
	return len(s) + len(t)
}

// staleNone no longer allocates, but its committed entry still
// allows one site: the entry is stale and must be pruned.
func staleNone(n int) int { // want "no longer allocates on the hot path \(entry allows 1 sites\)"
	return n * 2
}

// staleFewer allocates at one site against an entry allowing two.
func staleFewer(n int) int { // want "has 1 hot-path sites, entry allows 2"
	var s []int
	s = append(s, n)
	return len(s)
}

// kindsChanged matches its entry's site count but not its kinds
// (the entry says append, the code now does make).
func kindsChanged(n int) int { // want "site kinds changed to \[make\] \(entry: \[append\]\)"
	s := make([]int, n)
	return len(s)
}
