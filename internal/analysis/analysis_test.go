// Package analysis holds the rule-level cases of the determinism,
// lock and units checks. They began as the tests of fslint, a
// syntactic analyzer that lived here; fsvet (internal/vet) now makes
// every one of those checks, and each test below runs its case through
// fsvet under its original name (the lock cases were rewritten when
// Hold and With replaced hand-paired locking). Each fixture package is laid over the
// module at a synthetic import path, which decides restricted-package
// status exactly as a real path would. One fsvet run over the module
// plus every fixture serves all tests.
package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fastsocket/internal/vet"
)

const repoRoot = "../.."

// fixture is one source file of a case, in the package at a
// module-relative path.
type fixture struct {
	path, name, src string
}

type testCase struct {
	fixtures []fixture
}

var (
	allCases []*testCase

	runOnce sync.Once
	runErr  error
	// found holds the findings of the shared run by fixture package
	// path, rendered "path/file.go:line: [pass] msg", in fsvet order.
	found map[string][]string
)

// newCase registers a case; every registered case loads in the shared
// run, so cases must be package-level variables.
func newCase(fixtures ...fixture) *testCase {
	c := &testCase{fixtures: fixtures}
	allCases = append(allCases, c)
	return c
}

// findings returns fsvet's findings in the case's fixture packages.
func (c *testCase) findings(t *testing.T) []string {
	t.Helper()
	runOnce.Do(runAll)
	if runErr != nil {
		t.Fatal(runErr)
	}
	var out []string
	seen := map[string]bool{}
	for _, fx := range c.fixtures {
		if !seen[fx.path] {
			seen[fx.path] = true
			out = append(out, found[fx.path]...)
		}
	}
	return out
}

// runAll writes every fixture under a scratch directory, loads the
// module with the fixture packages overlaid, and runs fsvet once.
func runAll() {
	scratch, err := os.MkdirTemp("", "fsvet-cases")
	if err != nil {
		runErr = err
		return
	}
	defer os.RemoveAll(scratch)
	overlay := map[string]string{}
	for _, c := range allCases {
		for _, fx := range c.fixtures {
			dir := filepath.Join(scratch, filepath.FromSlash(fx.path))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				runErr = err
				return
			}
			if err := os.WriteFile(filepath.Join(dir, fx.name), []byte(fx.src), 0o644); err != nil {
				runErr = err
				return
			}
			overlay[vet.ModPath+"/"+fx.path] = dir
		}
	}
	prog, err := vet.LoadWithOverlay(repoRoot, overlay)
	if err != nil {
		runErr = err
		return
	}
	found = map[string][]string{}
	prefix := scratch + string(filepath.Separator)
	for _, f := range vet.Run(prog).Findings {
		rel, ok := strings.CutPrefix(f.File, prefix)
		if !ok {
			continue
		}
		rel = filepath.ToSlash(rel)
		msg := strings.ReplaceAll(f.Msg, prefix, "")
		pkg := filepath.ToSlash(filepath.Dir(rel))
		found[pkg] = append(found[pkg], fmt.Sprintf("%s:%d: [%s] %s", rel, f.Line, f.Pass, msg))
	}
}

// expect asserts that each want[i] is a substring of got[i].
func expect(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("finding[%d] = %q, want it to contain %q", i, got[i], w)
		}
	}
}

var forbiddenImports = newCase(fixture{"internal/sim/forbiddenimports", "fix.go", `package sim

import (
	"time"
	"math/rand"
	"sync"
)

var _ = time.Now
var _ = rand.Int
var _ = sync.Mutex{}
`})

func TestDeterminismForbiddenImports(t *testing.T) {
	// Only package-level declarations use the imports, so the import
	// itself is the finding.
	expect(t, forbiddenImports.findings(t),
		`[determinism] import "time"`,
		`[determinism] import "math/rand"`,
		`[determinism] import "sync"`)
}

var importsOutsideRestricted = newCase(fixture{"internal/trace/importsallowed", "fix.go", `package trace

import "time"

var _ = time.Now
`})

func TestDeterminismImportsAllowedOutsideRestrictedPackages(t *testing.T) {
	expect(t, importsOutsideRestricted.findings(t)) // trace is not a restricted package
}

var goroutinesAndChannels = newCase(fixture{"internal/sim/goroutines", "fix.go", `package sim

func f(ch chan int) {
	go func() {}()
	ch <- 1
	<-ch
	select {}
}
`})

func TestDeterminismGoroutinesAndChannels(t *testing.T) {
	expect(t, goroutinesAndChannels.findings(t),
		"channel types are forbidden",
		"goroutines are forbidden",
		"channel sends are forbidden",
		"channel receives are forbidden",
		"select statements are forbidden")
}

var mapRange = newCase(fixture{"internal/sim/maprange", "fix.go", `package sim

func f(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
`})

func TestDeterminismMapRangeFlagged(t *testing.T) {
	expect(t, mapRange.findings(t), "[determinism] iteration over map m")
}

var mapRangeSorted = newCase(fixture{"internal/sim/maprangesorted", "fix.go", `package sim

import "sort"

func f(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
`})

func TestDeterminismMapRangeCollectAndSortAllowed(t *testing.T) {
	expect(t, mapRangeSorted.findings(t))
}

var mapRangeUnsorted = newCase(fixture{"internal/sim/maprangeunsorted", "fix.go", `package sim

func f(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
`})

func TestDeterminismMapRangeCollectWithoutSortFlagged(t *testing.T) {
	expect(t, mapRangeUnsorted.findings(t), "iteration over map m")
}

var mapRangeLocalAndField = newCase(fixture{"internal/sim/maprangelocal", "fix.go", `package sim

type table struct {
	rows map[int]string
}

func f(tb *table) {
	local := make(map[int]bool)
	for range local {
	}
	for range tb.rows {
	}
}
`})

func TestDeterminismMapRangeViaLocalAndField(t *testing.T) {
	expect(t, mapRangeLocalAndField.findings(t),
		"iteration over map local",
		"iteration over map tb.rows")
}

var mapRangeCallResult = newCase(
	fixture{"internal/kernel/contention", "kern.go", `package kernel

func Contention() map[string]uint64 { return nil }
`},
	fixture{"internal/experiment/contention", "exp.go", `package experiment

import kernel "fastsocket/internal/kernel/contention"

func f() {
	for range kernel.Contention() {
	}
	m := kernel.Contention()
	for range m {
	}
}
`})

func TestDeterminismMapRangeViaFunctionResultAcrossPackages(t *testing.T) {
	expect(t, mapRangeCallResult.findings(t),
		"iteration over map kernel.Contention()",
		"iteration over map m")
}

var determinismWaiver = newCase(fixture{"internal/sim/determinismwaiver", "fix.go", `package sim

func f(m map[string]int) int {
	total := 0
	//fsvet:ignore determinism summing ints is order-independent
	for _, v := range m {
		total += v
	}
	return total
}
`})

func TestDeterminismSuppression(t *testing.T) {
	expect(t, determinismWaiver.findings(t))
}

var determinismTestFile = newCase(
	fixture{"internal/sim/testfile", "fix.go", `package sim
`},
	fixture{"internal/sim/testfile", "fix_test.go", `package sim

func f(m map[string]int) {
	for range m {
	}
}
`})

func TestDeterminismSkipsTestFiles(t *testing.T) {
	expect(t, determinismTestFile.findings(t))
}

var staleDirective = newCase(fixture{"internal/sim/staledirective", "fix.go", `package sim

func f(m map[string]int) int {
	total := 0
	//fsvet:ignore determinism summing ints is order-independent
	for _, v := range m {
		total += v
	}
	//fsvet:ignore determinism left behind after the loop below was fixed
	return total
}
`})

func TestStaleDirectiveFlagged(t *testing.T) {
	// A well-formed directive that suppresses nothing is itself a
	// finding; one that suppresses stays silent.
	expect(t, staleDirective.findings(t),
		"fix.go:9: [fsvet] stale //fsvet:ignore determinism directive")
}

var malformedDirectives = newCase(fixture{"internal/sim/directives", "fix.go", `package sim

//fsvet:ignore
func a() {}

//fsvet:ignore bogusrule some reason
func b() {}

//fsvet:ignore determinism
func c() {}
`})

func TestDirectiveValidation(t *testing.T) {
	expect(t, malformedDirectives.findings(t),
		"needs a pass and a reason",
		`unknown pass "bogusrule"`,
		"fsvet:ignore determinism needs a reason")
}

// The lock cases take a lock through Hold or With, the only ways to
// take one, so pairing cannot go wrong; what fsvet still checks per
// call site is that the lock has a class, resolved from lock.New.

var locksBalanced = newCase(fixture{"internal/ktimer/balanced", "fix.go", `package ktimer

import "fastsocket/internal/lock"

var l = lock.New("fixture.balanced", 0)

func work() {}

func f(c lock.Context) {
	l.Hold(c, 1)
	l.With(c, func() { work() })
}
`})

func TestLocksBalancedAcquireRelease(t *testing.T) {
	expect(t, locksBalanced.findings(t))
}

var locksWaiver = newCase(fixture{"internal/ktimer/lockwaiver", "fix.go", `package ktimer

import "fastsocket/internal/lock"

func f(c lock.Context, l *lock.SpinLock) {
	//fsvet:ignore lockorder the caller passes a lock built by lock.New
	l.Hold(c, 1)
}
`})

func TestLocksSuppression(t *testing.T) {
	expect(t, locksWaiver.findings(t))
}

var locksUnrestricted = newCase(fixture{"examples/lockdemo", "fix.go", `package demo

import "fastsocket/internal/lock"

func f(c lock.Context, l *lock.SpinLock) {
	l.With(c, func() {})
}
`})

func TestLocksAppliesToTestFilesAndUnrestrictedPackages(t *testing.T) {
	// Lock checks apply to every package fsvet loads, restricted or
	// not. fsvet loads no _test.go file, so test files are outside its
	// scope (DESIGN §5.1); a test cannot pair a lock by hand either.
	expect(t, locksUnrestricted.findings(t), `fix.go:6: [lockorder] l.With on a lock with no resolved class`)
}

var unitsBare = newCase(fixture{"internal/kernel/bareliteral", "fix.go", `package kernel

import "fastsocket/internal/sim"

func f(loop *sim.Loop) {
	loop.RunUntil(5000)
	loop.RunUntil(900)
	loop.RunUntil(5 * sim.Microsecond)
}
`})

func TestUnitsBareLiteralFlagged(t *testing.T) {
	expect(t, unitsBare.findings(t), "fix.go:6: [units] bare integer 5000 in a sim.Time position")
}

var unitsWaiver = newCase(fixture{"internal/kernel/unitswaiver", "fix.go", `package kernel

import "fastsocket/internal/sim"

func f(loop *sim.Loop) {
	//fsvet:ignore units calibrated raw nanosecond value
	loop.RunUntil(123456)
}
`})

func TestUnitsSuppression(t *testing.T) {
	expect(t, unitsWaiver.findings(t))
}

var unitsScope = newCase(
	fixture{"examples/unitsdemo", "demo.go", `package demo

import "fastsocket/internal/sim"

func f(loop *sim.Loop) { loop.RunUntil(123456) }
`},
	fixture{"internal/kernel/unitstest", "kern.go", `package kernel
`},
	fixture{"internal/kernel/unitstest", "kern_test.go", `package kernel

import "fastsocket/internal/sim"

func f(loop *sim.Loop) { loop.RunUntil(123456) }
`})

func TestUnitsOnlyInRestrictedNonTestCode(t *testing.T) {
	expect(t, unitsScope.findings(t))
}
