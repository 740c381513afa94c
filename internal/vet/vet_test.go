package vet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fastsocket/internal/lock"
	"fastsocket/internal/stats"
	"fastsocket/internal/tcp"
)

const repoRoot = "../.."

// corpusOverlay maps synthetic module import paths to the golden
// corpus directories. Paths under internal/kernel/ inherit
// restricted-package status exactly as real code would; reachutil sits
// outside internal/ so it is an unrestricted module helper.
func corpusOverlay(t *testing.T) map[string]string {
	t.Helper()
	abs := func(dir string) string {
		p, err := filepath.Abs(filepath.Join("testdata", "corpus", dir))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return map[string]string{
		"fastsocket/internal/kernel/vetcorpus_det":    abs("determinism"),
		"fastsocket/internal/kernel/vetcorpus_reach":  abs("reach"),
		"fastsocket/internal/kernel/vetcorpus_units":  abs("units"),
		"fastsocket/internal/kernel/vetcorpus_locks":  abs("lockorder"),
		"fastsocket/internal/kernel/vetcorpus_charge": abs("charge"),
		"fastsocket/internal/kernel/vetcorpus_escape": abs("escape"),
		"fastsocket/internal/kernel/vetcorpus_alloc":  abs("alloc"),
		"fastsocket/internal/kernel/vetcorpus_shard":  abs("shard"),
		"fastsocket/internal/kernel/vetcorpus_fsm":    abs("fsm"),
		"fastsocket/vetcorpus/reachutil":              abs("reachutil"),
	}
}

var wantRe = regexp.MustCompile(`// want "(.*)"`)

type expectation struct {
	file string // root-relative
	line int
	re   *regexp.Regexp
}

// collectWants scans corpus sources for // want "regexp" annotations.
func collectWants(t *testing.T, overlay map[string]string) []expectation {
	t.Helper()
	root, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	var wants []expectation
	for _, dir := range overlay {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for ln := 1; sc.Scan(); ln++ {
				m := wantRe.FindStringSubmatch(sc.Text())
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", rel, ln, m[1], err)
				}
				wants = append(wants, expectation{file: filepath.ToSlash(rel), line: ln, re: re})
			}
			f.Close()
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return wants
}

// TestGoldenCorpus loads the repository plus the corpus overlays and
// checks every pass against the annotated expectations. It doubles as
// the repository-cleanliness gate: any finding outside the corpus is a
// failure.
func TestGoldenCorpus(t *testing.T) {
	overlay := corpusOverlay(t)
	prog, err := LoadWithOverlay(repoRoot, overlay)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(prog)

	wants := collectWants(t, overlay)
	// Reasonless-directive cases cannot carry want comments (the
	// comment would join the directive); assert them explicitly.
	wants = append(wants,
		expectation{
			file: "internal/vet/testdata/corpus/determinism/directives.go",
			line: 27,
			re:   regexp.MustCompile(`fsvet:ignore units needs a reason`),
		},
		expectation{
			file: "internal/vet/testdata/corpus/determinism/directives.go",
			line: 31,
			re:   regexp.MustCompile(`fsvet:ignore needs a pass and a reason`),
		},
		expectation{
			file: "internal/vet/testdata/corpus/shard/directives.go",
			line: 7,
			re:   regexp.MustCompile(`fsvet:percore needs a reason`),
		},
		expectation{
			file: "internal/vet/testdata/corpus/shard/directives.go",
			line: 10,
			re:   regexp.MustCompile(`fsvet:shared needs a reason`),
		},
		expectation{
			file: "internal/vet/testdata/corpus/shard/directives.go",
			line: 13,
			re:   regexp.MustCompile(`fsvet:mailbox needs a reason`),
		},
		expectation{
			file: "internal/vet/testdata/corpus/fsm/fsm.go",
			line: 109,
			re:   regexp.MustCompile(`fsvet:ignore fsm needs a reason`),
		},
	)

	inCorpus := func(f Finding) bool {
		return strings.HasPrefix(f.File, "internal/vet/testdata/")
	}

	var repoFindings, corpusFindings, graphFindings, fsmGraphFindings []Finding
	for _, f := range res.Findings {
		switch {
		case f.File == "(lock-order graph)":
			graphFindings = append(graphFindings, f)
		case f.File == "(fsm graph)":
			fsmGraphFindings = append(fsmGraphFindings, f)
		case inCorpus(f):
			corpusFindings = append(corpusFindings, f)
		default:
			repoFindings = append(repoFindings, f)
		}
	}

	for _, f := range repoFindings {
		t.Errorf("repository is not fsvet-clean: %s", f)
	}

	matched := make([]bool, len(wants))
	for _, f := range corpusFindings {
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == f.File && w.line == f.Line && w.re.MatchString(f.Msg) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected corpus finding: %s", f)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing finding: %s:%d want match for %q", w.file, w.line, w.re)
		}
	}

	// The corpus inversion (corpus.a <-> corpus.b) must surface as a
	// whole-graph lockorder finding.
	foundInversion := false
	for _, f := range graphFindings {
		if f.Pass == PassLockOrder && strings.Contains(f.Msg, "corpus.a") && strings.Contains(f.Msg, "corpus.b") {
			foundInversion = true
		} else {
			t.Errorf("unexpected lock-order graph finding: %s", f)
		}
	}
	if !foundInversion {
		t.Errorf("corpus lock-order inversion (corpus.a <-> corpus.b) not reported")
	}

	// The corpus spec's deliberately unimplemented DONE -> GHOST edge
	// must surface as the sole fsm-graph finding: the real TCP machine's
	// spec and implementation agree edge for edge.
	foundGhost := false
	for _, f := range fsmGraphFindings {
		if f.Pass == PassFSM && strings.Contains(f.Msg, "DONE -> GHOST") && strings.Contains(f.Msg, "no static site") {
			foundGhost = true
		} else {
			t.Errorf("unexpected fsm graph finding: %s", f)
		}
	}
	if !foundGhost {
		t.Errorf("corpus spec edge DONE -> GHOST without a site not reported")
	}

	// The extracted static relation must carry both machines, and the
	// TCP machine must match the committed spec exactly (every spec edge
	// extracted, no extras — extras would also be findings above).
	tcpSpec := TCPSpec()
	static := map[string]bool{}
	for _, tr := range res.FSMGraph {
		if tr.Type == tcpSpec.Type {
			static[tr.From+" -> "+tr.To] = true
		}
	}
	if len(static) != len(tcpSpec.Transitions) {
		t.Errorf("extracted %d TCP transitions, spec has %d", len(static), len(tcpSpec.Transitions))
	}
	for _, tr := range tcpSpec.Transitions {
		key := tcpSpec.StateName(tr.From) + " -> " + tcpSpec.StateName(tr.To)
		if !static[key] {
			t.Errorf("spec transition %s not extracted from the module", key)
		}
	}

	// The static graph must include both corpus edge directions (the
	// a->b edge flows through a transitive-acquire summary and a With
	// closure) alongside the real kernel edges.
	hasEdge := func(outer, inner string) bool {
		for _, e := range res.LockGraph {
			if e.Outer == outer && e.Inner == inner {
				return true
			}
		}
		return false
	}
	for _, e := range [][2]string{
		{"corpus.a", "corpus.b"},
		{"corpus.b", "corpus.a"},
		{"slock", "ehash.lock"},
		{"slock", "base.lock"},
		{"slock", "ep.lock"},
	} {
		if !hasEdge(e[0], e[1]) {
			t.Errorf("static lock graph missing edge %s -> %s", e[0], e[1])
		}
	}
	// A literal handed to a deferred executor inside a With body runs
	// later with nothing held.
	if hasEdge("corpus.a", "corpus.late") {
		t.Errorf("static lock graph has corpus.a -> corpus.late: a deferred literal inherited its enclosing With body's lock")
	}
}

// TestRunIsDeterministic loads the repository plus the golden corpus
// twice from scratch and requires byte-identical JSON: pass output —
// including the alloc and shard findings the corpus provokes — must
// not depend on map iteration order anywhere in the analyzer itself.
func TestRunIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full type-check loads")
	}
	overlay := corpusOverlay(t)
	var out [2][]byte
	for i := range out {
		prog, err := LoadWithOverlay(repoRoot, overlay)
		if err != nil {
			t.Fatal(err)
		}
		out[i], err = json.MarshalIndent(Run(prog), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Fatalf("two runs produced different JSON:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", out[0], out[1])
	}
	for _, pass := range []string{PassAlloc, PassShard, PassFSM} {
		if !bytes.Contains(out[0], []byte(`"`+pass+`"`)) {
			t.Errorf("determinism run produced no %s findings — the corpus should provoke some", pass)
		}
	}
}

// TestCrossCheck seeds deliberate mismatches in both directions and
// checks the classification: observed-but-not-static edges are
// analyzer bugs (fail), static-but-not-observed are untested
// interactions (informational).
func TestCrossCheck(t *testing.T) {
	static := []StaticEdge{
		{Outer: "slock", Inner: "ehash.lock"},
		{Outer: "slock", Inner: "base.lock"},
	}
	observed := []lock.ObservedEdge{
		{Outer: "slock", Inner: "ehash.lock", Sites: []string{"x"}},
		{Outer: "ghost", Inner: "slock", Sites: []string{"y"}},
	}
	cc := CrossCheck(static, observed)
	if cc.OK() {
		t.Fatalf("expected failure: observed ghost edge is missing from static graph")
	}
	if len(cc.Missing) != 1 || cc.Missing[0].Outer != "ghost" {
		t.Fatalf("Missing = %+v, want the ghost edge", cc.Missing)
	}
	if len(cc.Untested) != 1 || cc.Untested[0].Inner != "base.lock" {
		t.Fatalf("Untested = %+v, want slock->base.lock", cc.Untested)
	}

	clean := CrossCheck(static, []lock.ObservedEdge{
		{Outer: "slock", Inner: "ehash.lock"},
		{Outer: "slock", Inner: "base.lock"},
	})
	if !clean.OK() || len(clean.Untested) != 0 {
		t.Fatalf("expected clean cross-check, got %s", clean.Summary())
	}
}

// TestFSMCross seeds synthetic observed matrices against a small spec
// and static graph: an observed edge with no static site fails the
// check, an unexercised non-defensive spec edge counts against
// coverage, and defensive edges stay out of the denominator.
func TestFSMCross(t *testing.T) {
	spec := &FSMSpec{
		Type:   "t.S",
		States: []string{"A", "B", "C"},
		Transitions: []SpecTransition{
			{From: 0, To: 1, Why: "open"},
			{From: 1, To: 2, Why: "close"},
			{From: 2, To: 0, Why: "sweep", Defensive: true},
		},
	}
	graph := []FSMTransition{
		{Type: "t.S", From: "A", To: "B"},
		{Type: "t.S", From: "B", To: "C"},
		{Type: "t.S", From: "C", To: "A"},
		{Type: "other.T", From: "B", To: "A"}, // other machine: must not leak in
	}
	observed := []stats.FSMEdge{
		{From: "A", To: "B", Count: 10},
		{From: "B", To: "A", Count: 1}, // no static site in t.S
	}
	res := FSMCross(spec, graph, observed)
	if res.OK(0.9) {
		t.Fatalf("expected failure, got %+v", res)
	}
	if len(res.Unexpected) != 1 || !strings.Contains(res.Unexpected[0], "B -> A") {
		t.Errorf("Unexpected = %v, want the B -> A edge", res.Unexpected)
	}
	if res.Required != 2 || res.Covered != 1 {
		t.Errorf("coverage = %d/%d, want 1/2 (defensive edge excluded)", res.Covered, res.Required)
	}
	if len(res.Uncovered) != 1 || !strings.Contains(res.Uncovered[0], "B -> C") {
		t.Errorf("Uncovered = %v, want B -> C", res.Uncovered)
	}

	// Full legal coverage passes even with the defensive edge silent.
	clean := FSMCross(spec, graph, []stats.FSMEdge{
		{From: "A", To: "B", Count: 5},
		{From: "B", To: "C", Count: 5},
	})
	if !clean.OK(0.9) || clean.Coverage() != 1 {
		t.Fatalf("expected clean cross-check, got %+v", clean)
	}
}

// TestTCPSpecNames pins the spec's state table to tcp.State's String
// rendering so the runtime tracer's edge names and the static graph's
// can never drift apart.
func TestTCPSpecNames(t *testing.T) {
	spec := TCPSpec()
	if len(spec.States) != tcp.NumStates {
		t.Fatalf("spec has %d states, tcp has %d", len(spec.States), tcp.NumStates)
	}
	for i, name := range spec.States {
		if want := tcp.State(i).String(); name != want {
			t.Errorf("state %d named %q in spec, %q in tcp", i, name, want)
		}
	}
}

// TestRestrictedPathMatching pins which import paths the determinism,
// units and charge passes treat as simulation code: the restricted
// internal packages and their subpackages, but not tooling, commands,
// the module root, or the exempt host-parallel packages.
func TestRestrictedPathMatching(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"fastsocket/internal/sim", true},
		{"fastsocket/internal/experiment", true},
		{"fastsocket/internal/fault", true},
		{"fastsocket/internal/kernel/x", true},
		{"fastsocket/internal/app", false},
		{"fastsocket/internal/vet", false},
		{"fastsocket/cmd/fsvet", false},
		{"fastsocket/cmd/fsperf", false},
		{"fastsocket", false},
		// Exempt: they run whole simulations on host goroutines.
		{"fastsocket/internal/sweep", false},
		{"fastsocket/internal/shard", false},
	}
	for _, c := range cases {
		if got := Restricted(c.path); got != c.want {
			t.Errorf("Restricted(%q) = %v, want %v", c.path, got, c.want)
		}
	}
	// An exemption wins even if the restricted set grows to cover it.
	for _, name := range []string{"sweep", "shard"} {
		if exemptPkgs[name] == "" {
			t.Errorf("internal/%s has no recorded exemption", name)
		}
		restrictedPkgs[name] = true
		if Restricted("fastsocket/internal/" + name) {
			t.Errorf("exempt internal/%s is restricted once listed in restrictedPkgs", name)
		}
		delete(restrictedPkgs, name)
	}
}

// TestFindingString pins the human-readable rendering the CI log shows.
func TestFindingString(t *testing.T) {
	f := Finding{File: "internal/sim/sim.go", Line: 7, Col: 2, Pass: PassDeterminism, Msg: "boom"}
	want := "internal/sim/sim.go:7:2: [determinism] boom"
	if got := fmt.Sprint(f); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
