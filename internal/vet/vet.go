// Package vet implements fsvet, the project's static analyzer. It
// type-checks the whole module with go/types — go.mod stays
// dependency-free; only the standard library is used — and runs these
// passes over the one load:
//
//   - determinism: restricted packages must not import time, math/rand
//     or sync, launch goroutines, use channels or select, or range over
//     a map (recognized by its type, not its name) unless the loop body
//     only collects into a slice that is sorted afterwards.
//   - reach: restricted-import reachability — restricted packages must
//     not reach time/math/rand/sync functionality through any call
//     chain, not merely avoid importing it directly. Exempt packages
//     (internal/sweep) are barriers with their reason on record.
//   - units: bare integer literals flowing into sim.Time positions,
//     resolved through the type checker (parameters, conversions, and
//     arithmetic mixing bare ints into sim.Time expressions).
//   - lockorder: an interprocedural static lock-order graph. A lock is
//     held only for one Hold or With call, so the held set at a site is
//     the With bodies that enclose it; acquire summaries carry it
//     across the call graph (including interface devirtualization,
//     e.g. tcp.Env to *kernel.Kernel), and the pass reports potential
//     order inversions. It also reports a lock call whose class does
//     not resolve and a With body that is not a function literal at
//     the call site.
//   - charge: functions in restricted packages that mutate reachable
//     kernel/TCB/VFS state on some path without charging virtual time
//     (Charge/Spin, directly or transitively) — simulated work that
//     would otherwise be free.
//   - escape: sim.Event value handles stored in long-lived struct
//     fields and later used without generation revalidation
//     (Live/Cancelled) — use-after-free against the pooled scheduler.
//   - alloc: heap-allocation sites (composite literals, new/make,
//     append, map inserts, interface boxing, string conversions,
//     closures other than With bodies) in every function reachable
//     from the //fsvet:hotpath roots, checked in both directions
//     against the committed per-function budget in
//     .fsvet-allocbudget.json; the budget's runtime ceilings are
//     cross-checked against MemStats and testing.AllocsPerRun by the
//     runtime alloc cross-check.
//   - shard: hot-path writes to kernel/TCB/stats state must be inside
//     a With body, in a function only ever entered with a lock held,
//     on //fsvet:percore state, or explicitly waived with
//     //fsvet:shared <reason> — the per-core isolation proof the
//     future sharded engine depends on.
//   - mailbox: shard.Engine.Post is the parallel engine's only
//     cross-domain injection primitive; calling it is reserved to
//     functions marked //fsvet:mailbox <reason> (the fabric delivery
//     path), so no code can route a cross-shard effect around the
//     deterministic barrier mailboxes. A marked function that never
//     posts is a stale marker, also reported.
//   - fsm: the TCP state machine read off its transition calls. Every
//     state change is a call sk.Transition(from, to) whose prior set
//     and target are constants, so each from × to pair of a call is a
//     static edge; the relation is diffed both ways against the
//     committed spec in fsmspec.go. An edge with no spec entry is a
//     finding (add it to the spec with a justification or waive it with
//     //fsvet:ignore fsm <reason>); a spec edge with no call means the
//     implementation lost the edge or the spec is stale. A non-constant
//     argument, Transition used other than as the callee of a direct
//     call (method value or expression, interface call), a store to
//     Sock.State or its address taken outside Transition, and a Sock
//     literal outside the birth state CLOSED are findings, since each
//     would change state where the scan cannot see it. At run time
//     Transition panics when the socket's state is not among the
//     call's declared priors, so every transition any run executes is a
//     spec edge. The extracted relation (Result.FSMGraph) is also the
//     reference for the runtime cross-check: cmd/fsvet replays the fsm
//     experiment mix under the stats.FSMTrace transition tracer and
//     fails if any observed transition lacks a static site or the mix
//     covers less than FSMCoverageFloor of the spec's non-defensive
//     edges.
//
// Findings are suppressible per line with
//
//	//fsvet:ignore <pass> <reason>
//
// on the finding's line or the line above. Waivers must earn their
// keep: a directive that suppresses nothing — no finding on its line or
// the next — is itself reported as stale, so audited exceptions cannot
// outlive the code they excused. fsvet loads no _test.go file, so none
// of these checks covers tests.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"sync"
)

// Pass names, as used in findings and //fsvet:ignore directives.
const (
	PassDeterminism = "determinism"
	PassReach       = "reach"
	PassUnits       = "units"
	PassLockOrder   = "lockorder"
	PassCharge      = "charge"
	PassEscape      = "escape"
	PassAlloc       = "alloc"
	PassShard       = "shard"
	PassMailbox     = "mailbox"
	PassFSM         = "fsm"
	// PassDirective flags malformed fsvet directives themselves.
	PassDirective = "fsvet"
)

var knownPasses = map[string]bool{
	PassDeterminism: true,
	PassReach:       true,
	PassUnits:       true,
	PassLockOrder:   true,
	PassCharge:      true,
	PassEscape:      true,
	PassAlloc:       true,
	PassShard:       true,
	PassMailbox:     true,
	PassFSM:         true,
}

// Finding is one fsvet diagnostic with a stable, root-relative anchor.
type Finding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Pass string `json:"pass"`
	Msg  string `json:"msg"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Pass, f.Msg)
}

// Result is a complete fsvet run: the findings plus the static
// lock-order graph (for the lockdep cross-check) and the static TCP
// transition relation (for the fsm cross-check).
type Result struct {
	Findings  []Finding       `json:"findings"`
	LockGraph []StaticEdge    `json:"lock_graph"`
	FSMGraph  []FSMTransition `json:"fsm_graph"`
}

// Run executes every pass over the program — independent passes run
// concurrently on a single shared type-checked load — and returns the
// sorted, unsuppressed findings plus the static lock and fsm graphs.
func Run(p *Program) *Result {
	v := &vetter{prog: p, sup: collectDirectives(p)}
	v.findings = append(v.findings, v.sup.malformed...)

	cg := buildCallGraph(p)
	mk := v.collectMarkers()
	v.mk = mk
	_, hot := hotPathSet(cg, mk)

	var lockGraph []StaticEdge
	var fsmGraph []FSMTransition
	// Pass groups are independent of each other (shard needs the lock
	// analysis, so it chains after lockorder). All shared inputs —
	// program, call graph, markers, type info — are read-only by now;
	// findings and suppression hits funnel through the vetter mutex.
	groups := []func(){
		func() { v.checkDeterminism() },
		func() { v.checkReach(cg) },
		func() { v.checkUnits() },
		func() {
			var la *lockAnalysis
			la, lockGraph = v.checkLocks(cg, hot)
			v.checkShard(cg, hot, la, mk)
		},
		func() { v.checkCharge(cg) },
		func() { v.checkEscape() },
		func() { v.checkAlloc(cg, hot) },
		func() { v.checkMailbox(cg, mk) },
		func() { fsmGraph = v.checkFSM(cg) },
	}
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g func()) {
			defer wg.Done()
			g()
		}(g)
	}
	wg.Wait()

	// Stale waivers: an //fsvet:ignore directive that suppressed
	// nothing this run protects nothing and must go.
	for _, td := range v.sup.tracked {
		if !v.sup.used[td.key] {
			v.findings = append(v.findings, Finding{
				File: td.key.file, Line: td.key.line, Col: td.col, Pass: PassDirective,
				Msg: fmt.Sprintf("stale %s directive: no %s finding on this line or the next to suppress; remove it", td.text, td.key.pass),
			})
		}
	}

	sort.Slice(v.findings, func(i, j int) bool {
		a, b := v.findings[i], v.findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Msg < b.Msg
	})
	return &Result{Findings: v.findings, LockGraph: lockGraph, FSMGraph: fsmGraph}
}

// vetter carries the shared state of one Run. The mutex serializes
// finding appends and suppression-hit bookkeeping across the
// concurrently running passes.
type vetter struct {
	prog     *Program
	sup      *suppressor
	mk       *markers
	mu       sync.Mutex
	findings []Finding
}

// report files a finding unless a directive on its line (or the line
// above) suppresses the pass.
func (v *vetter) report(pos token.Pos, pass, format string, args ...any) {
	tp := v.prog.RelPos(pos)
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.sup.suppressed(tp.Filename, tp.Line, pass) {
		return
	}
	v.findings = append(v.findings, Finding{
		File: tp.Filename, Line: tp.Line, Col: tp.Column,
		Pass: pass, Msg: fmt.Sprintf(format, args...),
	})
}

// reportGraph files a position-less, graph-level finding (a property of
// the whole extraction rather than one site); it cannot be waived with
// a line directive.
func (v *vetter) reportGraph(pass, file, format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.findings = append(v.findings, Finding{
		File: file, Pass: pass, Msg: fmt.Sprintf(format, args...),
	})
}

// --- Suppression directives ------------------------------------------

type supKey struct {
	file string
	line int
	pass string
}

// trackedDirective is a waiver eligible for staleness reporting:
// //fsvet:ignore directives must suppress something every run or be
// removed. (//fsvet:shared markers are excluded: they are state
// documentation as much as waivers.)
type trackedDirective struct {
	key  supKey
	col  int
	text string
}

type suppressor struct {
	lines     map[supKey]bool
	used      map[supKey]bool
	tracked   []trackedDirective
	malformed []Finding
}

// suppressed reports (and records, for staleness) whether a directive
// covers a finding of the pass at the line or the line above.
func (s *suppressor) suppressed(file string, line int, pass string) bool {
	hit := false
	for _, k := range []supKey{{file, line, pass}, {file, line - 1, pass}} {
		if s.lines[k] {
			s.used[k] = true
			hit = true
		}
	}
	return hit
}

// collectDirectives gathers //fsvet:ignore and //fsvet:shared
// directives across every loaded file. Malformed ones are findings:
// they silently protect nothing.
func collectDirectives(p *Program) *suppressor {
	s := &suppressor{lines: map[supKey]bool{}, used: map[supKey]bool{}}
	for _, ip := range p.Paths {
		for _, file := range p.Files[ip] {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					s.directive(p, c)
				}
			}
		}
	}
	return s
}

func (s *suppressor) directive(p *Program, c *ast.Comment) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	tp := p.RelPos(c.Pos())
	switch {
	case strings.HasPrefix(text, "fsvet:ignore"):
		fields := strings.Fields(strings.TrimPrefix(text, "fsvet:ignore"))
		switch {
		case len(fields) == 0:
			s.malformed = append(s.malformed, Finding{File: tp.Filename, Line: tp.Line, Col: tp.Column,
				Pass: PassDirective, Msg: "fsvet:ignore needs a pass and a reason: //fsvet:ignore <pass> <reason>"})
		case !knownPasses[fields[0]]:
			s.malformed = append(s.malformed, Finding{File: tp.Filename, Line: tp.Line, Col: tp.Column,
				Pass: PassDirective, Msg: fmt.Sprintf("fsvet:ignore names unknown pass %q (known: determinism, reach, units, lockorder, charge, escape, alloc, shard, mailbox, fsm)", fields[0])})
		case len(fields) < 2:
			s.malformed = append(s.malformed, Finding{File: tp.Filename, Line: tp.Line, Col: tp.Column,
				Pass: PassDirective, Msg: fmt.Sprintf("fsvet:ignore %s needs a reason", fields[0])})
		default:
			k := supKey{tp.Filename, tp.Line, fields[0]}
			s.lines[k] = true
			s.tracked = append(s.tracked, trackedDirective{key: k, col: tp.Column, text: "//fsvet:ignore " + fields[0]})
		}
	case strings.HasPrefix(text, "fsvet:shared"):
		// A well-formed site-level shared waiver also suppresses the
		// shard pass on its line; collectMarkers reports malformed ones.
		if len(strings.Fields(strings.TrimPrefix(text, "fsvet:shared"))) > 0 {
			s.lines[supKey{tp.Filename, tp.Line, PassShard}] = true
		}
	}
}
