package vet

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The alloc pass proves the zero-alloc claim for the event-dispatch
// hot path. Every function in the //fsvet:hotpath closure that lives
// in a restricted package is scanned for static heap-allocation
// sites:
//
//   - composite: &T{...}, and bare map/slice composite literals
//   - new/make:  the builtins
//   - append:    slice growth (a site even when capacity usually holds)
//   - map-insert: m[k] = v / m[k]++ (rehash/growth)
//   - box:       non-pointer values converted to interface types at
//     call arguments and assignments (pointers, maps, chans and funcs
//     fit the interface word and are exempt)
//   - variadic:  calls that materialize a variadic backing slice
//   - string:    string<->[]byte conversions and string concatenation
//   - closure:   function literals (the closure header allocates; the
//     pooled code base hoists hot-path closures to init time). A lock
//     With body is not a site: With does not keep it, so the compiler
//     leaves it on the caller's stack, and its interior is scanned as
//     code of the function that contains it
//
// The committed budget (.fsvet-allocbudget.json) records, per
// function, exactly how many sites are allowed and of which kinds —
// in this repository, only pool-miss refill paths and amortized
// slice growth. Any drift fails the build in either direction: new
// sites are findings, and vanished sites make the budget entry stale
// (regenerate with `fsvet -write-allocbudget`). Every fsvet run
// cross-checks the static claim against runtime counters: a measured
// allocs/event above the budget's runtime ceiling fails, mirroring the
// lockdep static<->runtime cross-check.

// AllocBudgetFile is the committed budget's filename at the module root.
const AllocBudgetFile = ".fsvet-allocbudget.json"

// AllocBudget is the committed per-function allocation budget plus
// the runtime ceiling the cross-check enforces.
type AllocBudget struct {
	Note string `json:"note,omitempty"`
	// RuntimeCeilingAllocsPerEvent bounds the measured allocations per
	// loop event of the macro and offloads-on bulk beds.
	RuntimeCeilingAllocsPerEvent float64 `json:"runtime_ceiling_allocs_per_event"`
	// RuntimeCeilingEngineAllocsPerOp bounds testing.AllocsPerRun over
	// a steady-state schedule/fire pair on the bare loop.
	RuntimeCeilingEngineAllocsPerOp float64 `json:"runtime_ceiling_engine_allocs_per_op"`
	// Functions maps qualifiedName -> allowed allocation sites.
	Functions map[string]AllocBudgetEntry `json:"functions"`
}

// AllocBudgetEntry is one function's allowance.
type AllocBudgetEntry struct {
	Sites int      `json:"sites"`
	Kinds []string `json:"kinds"` // e.g. ["append x2", "composite"]
	Note  string   `json:"note,omitempty"`
}

// JSON renders the budget deterministically (map keys sort).
func (b *AllocBudget) JSON() []byte {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		panic("vet: budget marshal: " + err.Error())
	}
	return append(out, '\n')
}

// LoadAllocBudget reads the budget at the module root. A missing file
// is an empty budget (every hot-path allocation is then a finding).
func LoadAllocBudget(root string) (*AllocBudget, error) {
	data, err := os.ReadFile(filepath.Join(root, AllocBudgetFile))
	if os.IsNotExist(err) {
		return &AllocBudget{Functions: map[string]AllocBudgetEntry{}}, nil
	}
	if err != nil {
		return nil, err
	}
	var b AllocBudget
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("vet: %s: %w", AllocBudgetFile, err)
	}
	if b.Functions == nil {
		b.Functions = map[string]AllocBudgetEntry{}
	}
	return &b, nil
}

// allocSite is one static allocation site.
type allocSite struct {
	pos  token.Pos
	kind string
}

// checkAlloc runs the alloc pass over the hot set against the budget.
func (v *vetter) checkAlloc(cg *callGraph, hot map[*types.Func]bool) {
	budget, err := LoadAllocBudget(v.prog.Root)
	if err != nil {
		v.reportGraph(PassAlloc, "(alloc budget)", "%s", err.Error())
		budget = &AllocBudget{Functions: map[string]AllocBudgetEntry{}}
	}

	seen := map[string]bool{}
	for _, fn := range cg.funcs {
		if !hot[fn] || !Restricted(cg.pkgOf[fn]) {
			continue
		}
		qn := qualifiedName(fn)
		seen[qn] = true
		sites := v.allocSites(cg.decls[fn])
		entry, budgeted := budget.Functions[qn]
		switch {
		case len(sites) == 0 && budgeted:
			v.report(cg.decls[fn].Pos(), PassAlloc,
				"stale allocation budget: %s no longer allocates on the hot path (entry allows %d sites) — regenerate %s",
				qn, entry.Sites, AllocBudgetFile)
		case len(sites) > entry.Sites && !budgeted:
			for _, s := range sites {
				v.report(s.pos, PassAlloc,
					"hot-path allocation (%s) in %s with no budget entry: pool it or budget it in %s",
					s.kind, qn, AllocBudgetFile)
			}
		case len(sites) > entry.Sites:
			v.report(cg.decls[fn].Pos(), PassAlloc,
				"%s allocates at %d hot-path sites (%s), budget allows %d: pool the new sites or regenerate %s",
				qn, len(sites), strings.Join(kindSummary(sites), ", "), entry.Sites, AllocBudgetFile)
		case len(sites) > 0 && len(sites) < entry.Sites:
			v.report(cg.decls[fn].Pos(), PassAlloc,
				"stale allocation budget: %s has %d hot-path sites, entry allows %d — regenerate %s",
				qn, len(sites), entry.Sites, AllocBudgetFile)
		case len(sites) > 0 && !kindsEqual(kindSummary(sites), entry.Kinds):
			v.report(cg.decls[fn].Pos(), PassAlloc,
				"stale allocation budget: %s site kinds changed to [%s] (entry: [%s]) — regenerate %s",
				qn, strings.Join(kindSummary(sites), ", "), strings.Join(entry.Kinds, ", "), AllocBudgetFile)
		}
	}

	// Budget entries that no longer name a hot restricted function are
	// stale. Corpus fixture entries (vetcorpus_ packages) are exempt:
	// they exist only when the golden-corpus overlay is loaded.
	keys := make([]string, 0, len(budget.Functions))
	for k := range budget.Functions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if seen[k] || strings.Contains(k, "vetcorpus_") {
			continue
		}
		v.reportGraph(PassAlloc, "(alloc budget)",
			"budget entry %q does not match any hot-path function — regenerate %s", k, AllocBudgetFile)
	}
}

// GenerateAllocBudget computes the budget matching the module's
// current hot-path allocation sites, preserving the ceilings and any
// per-entry notes from prev (pass nil to start fresh).
func GenerateAllocBudget(p *Program, prev *AllocBudget) *AllocBudget {
	v := &vetter{prog: p, sup: collectDirectives(p)}
	cg := buildCallGraph(p)
	mk := v.collectMarkers()
	_, hot := hotPathSet(cg, mk)

	out := &AllocBudget{Functions: map[string]AllocBudgetEntry{}}
	if prev != nil {
		out.Note = prev.Note
		out.RuntimeCeilingAllocsPerEvent = prev.RuntimeCeilingAllocsPerEvent
		out.RuntimeCeilingEngineAllocsPerOp = prev.RuntimeCeilingEngineAllocsPerOp
	}
	for _, fn := range cg.funcs {
		if !hot[fn] || !Restricted(cg.pkgOf[fn]) {
			continue
		}
		sites := v.allocSites(cg.decls[fn])
		if len(sites) == 0 {
			continue
		}
		qn := qualifiedName(fn)
		e := AllocBudgetEntry{Sites: len(sites), Kinds: kindSummary(sites)}
		if prev != nil {
			if old, ok := prev.Functions[qn]; ok {
				e.Note = old.Note
			}
		}
		out.Functions[qn] = e
	}
	if prev != nil {
		// Keep corpus fixture entries: they are part of the golden tests,
		// not of the module scan.
		for k, e := range prev.Functions {
			if strings.Contains(k, "vetcorpus_") {
				out.Functions[k] = e
			}
		}
	}
	return out
}

// kindSummary renders a site list as sorted "kind xN" strings.
func kindSummary(sites []allocSite) []string {
	counts := map[string]int{}
	for _, s := range sites {
		counts[s.kind]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := make([]string, 0, len(kinds))
	for _, k := range kinds {
		if counts[k] == 1 {
			out = append(out, k)
		} else {
			out = append(out, fmt.Sprintf("%s x%d", k, counts[k]))
		}
	}
	return out
}

func kindsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allocSites classifies every static allocation site in one function
// body, in source order. Function-literal interiors are not descended
// into: the literal itself is the site (its header allocates when it
// captures), and literals handed to deferred executors run outside
// this function's budget anyway. A With body is the exception: it runs
// within the call, on the stack, so its interior is this function's.
func (v *vetter) allocSites(fd *ast.FuncDecl) []allocSite {
	info := v.prog.Info
	var sites []allocSite
	add := func(pos token.Pos, kind string) {
		sites = append(sites, allocSite{pos: pos, kind: kind})
	}
	// &T{...} composites are recorded at the UnaryExpr; mark the inner
	// literal handled so the CompositeLit case does not re-count it.
	handled := map[*ast.CompositeLit]bool{}
	withBodies := map[*ast.FuncLit]bool{}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if withBodies[n] {
				return true
			}
			add(n.Pos(), "closure")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), "composite")
					handled[lit] = true
				}
			}
		case *ast.CompositeLit:
			if handled[n] {
				return true
			}
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map, *types.Slice:
					add(n.Pos(), "composite")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[n]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						add(n.Pos(), "string")
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if tv, ok := info.Types[idx.X]; ok {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							add(lhs.Pos(), "map-insert")
						}
					}
				}
				if i < len(n.Rhs) && n.Tok == token.ASSIGN {
					if lt, ok := info.Types[lhs]; ok && types.IsInterface(lt.Type) {
						if rt, ok := info.Types[n.Rhs[i]]; ok && boxAllocates(rt.Type) {
							add(n.Rhs[i].Pos(), "box")
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
				if tv, ok := info.Types[idx.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						add(n.X.Pos(), "map-insert")
					}
				}
			}
		case *ast.CallExpr:
			if lit := withBody(info, n); lit != nil {
				withBodies[lit] = true
			}
			v.classifyCall(n, add)
		}
		return true
	})
	sort.SliceStable(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
	return sites
}

// classifyCall records allocation sites arising from one call
// expression: builtins, string conversions, interface boxing at
// arguments, and variadic slice materialization.
func (v *vetter) classifyCall(call *ast.CallExpr, add func(token.Pos, string)) {
	info := v.prog.Info

	// Type conversion: string <-> []byte/[]rune allocate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		var src types.Type
		if atv, ok := info.Types[call.Args[0]]; ok {
			src = atv.Type.Underlying()
		}
		if src != nil && stringConv(dst, src) {
			add(call.Pos(), "string")
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "new":
				add(call.Pos(), "new")
			case "make":
				add(call.Pos(), "make")
			case "append":
				add(call.Pos(), "append")
			}
			return
		}
	}

	// Interface boxing at arguments, resolved through the call's
	// signature (works for static calls, methods and function values).
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through: no new backing array
			}
			if i == np-1 {
				add(arg.Pos(), "variadic")
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		if atv, ok := info.Types[arg]; ok && boxAllocates(atv.Type) {
			add(arg.Pos(), "box")
		}
	}
}

// stringConv reports whether a conversion between these underlying
// types copies memory.
func stringConv(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteish := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteish(src)) || (isByteish(dst) && isStr(src))
}

// boxAllocates reports whether converting a value of this static type
// to an interface allocates: pointer-shaped values (pointers,
// interfaces, maps, chans, funcs, unsafe.Pointer) fit the interface
// data word directly, everything else is heap-boxed.
func boxAllocates(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.(*types.Basic); ok {
		switch b.Kind() {
		case types.UntypedNil, types.UnsafePointer, types.Invalid:
			return false
		}
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Map, *types.Chan, *types.Signature:
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return false
	}
	return true
}
