package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The shard pass is the machine-checked precondition for the sharded
// parallel engine: before simulated cores can run on real threads,
// every piece of kernel/TCB/stats state the hot path touches must be
// classified as per-core (owned by one simulated core, lockless by
// design) or shared (cross-core, and then only mutated under a lock
// the static lock-order graph knows about).
//
// For every hot-path function in the kernel-side packages the pass
// collects mutations of reachable state — stores through the pointer
// receiver, pointer parameters, or package-level variables, the same
// root classification the charge pass uses — outside function
// literals. A lock is held only inside a With body, which is a literal,
// so no collected mutation has a lock held at its own site; each one
// must be covered by one of:
//
//  1. a locked entry context: the lockorder scan saw every hot-path
//     call to this function made with at least one class held (the
//     socket-lock convention: tcp.Input runs under Slock taken by the
//     softirq, so its Sock mutations are covered by the caller);
//  2. a //fsvet:percore marker on the mutated field or its owning
//     type: the state is core-owned and lockless mutation is the
//     design (NIC per-queue state, flow-home socket extensions);
//  3. a //fsvet:shared waiver on the field, its type, or the mutation
//     line: genuinely shared, acknowledged, justified in DESIGN.md §5.
//
// Everything else is a finding. Mutations reached only through local
// pointer derivations, and mutations inside function literals (With
// bodies run under their lock; the other literals run in their own
// context), are not collected; the runtime lockdep cross-check remains
// the dynamic backstop for what this approximation misses.

// shardPkgs are the kernel-side packages whose state the pass
// classifies. The engine substrate (sim, cpu, lock) is out of scope:
// it is what gets sharded, not what runs on top of the shards.
var shardPkgs = map[string]bool{
	"kernel": true, "tcb": true, "tcp": true, "vfs": true,
	"epoll": true, "ktimer": true, "nic": true, "core": true,
	"netproto": true, "stats": true,
}

func shardScope(ip string) bool {
	rest, ok := strings.CutPrefix(PkgDir(ip), "internal/")
	if !ok {
		return false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return shardPkgs[rest]
}

// mutation is one store into reachable state.
type mutation struct {
	pos      token.Pos
	field    *types.Var   // root-level field stored through, if any
	rootType *types.Named // named type of the receiver/param root
	pkgVar   *types.Var   // package-level variable root, if any
	desc     string
}

// checkShard runs the shard pass.
func (v *vetter) checkShard(cg *callGraph, hot map[*types.Func]bool, la *lockAnalysis, mk *markers) {
	locked := la.runsLocked(hot, nil)
	for _, fn := range cg.funcs {
		if !hot[fn] || !shardScope(cg.pkgOf[fn]) || locked[fn] {
			continue
		}
		muts := v.collectMutations(cg.decls[fn])

		// One finding per (function, state subject): the first uncovered
		// mutation anchors it, keeping the waiver surface per-field.
		reported := map[string]bool{}
		for _, m := range muts {
			if v.stateMarked(mk.percore, m) || v.stateMarked(mk.shared, m) {
				continue
			}
			if reported[m.desc] {
				continue
			}
			reported[m.desc] = true
			v.report(m.pos, PassShard,
				"hot-path write to shared %s in %s with no lock held: mark it //fsvet:percore, waive it //fsvet:shared <reason>, or lock it",
				m.desc, qualifiedName(fn))
		}
	}
	v.checkStaleWaivers(cg, hot, la, mk, locked)
}

// checkStaleWaivers reports call-line //fsvet:shared waivers that keep
// no finding away, as fsvet reports an //fsvet:ignore that suppresses
// nothing. A waiver is needed when it suppresses a shard finding on its
// line, or when taking its calls back into the entry contexts would
// strike out a locked function that has an uncovered mutation.
func (v *vetter) checkStaleWaivers(cg *callGraph, hot map[*types.Func]bool, la *lockAnalysis, mk *markers, locked map[*types.Func]bool) {
	var markers []fileLine
	byMarker := map[fileLine][]waivedCall{}
	for _, w := range la.waived {
		if _, seen := byMarker[w.marker]; !seen {
			markers = append(markers, w.marker)
		}
		byMarker[w.marker] = append(byMarker[w.marker], w)
	}
	for _, ml := range markers {
		v.mu.Lock()
		used := v.sup.used[supKey{ml.file, ml.line, PassShard}]
		v.mu.Unlock()
		if used {
			continue
		}
		ws := byMarker[ml]
		extra := map[*types.Func][]entryEdge{}
		for _, w := range ws {
			for _, fn := range w.callees {
				extra[fn] = append(extra[fn], w.edge)
			}
		}
		unwaived := la.runsLocked(hot, extra)
		needed := false
		for _, fn := range cg.funcs {
			if locked[fn] && !unwaived[fn] && v.uncoveredMutation(cg, hot, mk, fn) {
				needed = true
				break
			}
		}
		if !needed {
			v.report(ws[0].call, PassDirective,
				"stale //fsvet:shared waiver: this unlocked call strikes out no locked entry context that covers a write, and no shard finding here needs it; remove it")
		}
	}
}

// uncoveredMutation reports whether the shard pass would find a write
// in fn if fn were not entered locked.
func (v *vetter) uncoveredMutation(cg *callGraph, hot map[*types.Func]bool, mk *markers, fn *types.Func) bool {
	if !hot[fn] || !shardScope(cg.pkgOf[fn]) {
		return false
	}
	for _, m := range v.collectMutations(cg.decls[fn]) {
		if v.stateMarked(mk.percore, m) || v.stateMarked(mk.shared, m) {
			continue
		}
		if tp := v.prog.RelPos(m.pos); !v.sup.covers(tp.Filename, tp.Line, PassShard) {
			return true
		}
	}
	return false
}

// stateMarked reports whether the mutated field, its owning type, or
// (for package state) the variable declaration carries the marker.
func (v *vetter) stateMarked(set map[fileLine]bool, m mutation) bool {
	at := func(pos token.Pos) bool {
		if !pos.IsValid() {
			return false
		}
		tp := v.prog.RelPos(pos)
		return markedAt(set, tp.Filename, tp.Line)
	}
	if m.field != nil && at(m.field.Pos()) {
		return true
	}
	if m.rootType != nil && at(m.rootType.Obj().Pos()) {
		return true
	}
	if m.pkgVar != nil && at(m.pkgVar.Pos()) {
		return true
	}
	return false
}

// collectMutations gathers stores into reachable state, rooted at the
// pointer receiver, pointer parameters, or package-level variables.
// Function-literal interiors are skipped: a With body runs under its
// lock, a deferred literal later with nothing held.
func (v *vetter) collectMutations(fd *ast.FuncDecl) []mutation {
	info := v.prog.Info
	roots := map[types.Object]bool{}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, n := range f.Names {
				if obj := info.Defs[n]; obj != nil {
					if _, ok := obj.Type().Underlying().(*types.Pointer); ok {
						roots[obj] = true
					}
				}
			}
		}
	}
	for _, f := range fd.Type.Params.List {
		for _, n := range f.Names {
			if obj := info.Defs[n]; obj != nil {
				if _, ok := obj.Type().Underlying().(*types.Pointer); ok {
					roots[obj] = true
				}
			}
		}
	}

	// classify unwinds a selector/index/deref chain to its root
	// identifier, remembering the root-level field (the first selection
	// applied to the root) for marker matching.
	classify := func(e ast.Expr) (mutation, bool) {
		var rootSel *ast.SelectorExpr
		depth := 0
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				rootSel = x
				depth++
				e = x.X
			case *ast.IndexExpr:
				depth++
				e = x.X
			case *ast.StarExpr:
				depth++
				e = x.X
			case *ast.Ident:
				obj := info.ObjectOf(x)
				if obj == nil {
					return mutation{}, false
				}
				m := mutation{}
				if rootSel != nil {
					if sel := info.Selections[rootSel]; sel != nil && sel.Kind() == types.FieldVal {
						m.field, _ = sel.Obj().(*types.Var)
					} else {
						m.field, _ = info.Uses[rootSel.Sel].(*types.Var)
					}
				}
				// Rebinding a root itself (sk = ...) is not a store into
				// shared state; a bare package var (total++) is.
				if depth == 0 {
					if pv, ok := obj.(*types.Var); ok && pv.Pkg() != nil && pv.Parent() == pv.Pkg().Scope() {
						m.pkgVar = pv
						m.desc = "package var " + x.Name
						return m, true
					}
					return mutation{}, false
				}
				if roots[obj] {
					t := obj.Type()
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					if n, ok := t.(*types.Named); ok {
						m.rootType = n
					}
					m.desc = "state"
					if m.rootType != nil {
						m.desc = m.rootType.Obj().Name()
					}
					if m.field != nil {
						m.desc += "." + m.field.Name()
					}
					return m, true
				}
				if pv, ok := obj.(*types.Var); ok && pv.Pkg() != nil && pv.Parent() == pv.Pkg().Scope() {
					m.pkgVar = pv
					m.desc = "package var " + x.Name
					return m, true
				}
				return mutation{}, false
			default:
				return mutation{}, false
			}
		}
	}

	var muts []mutation
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if m, ok := classify(lhs); ok {
					m.pos = lhs.Pos()
					muts = append(muts, m)
				}
			}
		case *ast.IncDecStmt:
			if m, ok := classify(n.X); ok {
				m.pos = n.X.Pos()
				muts = append(muts, m)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				if m, ok := classify(n.Args[0]); ok {
					m.pos = n.Pos()
					muts = append(muts, m)
				}
			}
		}
		return true
	})
	sort.SliceStable(muts, func(i, j int) bool { return muts[i].pos < muts[j].pos })
	return muts
}

// enginePost is the parallel engine's cross-domain injection
// primitive; the mailbox pass reserves calls to it for marked fabric
// delivery functions.
var enginePost = "(*" + ModPath + "/internal/shard.Engine).Post"

// checkMailbox runs the mailbox pass: every call to shard.Engine.Post
// must come from a function whose declaration carries //fsvet:mailbox
// <reason>. The shard engine's determinism argument rests on all
// cross-domain effects riding the barrier mailboxes through the
// fabric's delivery path — an unmarked caller is a second injection
// route the argument knows nothing about. Markers on functions that
// never post are stale and reported too, keeping the audited surface
// exact.
func (v *vetter) checkMailbox(cg *callGraph, mk *markers) {
	for _, fn := range cg.funcs {
		fd := cg.decls[fn]
		tp := v.prog.RelPos(fd.Pos())
		marked := markedAt(mk.mailbox, tp.Filename, tp.Line)
		posts := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := cg.staticCallee(call)
			if callee == nil || fullName(callee) != enginePost {
				return true
			}
			posts = true
			if !marked {
				v.report(call.Pos(), PassMailbox,
					"cross-shard injection outside the mailbox API: %s calls shard.Engine.Post but is not marked //fsvet:mailbox <reason>",
					qualifiedName(fn))
			}
			return true
		})
		if marked && !posts {
			v.report(fd.Pos(), PassMailbox,
				"stale //fsvet:mailbox marker: %s never calls shard.Engine.Post",
				qualifiedName(fn))
		}
	}
}
