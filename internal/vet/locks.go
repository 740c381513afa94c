package vet

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// The lockorder pass builds a static lock-order graph for the
// simulated kernel: which lock *classes* (the names given to lock.New
// / lock.NewSharded — "slock", "ehash.lock", ...) can be acquired
// while which others are held, across function and package boundaries.
//
// A lock is held only for the span of one call: Hold (acquire, charge,
// release) or With (acquire, run a function literal, release). Pairing
// therefore needs no checking, and nesting is lexical. Three layers:
//
//  1. Class resolution: a fixpoint dataflow over the whole module maps
//     every object of lock type (struct fields, parameters, results,
//     locals) to the set of classes it can carry. lock.New("slock", _)
//     seeds; assignment, composite literals, call arguments, returns
//     and Sharded.Shard propagate — so kernel.ehashLocks reaching
//     tcb.EstablishedTable.locks through NewEstablished's parameter
//     resolves to "ehash.lock" inside tcb.
//  2. Transitive acquire summaries: TA(f) is every class f may acquire
//     while it executes — its own Hold/With sites plus its callees'
//     TA, through interface calls devirtualized against the module
//     (tcp.Env -> *kernel.Kernel). Function literals handed to the
//     deferred-execution APIs (sim.Loop.At/After, cpu Defer/Submit/
//     SubmitSoftIRQ, ktimer Wheel.Arm) run later from the event loop
//     with nothing held: they are excluded from TA and scanned
//     separately with an empty held set, exactly matching the runtime
//     lockdep's view.
//  3. A nesting scan of every function (and every deferred literal):
//     the held set at a site is the classes of the With receivers
//     whose bodies enclose it. Each Hold, With or summarized call emits
//     (held x acquired) edges. Any other function literal is assumed
//     to run where it is written, under the enclosing held set.
//
// Two shapes would escape every check above, so each is a finding in
// itself: a lock API call whose receiver resolves to no class (locks
// come from lock.New / lock.NewSharded), and a With body that is not a
// function literal at the call site (the scan could not see what runs
// under the lock). Re-acquiring a held lock is left to run time: the
// model panics and lockdep records it.
//
// Inversions are strongly-connected components of the class graph:
// any cycle means two call chains disagree about ordering. Same-class
// pairs are skipped, as in runtime lockdep (shards of one class have
// no canonical order). internal/lock itself is excluded — it is the
// model, not a user of it.

// StaticEdge is one edge of the static order graph: Inner may be
// acquired while Outer is held. Sites name the functions whose scan
// produced the edge.
type StaticEdge struct {
	Outer string   `json:"outer"`
	Inner string   `json:"inner"`
	Sites []string `json:"sites,omitempty"`
}

type classSet map[string]bool

func (c classSet) add(d classSet) bool {
	grew := false
	for k := range d {
		if !c[k] {
			c[k] = true
			grew = true
		}
	}
	return grew
}

func (c classSet) sorted() []string {
	out := make([]string, 0, len(c))
	for k := range c {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

type lockAnalysis struct {
	v  *vetter
	cg *callGraph
	// classes is the resolved object -> lock classes map.
	classes map[types.Object]classSet
	// ta is the transitive acquire summary per declared function;
	// litTA the same for function literals invoked locally.
	ta    map[*types.Func]classSet
	litTA map[*ast.FuncLit]classSet
	// edges: ordered class pair -> set of sites.
	edges map[[2]string]map[string]bool
	// deferredLits are literals that run later with nothing held, with
	// the function they appear in (for scan context).
	deferredLits []deferredLit
	// Entry contexts recorded for the shard pass: for every function
	// called from a hot-path function, the callers and whether a With
	// body encloses each call site. runsLocked() closes this over the
	// graph — a callee is protected when every hot entry either holds
	// a lock at the site or comes from a caller that is itself always
	// entered locked (the Slock convention: netrx calls tcp.Input from
	// a With body, and everything below it inherits).
	hot        map[*types.Func]bool
	entryEdges map[*types.Func][]entryEdge
}

type entryEdge struct {
	caller *types.Func
	held   bool // a With body encloses the call site
}

type deferredLit struct {
	lit *ast.FuncLit
	in  *types.Func
}

// checkLocks runs the lockorder pass and returns the analysis (entry
// contexts for the shard pass) plus the static graph.
func (v *vetter) checkLocks(cg *callGraph, hot map[*types.Func]bool) (*lockAnalysis, []StaticEdge) {
	la := &lockAnalysis{
		v: v, cg: cg,
		classes:    map[types.Object]classSet{},
		ta:         map[*types.Func]classSet{},
		litTA:      map[*ast.FuncLit]classSet{},
		edges:      map[[2]string]map[string]bool{},
		hot:        hot,
		entryEdges: map[*types.Func][]entryEdge{},
	}
	la.resolveClasses()
	la.reportUncheckable()
	la.computeSummaries()
	for _, fn := range cg.funcs {
		if la.skipFunc(fn) {
			continue
		}
		la.newScan(fn).scan(la.cg.decls[fn].Body, nil)
	}
	// Deferred literals queue more as they are discovered.
	for i := 0; i < len(la.deferredLits); i++ {
		d := la.deferredLits[i]
		la.newScan(d.in).scan(d.lit.Body, nil)
	}
	la.reportInversions()
	return la, la.sortedEdges()
}

// skipFunc excludes internal/lock (the model itself) from the scan.
func (la *lockAnalysis) skipFunc(fn *types.Func) bool {
	return PkgDir(la.cg.pkgOf[fn]) == "internal/lock"
}

// reportUncheckable flags every lock API call outside internal/lock
// whose receiver carries no resolved class, and every With whose body
// is not a function literal at the call site.
func (la *lockAnalysis) reportUncheckable() {
	for _, ip := range la.v.prog.Paths {
		if PkgDir(ip) == "internal/lock" {
			continue
		}
		for _, file := range la.v.prog.Files[ip] {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := la.cg.staticCallee(call)
				if fn == nil || (fullName(fn) != lockHold && fullName(fn) != lockWith) {
					return true
				}
				recv := ast.Unparen(call.Fun).(*ast.SelectorExpr).X
				if len(la.classesOf(recv)) == 0 {
					la.v.report(call.Pos(), PassLockOrder,
						"%s.%s on a lock with no resolved class: every lock check skips it; construct it with lock.New or lock.NewSharded",
						types.ExprString(recv), fn.Name())
				}
				if fullName(fn) == lockWith && withBody(la.v.prog.Info, call) == nil {
					la.v.report(call.Args[1].Pos(), PassLockOrder,
						"%s.With body is not a function literal written at the call site: the lock pass cannot see what runs under the lock",
						types.ExprString(recv))
				}
				return true
			})
		}
	}
}

// withBody returns the function literal a lock With call runs under
// its lock, or nil when call is not a With call or its body is not
// written at the call site.
func withBody(info *types.Info, call *ast.CallExpr) *ast.FuncLit {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); !ok || fullName(fn) != lockWith {
		return nil
	}
	lit, _ := ast.Unparen(call.Args[1]).(*ast.FuncLit)
	return lit
}

// --- layer 1: class resolution ---------------------------------------

func (la *lockAnalysis) resolveClasses() {
	// Fixpoint: sweep all binding sites until no class set grows. Each
	// sweep is a full AST walk; the repo converges in a few sweeps.
	for sweep := 0; sweep < 32; sweep++ {
		if !la.bindSweep() {
			return
		}
	}
}

func (la *lockAnalysis) bindSweep() bool {
	changed := false
	bind := func(obj types.Object, cs classSet) {
		if obj == nil || len(cs) == 0 {
			return
		}
		have := la.classes[obj]
		if have == nil {
			have = classSet{}
			la.classes[obj] = have
		}
		if have.add(cs) {
			changed = true
		}
	}
	info := la.v.prog.Info
	for _, ip := range la.v.prog.Paths {
		for _, file := range la.v.prog.Files[ip] {
			var sigs []*types.Signature // enclosing func/lit signatures
			var walk func(n ast.Node) bool
			walk = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body == nil {
						return false
					}
					if fn, ok := info.Defs[n.Name].(*types.Func); ok {
						sigs = append(sigs, fn.Type().(*types.Signature))
						ast.Inspect(n.Body, walk)
						sigs = sigs[:len(sigs)-1]
						return false
					}
				case *ast.FuncLit:
					if sig, ok := info.Types[n].Type.(*types.Signature); ok {
						sigs = append(sigs, sig)
						ast.Inspect(n.Body, walk)
						sigs = sigs[:len(sigs)-1]
						return false
					}
				case *ast.ValueSpec:
					for i, name := range n.Names {
						if i < len(n.Values) {
							bind(info.Defs[name], la.classesOf(n.Values[i]))
						}
					}
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i := range n.Lhs {
							bind(la.lhsObject(n.Lhs[i]), la.classesOf(n.Rhs[i]))
						}
					}
				case *ast.CompositeLit:
					la.bindCompositeLit(n, bind)
				case *ast.CallExpr:
					la.bindCallArgs(n, bind)
				case *ast.ReturnStmt:
					if len(sigs) > 0 {
						sig := sigs[len(sigs)-1]
						for i, res := range n.Results {
							if i < sig.Results().Len() {
								bind(sig.Results().At(i), la.classesOf(res))
							}
						}
					}
				case *ast.RangeStmt:
					if n.Value != nil {
						bind(la.lhsObject(n.Value), la.classesOf(n.X))
					}
				}
				return true
			}
			for _, decl := range file.Decls {
				ast.Inspect(decl, walk)
			}
		}
	}
	return changed
}

func (la *lockAnalysis) lhsObject(e ast.Expr) types.Object {
	info := la.v.prog.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	}
	return nil
}

func (la *lockAnalysis) bindCompositeLit(lit *ast.CompositeLit, bind func(types.Object, classSet)) {
	info := la.v.prog.Info
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				bind(info.Uses[key], la.classesOf(kv.Value))
			}
			continue
		}
		if i < st.NumFields() {
			bind(st.Field(i), la.classesOf(elt))
		}
	}
}

func (la *lockAnalysis) bindCallArgs(call *ast.CallExpr, bind func(types.Object, classSet)) {
	bindTo := func(fn *types.Func) {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return
		}
		np := sig.Params().Len()
		for i, arg := range call.Args {
			if i >= np {
				break // variadic lock args do not occur
			}
			bind(sig.Params().At(i), la.classesOf(arg))
		}
	}
	if fn := la.cg.staticCallee(call); fn != nil && moduleFunc(fn) {
		bindTo(fn)
	} else if m := la.cg.ifaceCallee(call); m != nil {
		for _, impl := range la.cg.implementers(m) {
			bindTo(impl)
		}
	}
}

// classesOf evaluates the lock classes an expression can carry.
func (la *lockAnalysis) classesOf(e ast.Expr) classSet {
	info := la.v.prog.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return la.classes[info.ObjectOf(e)]
	case *ast.SelectorExpr:
		if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			return la.classes[sel.Obj()]
		}
		return la.classes[info.Uses[e.Sel]]
	case *ast.UnaryExpr:
		return la.classesOf(e.X)
	case *ast.StarExpr:
		return la.classesOf(e.X)
	case *ast.IndexExpr:
		return la.classesOf(e.X) // element of a lock slice/array/map
	case *ast.CallExpr:
		fn := la.cg.staticCallee(e)
		switch {
		case fn != nil && (fullName(fn) == lockNew || fullName(fn) == lockNewSharded):
			if len(e.Args) > 0 {
				if tv, ok := info.Types[e.Args[0]]; ok && tv.Value != nil {
					return classSet{constStringVal(tv): true}
				}
			}
		case fn != nil && fullName(fn) == lockShard:
			if recv, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
				return la.classesOf(recv.X)
			}
		case fn != nil && moduleFunc(fn):
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Results().Len() == 1 {
				return la.classes[sig.Results().At(0)]
			}
		default:
			if m := la.cg.ifaceCallee(e); m != nil {
				out := classSet{}
				for _, impl := range la.cg.implementers(m) {
					if sig, ok := impl.Type().(*types.Signature); ok && sig.Results().Len() == 1 {
						out.add(la.classes[sig.Results().At(0)])
					}
				}
				if len(out) > 0 {
					return out
				}
			}
		}
	}
	return nil
}

func constStringVal(tv types.TypeAndValue) string {
	s := tv.Value.ExactString()
	if len(s) >= 2 && s[0] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}

// --- layer 2: transitive acquire summaries ---------------------------

// directEffects walks a body once and collects the classes acquired
// immediately (Hold/With) and the module callees invoked immediately.
// Literals invoked inline (With bodies, immediate calls, local
// closures, defers) contribute to the enclosing body's effects;
// literals deferred to the event loop do not.
type directEffects struct {
	acquires classSet
	callees  []*types.Func
}

func (la *lockAnalysis) collectEffects(body ast.Node) *directEffects {
	eff := &directEffects{acquires: classSet{}}
	skip := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && skip[lit] {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := la.cg.staticCallee(call)
		if fn != nil {
			switch fullName(fn) {
			case lockHold, lockWith:
				if recv, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					eff.acquires.add(la.classesOf(recv.X))
				}
				return true
			}
			if idx, ok := isDeferredExecutor(fn); ok && idx < len(call.Args) {
				if lit, ok := ast.Unparen(call.Args[idx]).(*ast.FuncLit); ok {
					skip[lit] = true
				}
				return true
			}
			if la.cg.decls[fn] != nil {
				eff.callees = append(eff.callees, fn)
			}
			return true
		}
		if m := la.cg.ifaceCallee(call); m != nil {
			for _, impl := range la.cg.implementers(m) {
				if la.cg.decls[impl] != nil {
					eff.callees = append(eff.callees, impl)
				}
			}
		}
		return true
	})
	return eff
}

func (la *lockAnalysis) computeSummaries() {
	effects := map[*types.Func]*directEffects{}
	for _, fn := range la.cg.funcs {
		if la.skipFunc(fn) {
			la.ta[fn] = classSet{}
			continue
		}
		eff := la.collectEffects(la.cg.decls[fn].Body)
		effects[fn] = eff
		ta := classSet{}
		ta.add(eff.acquires)
		la.ta[fn] = ta
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range la.cg.funcs {
			eff := effects[fn]
			if eff == nil {
				continue
			}
			for _, c := range eff.callees {
				if la.ta[fn].add(la.ta[c]) {
					changed = true
				}
			}
		}
	}
}

// taOfLit is the transitive acquire summary of an inline-invoked
// function literal.
func (la *lockAnalysis) taOfLit(lit *ast.FuncLit) classSet {
	if ta, ok := la.litTA[lit]; ok {
		return ta
	}
	ta := classSet{}
	la.litTA[lit] = ta // break recursion
	eff := la.collectEffects(lit.Body)
	ta.add(eff.acquires)
	for _, c := range eff.callees {
		ta.add(la.ta[c])
	}
	return ta
}

// --- layer 3: nesting scan ------------------------------------------

// lockScan scans one function, or one deferred literal, for nesting.
type lockScan struct {
	la *lockAnalysis
	fn *types.Func
	// localLits resolves closure variables to their literals, so that a
	// call through one uses the literal's summary.
	localLits map[types.Object]*ast.FuncLit
}

func (la *lockAnalysis) newScan(fn *types.Func) *lockScan {
	return &lockScan{la: la, fn: fn, localLits: map[types.Object]*ast.FuncLit{}}
}

// scan visits n, inside With bodies that hold the classes in held. A
// With body adds its receiver's classes; a literal handed to a
// deferred executor is queued for its own scan with nothing held.
func (s *lockScan) scan(n ast.Node, held classSet) {
	info := s.la.v.prog.Info
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && i < len(n.Rhs) {
					s.noteLit(info.ObjectOf(id), n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					s.noteLit(info.Defs[name], n.Values[i])
				}
			}
		case *ast.CallExpr:
			return s.call(n, held)
		}
		return true
	})
}

func (s *lockScan) noteLit(obj types.Object, val ast.Expr) {
	if lit, ok := ast.Unparen(val).(*ast.FuncLit); ok && obj != nil {
		s.localLits[obj] = lit
	}
}

// call handles one call expression and reports whether the scan should
// descend into it as usual.
func (s *lockScan) call(call *ast.CallExpr, held classSet) bool {
	la := s.la
	fn := la.cg.staticCallee(call)
	if fn != nil && (fullName(fn) == lockHold || fullName(fn) == lockWith) {
		classes := la.classesOf(ast.Unparen(call.Fun).(*ast.SelectorExpr).X)
		s.emit(held, classes, qualifiedName(s.fn))
		body := withBody(la.v.prog.Info, call)
		if body == nil {
			return true // a non-literal body is reported by reportUncheckable
		}
		s.scan(call.Fun, held)
		s.scan(call.Args[0], held)
		inner := classSet{}
		inner.add(held)
		inner.add(classes)
		s.scan(body.Body, inner)
		return false
	}
	if idx, ok := isDeferredExecutor(fn); ok {
		// The callback runs later, from the loop; the executor itself
		// may acquire now (Wheel.Arm takes base.lock to link the timer).
		if la.cg.decls[fn] != nil {
			s.emit(held, la.ta[fn], qualifiedName(fn))
		}
		s.recordEntry(call, held)
		s.scan(call.Fun, held)
		for i, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok && i == idx {
				la.deferredLits = append(la.deferredLits, deferredLit{lit: lit, in: s.fn})
				continue
			}
			s.scan(arg, held)
		}
		return false
	}
	s.emit(held, s.taOfCall(call), s.callSite(call))
	s.recordEntry(call, held)
	return true
}

// taOfCall is the acquire summary of one call expression: a module
// function, a devirtualized interface call, or a local closure
// variable.
func (s *lockScan) taOfCall(call *ast.CallExpr) classSet {
	la := s.la
	if fn := la.cg.staticCallee(call); fn != nil {
		if la.cg.decls[fn] != nil {
			return la.ta[fn]
		}
		return nil
	}
	if m := la.cg.ifaceCallee(call); m != nil {
		out := classSet{}
		for _, impl := range la.cg.implementers(m) {
			if la.cg.decls[impl] != nil {
				out.add(la.ta[impl])
			}
		}
		return out
	}
	// Call through a local closure variable: x := func(){...}; x().
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if lit := s.localLits[la.v.prog.Info.ObjectOf(id)]; lit != nil {
			return la.taOfLit(lit)
		}
	}
	return nil
}

func (s *lockScan) emit(held, acquired classSet, site string) {
	if len(held) == 0 || len(acquired) == 0 {
		return
	}
	for _, outer := range held.sorted() {
		for _, inner := range acquired.sorted() {
			if outer == inner {
				continue // shards of one class have no canonical order
			}
			key := [2]string{outer, inner}
			sites := s.la.edges[key]
			if sites == nil {
				sites = map[string]bool{}
				s.la.edges[key] = sites
			}
			sites[site] = true
		}
	}
}

// recordEntry logs the callee's entry context for the shard pass when
// the caller is on the hot path: held if an enclosing With body holds
// a lock, bare otherwise. Interface calls record every module
// implementer — the scan cannot know which one runs.
func (s *lockScan) recordEntry(call *ast.CallExpr, held classSet) {
	la := s.la
	if la.hot == nil || !la.hot[s.fn] {
		return
	}
	// A //fsvet:shared waiver on the call line acknowledges an unlocked
	// handoff of exclusively-owned state (the cookie path handing its
	// fresh child to Input, a per-core table's chain); it does not
	// poison the callee's entry context.
	if tp := la.v.prog.RelPos(call.Pos()); markedAt(la.v.mk.shared, tp.Filename, tp.Line) {
		return
	}
	mark := func(fn *types.Func) {
		if fn == nil || la.cg.decls[fn] == nil {
			return
		}
		la.entryEdges[fn] = append(la.entryEdges[fn], entryEdge{caller: s.fn, held: len(held) > 0})
	}
	if fn := la.cg.staticCallee(call); fn != nil {
		mark(fn)
	} else if m := la.cg.ifaceCallee(call); m != nil {
		for _, impl := range la.cg.implementers(m) {
			mark(impl)
		}
	}
}

// runsLocked computes, for every hot function, whether each of its
// hot-path entries is covered by a lock: held at the call site, or
// inherited from a caller that itself always runs locked. Hot roots
// are entered from the event loop with nothing held, so they are
// never protected this way; the closure is an optimistic fixpoint
// (start true, strike out entries the edges refute).
func (la *lockAnalysis) runsLocked(hot map[*types.Func]bool) map[*types.Func]bool {
	locked := map[*types.Func]bool{}
	roots := map[*types.Func]bool{}
	for fn := range hot {
		tp := la.cg.prog.RelPos(la.cg.decls[fn].Pos())
		if markedAt(la.v.mk.hotpath, tp.Filename, tp.Line) {
			roots[fn] = true
			continue
		}
		if len(la.entryEdges[fn]) > 0 {
			locked[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn := range locked {
			for _, e := range la.entryEdges[fn] {
				if !e.held && !locked[e.caller] {
					delete(locked, fn)
					changed = true
					break
				}
			}
		}
	}
	return locked
}

// callSite names the function whose summary produced an edge.
func (s *lockScan) callSite(call *ast.CallExpr) string {
	if fn := s.la.cg.staticCallee(call); fn != nil && s.la.cg.decls[fn] != nil {
		return qualifiedName(fn)
	}
	if m := s.la.cg.ifaceCallee(call); m != nil {
		return qualifiedName(m)
	}
	return qualifiedName(s.fn)
}

// --- inversions and output -------------------------------------------

func (la *lockAnalysis) sortedEdges() []StaticEdge {
	keys := make([][2]string, 0, len(la.edges))
	for k := range la.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]StaticEdge, 0, len(keys))
	for _, k := range keys {
		e := StaticEdge{Outer: k[0], Inner: k[1]}
		for s := range la.edges[k] {
			e.Sites = append(e.Sites, s)
		}
		sort.Strings(e.Sites)
		out = append(out, e)
	}
	return out
}

// reportInversions finds cycles in the class order graph: any
// strongly-connected component with more than one class means two
// call chains acquire those classes in conflicting orders.
func (la *lockAnalysis) reportInversions() {
	nodes := classSet{}
	succ := map[string][]string{}
	for k := range la.edges {
		nodes[k[0]], nodes[k[1]] = true, true
		succ[k[0]] = append(succ[k[0]], k[1])
	}
	for _, s := range succ {
		sort.Strings(s)
	}
	// Tarjan SCC, iterative enough for this graph's size (recursive is
	// fine: the class inventory is tiny).
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var sccs [][]string
	var strong func(v string)
	strong = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, u := range succ[v] {
			if _, seen := index[u]; !seen {
				strong(u)
				if low[u] < low[v] {
					low[v] = low[u]
				}
			} else if onStack[u] && index[u] < low[v] {
				low[v] = index[u]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[u] = false
				comp = append(comp, u)
				if u == v {
					break
				}
			}
			if len(comp) > 1 {
				sort.Strings(comp)
				sccs = append(sccs, comp)
			}
		}
	}
	for _, v := range nodes.sorted() {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	for _, comp := range sccs {
		var detail []string
		for _, a := range comp {
			for _, b := range comp {
				if sites := la.edges[[2]string{a, b}]; len(sites) > 0 {
					ss := make([]string, 0, len(sites))
					for s := range sites {
						ss = append(ss, s)
					}
					sort.Strings(ss)
					detail = append(detail, fmt.Sprintf("%s->%s (%s)", a, b, ss[0]))
				}
			}
		}
		la.v.reportGraph(PassLockOrder, "(lock-order graph)",
			"potential lock-order inversion among classes %v: %s",
			comp, strings.Join(detail, "; "))
	}
}
