package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The lockorder pass builds a static lock-order graph for the
// simulated kernel: which lock *classes* (the names given to lock.New
// / lock.NewSharded — "slock", "ehash.lock", ...) can be acquired
// while which others are held, across function and package boundaries.
//
// Three layers:
//
//  1. Class resolution: a fixpoint dataflow over the whole module maps
//     every object of lock type (struct fields, parameters, results,
//     locals) to the set of classes it can carry. lock.New("slock", _)
//     seeds; assignment, composite literals, call arguments, returns
//     and Sharded.Shard propagate — so kernel.ehashLocks reaching
//     tcb.EstablishedTable.locks through NewEstablished's parameter
//     resolves to "ehash.lock" inside tcb.
//  2. Transitive acquire summaries: TA(f) is every class f may acquire
//     while it executes — its own Acquire/TryAcquire/With sites plus
//     its callees' TA, through interface calls devirtualized against
//     the module (tcp.Env -> *kernel.Kernel). Function literals handed
//     to the deferred-execution APIs (sim.Loop.At/After, cpu
//     Defer/Submit/SubmitSoftIRQ, ktimer Wheel.Arm) run later from the
//     event loop with nothing held: they are excluded from TA and
//     analyzed separately with an empty held set, exactly matching the
//     runtime lockdep's view.
//  3. A held-set walk of every function (and every deferred literal):
//     sequential statement traversal tracking held classes through
//     Acquire/Release/With and branch merges; each acquisition or
//     summarized call emits (held x acquired) edges. The same walk
//     checks lock pairing: a path that can return (or a function
//     literal that can finish) while still holding a lock acquired
//     locally (no Release, no defer, not With-scoped); a lock taken
//     again while held, keyed by class plus receiver and context
//     expression so l.Acquire(a); l.Acquire(b) stays legal; a lock
//     acquired in a loop body and still held when the body ends; and a
//     successful TryAcquire guard whose branch falls through holding
//     the lock.
//
// A lock API call whose receiver resolves to no class would escape
// every check above, so it is a finding in itself: locks come from
// lock.New / lock.NewSharded.
//
// Inversions are strongly-connected components of the class graph:
// any cycle means two call chains disagree about ordering. Same-class
// pairs are skipped, as in runtime lockdep (shards of one class have
// no canonical order). internal/lock itself is excluded — it is the
// model, not a user of it.

// StaticEdge is one edge of the static order graph: Inner may be
// acquired while Outer is held. Sites name the functions whose walk
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
	// the function they appear in (for walk context).
	deferredLits []deferredLit
	// Entry contexts recorded for the shard pass: for every function
	// called from a hot-path function, the callers and whether each
	// call site holds a lock locally. runsLocked() closes this over
	// the graph — a callee is protected when every hot entry either
	// holds a lock at the site or comes from a caller that is itself
	// always entered locked (the Slock convention: netrx acquires,
	// tcp.Input and everything below it inherit).
	hot        map[*types.Func]bool
	entryEdges map[*types.Func][]entryEdge
}

type entryEdge struct {
	caller *types.Func
	held   bool // a lock class is held locally at the call site
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
	la.reportUnclassed()
	la.computeSummaries()
	for _, fn := range cg.funcs {
		if la.skipFunc(fn) {
			continue
		}
		la.walkFunc(fn)
	}
	// Deferred literals queue more as they are discovered.
	for i := 0; i < len(la.deferredLits); i++ {
		d := la.deferredLits[i]
		w := &lockWalker{la: la, fn: d.in, localLits: map[types.Object]*ast.FuncLit{}}
		w.walkLit(d.lit, nil)
	}
	la.reportInversions()
	return la, la.sortedEdges()
}

// skipFunc excludes internal/lock (the model itself) from the walk.
func (la *lockAnalysis) skipFunc(fn *types.Func) bool {
	return PkgDir(la.cg.pkgOf[fn]) == "internal/lock"
}

// reportUnclassed flags every lock API call outside internal/lock whose
// receiver carries no resolved class.
func (la *lockAnalysis) reportUnclassed() {
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
				if fn == nil {
					return true
				}
				switch fullName(fn) {
				case lockAcquire, lockTryAcquire, lockRelease, lockWith:
				default:
					return true
				}
				recv := ast.Unparen(call.Fun).(*ast.SelectorExpr).X
				if len(la.classesOf(recv)) == 0 {
					la.v.report(call.Pos(), PassLockOrder,
						"%s.%s on a lock with no resolved class: every lock check skips it; construct it with lock.New or lock.NewSharded",
						types.ExprString(recv), fn.Name())
				}
				return true
			})
		}
	}
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

// directEffects walks a body once and collects: classes acquired
// immediately (Acquire/TryAcquire/With), module callees invoked
// immediately, and literals that are deferred to the event loop.
// Literals invoked inline (With bodies, immediate calls, local
// closures, defers) contribute to the enclosing body's effects.
type directEffects struct {
	acquires classSet
	callees  []*types.Func
	deferred []*ast.FuncLit
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
			case lockAcquire, lockTryAcquire, lockWith:
				if recv, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					eff.acquires.add(la.classesOf(recv.X))
				}
				return true
			}
			if idx, ok := isDeferredExecutor(fn); ok && idx < len(call.Args) {
				if lit, ok := ast.Unparen(call.Args[idx]).(*ast.FuncLit); ok {
					eff.deferred = append(eff.deferred, lit)
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

// taOfCall is the acquire summary of one call expression: the lock
// API itself, a module function, a devirtualized interface call, or a
// local closure variable.
func (w *lockWalker) taOfCall(call *ast.CallExpr) classSet {
	la := w.la
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
		if lit := w.localLits[la.v.prog.Info.ObjectOf(id)]; lit != nil {
			return la.taOfLit(lit)
		}
	}
	return nil
}

// --- layer 3: held-set walk ------------------------------------------

// lockEnv is the per-path walk state: classes held (with the position
// of the acquisition, for findings), the lock instances behind them,
// and classes whose release is deferred.
type lockEnv struct {
	held     map[string]token.Pos
	inst     map[string]heldInst
	deferred map[string]bool
	dead     bool // path ended (return/panic); stop checking
}

// heldInst is one held lock instance, keyed in lockEnv.inst by class
// plus receiver and context expression.
type heldInst struct {
	pos     token.Pos
	classes classSet
}

func newLockEnv() *lockEnv {
	return &lockEnv{held: map[string]token.Pos{}, inst: map[string]heldInst{}, deferred: map[string]bool{}}
}

func (e *lockEnv) clone() *lockEnv {
	c := newLockEnv()
	for k, v := range e.held {
		c.held[k] = v
	}
	for k, v := range e.inst {
		c.inst[k] = v
	}
	for k := range e.deferred {
		c.deferred[k] = true
	}
	c.dead = e.dead
	return c
}

// instKey names the lock instance a lock API call operates on, as
// receiver(context) plus its classes: "p.A(ctx) [corpus.a]".
func instKey(classes classSet, call *ast.CallExpr) string {
	key := types.ExprString(ast.Unparen(call.Fun).(*ast.SelectorExpr).X)
	if len(call.Args) > 0 {
		key += "(" + types.ExprString(call.Args[0]) + ")"
	}
	return key + " " + fmt.Sprint(classes.sorted())
}

// merge keeps the intersection of held sets from branches that fell
// through; dead branches contribute nothing.
func (e *lockEnv) merge(branches ...*lockEnv) {
	var live []*lockEnv
	for _, b := range branches {
		if b != nil && !b.dead {
			live = append(live, b)
		}
	}
	if len(live) == 0 {
		e.dead = true
		return
	}
	e.held = intersect(live, func(b *lockEnv) map[string]token.Pos { return b.held })
	e.inst = intersect(live, func(b *lockEnv) map[string]heldInst { return b.inst })
	e.deferred = map[string]bool{}
	for _, b := range live {
		for k := range b.deferred {
			e.deferred[k] = true
		}
	}
}

// intersect keeps the entries of the first branch's map whose keys
// every branch holds.
func intersect[V any](live []*lockEnv, m func(*lockEnv) map[string]V) map[string]V {
	out := map[string]V{}
	for k, v := range m(live[0]) {
		in := true
		for _, b := range live[1:] {
			if _, ok := m(b)[k]; !ok {
				in = false
				break
			}
		}
		if in {
			out[k] = v
		}
	}
	return out
}

type lockWalker struct {
	la *lockAnalysis
	fn *types.Func
	// outer carries classes held by enclosing contexts (With bodies);
	// they produce edges but are not this walk's to release.
	outer classSet
	// localLits resolves closure variables to their literals.
	localLits map[types.Object]*ast.FuncLit
}

func (la *lockAnalysis) walkFunc(fn *types.Func) {
	w := &lockWalker{la: la, fn: fn, localLits: map[types.Object]*ast.FuncLit{}}
	env := newLockEnv()
	w.walkBody(la.cg.decls[fn].Body, env)
	w.checkExit(env, la.cg.decls[fn].End())
}

// heldAll is the edge-source set: enclosing contexts plus this walk's
// held classes.
func (w *lockWalker) heldAll(env *lockEnv) []string {
	set := classSet{}
	set.add(w.outer)
	for k := range env.held {
		set[k] = true
	}
	return set.sorted()
}

func (w *lockWalker) emitEdges(env *lockEnv, acquired classSet, site string) {
	if len(acquired) == 0 {
		return
	}
	for _, outer := range w.heldAll(env) {
		for _, inner := range acquired.sorted() {
			if outer == inner {
				continue // shards of one class have no canonical order
			}
			key := [2]string{outer, inner}
			sites := w.la.edges[key]
			if sites == nil {
				sites = map[string]bool{}
				w.la.edges[key] = sites
			}
			sites[site] = true
		}
	}
}

// lockCall classifies a call against the lock API; recv is the lock
// expression for class resolution.
func (w *lockWalker) lockCall(call *ast.CallExpr) (kind string, classes classSet) {
	fn := w.la.cg.staticCallee(call)
	if fn == nil {
		return "", nil
	}
	var recv ast.Expr
	if se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recv = se.X
	}
	switch fullName(fn) {
	case lockAcquire:
		return "acquire", w.la.classesOf(recv)
	case lockTryAcquire:
		return "tryacquire", w.la.classesOf(recv)
	case lockRelease:
		return "release", w.la.classesOf(recv)
	case lockWith:
		return "with", w.la.classesOf(recv)
	}
	return "", nil
}

func (w *lockWalker) walkBody(body *ast.BlockStmt, env *lockEnv) {
	for _, stmt := range body.List {
		w.walkStmt(stmt, env)
	}
}

func (w *lockWalker) walkStmt(stmt ast.Stmt, env *lockEnv) {
	if env.dead {
		return
	}
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		w.walkExpr(s.X, env)
	case *ast.AssignStmt:
		// Record local closures (x := func(){...}) so later calls
		// through x resolve, and check their lock pairing on their own;
		// then process RHS effects.
		for i := range s.Lhs {
			if i < len(s.Rhs) {
				if lit, ok := ast.Unparen(s.Rhs[i]).(*ast.FuncLit); ok {
					if id, ok := ast.Unparen(s.Lhs[i]).(*ast.Ident); ok {
						w.localLits[w.la.v.prog.Info.ObjectOf(id)] = lit
						w.walkLit(lit, nil)
						continue
					}
				}
				w.walkExpr(s.Rhs[i], env)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, val := range vs.Values {
						if lit, ok := ast.Unparen(val).(*ast.FuncLit); ok && i < len(vs.Names) {
							w.localLits[w.la.v.prog.Info.ObjectOf(vs.Names[i])] = lit
							w.walkLit(lit, nil)
							continue
						}
						w.walkExpr(val, env)
					}
				}
			}
		}
	case *ast.DeferStmt:
		kind, classes := w.lockCall(s.Call)
		if kind == "release" {
			for c := range classes {
				env.deferred[c] = true
			}
			return
		}
		// defer func(){...}(): releases inside count as deferred;
		// other effects are walked with the current held set.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if k, cs := w.lockCall(call); k == "release" {
						for c := range cs {
							env.deferred[c] = true
						}
					}
				}
				return true
			})
			sub := env.clone()
			w.walkBody(lit.Body, sub)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.walkExpr(r, env)
		}
		w.checkExit(env, s.Pos())
		env.dead = true
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, env)
		}
		w.walkIf(s, env)
	case *ast.BlockStmt:
		w.walkBody(s, env)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, env)
		}
		w.walkLoop(s.Body, env)
	case *ast.RangeStmt:
		w.walkExpr(s.X, env)
		w.walkLoop(s.Body, env)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, env)
		}
		w.walkCases(s.Body, env)
	case *ast.TypeSwitchStmt:
		w.walkCases(s.Body, env)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, env)
	case *ast.GoStmt:
		// Forbidden by the determinism pass; ignore here.
	}
}

// walkLoop walks one iteration of a loop body and flags locks the body
// acquires and still holds, with no deferred release, when it ends:
// the next iteration would take them again.
func (w *lockWalker) walkLoop(body *ast.BlockStmt, env *lockEnv) {
	sub := env.clone()
	w.walkBody(body, sub)
	if sub.dead {
		return
	}
	for _, c := range sortedMapKeys(sub.held) {
		if pos := sub.held[c]; pos >= body.Pos() && pos < body.End() && !sub.deferred[c] {
			w.la.v.report(pos, PassLockOrder,
				"%s acquires %q in a loop body and still holds it when the body ends: release it before the next iteration",
				qualifiedName(w.fn), c)
		}
	}
}

func (w *lockWalker) walkCases(body *ast.BlockStmt, env *lockEnv) {
	var branches []*lockEnv
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		sub := env.clone()
		for _, st := range cc.Body {
			w.walkStmt(st, sub)
		}
		branches = append(branches, sub)
	}
	if !hasDefault {
		branches = append(branches, env.clone())
	}
	env.merge(branches...)
}

// walkIf handles the TryAcquire conditional idioms and ordinary
// branch merging.
func (w *lockWalker) walkIf(s *ast.IfStmt, env *lockEnv) {
	thenEnv := env.clone()
	elseEnv := env.clone()

	matched := false
	var guard *ast.CallExpr
	var guarded classSet
	if call, neg := tryAcquireCond(s.Cond); call != nil {
		if kind, classes := w.lockCall(call); kind == "tryacquire" {
			matched = true
			w.emitEdges(env, classes, qualifiedName(w.fn))
			if neg {
				// if !l.TryAcquire(c) { bail }: held on the else path
				// and after a terminating then-branch.
				w.hold(elseEnv, classes, call)
			} else {
				w.hold(thenEnv, classes, call)
				guard, guarded = call, classes
			}
		}
	}
	if !matched {
		w.walkExprCond(s.Cond, env)
	}

	w.walkBody(s.Body, thenEnv)
	if guard != nil && !thenEnv.dead {
		// if l.TryAcquire(c) { ... }: code after the statement runs
		// whether or not the lock was taken, so the branch must not
		// fall through holding it.
		for _, c := range guarded.sorted() {
			if thenEnv.held[c] == guard.Pos() && !thenEnv.deferred[c] {
				w.la.v.report(guard.Pos(), PassLockOrder,
					"%s: %q from this TryAcquire is still held when the guarded branch falls through: release it inside the branch",
					qualifiedName(w.fn), c)
			}
		}
	}
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		w.walkBody(e, elseEnv)
	case *ast.IfStmt:
		w.walkStmt(e, elseEnv)
	case nil:
	}
	env.merge(thenEnv, elseEnv)
}

// walkExprCond surfaces lock effects in a condition expression
// (method calls that acquire via summaries).
func (w *lockWalker) walkExprCond(e ast.Expr, env *lockEnv) {
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			w.emitEdges(env, w.taOfCall(call), w.callSite(call))
			w.recordEntry(call, env)
		}
		return true
	})
}

// recordEntry logs the callee's entry context for the shard pass when
// the caller is on the hot path: held if anything is held here (this
// walk's env or an enclosing With body), bare otherwise. Interface
// calls record every module implementer — the walk cannot know which
// one runs.
func (w *lockWalker) recordEntry(call *ast.CallExpr, env *lockEnv) {
	la := w.la
	if la.hot == nil || !la.hot[w.fn] {
		return
	}
	// A //fsvet:shared waiver on the call line acknowledges an unlocked
	// handoff of exclusively-owned state (the cookie path handing its
	// fresh child to Input); it does not poison the callee's entry
	// context.
	if tp := la.v.prog.RelPos(call.Pos()); markedAt(la.v.mk.shared, tp.Filename, tp.Line) {
		return
	}
	held := len(w.outer) > 0 || len(env.held) > 0
	mark := func(fn *types.Func) {
		if fn == nil || la.cg.decls[fn] == nil {
			return
		}
		la.entryEdges[fn] = append(la.entryEdges[fn], entryEdge{caller: w.fn, held: held})
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

// tryAcquireCond matches `x.TryAcquire(c)` and `!x.TryAcquire(c)`.
func tryAcquireCond(cond ast.Expr) (call *ast.CallExpr, negated bool) {
	switch c := ast.Unparen(cond).(type) {
	case *ast.CallExpr:
		return c, false
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			if inner, ok := ast.Unparen(c.X).(*ast.CallExpr); ok {
				return inner, true
			}
		}
	}
	return nil, false
}

// callSite names the function whose summary produced an edge.
func (w *lockWalker) callSite(call *ast.CallExpr) string {
	if fn := w.la.cg.staticCallee(call); fn != nil && w.la.cg.decls[fn] != nil {
		return qualifiedName(fn)
	}
	if m := w.la.cg.ifaceCallee(call); m != nil {
		return qualifiedName(m)
	}
	return qualifiedName(w.fn)
}

// walkExpr processes one expression statement: lock API calls mutate
// the env; other calls emit summary edges; literals route per their
// execution context.
func (w *lockWalker) walkExpr(e ast.Expr, env *lockEnv) {
	if lit, ok := ast.Unparen(e).(*ast.FuncLit); ok {
		// A literal stored for later (tm.fn = func(){...}) is assumed
		// to run under the current held set, as an argument literal is.
		w.walkLit(lit, heldUnion(w.outer, env))
		return
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		// Non-call expressions can still contain calls (rare in
		// statement position); scan conservatively.
		w.walkExprCond(e, env)
		return
	}
	kind, classes := w.lockCall(call)
	switch kind {
	case "acquire", "tryacquire":
		w.emitEdges(env, classes, qualifiedName(w.fn))
		w.hold(env, classes, call)
		return
	case "release":
		w.release(env, classes, call)
		return
	case "with":
		w.emitEdges(env, classes, qualifiedName(w.fn))
		// Walk the body with the class held in the outer set.
		if len(call.Args) >= 2 {
			switch f := ast.Unparen(call.Args[1]).(type) {
			case *ast.FuncLit:
				w.walkLit(f, w.withOuter(env, classes))
			case *ast.Ident:
				if lit := w.localLits[w.la.v.prog.Info.ObjectOf(f)]; lit != nil {
					w.walkLit(lit, w.withOuter(env, classes))
				}
			}
		}
		return
	}

	// Deferred-executor call: queue the literal for an empty-held walk
	// and emit nothing here (it runs later, from the loop).
	if fn := w.la.cg.staticCallee(call); fn != nil {
		if idx, ok := isDeferredExecutor(fn); ok {
			if idx < len(call.Args) {
				if lit, ok := ast.Unparen(call.Args[idx]).(*ast.FuncLit); ok {
					w.la.deferredLits = append(w.la.deferredLits, deferredLit{lit: lit, in: w.fn})
				}
			}
			// The executor itself may acquire immediately (Wheel.Arm
			// takes base.lock to link the timer).
			if w.la.cg.decls[fn] != nil {
				w.emitEdges(env, w.la.ta[fn], qualifiedName(fn))
			}
			w.recordEntry(call, env)
			return
		}
	}

	// Immediate literal call: func(){...}(...).
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.walkLit(lit, heldUnion(w.outer, env))
		return
	}

	// Ordinary call: edges from everything held to the callee's
	// transitive acquires; nested argument calls scanned too.
	w.emitEdges(env, w.taOfCall(call), w.callSite(call))
	w.recordEntry(call, env)
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			// A literal handed to anything but a deferred executor
			// (those returned above) is assumed to run synchronously
			// under the current held set — sort.Slice callbacks,
			// helper visitors. The assumption is conservative in the
			// edge direction only: with nothing held it adds nothing.
			w.walkLit(lit, heldUnion(w.outer, env))
			continue
		}
		w.walkExprCond(arg, env)
	}
}

// walkLit walks a function literal as a function of its own: a fresh
// held set, the enclosing context's classes as outer, and its own exit
// check (its lock pairing is its own).
func (w *lockWalker) walkLit(lit *ast.FuncLit, outer classSet) {
	sub := &lockWalker{la: w.la, fn: w.fn, localLits: w.localLits, outer: outer}
	env := newLockEnv()
	sub.walkBody(lit.Body, env)
	sub.checkExit(env, lit.Body.End())
}

// hold records an acquisition on this path and reports it if the same
// lock instance is already held.
func (w *lockWalker) hold(env *lockEnv, classes classSet, call *ast.CallExpr) {
	if len(classes) == 0 {
		return // reported by reportUnclassed
	}
	key := instKey(classes, call)
	if prev, ok := env.inst[key]; ok {
		w.la.v.report(call.Pos(), PassLockOrder,
			"%s acquires %s again while already holding it (acquired at %s)",
			qualifiedName(w.fn), key, w.la.v.prog.RelPos(prev.pos))
	}
	env.inst[key] = heldInst{pos: call.Pos(), classes: classes}
	for c := range classes {
		env.held[c] = call.Pos()
	}
}

// release drops the released classes and instance. A Release spelled
// differently from its Acquire (an alias) drops every held instance of
// the class, so aliasing can hide a re-acquire but never invent one.
func (w *lockWalker) release(env *lockEnv, classes classSet, call *ast.CallExpr) {
	for c := range classes {
		delete(env.held, c)
		delete(env.deferred, c)
	}
	if key := instKey(classes, call); env.inst[key].pos.IsValid() {
		delete(env.inst, key)
		return
	}
	for k, h := range env.inst {
		for c := range classes {
			if h.classes[c] {
				delete(env.inst, k)
				break
			}
		}
	}
}

func (w *lockWalker) withOuter(env *lockEnv, classes classSet) classSet {
	out := heldUnion(w.outer, env)
	out.add(classes)
	return out
}

func heldUnion(outer classSet, env *lockEnv) classSet {
	out := classSet{}
	out.add(outer)
	for k := range env.held {
		out[k] = true
	}
	return out
}

// checkExit flags locks still held (and not deferred-released) at a
// return or at the end of the function body.
func (w *lockWalker) checkExit(env *lockEnv, pos token.Pos) {
	if env.dead {
		return
	}
	var leaked []string
	for c := range env.held {
		if !env.deferred[c] {
			leaked = append(leaked, c)
		}
	}
	sort.Strings(leaked)
	for _, c := range leaked {
		w.la.v.report(pos, PassLockOrder,
			"%s may return while holding %q (acquired at %s, no Release on this path)",
			qualifiedName(w.fn), c, w.la.v.prog.RelPos(env.held[c]))
	}
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
			comp, joinStrings(detail, "; "))
	}
}

func joinStrings(ss []string, sep string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += sep
		}
		out += s
	}
	return out
}
