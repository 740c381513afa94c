package vet

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The fsm pass reads a state machine off its transition calls. Every
// change of state goes through the owner's transition method,
// owner.Transition(from, to), whose arguments are constants: from is the
// set of states the caller's own guards allow (bit 1<<s for state s), to
// is the new state. Each from × to pair of a call is a static edge, and
// the relation is diffed both ways against the committed FSMSpec: an
// edge outside the spec is a finding at its call, a spec edge with no
// call a graph finding. The scan is sound only while every transition
// is such a call, so each way around one that the scan can see is a
// finding too: a non-constant argument; the method used other than as
// the callee of a direct call (a method value or expression, or a call
// through an interface); a store to the state field outside the method
// (plain, tuple, range or ++) or its address taken there; and an owner
// literal, keyed or positional, in a state other than the birth state.
// Function bodies and package-level initializers are both scanned. A
// copy of a whole owner value, reflect and unsafe are not seen. The
// method's runtime assertion holds each executed transition to its
// call's declared priors; together the two make every transition that
// runs a spec edge.

// fsmMethod is the transition method of every spec's owner.
const fsmMethod = "Transition"

// FSMTransition is one edge of the extracted static relation.
type FSMTransition struct {
	Type  string   `json:"type"`
	From  string   `json:"from"`
	To    string   `json:"to"`
	Sites []string `json:"sites"`
}

// fsmEdge is a static edge as state values.
type fsmEdge struct{ from, to int }

type fsmScan struct {
	v       *vetter
	cg      *callGraph
	spec    *FSMSpec
	fields  map[*types.Var]bool   // state fields of owner structs
	owners  map[*types.Named]bool // structs with a state field
	methods map[*types.Func]bool  // the owners' transition methods
	legal   map[fsmEdge]bool      // the spec's edges
	edges   map[fsmEdge]map[string]bool
}

// checkFSM runs the pass for every spec whose type is present and
// returns the merged static transition graph.
func (v *vetter) checkFSM(cg *callGraph) []FSMTransition {
	var graph []FSMTransition
	for _, spec := range FSMSpecs() {
		if s := newFSMScan(v, cg, spec); s != nil {
			graph = append(graph, s.run()...)
		}
	}
	return graph
}

func newFSMScan(v *vetter, cg *callGraph, spec *FSMSpec) *fsmScan {
	dot := strings.LastIndex(spec.Type, ".")
	pkg := v.prog.Pkgs[spec.Type[:dot]]
	if pkg == nil {
		return nil // machine not in this load (e.g. corpus type on real runs)
	}
	tn, ok := pkg.Scope().Lookup(spec.Type[dot+1:]).(*types.TypeName)
	if !ok {
		return nil
	}
	s := &fsmScan{
		v: v, cg: cg, spec: spec,
		fields:  map[*types.Var]bool{},
		owners:  map[*types.Named]bool{},
		methods: map[*types.Func]bool{},
		legal:   map[fsmEdge]bool{},
		edges:   map[fsmEdge]map[string]bool{},
	}
	for _, tr := range spec.Transitions {
		s.legal[fsmEdge{tr.From, tr.To}] = true
	}
	for _, n := range cg.named {
		st, ok := n.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); types.Identical(f.Type(), tn.Type()) {
				s.owners[n] = true
				s.fields[f] = true
			}
		}
		if !s.owners[n] {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), false, n.Obj().Pkg(), fsmMethod)
		if m, ok := obj.(*types.Func); ok {
			s.methods[m] = true
		}
	}
	if len(s.owners) == 0 {
		return nil
	}
	return s
}

func (s *fsmScan) run() []FSMTransition {
	for _, ip := range s.v.prog.Paths {
		for _, file := range s.v.prog.Files[ip] {
			for _, decl := range file.Decls {
				s.scan(decl)
			}
		}
	}
	return s.diffSpec()
}

// scan walks one top-level declaration, a function or a package-level
// initializer.
func (s *fsmScan) scan(decl ast.Decl) {
	site, inMethod := "package scope", false
	if fd, ok := decl.(*ast.FuncDecl); ok {
		if fn, ok := s.v.prog.Info.Defs[fd.Name].(*types.Func); ok {
			site, inMethod = qualifiedName(fn), s.methods[fn]
		}
	}
	called := map[ast.Expr]bool{} // the callee of each direct transition call
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if s.methods[s.cg.staticCallee(n)] {
				called[ast.Unparen(n.Fun)] = true
				s.call(site, n)
			}
		case *ast.SelectorExpr:
			s.methodUse(n, called[n])
		case *ast.AssignStmt:
			s.store(inMethod, n.Lhs...)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				s.store(inMethod, n.Key, n.Value)
			}
		case *ast.IncDecStmt:
			s.store(inMethod, n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND && !inMethod && s.stateField(n.X) {
				s.v.report(n.Pos(), PassFSM, "address of the state field taken outside the transition method %s: a store through it bypasses the method", fsmMethod)
			}
		case *ast.CompositeLit:
			s.literal(n)
		}
		return true
	})
}

// call records the edges of one transition call.
func (s *fsmScan) call(fn string, call *ast.CallExpr) {
	from, fromOK := s.constant(call.Args[0])
	to, toOK := s.constant(call.Args[1])
	if !fromOK {
		s.v.report(call.Args[0].Pos(), PassFSM, "transition prior set is not a constant: its edges cannot be checked against the spec")
	}
	if !toOK {
		s.v.report(call.Args[1].Pos(), PassFSM, "transition target state is not a constant: its edges cannot be checked against the spec")
	}
	if !fromOK || !toOK {
		return
	}
	tp := s.v.prog.RelPos(call.Pos())
	site := fmt.Sprintf("%s:%d (%s)", tp.Filename, tp.Line, fn)
	for b := 0; b < 64; b++ {
		if from&(1<<uint(b)) == 0 {
			continue
		}
		e := fsmEdge{b, int(to)}
		if s.edges[e] == nil {
			s.edges[e] = map[string]bool{}
		}
		s.edges[e][site] = true
		if !s.legal[e] {
			s.v.report(call.Pos(), PassFSM,
				"transition %s -> %s is not in the %s spec: add it to fsmspec.go with a justification or waive it //fsvet:ignore fsm <reason>",
				s.spec.StateName(b), s.spec.StateName(int(to)), s.spec.Type)
		}
	}
}

// constant returns the value of a constant argument.
func (s *fsmScan) constant(e ast.Expr) (uint64, bool) {
	tv := s.v.prog.Info.Types[e]
	if tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Uint64Val(tv.Value)
}

// methodUse reports the transition method used other than as the
// callee of a direct call: its arguments could not be read.
func (s *fsmScan) methodUse(sel *ast.SelectorExpr, called bool) {
	fn, _ := s.v.prog.Info.Uses[sel.Sel].(*types.Func)
	switch {
	case fn == nil:
	case s.methods[fn] && !called:
		s.v.report(sel.Pos(), PassFSM, "transition method %s used as a value: call it directly so its arguments can be read", fsmMethod)
	case fn.Name() == fsmMethod && s.viaInterface(fn):
		s.v.report(sel.Pos(), PassFSM, "transition method %s called through an interface: call it on the owner so its arguments can be read", fsmMethod)
	}
}

// viaInterface reports whether fn is an interface method an owner
// implements.
func (s *fsmScan) viaInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for n := range s.owners {
		if types.Implements(types.NewPointer(n), iface) {
			return true
		}
	}
	return false
}

// stateField reports whether e selects an owner's state field.
func (s *fsmScan) stateField(e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := s.v.prog.Info.Uses[sel.Sel].(*types.Var)
	return ok && s.fields[f]
}

// store reports writes to a state field outside the transition method.
func (s *fsmScan) store(inMethod bool, lhs ...ast.Expr) {
	for _, e := range lhs {
		if e != nil && !inMethod && s.stateField(e) {
			s.v.report(e.Pos(), PassFSM, "state stored outside the transition method %s: call it with constant arguments instead", fsmMethod)
		}
	}
}

// literal reports an owner composite literal, keyed or positional, not
// in the birth state (a state field left out carries the zero value).
func (s *fsmScan) literal(lit *ast.CompositeLit) {
	t := s.v.prog.Info.Types[lit].Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || !s.owners[n] {
		return
	}
	st := n.Underlying().(*types.Struct)
	pos, val, ok := lit.Pos(), uint64(0), true
	for i, elt := range lit.Elts {
		f, v := st.Field(i), elt
		if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
			key, _ := kv.Key.(*ast.Ident)
			f, _ = s.v.prog.Info.Uses[key].(*types.Var)
			v = kv.Value
		}
		if s.fields[f] {
			pos = v.Pos()
			val, ok = s.constant(v)
		}
	}
	if !ok || val != uint64(s.spec.Birth) {
		s.v.report(pos, PassFSM, "%s constructed outside its birth state %s: change state through %s",
			s.spec.Type, s.spec.StateName(s.spec.Birth), fsmMethod)
	}
}

// diffSpec reports spec edges with no call and renders the relation.
func (s *fsmScan) diffSpec() []FSMTransition {
	for _, tr := range s.spec.Transitions {
		if s.edges[fsmEdge{tr.From, tr.To}] == nil {
			s.v.reportGraph(PassFSM, "(fsm graph)",
				"spec transition %s -> %s (%s) has no static site in %s: the implementation lost this edge or the spec is stale",
				s.spec.StateName(tr.From), s.spec.StateName(tr.To), tr.Why, s.spec.Type)
		}
	}
	keys := make([]fsmEdge, 0, len(s.edges))
	for k := range s.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	out := make([]FSMTransition, 0, len(keys))
	for _, k := range keys {
		out = append(out, FSMTransition{
			Type:  s.spec.Type,
			From:  s.spec.StateName(k.from),
			To:    s.spec.StateName(k.to),
			Sites: sortedKeys(s.edges[k]),
		})
	}
	return out
}
