package vet

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// callGraph is the whole-module function index the interprocedural
// passes share: declared functions with bodies, a may-call relation
// (static calls, interface calls devirtualized against every module
// type that implements the interface, and referenced functions whose
// address escapes — they may be called later), and the named-type
// inventory the devirtualizer consults.
type callGraph struct {
	prog *Program
	// decls maps a function object to its declaration; pkgOf to the
	// import path it was declared in. Only module functions with bodies
	// appear.
	decls map[*types.Func]*ast.FuncDecl
	pkgOf map[*types.Func]string
	// funcs is decls' key set in deterministic (position) order.
	funcs []*types.Func
	// callees is the may-call relation. Interface method calls expand
	// to every module implementation; function values referenced
	// outside call position (closures handed to the scheduler, stored
	// callbacks) are included, since they may run later.
	callees map[*types.Func][]*types.Func
	// named is every package-level named type in the module, for
	// devirtualization.
	named []*types.Named
}

func buildCallGraph(p *Program) *callGraph {
	cg := &callGraph{
		prog:    p,
		decls:   map[*types.Func]*ast.FuncDecl{},
		pkgOf:   map[*types.Func]string{},
		callees: map[*types.Func][]*types.Func{},
	}
	for _, ip := range p.Paths {
		for _, file := range p.Files[ip] {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				cg.decls[fn] = fd
				cg.pkgOf[fn] = ip
				cg.funcs = append(cg.funcs, fn)
			}
		}
		scope := p.Pkgs[ip].Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					cg.named = append(cg.named, n)
				}
			}
		}
	}
	sort.Slice(cg.funcs, func(i, j int) bool {
		return cg.decls[cg.funcs[i]].Pos() < cg.decls[cg.funcs[j]].Pos()
	})
	for _, fn := range cg.funcs {
		cg.callees[fn] = cg.collectCallees(fn)
	}
	return cg
}

// staticCallee resolves a call expression to the function object it
// statically invokes: a plain function, a concrete method, or nil for
// interface calls, builtins and dynamic function values.
func (cg *callGraph) staticCallee(call *ast.CallExpr) *types.Func {
	info := cg.prog.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		sel := info.Selections[fun]
		if sel == nil {
			// Package-qualified call: pkg.Fn.
			fn, _ := info.Uses[fun.Sel].(*types.Func)
			return fn
		}
		if sel.Kind() != types.MethodVal {
			return nil
		}
		fn, _ := sel.Obj().(*types.Func)
		if fn != nil && types.IsInterface(fn.Type().(*types.Signature).Recv().Type()) {
			return nil // interface dispatch: resolved by implementers
		}
		return fn
	}
	return nil
}

// ifaceCallee returns the interface method a call dispatches through,
// or nil for static calls.
func (cg *callGraph) ifaceCallee(call *ast.CallExpr) *types.Func {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	sel := cg.prog.Info.Selections[fun]
	if sel == nil || sel.Kind() != types.MethodVal {
		return nil
	}
	fn, _ := sel.Obj().(*types.Func)
	if fn == nil || !types.IsInterface(fn.Type().(*types.Signature).Recv().Type()) {
		return nil
	}
	return fn
}

// implementers resolves an interface method to the concrete module
// methods that can stand behind it: for every named module type whose
// value or pointer method set implements the interface, the method of
// the same name.
func (cg *callGraph) implementers(m *types.Func) []*types.Func {
	iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, n := range cg.named {
		if types.IsInterface(n.Underlying()) {
			continue
		}
		var impl types.Type
		switch {
		case types.Implements(n, iface):
			impl = n
		case types.Implements(types.NewPointer(n), iface):
			impl = types.NewPointer(n)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn)
		}
	}
	return out
}

// collectCallees walks one function body (including its nested
// function literals: whatever they capture runs on behalf of this
// function eventually) and gathers the may-call set.
func (cg *callGraph) collectCallees(fn *types.Func) []*types.Func {
	info := cg.prog.Info
	seen := map[*types.Func]bool{}
	add := func(f *types.Func) {
		if f != nil && !seen[f] && cg.decls[f] != nil {
			seen[f] = true
		}
	}
	ast.Inspect(cg.decls[fn].Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if f := cg.staticCallee(n); f != nil {
				add(f)
			} else if m := cg.ifaceCallee(n); m != nil {
				for _, f := range cg.implementers(m) {
					add(f)
				}
			}
		case *ast.Ident:
			// A function referenced outside call position escapes as a
			// value (callback, scheduled closure body): it may run.
			if f, ok := info.Uses[n].(*types.Func); ok {
				add(f)
			}
		}
		return true
	})
	out := make([]*types.Func, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		return cg.decls[out[i]].Pos() < cg.decls[out[j]].Pos()
	})
	return out
}

// qualifiedName renders a function for findings: pkgdir.Func or
// pkgdir.(*Recv).Method, matching how lockdep's runtime sites read.
func qualifiedName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := false
		if p, ok := t.(*types.Pointer); ok {
			t, ptr = p.Elem(), true
		}
		if n, ok := t.(*types.Named); ok {
			if ptr {
				name = "(*" + n.Obj().Name() + ")." + name
			} else {
				name = n.Obj().Name() + "." + name
			}
		}
	}
	if fn.Pkg() != nil {
		return PkgDir(fn.Pkg().Path()) + "." + name
	}
	return name
}

// fullName is the types.Func full name, the key the lock scan uses
// to recognize the lock and scheduler APIs.
func fullName(fn *types.Func) string { return fn.FullName() }

// deferredExecutors are the APIs whose function-literal argument runs
// later, from the event loop, with no locks held: the lock scan
// analyzes such literals with an empty held set, and their
// acquisitions do not count toward the enclosing function's summary.
// The map value is the parameter index of the callback.
var deferredExecutors = map[string]int{
	"(*" + ModPath + "/internal/sim.Loop).At":            1,
	"(*" + ModPath + "/internal/sim.Loop).After":         1,
	"(*" + ModPath + "/internal/sim.Loop).AtArg":         1,
	"(*" + ModPath + "/internal/sim.Loop).AfterArg":      1,
	"(*" + ModPath + "/internal/sim.Loop).Arrive":        1,
	"(*" + ModPath + "/internal/cpu.Task).Defer":         0,
	"(*" + ModPath + "/internal/cpu.Task).DeferArg":      0,
	"(*" + ModPath + "/internal/cpu.Core).Submit":        0,
	"(*" + ModPath + "/internal/cpu.Core).SubmitSoftIRQ": 0,
	"(*" + ModPath + "/internal/ktimer.Wheel).Arm":       2,
}

// lock API full names.
var (
	lockHold       = "(*" + ModPath + "/internal/lock.SpinLock).Hold"
	lockWith       = "(*" + ModPath + "/internal/lock.SpinLock).With"
	lockShard      = "(*" + ModPath + "/internal/lock.Sharded).Shard"
	lockNew        = ModPath + "/internal/lock.New"
	lockNewSharded = ModPath + "/internal/lock.NewSharded"
)

func isDeferredExecutor(fn *types.Func) (argIdx int, ok bool) {
	if fn == nil {
		return 0, false
	}
	argIdx, ok = deferredExecutors[fullName(fn)]
	return argIdx, ok
}

// moduleFunc reports whether fn is declared in this module (vs stdlib).
func moduleFunc(fn *types.Func) bool {
	return fn.Pkg() != nil && (fn.Pkg().Path() == ModPath || strings.HasPrefix(fn.Pkg().Path(), ModPath+"/"))
}
