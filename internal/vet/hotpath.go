package vet

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Hot-path discovery shared by the alloc and shard passes.
//
// The event-dispatch hot path is declared in the source itself: a
// function whose declaration carries (on its line or the line above,
// normally as the last line of its doc comment)
//
//	//fsvet:hotpath <description>
//
// is a root — an entry point the event loop invokes per packet, per
// timer fire, or per syscall on the steady-state request path. The
// hot set is the may-call closure of the roots over the module call
// graph (static calls, devirtualized interface calls, and escaping
// function references, exactly the relation the lockorder pass
// walks). Everything in the closure is held to the allocation budget
// and the shard-isolation rules.
//
// Two further markers classify state for the shard pass:
//
//	//fsvet:percore <reason>  on a type or field declaration: the
//	    state is owned by one simulated core (flow-home ownership);
//	    lockless hot-path mutation is by design.
//	//fsvet:shared <reason>   on a type or field declaration, or on a
//	    mutation site: the state is genuinely shared across cores and
//	    the unlocked access is acknowledged; every such waiver must be
//	    justified in DESIGN.md §5.
//
// A third marker gates the parallel engine's injection primitive:
//
//	//fsvet:mailbox <reason>  on a function declaration: this function
//	    is part of the fabric's deterministic delivery path and may
//	    call shard.Engine.Post; every unmarked caller is a finding
//	    (the mailbox pass).
//
// All markers require a reason; a bare marker is a finding.

type fileLine struct {
	file string
	line int
}

// markers is the parsed inventory of hotpath/percore/shared comment
// markers, keyed by position for matching against declarations.
type markers struct {
	hotpath map[fileLine]bool
	percore map[fileLine]bool
	shared  map[fileLine]bool
	mailbox map[fileLine]bool
}

// collectMarkers scans every loaded file for the four markers.
// Malformed markers (percore/shared/mailbox without a reason) are
// reported as directive findings through v.
func (v *vetter) collectMarkers() *markers {
	mk := &markers{
		hotpath: map[fileLine]bool{},
		percore: map[fileLine]bool{},
		shared:  map[fileLine]bool{},
		mailbox: map[fileLine]bool{},
	}
	p := v.prog
	for _, ip := range p.Paths {
		for _, file := range p.Files[ip] {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					tp := p.RelPos(c.Pos())
					key := fileLine{tp.Filename, tp.Line}
					switch {
					case strings.HasPrefix(text, "fsvet:hotpath"):
						mk.hotpath[key] = true
					case strings.HasPrefix(text, "fsvet:percore"):
						if len(strings.Fields(strings.TrimPrefix(text, "fsvet:percore"))) == 0 {
							v.findings = append(v.findings, Finding{File: tp.Filename, Line: tp.Line, Col: tp.Column,
								Pass: PassDirective, Msg: "fsvet:percore needs a reason: //fsvet:percore <why this state is core-owned>"})
							continue
						}
						mk.percore[key] = true
					case strings.HasPrefix(text, "fsvet:mailbox"):
						if len(strings.Fields(strings.TrimPrefix(text, "fsvet:mailbox"))) == 0 {
							v.findings = append(v.findings, Finding{File: tp.Filename, Line: tp.Line, Col: tp.Column,
								Pass: PassDirective, Msg: "fsvet:mailbox needs a reason: //fsvet:mailbox <why this is a fabric delivery path>"})
							continue
						}
						mk.mailbox[key] = true
					case strings.HasPrefix(text, "fsvet:shared"):
						if len(strings.Fields(strings.TrimPrefix(text, "fsvet:shared"))) == 0 {
							v.findings = append(v.findings, Finding{File: tp.Filename, Line: tp.Line, Col: tp.Column,
								Pass: PassDirective, Msg: "fsvet:shared needs a reason: //fsvet:shared <why unlocked sharing is safe>"})
							continue
						}
						mk.shared[key] = true
					}
				}
			}
		}
	}
	return mk
}

// markedAt reports whether a marker set contains an entry on the
// declaration's line or the line above it.
func markedAt(set map[fileLine]bool, file string, line int) bool {
	return set[fileLine{file, line}] || set[fileLine{file, line - 1}]
}

// hotPathSet resolves the //fsvet:hotpath roots and computes their
// may-call closure. The returned map is the hot set; roots lists the
// marked functions in declaration order (for reporting).
//
// Beyond the may-call relation, one rule follows scheduled callbacks
// that the call graph cannot see: when a hot function hands a struct
// field to a deferred executor (Loop.At, Task.DeferArg, Core.Submit,
// Wheel.Arm, ...), every function stored in that field runs from the
// loop later and is hot too. That is how cpu.(*Core).drain, reached
// only through the bound c.drainFn, enters the set. The rule lives
// here, not in the shared may-call relation, so the lock graph and the
// charge pass see exactly the edges they always did.
func hotPathSet(cg *callGraph, mk *markers) (roots []*types.Func, hot map[*types.Func]bool) {
	hot = map[*types.Func]bool{}
	for _, fn := range cg.funcs {
		tp := cg.prog.RelPos(cg.decls[fn].Pos())
		if markedAt(mk.hotpath, tp.Filename, tp.Line) {
			roots = append(roots, fn)
		}
	}
	stored := fieldCallbacks(cg)
	work := append([]*types.Func(nil), roots...)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if hot[fn] {
			continue
		}
		hot[fn] = true
		for _, c := range cg.callees[fn] {
			if !hot[c] {
				work = append(work, c)
			}
		}
		for _, field := range scheduledFields(cg, fn) {
			for c := range stored[field] {
				if !hot[c] {
					work = append(work, c)
				}
			}
		}
	}
	return roots, hot
}

// fieldOf resolves an expression naming a struct field, or an element
// of a slice or array field (x.f, x.f[i]), to the field.
func fieldOf(info *types.Info, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		v, _ := s.Obj().(*types.Var)
		return v
	}
	return nil
}

// fieldCallbacks indexes every store of a function value into a struct
// field anywhere in the module (assignments and keyed composite
// literals). A stored function or method value contributes itself; a
// stored function literal contributes its static callees.
func fieldCallbacks(cg *callGraph) map[*types.Var]map[*types.Func]bool {
	info := cg.prog.Info
	stored := map[*types.Var]map[*types.Func]bool{}
	add := func(field *types.Var, f *types.Func) {
		if f == nil || cg.decls[f] == nil {
			return
		}
		if stored[field] == nil {
			stored[field] = map[*types.Func]bool{}
		}
		stored[field][f] = true
	}
	record := func(field *types.Var, val ast.Expr) {
		if field == nil {
			return
		}
		switch val := ast.Unparen(val).(type) {
		case *ast.FuncLit:
			ast.Inspect(val.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					add(field, cg.staticCallee(call))
				}
				return true
			})
		case *ast.Ident:
			f, _ := info.Uses[val].(*types.Func)
			add(field, f)
		case *ast.SelectorExpr: // method value or package-qualified function
			f, _ := info.Uses[val.Sel].(*types.Func)
			add(field, f)
		}
	}
	for _, fn := range cg.funcs {
		ast.Inspect(cg.decls[fn].Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						record(fieldOf(info, lhs), n.Rhs[i])
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if field, _ := info.Uses[id].(*types.Var); field != nil && field.IsField() {
						record(field, n.Value)
					}
				}
			}
			return true
		})
	}
	return stored
}

// scheduledFields lists the struct fields fn hands to a deferred
// executor as its callback. The callback is the argument whose
// parameter has function type (every executor has exactly one).
func scheduledFields(cg *callGraph, fn *types.Func) []*types.Var {
	info := cg.prog.Info
	var out []*types.Var
	ast.Inspect(cg.decls[fn].Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := cg.staticCallee(call)
		if _, ok := isDeferredExecutor(callee); !ok {
			return true
		}
		params := callee.Type().(*types.Signature).Params()
		for i, arg := range call.Args {
			if i >= params.Len() {
				break
			}
			if _, isFunc := params.At(i).Type().Underlying().(*types.Signature); !isFunc {
				continue
			}
			if field := fieldOf(info, arg); field != nil {
				out = append(out, field)
			}
		}
		return true
	})
	return out
}

// sortedHotNames renders the hot set deterministically (diagnostics
// and the budget generator).
func sortedHotNames(hot map[*types.Func]bool) []string {
	out := make([]string, 0, len(hot))
	for fn := range hot {
		out = append(out, qualifiedName(fn))
	}
	sort.Strings(out)
	return out
}
