package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// maxBareTime is the largest bare integer literal accepted in a
// sim.Time position. Anything above 1us must be spelled with a
// unit constant (2*sim.Microsecond) or a named cost, so a reader can
// tell nanoseconds from microseconds at the use site.
const maxBareTime = 1000

// checkUnits is the units rule for restricted packages. It asks the
// type checker what type each integer literal actually takes, so it
// catches arguments, conversions (sim.Time(5000)), assignments to
// sim.Time fields and variables, returns, and arithmetic that mixes a
// bare magnitude into a sim.Time expression — and it does not misfire
// on same-named functions whose parameter is a plain int.
//
// The unit-constant idiom itself — a literal multiplied by a
// non-literal sim.Time operand, as in 3*sim.Millisecond — is the fix,
// not a finding. Composite literals are exempt: the calibrated cost
// tables are where named values are defined.
func (v *vetter) checkUnits() {
	for _, ip := range v.prog.Paths {
		if !Restricted(ip) {
			continue
		}
		for _, file := range v.prog.Files[ip] {
			v.unitsFile(file)
		}
	}
}

func (v *vetter) unitsFile(file *ast.File) {
	info := v.prog.Info
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.INT {
			return true
		}
		val, err := strconv.ParseInt(lit.Value, 0, 64)
		if err != nil || val <= maxBareTime {
			return true
		}
		if !v.litIsSimTime(lit, stack) {
			return true
		}
		if unitsAllowed(info, stack) {
			return true
		}
		v.report(lit.Pos(), PassUnits,
			"bare integer %d in a sim.Time position: use a unit constant (e.g. %d*sim.Microsecond) or a named cost",
			val, val/1000)
		return true
	})
}

// litIsSimTime reports whether the literal's type-checked final type is
// sim.Time, or it is the operand of an explicit conversion to sim.Time
// (the checker records conversion operands with their own type, so the
// conversion case is matched structurally).
func (v *vetter) litIsSimTime(lit *ast.BasicLit, stack []ast.Node) bool {
	info := v.prog.Info
	if tv, ok := info.Types[ast.Expr(lit)]; ok && isSimTime(tv.Type) {
		return true
	}
	if p := parentExpr(stack); p != nil {
		if call, ok := p.(*ast.CallExpr); ok && len(call.Args) == 1 && ast.Unparen(call.Args[0]) == ast.Expr(lit) {
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && isSimTime(tv.Type) {
				return true
			}
		}
	}
	return false
}

func isSimTime(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == ModPath+"/internal/sim" && n.Obj().Name() == "Time"
}

// parentExpr returns the nearest enclosing node above the literal,
// skipping parentheses. stack[len-1] is the literal itself.
func parentExpr(stack []ast.Node) ast.Node {
	for i := len(stack) - 2; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		return stack[i]
	}
	return nil
}

// unitsAllowed implements the two allowances. The multiplication form
// requires the other operand to be a non-literal sim.Time expression:
// 3000*sim.Microsecond names its unit, 3000*1000 does not.
func unitsAllowed(info *types.Info, stack []ast.Node) bool {
	lit := stack[len(stack)-1].(*ast.BasicLit)
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.BinaryExpr:
			if p.Op != token.MUL {
				return false
			}
			other := p.X
			if ast.Unparen(p.X) == ast.Expr(lit) {
				other = p.Y
			}
			if _, isLit := ast.Unparen(other).(*ast.BasicLit); isLit {
				return false
			}
			tv, ok := info.Types[other]
			return ok && isSimTime(tv.Type)
		case *ast.KeyValueExpr, *ast.CompositeLit:
			// Cost tables and other composite definitions are where the
			// named values live; the literal is the definition.
			return true
		default:
			return false
		}
	}
	return false
}
