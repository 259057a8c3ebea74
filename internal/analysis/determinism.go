package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkDeterminism flags range over a map in a simulator-core
// (internal/) package: Go randomizes map iteration order per run, so
// any map-order-dependent side effect makes two identically-seeded
// runs diverge. A statement may be annotated //tilesim:ordered when its
// body is order-safe (e.g. it only collects keys that are sorted before
// use, as stats.SortedKeys does). The annotation does not waive
// floating-point accumulation in the body: float addition is not
// associative, so summing the same values in another order changes the
// result bits. Wall-clock and global-rand reads are the taint rule's
// (taint.go).
func checkDeterminism(p *pass) {
	if !p.inInternal() {
		return
	}
	for _, f := range p.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if rng, ok := n.(*ast.RangeStmt); ok {
				p.checkMapRange(f, rng)
			}
			return true
		})
	}
}

func (p *pass) checkMapRange(f *ast.File, n *ast.RangeStmt) {
	tv, ok := p.pkg.Info.Types[n.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if p.orderedAt(f, n.Pos()) {
		p.checkFloatAccum(n)
		return
	}
	p.reportf("determinism", n.Pos(),
		"range over map %s: iteration order is randomized per run; iterate sorted keys, use a slice, or annotate //%s if order-safe",
		types.TypeString(tv.Type, types.RelativeTo(p.pkg.Pkg)), OrderedAnnotation)
}

// checkFloatAccum reports float accumulation (acc += v, acc -= v,
// acc = acc + v, acc = acc - v) in an annotated map-range body.
// Function literals are lexical boundaries (their bodies do not run per
// iteration), and nested map ranges are checked when visited
// themselves.
func (p *pass) checkFloatAccum(rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if tv, ok := p.pkg.Info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					return false
				}
			}
		case *ast.AssignStmt:
			if lhs, ok := p.floatAccumTarget(n); ok {
				p.reportf("determinism", n.Pos(),
					"floating-point accumulation of %s inside a range over a map: summation order changes float results (even under //%s); iterate sorted keys or accumulate an integer",
					types.ExprString(lhs), OrderedAnnotation)
			}
		}
		return true
	})
}

// floatAccumTarget reports whether the assignment accumulates into a
// float-underlying lvalue, returning that lvalue.
func (p *pass) floatAccumTarget(n *ast.AssignStmt) (ast.Expr, bool) {
	switch n.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		if len(n.Lhs) == 1 && p.isFloat(n.Lhs[0]) {
			return n.Lhs[0], true
		}
	case token.ASSIGN:
		// x = x + v / x = x - v spelled out.
		for i, lhs := range n.Lhs {
			if i >= len(n.Rhs) || !p.isFloat(lhs) {
				continue
			}
			be, ok := ast.Unparen(n.Rhs[i]).(*ast.BinaryExpr)
			if !ok || (be.Op != token.ADD && be.Op != token.SUB) {
				continue
			}
			want := types.ExprString(lhs)
			if types.ExprString(ast.Unparen(be.X)) == want || types.ExprString(ast.Unparen(be.Y)) == want {
				return lhs, true
			}
		}
	default: // other assignment operators do not accumulate additively
	}
	return nil, false
}

// isFloat reports whether the expression's type has a floating-point
// underlying type.
func (p *pass) isFloat(e ast.Expr) bool {
	tv, ok := p.pkg.Info.Types[e]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
