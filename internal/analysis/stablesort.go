package analysis

import (
	"go/ast"
	"go/types"
)

// checkStableSort flags sort.Slice calls in simulator-core (internal/)
// packages. sort.Slice is not stable: elements the comparator considers
// equal end up in an order that depends on the input permutation and on
// the sort algorithm of the current Go release, so any downstream
// consumer of the slice order (event dispatch, metric registration,
// encoding) can silently diverge between builds or refactors. The rule
// demands sort.SliceStable — same asymptotics, deterministic ties.
func checkStableSort(p *pass) {
	if !p.inInternal() {
		return
	}
	for _, f := range p.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Slice" {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := p.pkg.Info.Uses[ident].(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "sort" {
				return true
			}
			p.reportf("stablesort", call.Pos(),
				"sort.Slice tie-breaking order is unspecified and unstable; use sort.SliceStable")
			return true
		})
	}
}
