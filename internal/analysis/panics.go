package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// checkPanics enforces panic hygiene in simulator-core (internal/)
// packages: a panic is an invariant violation, and its message is often
// the only forensic evidence of where a multi-million-event simulation
// went wrong. Every panic argument must therefore be a constant string
// (or a fmt.Sprintf/Sprint/Errorf with a constant format) prefixed
// "<pkg>: " so the crash names its subsystem. Panicking with a bare
// error value or a computed message is flagged: recoverable conditions
// should be returned as errors instead, and true invariants should
// state the package they belong to.
func checkPanics(p *pass) {
	if !p.inInternal() {
		return
	}
	prefix := p.pkg.Pkg.Name() + ": "
	for _, f := range p.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			ident, ok := call.Fun.(*ast.Ident)
			if !ok || ident.Name != "panic" {
				return true
			}
			if obj, ok := p.pkg.Info.Uses[ident]; !ok || obj != types.Universe.Lookup("panic") {
				return true // shadowed identifier, not the builtin
			}
			if len(call.Args) != 1 {
				return true
			}
			msg, constant := p.panicMessage(call.Args[0])
			switch {
			case !constant:
				p.reportf("panics", call.Pos(),
					"panic with a non-constant message; use a constant %q-prefixed string (return an error if the condition is recoverable)",
					prefix)
			case !strings.HasPrefix(msg, prefix):
				p.reportf("panics", call.Pos(),
					"panic message %q must carry the %q package prefix", truncate(msg, 40), prefix)
			}
			return true
		})
	}
}

// panicMessage extracts the constant message of a panic argument:
// either a string literal/constant, or the constant format string of a
// fmt.Sprintf/Sprint/Sprintln/Errorf call.
func (p *pass) panicMessage(arg ast.Expr) (msg string, constant bool) {
	// A fmt formatting call: judge its first (format) argument.
	if call, ok := arg.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if ident, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := p.pkg.Info.Uses[ident].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
					switch sel.Sel.Name {
					case "Sprintf", "Sprint", "Sprintln", "Errorf":
						if len(call.Args) > 0 {
							return p.constString(call.Args[0])
						}
					}
				}
			}
		}
		return "", false
	}
	return p.constString(arg)
}

// constString resolves an expression to its constant string value.
func (p *pass) constString(e ast.Expr) (string, bool) {
	tv, ok := p.pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	s := tv.Value.ExactString()
	unquoted, err := strconv.Unquote(s)
	if err != nil {
		return "", false
	}
	return unquoted, true
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
