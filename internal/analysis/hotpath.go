package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// checkHotAlloc is the hot-path allocation discipline: functions marked
// //tilesim:hotpath (the event loop, mesh transit, coherence handlers)
// and every module function transitively reachable from them — over the
// same reference graph taint uses, including calls through stored
// function values and function-typed struct fields — must not allocate
// per event. The rule flags the allocation sources Go hides in plain
// syntax:
//
//   - &T{} composite literals and new(T): one heap object per execution;
//   - make of maps, slices and channels;
//   - capacity-less append inside a loop;
//   - map and slice literals (a fresh backing store every execution);
//   - fmt.Sprintf/Sprint/Sprintln/Errorf and errors.New;
//   - non-constant string concatenation;
//   - closures that capture variables (each capture set is one heap
//     allocation when the closure escapes, and hot-path closures
//     escape into the event queue);
//   - method values (x.Method without a call allocates a bound-method
//     closure; bind it once at construction instead);
//   - interface boxing at call sites: a concrete multi-word value
//     passed to an interface parameter allocates.
//
// Failure-path code is exempt: anything inside a panic(...) argument
// only runs when the simulation is already dead. Every other finding
// must be fixed or explicitly waived with //tilesim:allocok <reason>
// on the flagged line (or the line above). Waivers are themselves
// audited — a reason is mandatory, and a waiver that suppresses
// nothing is reported as stale.
func checkHotAlloc(m *module, g *graph) {
	roots := hotRoots(m, g)
	hot := g.reachableFrom(roots)

	// usedWaivers tracks which //tilesim:allocok lines suppressed at
	// least one finding, per pass and file, for the stale-waiver audit.
	usedWaivers := make(map[*pass]map[*ast.File]map[int]bool)
	reported := make(map[string]bool)

	for _, id := range g.sortedNodeIDs() {
		rootName, isHot := hot[id]
		if !isHot {
			continue
		}
		node := g.nodes[id]
		body := node.body()
		if body == nil {
			continue
		}
		s := &hotScan{
			node:     node,
			root:     rootName,
			used:     usedWaivers,
			reported: reported,
		}
		s.run(body)
	}

	reportStaleWaivers(m, "hotalloc", AllocOKAnnotation,
		func(p *pass) map[*ast.File]map[int]string { return p.allocok },
		usedWaivers)
}

// hotRoots returns the IDs of every declared function carrying the
// //tilesim:hotpath annotation (in its doc comment, on its line, or on
// the line above).
func hotRoots(m *module, g *graph) []string {
	var roots []string
	for _, id := range g.sortedNodeIDs() {
		node := g.nodes[id]
		if node.decl == nil {
			continue
		}
		if commentGroupHas(node.decl.Doc, HotPathAnnotation) {
			roots = append(roots, id)
			continue
		}
		if f := node.p.fileOf(node.pos); f != nil && node.p.annotatedAt(node.p.hotpath, f, node.pos) {
			roots = append(roots, id)
		}
	}
	return roots
}

func commentGroupHas(cg *ast.CommentGroup, annotation string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if _, ok := annotationRest(c, annotation); ok {
			return true
		}
	}
	return false
}

// posRange is a half-open source span.
type posRange struct{ from, to token.Pos }

func (r posRange) contains(pos token.Pos) bool { return r.from <= pos && pos < r.to }

func anyContains(rs []posRange, pos token.Pos) bool {
	for _, r := range rs {
		if r.contains(pos) {
			return true
		}
	}
	return false
}

// hotScan walks one hot function (or funclit) body.
type hotScan struct {
	node     *graphNode
	root     string
	used     map[*pass]map[*ast.File]map[int]bool
	reported map[string]bool

	file       *ast.File
	loops      []posRange // loop bodies
	panics     []posRange
	callFuns   map[ast.Expr]bool
	addrOfLits map[ast.Expr]bool
	concatSubs map[ast.Expr]bool
}

func (s *hotScan) run(body *ast.BlockStmt) {
	p := s.node.p
	s.file = p.fileOf(body.Pos())
	s.callFuns = make(map[ast.Expr]bool)
	s.addrOfLits = make(map[ast.Expr]bool)
	s.concatSubs = make(map[ast.Expr]bool)

	// Prepass: loop bodies, panic-argument spans (failure paths are
	// exempt), call-function positions (to tell method values from
	// method calls), &-lifted literals (reported once at the &).
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			s.loops = append(s.loops, posRange{n.Body.Pos(), n.Body.End()})
		case *ast.RangeStmt:
			s.loops = append(s.loops, posRange{n.Body.Pos(), n.Body.End()})
		case *ast.CallExpr:
			s.callFuns[n.Fun] = true
			if ident, ok := n.Fun.(*ast.Ident); ok && ident.Name == "panic" && isBuiltin(p, ident) {
				s.panics = append(s.panics, posRange{n.Pos(), n.End()})
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					s.addrOfLits[n.X] = true
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op != token.AND {
				return true
			}
			if lit, ok := n.X.(*ast.CompositeLit); ok {
				s.reportf(n.Pos(), "&%s composite literal allocates on a hot path (via %s); pool or reuse the object",
					typeLabel(p, lit), s.root)
			}
		case *ast.CompositeLit:
			if s.addrOfLits[n] {
				return true
			}
			switch p.pkg.Info.Types[n].Type.Underlying().(type) {
			case *types.Map:
				s.reportf(n.Pos(), "map literal allocates on a hot path (via %s); hoist it out of the per-event path", s.root)
			case *types.Slice:
				s.reportf(n.Pos(), "slice literal allocates a fresh backing array on a hot path (via %s); hoist it out of the per-event path", s.root)
			}
		case *ast.CallExpr:
			s.checkCall(n)
		case *ast.BinaryExpr:
			s.checkConcat(n)
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(p, n.Lhs[0]) {
				if !anyContains(s.panics, n.Pos()) {
					s.reportf(n.Pos(), "string concatenation allocates on a hot path (via %s)", s.root)
				}
			}
		case *ast.FuncLit:
			s.checkFuncLit(n)
		case *ast.SelectorExpr:
			s.checkMethodValue(n)
		}
		return true
	})
}

// checkCall flags allocating calls: new, make, capacity-less append in
// loops, the fmt formatting family, errors.New, and interface boxing of
// concrete arguments.
func (s *hotScan) checkCall(call *ast.CallExpr) {
	p := s.node.p
	inPanic := anyContains(s.panics, call.Pos())
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if !isBuiltin(p, fun) {
			break // shadowed builtin name or ordinary function
		}
		switch fun.Name {
		case "new":
			s.reportf(call.Pos(), "new(...) allocates on a hot path (via %s); pool or reuse the object", s.root)
			return
		case "make":
			if !inPanic {
				s.reportf(call.Pos(), "make allocates on a hot path (via %s); hoist the buffer out of the per-event path or pool it", s.root)
			}
			return
		case "append":
			s.checkAppend(call)
			return
		case "panic":
			return
		}
	case *ast.SelectorExpr:
		if name, ok := stdlibCall(p, fun); ok {
			switch name {
			case "fmt.Sprintf", "fmt.Sprint", "fmt.Sprintln", "fmt.Errorf", "errors.New":
				if !inPanic {
					s.reportf(call.Pos(), "%s allocates on a hot path (via %s); precompute the string outside the per-event path", name, s.root)
				}
				return
			}
		}
	}
	if inPanic {
		return
	}
	s.checkBoxing(call)
}

// checkAppend flags capacity-less appends inside loops, unless the
// appended slice is visibly created with a capacity in the same body.
func (s *hotScan) checkAppend(call *ast.CallExpr) {
	p := s.node.p
	if !anyContains(s.loops, call.Pos()) || len(call.Args) == 0 {
		return
	}
	if base, ok := call.Args[0].(*ast.Ident); ok {
		if obj := p.pkg.Info.Uses[base]; obj != nil && s.createdWithCapacity(obj) {
			return
		}
	}
	s.reportf(call.Pos(), "capacity-less append inside a loop on a hot path (via %s); preallocate with make(..., 0, n)", s.root)
}

// createdWithCapacity reports whether obj is bound by a make call with
// an explicit capacity argument somewhere in the scanned body.
func (s *hotScan) createdWithCapacity(obj types.Object) bool {
	p := s.node.p
	found := false
	ast.Inspect(s.node.body(), func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			ident, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			def := p.pkg.Info.Defs[ident]
			if def == nil {
				def = p.pkg.Info.Uses[ident]
			}
			if def != obj {
				continue
			}
			if mk, ok := assign.Rhs[i].(*ast.CallExpr); ok {
				if fn, ok := mk.Fun.(*ast.Ident); ok && fn.Name == "make" && isBuiltin(p, fn) && len(mk.Args) >= 3 {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// checkConcat flags non-constant string concatenation, reporting only
// the outermost + of a chain.
func (s *hotScan) checkConcat(expr *ast.BinaryExpr) {
	p := s.node.p
	if expr.Op != token.ADD || s.concatSubs[expr] {
		return
	}
	tv, ok := p.pkg.Info.Types[expr]
	if !ok || tv.Value != nil {
		return // not typed here, or constant-folded at compile time
	}
	if basic, ok := tv.Type.Underlying().(*types.Basic); !ok || basic.Info()&types.IsString == 0 {
		return
	}
	for _, sub := range []ast.Expr{expr.X, expr.Y} {
		if b, ok := sub.(*ast.BinaryExpr); ok && b.Op == token.ADD {
			s.concatSubs[b] = true
		}
	}
	if anyContains(s.panics, expr.Pos()) {
		return
	}
	s.reportf(expr.Pos(), "string concatenation allocates on a hot path (via %s)", s.root)
}

// checkFuncLit flags capturing closures: each one heap-allocates its
// capture set when it escapes, and hot-path closures escape into the
// event queue.
func (s *hotScan) checkFuncLit(lit *ast.FuncLit) {
	p := s.node.p
	var declRange posRange
	switch {
	case s.node.decl != nil:
		declRange = posRange{s.node.decl.Pos(), s.node.decl.End()}
	case s.node.lit != nil:
		declRange = posRange{s.node.lit.Pos(), s.node.lit.End()}
	}
	litRange := posRange{lit.Pos(), lit.End()}
	captured := make(map[string]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		ident, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.pkg.Info.Uses[ident].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		if v.Parent() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level, not a capture
		}
		if litRange.contains(v.Pos()) || !declRange.contains(v.Pos()) {
			return true // closure-local, or declared outside the scanned function
		}
		captured[v.Name()] = true
		return true
	})
	if len(captured) == 0 {
		return
	}
	names := make([]string, 0, len(captured))
	for name := range captured { //tilesim:ordered — keys are sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	s.reportf(lit.Pos(), "closure capturing %s allocates per event on a hot path (via %s)",
		strings.Join(names, ", "), s.root)
}

// checkMethodValue flags x.Method used as a value (not called): Go
// allocates a bound-method closure at every evaluation; binding it once
// at construction costs one allocation for the object's lifetime.
func (s *hotScan) checkMethodValue(sel *ast.SelectorExpr) {
	p := s.node.p
	if s.callFuns[sel] {
		return
	}
	fn, ok := p.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	// A selector whose base is a package name is a plain function
	// reference, and a method expression T.Method is a static value;
	// both are allocation-free.
	if base := baseIdent(sel.X); base != nil {
		if _, isPkg := p.pkg.Info.Uses[base].(*types.PkgName); isPkg {
			return
		}
	}
	if tv, ok := p.pkg.Info.Types[sel.X]; ok && tv.IsType() {
		return
	}
	if anyContains(s.panics, sel.Pos()) {
		return
	}
	s.reportf(sel.Pos(), "method value %s.%s allocates a bound-method closure on a hot path (via %s); bind it once at construction",
		exprText(p.fset, sel.X), sel.Sel.Name, s.root)
}

// checkBoxing flags concrete multi-word values passed to interface
// parameters: the conversion allocates. Single-word kinds (pointers,
// channels, maps, funcs, unsafe pointers) fit the interface data word
// and do not.
func (s *hotScan) checkBoxing(call *ast.CallExpr) {
	p := s.node.p
	tv, ok := p.pkg.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis.IsValid() {
		return // s... forwards an existing slice; no per-element boxing
	}
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var paramType types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			paramType = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			paramType = params.At(i).Type()
		} else {
			break
		}
		if !types.IsInterface(paramType) {
			continue
		}
		argTV, ok := p.pkg.Info.Types[arg]
		if !ok || argTV.Type == nil {
			continue
		}
		at := argTV.Type
		if at == types.Typ[types.UntypedNil] || types.IsInterface(at) {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue // one word; stored directly in the interface
		}
		s.reportf(arg.Pos(), "%s boxes into an interface parameter and allocates on a hot path (via %s); use a concrete-typed API",
			exprText(p.fset, arg), s.root)
	}
}

// reportf reports one hotalloc finding unless a //tilesim:allocok
// waiver covers the position; used waivers are recorded for the stale
// audit, and a waiver with no reason is itself reported.
func (s *hotScan) reportf(pos token.Pos, format string, args ...any) {
	p := s.node.p
	if reason, line, ok := waiverAt(p, p.allocok, s.file, pos); ok {
		markWaiverUsed(s.used, p, s.file, line)
		if reason == "" {
			s.reportOnce(pos, "//%s waiver needs a reason", AllocOKAnnotation)
		}
		return
	}
	s.reportOnce(pos, format, args...)
}

// reportOnce deduplicates findings that would repeat when a funclit is
// scanned both inline and as its own stored-callback node.
func (s *hotScan) reportOnce(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	if s.reported[key] {
		return
	}
	s.reported[key] = true
	s.node.p.reportf("hotalloc", pos, "%s", msg)
}

// waiverAt looks a reason-bearing waiver up at pos's line or the line
// above, returning the reason and the annotation's own line.
func waiverAt(p *pass, waivers map[*ast.File]map[int]string, f *ast.File, pos token.Pos) (reason string, line int, ok bool) {
	set := waivers[f]
	if set == nil {
		return "", 0, false
	}
	posLine := p.fset.Position(pos).Line
	if r, found := set[posLine]; found {
		return r, posLine, true
	}
	if r, found := set[posLine-1]; found {
		return r, posLine - 1, true
	}
	return "", 0, false
}

func markWaiverUsed(used map[*pass]map[*ast.File]map[int]bool, p *pass, f *ast.File, line int) {
	if used[p] == nil {
		used[p] = make(map[*ast.File]map[int]bool)
	}
	if used[p][f] == nil {
		used[p][f] = make(map[int]bool)
	}
	used[p][f][line] = true
}

// reportStaleWaivers reports every waiver annotation of the given kind
// that suppressed no finding: a stale waiver hides nothing and rots
// into misdocumentation.
func reportStaleWaivers(m *module, analyzer, annotation string,
	waivers func(*pass) map[*ast.File]map[int]string,
	used map[*pass]map[*ast.File]map[int]bool) {
	for _, p := range m.passes {
		for _, f := range p.pkg.Files {
			set := waivers(p)[f]
			if len(set) == 0 {
				continue
			}
			lines := make([]int, 0, len(set))
			for line := range set { //tilesim:ordered — lines are sorted below
				lines = append(lines, line)
			}
			sort.Ints(lines)
			for _, line := range lines {
				if used[p] != nil && used[p][f] != nil && used[p][f][line] {
					continue
				}
				p.reportf(analyzer, lineStartPos(p, f, line),
					"stale //%s waiver: no %s finding on this or the next line", annotation, analyzer)
			}
		}
	}
}

// lineStartPos returns a position on the given line of f (the line's
// first character).
func lineStartPos(p *pass, f *ast.File, line int) token.Pos {
	tf := p.fset.File(f.Pos())
	if tf == nil || line < 1 || line > tf.LineCount() {
		return f.Pos()
	}
	return tf.LineStart(line)
}

// stdlibCall resolves pkg.Func selector calls to "pkg.Func" for
// standard-library packages.
func stdlibCall(p *pass, sel *ast.SelectorExpr) (string, bool) {
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, isPkg := p.pkg.Info.Uses[base].(*types.PkgName); !isPkg {
		return "", false
	}
	fn, ok := p.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	return fn.Pkg().Name() + "." + fn.Name(), true
}

// typeLabel renders the type of a composite literal for diagnostics.
func typeLabel(p *pass, lit *ast.CompositeLit) string {
	if lit.Type != nil {
		return exprText(p.fset, lit.Type)
	}
	if tv, ok := p.pkg.Info.Types[lit]; ok && tv.Type != nil {
		return tv.Type.String()
	}
	return "T"
}

// exprText renders an expression as source text.
func exprText(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "<expr>"
	}
	return buf.String()
}

// baseIdent unwraps selectors, indexing and parens to the leftmost
// identifier, or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isBuiltin reports whether ident refers to a Go builtin (go/types
// records builtin uses as *types.Builtin; a nil object also means no
// ordinary declaration shadows the name).
func isBuiltin(p *pass, ident *ast.Ident) bool {
	obj := p.pkg.Info.Uses[ident]
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

func isStringType(p *pass, e ast.Expr) bool {
	tv, ok := p.pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}
