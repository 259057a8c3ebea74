package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// graph is the module-wide reference graph the whole-program analyzers
// (taint, hotalloc, sharedstate, poollife) share. Nodes are declared
// functions, methods, package-level variables, anonymous function
// literals that flow somewhere trackable, and function-typed struct
// fields of the loaded target packages. Declared functions and
// variables are keyed by a stable cross-package ID (types.Func.FullName
// for functions, "pkgpath.Name" for variables) so the source-checked
// declaration of a package and the export-data view other packages
// import resolve to the same node. Field conduits are keyed
// "field:pkgpath.Type.name" and funclits "funclit:<position>".
type graph struct {
	nodes map[string]*graphNode
	m     *module
	// goRoots are the IDs of functions and funclits launched via a go
	// statement anywhere in the module — the entry points of the
	// sharedstate analysis. Sorted and deduplicated by buildGraph.
	goRoots []string
}

// graphNode is one declaration plus its outgoing references.
type graphNode struct {
	id   string
	name string    // short display name, e.g. "mesh.Network.Send"
	pos  token.Pos // declaration position
	p    *pass     // declaring package's pass
	decl *ast.FuncDecl
	// lit is set for anonymous function-literal nodes (decl is nil);
	// the hot-path and shared-state analyzers scan lit.Body the same
	// way they scan decl.Body.
	lit *ast.FuncLit
	// sources are the forbidden nondeterminism entry points the
	// declaration references directly ("time.Now", "rand.Intn", ...),
	// in source order.
	sources []source
	// refs are the IDs of module declarations this one references —
	// by call or by value use, so stored function values propagate —
	// sorted and deduplicated.
	refs []string
	// hostonly marks a field-conduit node whose declaration carries a
	// //tilesim:hostonly waiver: the taint rule does not follow values
	// stored into it. hostonlyReason is the waiver's mandatory reason.
	hostonly       bool
	hostonlyReason string
	// poolAcquire and poolRelease mark //tilesim:pool and
	// //tilesim:release function declarations (the poollife rule's pool
	// API). poolType is the pooled type key ("pkgpath.TypeName"): the
	// result type for acquires, the annotation's named type for by-key
	// releases (poolByType), empty for argument-based releases.
	poolAcquire bool
	poolRelease bool
	poolByType  bool
	poolType    string
}

// source is one direct reference to a forbidden nondeterminism entry
// point.
type source struct {
	name string
	pos  token.Pos
}

// body returns the analyzable statement body of the node, or nil for
// package-level variables and field conduits.
func (n *graphNode) body() *ast.BlockStmt {
	switch {
	case n.decl != nil:
		return n.decl.Body
	case n.lit != nil:
		return n.lit.Body
	}
	return nil
}

// buildGraph indexes every loaded package's declarations and their
// references. References to declarations outside the loaded set (the
// standard library, export-data-only deps) are dropped: they dead-end
// anyway, except the forbidden clock/rand entry points, which are
// recorded as sources rather than edges.
//
// Beyond plain calls and value uses, three indirection patterns are
// resolved so transitive rules see through stored callbacks:
//
//   - a function value (named function, method value, or funclit)
//     stored into a function-typed struct field — by assignment or
//     composite literal — adds an edge from the field's conduit node to
//     the stored value, and every read of that field (including calls
//     through it) adds an edge to the conduit;
//   - an anonymous funclit assigned to a local variable gets its own
//     node, and uses of that local resolve to the funclit, so a
//     goroutine body that invokes a locally-defined helper closure is
//     connected to it;
//   - a funclit launched directly by a go statement gets its own node
//     and is recorded in goRoots.
func buildGraph(m *module) *graph {
	g := &graph{nodes: make(map[string]*graphNode), m: m}
	// First sweep: declare the nodes, so the reference sweep can tell
	// module declarations from foreign ones.
	for _, p := range m.passes {
		for _, f := range p.pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := p.pkg.Info.Defs[decl.Name].(*types.Func)
					if !ok || decl.Body == nil {
						continue
					}
					node := &graphNode{
						id:   fn.FullName(),
						name: funcDisplayName(p, decl),
						pos:  decl.Pos(),
						p:    p,
						decl: decl,
					}
					annotatePoolNode(p, f, decl, node)
					g.nodes[fn.FullName()] = node
				case *ast.GenDecl:
					if decl.Tok != token.VAR {
						continue
					}
					for _, spec := range decl.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, name := range vs.Names {
							v, ok := p.pkg.Info.Defs[name].(*types.Var)
							if !ok {
								continue
							}
							id := varID(v)
							g.nodes[id] = &graphNode{
								id:   id,
								name: p.pkg.Pkg.Name() + "." + v.Name(),
								pos:  name.Pos(),
								p:    p,
							}
						}
					}
				}
			}
		}
	}
	// Second sweep: collect each node's references from its body (for
	// functions) or initializer expressions (for package-level vars).
	for _, p := range m.passes {
		for _, f := range p.pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := p.pkg.Info.Defs[decl.Name].(*types.Func)
					if !ok || decl.Body == nil {
						continue
					}
					locals := collectLocalFuncs(p, decl.Body)
					g.collectRefs(p, g.nodes[fn.FullName()], decl.Body, locals)
				case *ast.GenDecl:
					if decl.Tok != token.VAR {
						continue
					}
					for _, spec := range decl.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok || len(vs.Values) == 0 {
							continue
						}
						for _, name := range vs.Names {
							v, ok := p.pkg.Info.Defs[name].(*types.Var)
							if !ok {
								continue
							}
							node := g.nodes[varID(v)]
							for _, val := range vs.Values {
								g.collectRefs(p, node, val, nil)
							}
						}
					}
				}
			}
		}
	}
	for _, n := range g.nodes { //tilesim:ordered — per-node normalization, order-independent
		n.refs = sortDedup(n.refs)
	}
	g.goRoots = sortDedup(g.goRoots)
	return g
}

// collectLocalFuncs indexes funclits bound to local variables inside
// body (x := func(){...}, var x = func(){...}, x = func(){...}), so
// references to those locals can resolve to the literal.
func collectLocalFuncs(p *pass, body ast.Node) map[types.Object][]*ast.FuncLit {
	locals := make(map[types.Object][]*ast.FuncLit)
	record := func(nameIdent ast.Expr, val ast.Expr) {
		ident, ok := nameIdent.(*ast.Ident)
		if !ok {
			return
		}
		lit, ok := val.(*ast.FuncLit)
		if !ok {
			return
		}
		obj := p.pkg.Info.Defs[ident]
		if obj == nil {
			obj = p.pkg.Info.Uses[ident]
		}
		if obj != nil {
			locals[obj] = append(locals[obj], lit)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return locals
}

// collectRefs records every module declaration and forbidden source the
// subtree references into node. locals carries the enclosing function's
// local funclit bindings (nil outside function bodies).
func (g *graph) collectRefs(p *pass, node *graphNode, root ast.Node, locals map[types.Object][]*ast.FuncLit) {
	if node == nil {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj, ok := p.pkg.Info.Uses[n]
			if !ok {
				return true
			}
			switch obj := obj.(type) {
			case *types.Func:
				if name, forbidden := forbiddenSource(obj); forbidden {
					node.sources = append(node.sources, source{name, n.Pos()})
					return true
				}
				if _, inModule := g.nodes[obj.FullName()]; inModule {
					node.refs = append(node.refs, obj.FullName())
				}
			case *types.Var:
				if obj.Pkg() == nil {
					return true
				}
				if obj.IsField() {
					return true
				}
				// Package-level variables are graph nodes; locals are
				// covered implicitly (their initializers' references are
				// collected from the same enclosing body) — except local
				// funclit bindings, which resolve to the literal's node
				// so indirect invocation stays visible.
				if obj.Parent() == obj.Pkg().Scope() {
					if id := varID(obj); g.nodes[id] != nil && id != node.id {
						node.refs = append(node.refs, id)
					}
					return true
				}
				for _, lit := range locals[obj] {
					node.refs = append(node.refs, g.ensureFuncLit(p, lit, locals))
				}
			}
		case *ast.SelectorExpr:
			// Reads of (and calls through) function-typed struct fields
			// reference the field's conduit node.
			if id, ok := g.fieldConduit(p, n); ok {
				node.refs = append(node.refs, id)
			}
		case *ast.AssignStmt:
			g.collectFieldStores(p, n, locals)
		case *ast.CompositeLit:
			g.collectLitStores(p, n, locals)
		case *ast.GoStmt:
			if id, ok := g.callTargetID(p, n.Call.Fun, locals); ok {
				g.goRoots = append(g.goRoots, id)
			}
		}
		return true
	})
}

// ensureFuncLit returns the (possibly new) node for an anonymous
// function literal, collecting its references on first sight.
func (g *graph) ensureFuncLit(p *pass, lit *ast.FuncLit, locals map[types.Object][]*ast.FuncLit) string {
	pos := p.fset.Position(lit.Pos())
	id := fmt.Sprintf("funclit:%s:%d:%d", pos.Filename, pos.Line, pos.Column)
	if g.nodes[id] != nil {
		return id
	}
	node := &graphNode{
		id:   id,
		name: fmt.Sprintf("%s.func@%d", p.pkg.Pkg.Name(), pos.Line),
		pos:  lit.Pos(),
		p:    p,
		lit:  lit,
	}
	g.nodes[id] = node
	g.collectRefs(p, node, lit.Body, locals)
	return id
}

// fieldConduit resolves a selector to the conduit ID of a
// function-typed (or function-container-typed) struct field declared on
// a named type, or reports false. The conduit node is created on first
// sight.
func (g *graph) fieldConduit(p *pass, sel *ast.SelectorExpr) (string, bool) {
	v, ok := p.pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() || !functionish(v.Type()) {
		return "", false
	}
	tv, ok := p.pkg.Info.Types[sel.X]
	if !ok {
		return "", false
	}
	named, ok := namedOf(tv.Type)
	if !ok {
		return "", false
	}
	return g.ensureField(p, named, v), true
}

// ensureField interns the conduit node for one named type's field,
// resolving any //tilesim:hostonly waiver on the field's declaration
// (visible only when the declaring package is loaded from source).
func (g *graph) ensureField(p *pass, named *types.Named, field *types.Var) string {
	obj := named.Obj()
	id := "field:" + obj.Pkg().Path() + "." + obj.Name() + "." + field.Name()
	if g.nodes[id] == nil {
		node := &graphNode{
			id:   id,
			name: obj.Name() + "." + field.Name(),
			pos:  field.Pos(),
			p:    p,
		}
		if dp := g.m.passFor(field.Pkg()); dp != nil {
			if f := dp.fileOf(field.Pos()); f != nil {
				if reason, _, ok := waiverAt(dp, dp.hostonly, f, field.Pos()); ok {
					node.hostonly = true
					node.hostonlyReason = reason
					node.p = dp
				}
			}
		}
		g.nodes[id] = node
	}
	return id
}

// collectFieldStores links function values stored into struct fields
// (x.fld = v, x.fld[i] = v) to the field's conduit node.
func (g *graph) collectFieldStores(p *pass, assign *ast.AssignStmt, locals map[types.Object][]*ast.FuncLit) {
	if len(assign.Lhs) != len(assign.Rhs) {
		return // tuple-from-call; stored function values are not expressible here
	}
	for i, lhs := range assign.Lhs {
		// Unwrap container indexing: n.handlers[tile] = h stores into
		// the handlers field conduit.
		for {
			idx, ok := lhs.(*ast.IndexExpr)
			if !ok {
				break
			}
			lhs = idx.X
		}
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		fieldID, ok := g.fieldConduit(p, sel)
		if !ok {
			continue
		}
		if vid, ok := g.callTargetID(p, assign.Rhs[i], locals); ok {
			g.nodes[fieldID].refs = append(g.nodes[fieldID].refs, vid)
		}
	}
}

// collectLitStores links function values in struct composite literals
// (T{fld: v} and positional forms) to their field conduit nodes.
func (g *graph) collectLitStores(p *pass, lit *ast.CompositeLit, locals map[types.Object][]*ast.FuncLit) {
	tv, ok := p.pkg.Info.Types[lit]
	if !ok {
		return
	}
	named, ok := namedOf(tv.Type)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		var field *types.Var
		var val ast.Expr
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			field, _ = p.pkg.Info.Uses[key].(*types.Var)
			val = kv.Value
		} else if i < st.NumFields() {
			field, val = st.Field(i), elt
		}
		if field == nil || !functionish(field.Type()) {
			continue
		}
		if vid, ok := g.callTargetID(p, val, locals); ok {
			fieldID := g.ensureField(p, named, field)
			g.nodes[fieldID].refs = append(g.nodes[fieldID].refs, vid)
		}
	}
}

// callTargetID resolves an expression used as a stored function value
// or go-statement target to a graph node ID: a module function or
// method (named use or method value), a package-level variable, or an
// anonymous funclit (which gets its own node).
func (g *graph) callTargetID(p *pass, e ast.Expr, locals map[types.Object][]*ast.FuncLit) (string, bool) {
	switch e := e.(type) {
	case *ast.FuncLit:
		return g.ensureFuncLit(p, e, locals), true
	case *ast.ParenExpr:
		return g.callTargetID(p, e.X, locals)
	case *ast.Ident:
		switch obj := p.pkg.Info.Uses[e].(type) {
		case *types.Func:
			if _, ok := g.nodes[obj.FullName()]; ok {
				return obj.FullName(), true
			}
		case *types.Var:
			if obj.Pkg() != nil && !obj.IsField() && obj.Parent() == obj.Pkg().Scope() {
				if id := varID(obj); g.nodes[id] != nil {
					return id, true
				}
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := p.pkg.Info.Uses[e.Sel].(*types.Func); ok {
			if _, inModule := g.nodes[fn.FullName()]; inModule {
				return fn.FullName(), true
			}
		}
	}
	return "", false
}

// functionish reports whether t is a function type or a container
// (slice, array, map) of function values — the shapes a stored-callback
// field takes.
func functionish(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Signature:
		return true
	case *types.Slice:
		return isSignature(u.Elem())
	case *types.Array:
		return isSignature(u.Elem())
	case *types.Map:
		return isSignature(u.Elem())
	}
	return false
}

func isSignature(t types.Type) bool {
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// namedOf unwraps pointers to the named type of t, if any.
func namedOf(t types.Type) (*types.Named, bool) {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u, true
		default:
			return nil, false
		}
	}
}

// forbiddenClockFuncs are the wall-clock entry points of package time.
var forbiddenClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// globalRandFuncs are the package-level math/rand functions that draw
// from the shared global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

// forbiddenSource reports whether fn is a nondeterminism entry point:
// a wall-clock read or a global math/rand draw. Methods are never sources —
// (*rand.Rand).Float64 on an explicitly seeded generator is exactly
// the sanctioned alternative to the package-level rand.Float64.
func forbiddenSource(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false
	}
	switch pkg.Path() {
	case "time":
		if forbiddenClockFuncs[fn.Name()] {
			return "time." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] {
			return "rand." + fn.Name(), true
		}
	}
	return "", false
}

// varID keys a package-level variable.
func varID(v *types.Var) string {
	return v.Pkg().Path() + "." + v.Name()
}

// funcDisplayName renders a declaration for diagnostics:
// "pkg.Func" or "pkg.Recv.Method".
func funcDisplayName(p *pass, decl *ast.FuncDecl) string {
	name := p.pkg.Pkg.Name() + "."
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		t := decl.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if ident, ok := t.(*ast.Ident); ok {
			name += ident.Name + "."
		}
	}
	return name + decl.Name.Name
}

// reachableFrom returns the set of node IDs reachable from roots
// (roots included) over refs edges, with, for every reached node, the
// display name of the root that first reached it (roots visited in
// sorted order, breadth-first, so provenance is deterministic).
func (g *graph) reachableFrom(roots []string) map[string]string {
	reached := make(map[string]string)
	queue := make([]string, 0, len(roots))
	for _, r := range sortDedup(append([]string(nil), roots...)) {
		if node := g.nodes[r]; node != nil && reached[r] == "" {
			reached[r] = node.name
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		rootName := reached[id]
		for _, ref := range g.nodes[id].refs {
			if _, seen := reached[ref]; seen {
				continue
			}
			if g.nodes[ref] == nil {
				continue
			}
			reached[ref] = rootName
			queue = append(queue, ref)
		}
	}
	return reached
}

// sortedNodeIDs returns the graph's node IDs in sorted order, for
// deterministic iteration.
func (g *graph) sortedNodeIDs() []string {
	ids := make([]string, 0, len(g.nodes))
	for id := range g.nodes { //tilesim:ordered — keys are sorted below
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func sortDedup(in []string) []string {
	sort.Strings(in)
	out := in[:0]
	for i, s := range in {
		if i > 0 && s == in[i-1] {
			continue
		}
		out = append(out, s)
	}
	return out
}
