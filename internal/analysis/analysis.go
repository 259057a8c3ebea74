// Package analysis implements tilesimvet, the simulator-specific static
// checks that keep tilesim's cycle-level results bit-for-bit
// reproducible and its failure modes diagnosable. Each rule below
// catches some injected defect that the tests and gates miss, or catch
// only in some runs (the injection table in DESIGN.md §12.2):
//
//   - determinism: no range over a map in simulator packages (Go
//     randomizes iteration order per run) unless the statement is
//     annotated //tilesim:ordered as order-safe; floating-point
//     accumulation in the body is flagged even then, because float
//     summation is not associative.
//   - stablesort: sort.Slice in simulator packages must be
//     sort.SliceStable, since the tie-breaking order of an unstable
//     sort is unspecified and silently diverges.
//   - taint: a module-wide call-graph pass flags every wall-clock read
//     (time.Now, time.Since, time.Until) and global math/rand draw
//     outside cmd/, at the callsite, and every internal/ function from
//     which one is transitively reachable through helpers and stored
//     function values.
//   - units: additive arithmetic, compound assignment and comparisons
//     must not mix values of distinct physical units (cycles, joules,
//     flits, seconds). Unit types are declared with a //tilesim:unit
//     annotation on their type declaration.
//   - panics: every panic in internal/ packages must carry a constant
//     "<pkg>: ..."-prefixed message so a crash names its subsystem.
//   - exhaustive: a switch over an enum-like named type must cover
//     every declared constant or carry a default clause, so adding an
//     enum value cannot silently fall through a protocol dispatch.
//   - hotalloc: no allocation sources reachable from //tilesim:hotpath
//     roots (see hotpath.go).
//   - sharedstate: code reachable from a go statement must not touch
//     unsynchronized shared state (see sharedstate.go).
//   - poollife: pooled-object lifetime discipline for the freelists
//     behind //tilesim:pool / //tilesim:release annotations — no use
//     after release on any path, no double release, no retention into
//     fields/slices/closures/sim.Event payloads without a
//     generation-snapshot guard or a reasoned //tilesim:retainok
//     waiver, every release dominated by an acquire, no leaks (see
//     poollife.go and DESIGN.md §17).
//
// The driver is stdlib-only: packages are resolved and compiled by the
// go tool (go list -export), parsed with go/parser, and type-checked
// with go/types against the toolchain's export data.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Annotations recognized in source comments.
const (
	// OrderedAnnotation marks a range-over-map statement whose
	// iteration order cannot affect simulation results (the body sorts
	// the keys afterwards, or is provably order-independent). It does
	// not waive float accumulation in the body (see checkDeterminism).
	OrderedAnnotation = "tilesim:ordered"
	// UnitAnnotation declares a named type as carrying a physical unit:
	//
	//	//tilesim:unit cycles
	//	type Time uint64
	UnitAnnotation = "tilesim:unit"
	// HotPathAnnotation marks a function declaration as a simulator
	// hot-path entry point (event loop, mesh transit, coherence
	// handler). The hotalloc rule checks the annotated function and
	// every module function transitively reachable from it for
	// allocation sources.
	HotPathAnnotation = "tilesim:hotpath"
	// AllocOKAnnotation waives one hotalloc finding:
	//
	//	//tilesim:allocok one transit per message, pooled in Network.free
	//
	// The reason is mandatory, and a waiver that no longer suppresses a
	// finding is itself reported as stale, so waivers cannot rot.
	AllocOKAnnotation = "tilesim:allocok"
	// SharedOKAnnotation waives one sharedstate finding the same way
	// (mandatory reason, stale detection):
	//
	//	//tilesim:sharedok disjoint per-job slots, joined by wg.Wait
	SharedOKAnnotation = "tilesim:sharedok"
	// HostOnlyAnnotation marks a function-typed struct field as a
	// host-side observability conduit (mandatory reason):
	//
	//	//tilesim:hostonly wall-clock profiling; never feeds results
	//	WallClock func() float64
	//
	// The taint rule stops at the annotated field instead of following
	// function values stored into it, so cmd/ front-ends may inject
	// wall-clock readers for the run ledger (DESIGN.md §15) without
	// tainting every internal/ caller. The contract the reason must
	// defend: values read through the field never influence simulated
	// behavior or results.
	HostOnlyAnnotation = "tilesim:hostonly"
	// PoolAnnotation marks a function declaration as a pool acquire
	// point: calling it yields a pooled object (the function's
	// pointer-to-named result type). The poollife rule tracks the
	// lifetime of every value acquired this way.
	//
	//	//tilesim:pool
	//	func (p *Pool) Get() *Message { ... }
	PoolAnnotation = "tilesim:pool"
	// ReleaseAnnotation marks a function declaration as a pool release
	// point. Without a trailing type name the released objects are the
	// call's pooled-pointer arguments; with one —
	//
	//	//tilesim:release MSHREntry
	//	func (m *MSHR) Free(block uint64, ...) ...
	//
	// — the release identifies the object by key rather than by
	// pointer, and every live local of that pooled type is considered
	// released at the call (the MSHR.Free shape).
	ReleaseAnnotation = "tilesim:release"
	// RetainOKAnnotation waives one poollife escape finding (mandatory
	// reason, stale detection, like the other waivers):
	//
	//	//tilesim:retainok terminal fault path: the drop event is the sole owner
	//
	// The contract the reason must defend: the retained pointer is
	// either released exactly once by its new owner, or every later
	// dereference is guarded by a generation check.
	RetainOKAnnotation = "tilesim:retainok"
)

// Diagnostic is one finding.
type Diagnostic struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// String renders the diagnostic in the file:line:col style of go vet.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// pass bundles what one analyzer run over one package needs.
type pass struct {
	pkg   *Package
	fset  *token.FileSet
	units map[string]string // "pkgpath.TypeName" -> unit name
	// ordered maps file -> set of lines carrying //tilesim:ordered;
	// hotpath does the same for //tilesim:hotpath.
	ordered map[*ast.File]map[int]bool
	hotpath map[*ast.File]map[int]bool
	// allocok and sharedok map file -> line -> waiver reason (empty
	// string when the annotation carries no reason, which is itself a
	// finding).
	allocok  map[*ast.File]map[int]string
	sharedok map[*ast.File]map[int]string
	hostonly map[*ast.File]map[int]string
	// poolacq and poolrel map file -> line -> annotation tail for the
	// //tilesim:pool and //tilesim:release pool-API annotations (the
	// tail of a release names the pooled type for by-key releases);
	// retainok carries poollife escape waivers.
	poolacq  map[*ast.File]map[int]string
	poolrel  map[*ast.File]map[int]string
	retainok map[*ast.File]map[int]string

	report func(Diagnostic)
}

func (p *pass) reportf(analyzer string, pos token.Pos, format string, args ...any) {
	position := p.fset.Position(pos)
	p.report(Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// annotatedAt reports whether an annotation line-set covers the given
// position: on the same line (trailing comment) or the line immediately
// above the statement.
func (p *pass) annotatedAt(lines map[*ast.File]map[int]bool, f *ast.File, pos token.Pos) bool {
	set := lines[f]
	if set == nil {
		return false
	}
	line := p.fset.Position(pos).Line
	return set[line] || set[line-1]
}

// orderedAt reports whether a //tilesim:ordered annotation covers pos.
func (p *pass) orderedAt(f *ast.File, pos token.Pos) bool {
	return p.annotatedAt(p.ordered, f, pos)
}

// inInternal reports whether the package is part of the simulator core
// (under tilesim's internal/ tree), where the strictest rules apply.
func (p *pass) inInternal() bool {
	return strings.Contains(p.pkg.Path, "/internal/")
}

// inCmd reports whether the package is a command-line entry point,
// where wall-clock time and ad-hoc randomness are acceptable.
func (p *pass) inCmd() bool {
	return strings.Contains(p.pkg.Path, "/cmd/")
}

// module bundles every loaded package for the analyzers that need a
// whole-program view (taint, hotalloc, sharedstate and poollife walk
// the module-wide reference graph).
type module struct {
	passes []*pass
}

// passFor returns the pass analyzing pkg's source, or nil when pkg is
// only visible through export data (or nil itself).
func (m *module) passFor(pkg *types.Package) *pass {
	if pkg == nil {
		return nil
	}
	for _, p := range m.passes {
		if p.pkg.Path == pkg.Path() {
			return p
		}
	}
	return nil
}

// pkgRules run once per loaded package; moduleRules run once over the
// whole module, after the reference graph is built.
var (
	pkgRules    = []func(*pass){checkDeterminism, checkStableSort, checkUnits, checkPanics, checkExhaustive}
	moduleRules = []func(*module, *graph){checkTaint, checkHotAlloc, checkSharedState, checkPoolLife}
)

// Run loads the packages matched by patterns from dir and applies every
// analyzer, returning the findings sorted by position.
func Run(dir string, patterns []string) ([]Diagnostic, error) {
	pkgs, fset, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}

	// First pass over every loaded package: collect the unit-type
	// registry, so cross-package unit arithmetic resolves no matter
	// which package declares the type.
	units := make(map[string]string)
	for _, pkg := range pkgs {
		collectUnits(pkg, units)
	}

	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	mod := &module{}
	for _, pkg := range pkgs {
		p := &pass{
			pkg:      pkg,
			fset:     fset,
			units:    units,
			ordered:  collectAnnotations(fset, pkg, OrderedAnnotation),
			hotpath:  collectAnnotations(fset, pkg, HotPathAnnotation),
			allocok:  collectReasonAnnotations(fset, pkg, AllocOKAnnotation),
			sharedok: collectReasonAnnotations(fset, pkg, SharedOKAnnotation),
			hostonly: collectReasonAnnotations(fset, pkg, HostOnlyAnnotation),
			poolacq:  collectReasonAnnotations(fset, pkg, PoolAnnotation),
			poolrel:  collectReasonAnnotations(fset, pkg, ReleaseAnnotation),
			retainok: collectReasonAnnotations(fset, pkg, RetainOKAnnotation),
			report:   report,
		}
		mod.passes = append(mod.passes, p)
		for _, check := range pkgRules {
			check(p)
		}
	}

	// Module-wide passes: these see every loaded package at once.
	graph := buildGraph(mod)
	for _, check := range moduleRules {
		check(mod, graph)
	}

	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// annotationRest returns the text following the given annotation when
// the comment IS that annotation — the comment text starts with it
// (optionally space-separated from the // marker). Prose that merely
// mentions an annotation, and indented doc-comment examples (whose
// trimmed text starts with a second //), do not count, so documenting
// an annotation never accidentally applies it.
func annotationRest(c *ast.Comment, annotation string) (string, bool) {
	text, ok := strings.CutPrefix(c.Text, "//")
	if !ok {
		return "", false
	}
	text = strings.TrimSpace(text)
	rest, ok := strings.CutPrefix(text, annotation)
	if !ok {
		return "", false
	}
	// Word boundary: "//tilesim:pool miss" is the pool annotation with
	// a tail, "//tilesim:poolish" is not the pool annotation at all.
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// collectAnnotations indexes the lines of each file that carry the
// given //tilesim:* annotation.
func collectAnnotations(fset *token.FileSet, pkg *Package, annotation string) map[*ast.File]map[int]bool {
	out := make(map[*ast.File]map[int]bool)
	for _, f := range pkg.Files {
		lines := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if _, ok := annotationRest(c, annotation); ok {
					lines[fset.Position(c.Pos()).Line] = true
				}
			}
		}
		out[f] = lines
	}
	return out
}

// collectReasonAnnotations indexes the lines of each file carrying the
// given annotation, mapped to the trailing free-text reason (empty when
// the annotation stands alone).
func collectReasonAnnotations(fset *token.FileSet, pkg *Package, annotation string) map[*ast.File]map[int]string {
	out := make(map[*ast.File]map[int]string)
	for _, f := range pkg.Files {
		lines := make(map[int]string)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				reason, ok := annotationRest(c, annotation)
				if !ok {
					continue
				}
				lines[fset.Position(c.Pos()).Line] = reason
			}
		}
		out[f] = lines
	}
	return out
}

// fileOf returns the pass's file containing pos, or nil.
func (p *pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// collectUnits records every //tilesim:unit-annotated type declaration
// of the package into the registry, keyed "pkgpath.TypeName".
func collectUnits(pkg *Package, units map[string]string) {
	record := func(doc *ast.CommentGroup, name string) {
		if doc == nil {
			return
		}
		for _, c := range doc.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if rest, ok := strings.CutPrefix(text, UnitAnnotation); ok {
				unit := strings.TrimSpace(rest)
				if unit == "" {
					unit = name
				}
				units[pkg.Path+"."+name] = unit
			}
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				// The annotation may sit on the TypeSpec (grouped
				// declarations) or on the GenDecl (single type).
				record(ts.Doc, ts.Name.Name)
				if len(gd.Specs) == 1 {
					record(gd.Doc, ts.Name.Name)
				}
			}
		}
	}
}
