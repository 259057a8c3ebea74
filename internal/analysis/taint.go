package analysis

import (
	"go/token"
	"strings"
)

// checkTaint keeps wall-clock time and the global math/rand source out
// of the simulator. Simulated time must come from the sim.Kernel clock,
// and simulator randomness from an explicit rand.New(rand.NewSource(seed)):
// the global source is shared, seedable from anywhere, and in modern Go
// auto-seeded per process. The rule reports, outside cmd/:
//
//  1. every direct reference to a wall-clock read (time.Now,
//     time.Since, time.Until) or a global math/rand draw, at the
//     reference itself — a call or a stored function value;
//  2. every internal/ function from which such a source is
//     *transitively* reachable — through helper calls, through
//     methods, and through function values stored in package-level
//     variables and struct fields — with the call chain, so a
//     nondeterministic helper cannot hide behind layers of indirection.
//
// Approximation envelope (documented in DESIGN.md §12): edges follow
// every *reference* to a module function or package-level variable,
// whether it is a call or a stored value, so a function that merely
// stores a tainted helper is treated as reaching it (sound for
// reachability, possibly over-approximate for execution). Dynamic
// dispatch through interface methods and function values received as
// parameters is not resolved — a source smuggled through those is a
// known false negative; recursion cycles that reach a source only
// through the cycle are likewise not chased. A function that references
// a source directly gets the direct finding only, not a chain as well.
//
// One sanctioned escape: a function-typed struct field annotated
// //tilesim:hostonly (see HostOnlyAnnotation) is a host-side
// observability conduit — taint stops at it instead of following the
// stored values, so cmd/ front-ends can inject wall-clock readers for
// the run ledger without tainting internal/ callers. The waiver's
// reason is mandatory.
func checkTaint(m *module, g *graph) {
	// reach memoizes, per node ID, the chain of display names leading
	// to a forbidden source (nil when none is reachable).
	reach := make(map[string][]string)
	visiting := make(map[string]bool)
	var visit func(id string) []string
	visit = func(id string) []string {
		if chain, done := reach[id]; done {
			return chain
		}
		if visiting[id] {
			return nil // break cycles; see the envelope note above
		}
		visiting[id] = true
		defer delete(visiting, id)
		node := g.nodes[id]
		if node.hostonly {
			reach[id] = nil
			return nil
		}
		var chain []string
		if len(node.sources) > 0 {
			chain = []string{node.name, node.sources[0].name}
		} else {
			for _, ref := range node.refs {
				if sub := visit(ref); sub != nil {
					chain = append([]string{node.name}, sub...)
					break
				}
			}
		}
		reach[id] = chain
		return chain
	}

	// A funclit's references are collected both into its own node and
	// into its enclosing function's, so direct findings are deduplicated
	// by position.
	reported := make(map[token.Pos]bool)
	for _, id := range g.sortedNodeIDs() {
		node := g.nodes[id]
		if node.hostonly && node.hostonlyReason == "" {
			node.p.reportf("taint", node.pos, "//%s waiver needs a reason", HostOnlyAnnotation)
		}
		if node.p.inCmd() {
			continue
		}
		for _, src := range node.sources {
			if reported[src.pos] {
				continue
			}
			reported[src.pos] = true
			if strings.HasPrefix(src.name, "time.") {
				node.p.reportf("taint", src.pos,
					"%s: wall-clock time in a simulator package; use the sim.Kernel clock (cmd/ and _test.go files are exempt)", src.name)
			} else {
				node.p.reportf("taint", src.pos,
					"%s draws from the global source; use an explicit rand.New(rand.NewSource(seed)) so runs are reproducible", src.name)
			}
		}
		if node.decl == nil || !node.p.inInternal() || len(node.sources) > 0 {
			continue
		}
		if chain := visit(id); chain != nil {
			node.p.reportf("taint", node.pos,
				"%s transitively reaches %s (%s); thread simulated time / a seeded *rand.Rand through instead",
				node.name, chain[len(chain)-1], strings.Join(chain, " -> "))
		}
	}
}
