// Command tilesimvet runs tilesim's simulator-specific static analyses
// over the module: map-order determinism (float accumulation over maps
// included), stable sorting, wall-clock and global-rand taint (direct
// and transitive through the call graph), unit safety, panic hygiene,
// enum-switch exhaustiveness, hot-path allocation, goroutine shared
// state and pooled-object lifetimes.
//
// Usage:
//
//	go run ./cmd/tilesimvet ./...
//	go run ./cmd/tilesimvet ./internal/mesh ./internal/coherence
//
// The arguments are go list package patterns (default ./...). The
// command takes no flags: every rule always runs, and the same check
// gates `go test ./...` as internal/analysis's TestRepoIsClean.
//
// The exit status is 0 when the analyzed packages are clean, 1 when
// findings remain (printed one per line as file:line:col: rule:
// message), and 2 on a driver error (unparsable package, build
// failure, ...). See DESIGN.md §8 and §12 for the rule catalog and the
// //tilesim:* annotations.
package main

import (
	"fmt"
	"os"

	"tilesim/internal/analysis"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analysis.Run(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tilesimvet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
