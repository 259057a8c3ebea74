// Package clean is the tilesimvet negative control: it exercises every
// rule's escape hatch — an annotated order-independent map range with
// sorted-key float summation, a properly prefixed panic, an exhaustive
// switch with a panicking default, unit arithmetic that stays within
// one unit, a stable sort, and randomness threaded through a seeded
// *rand.Rand — and must produce zero findings.
package clean

import (
	"fmt"
	"math/rand"
	"sort"
)

// Widgets is a unit-typed quantity.
//
//tilesim:unit widgets
type Widgets float64

// Mode is a small enum with a sentinel that exhaustiveness must ignore.
type Mode int

// The modes.
const (
	Off Mode = iota
	On

	numModes
)

// Describe covers every mode and panics (prefixed) on corruption.
func Describe(m Mode) string {
	switch m {
	case Off:
		return "off"
	case On:
		return "on"
	default:
		panic(fmt.Sprintf("clean: unknown mode %d", int(m)))
	}
}

// Total sums map values in sorted-key order: collecting the keys is
// order-independent (annotated), and the float accumulation itself runs
// over the deterministic sorted slice.
func Total(counts map[string]Widgets) Widgets {
	keys := make([]string, 0, len(counts))
	for k := range counts { //tilesim:ordered — keys are sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var t Widgets
	for _, k := range keys {
		t += counts[k]
	}
	return t
}

// Scale multiplies within one unit and by dimensionless constants,
// which the units analyzer must accept.
func Scale(w Widgets) float64 {
	return 2 * float64(w) / float64(numModes)
}

// SortStable uses the stable sort, the default sanctioned spelling.
func SortStable(xs []int) {
	sort.SliceStable(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// Jitter draws from an explicitly seeded generator: methods on a
// *rand.Rand are the sanctioned alternative to the global source.
func Jitter(rng *rand.Rand) float64 {
	return rng.Float64()
}

// Perturb reaches randomness only through Jitter's seeded generator,
// so the taint pass must leave it alone.
func Perturb(rng *rand.Rand, x float64) float64 {
	return x + Jitter(rng)
}
