// Package badfloat is a tilesimvet fixture: it accumulates
// floating-point values while ranging over maps, so the
// runtime-randomized iteration order changes the summation result —
// even under a //tilesim:ordered annotation, which asserts
// order-independence that float addition cannot deliver.
package badfloat

// Joules is a named float-underlying quantity, as energy.Joules is.
type Joules float64

// Sum accumulates a float64 in map order.
func Sum(m map[string]float64) float64 {
	var t float64
	for _, v := range m { //tilesim:ordered — WRONG: float summation is order-dependent
		t += v // want: determinism finding here
	}
	return t
}

// Drain subtracts named-float values in map order.
func Drain(budget Joules, m map[int]Joules) Joules {
	for _, v := range m { //tilesim:ordered — WRONG: float subtraction is order-dependent
		budget -= v // want: determinism finding here
	}
	return budget
}

// SpelledOut accumulates through the explicit x = x + v form.
func SpelledOut(m map[string]float64) float64 {
	var t float64
	for _, v := range m { //tilesim:ordered — WRONG: float summation is order-dependent
		t = t + v // want: determinism finding here
	}
	return t
}

// Count accumulates an integer, which is associative: any iteration
// order produces the same bits, so the annotation holds and nothing is
// flagged.
func Count(m map[string]float64) int {
	n := 0
	for range m { //tilesim:ordered — integer count is order-independent
		n++
	}
	return n
}

// SortedSum accumulates over a slice: iteration order is the slice
// order, deterministic by construction.
func SortedSum(values []float64) float64 {
	var t float64
	for _, v := range values {
		t += v
	}
	return t
}

// Deferred builds closures inside the map range without calling them:
// the function-literal body is a lexical boundary, not a per-iteration
// accumulation.
func Deferred(m map[string]float64) []func(float64) float64 {
	var fns []func(float64) float64
	for range m { //tilesim:ordered — only appends closures; order-independent set
		fns = append(fns, func(t float64) float64 {
			t += 1
			return t
		})
	}
	return fns
}
