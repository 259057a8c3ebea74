// Package badtaint is a tilesimvet fixture for the transitive
// determinism pass: wall-clock time and global randomness leak into
// exported entry points through a helper chain and a stored function
// value. The taint rule reports the direct references (the stamp
// initializer, jitter's body) at the callsite, and the *callers* that
// reach them transitively with their call chain.
package badtaint

import (
	"math/rand"
	"time"
)

// stamp is a stored clock: the function value hides the wall-clock
// read from any per-callsite scan of its callers.
var stamp = time.Now // want: taint finding here

// helper invokes the stored clock.
func helper() int64 { // want: taint finding here
	return stamp().UnixNano()
}

// Record is two hops from the wall clock.
func Record() int64 { // want: taint finding here
	return helper()
}

// jitter draws from the global source directly (a direct finding, no
// chain).
func jitter() float64 {
	return rand.Float64() // want: taint finding here
}

// Delay reaches the global source through jitter.
func Delay() float64 { // want: taint finding here
	return 4 * jitter()
}

// Pure touches neither clock nor randomness and must stay unflagged.
func Pure(x int) int {
	return x * x
}
