// Package badrand is a tilesimvet fixture: it draws from math/rand's
// global, process-seeded source instead of an explicitly seeded
// *rand.Rand, so two runs of the same configuration diverge.
package badrand

import "math/rand"

// Pick returns a number from the global, unseeded source.
func Pick(n int) int {
	return rand.Intn(n) // want: taint finding here
}
