//go:build !pooldebug

package pooldbg

// The default build's hooks are empty generic functions: each call
// inlines to nothing, so pooling stays allocation- and branch-free on
// the hot path (TestAllocGate holds this).

// Acquire records obj leaving its pool at generation gen.
func Acquire[T any](obj *T, gen uint64) {}

// Release records obj returning to its pool at generation gen.
func Release[T any](obj *T, gen uint64) {}

// CheckAlive verifies that obj's generation snapshot, recorded when a
// reference to it was retained, still matches its current generation.
func CheckAlive[T any](obj *T, snapshot, current uint64) {}
