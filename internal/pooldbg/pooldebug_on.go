//go:build pooldebug

package pooldbg

// Sanitizer builds forward every pool transition to the registry,
// which records acquire and release stacks and panics on a double
// release or a stale CheckAlive probe.

// Acquire records obj leaving its pool at generation gen.
func Acquire[T any](obj *T, gen uint64) { acquire(obj, gen) }

// Release records obj returning to its pool at generation gen,
// panicking with both stacks if the pool already released it.
func Release[T any](obj *T, gen uint64) { release(obj, gen) }

// CheckAlive verifies that obj's generation snapshot, recorded when a
// reference to it was retained, still matches its current generation,
// panicking with the current lifetime's stacks if it does not.
func CheckAlive[T any](obj *T, snapshot, current uint64) { checkAlive(obj, snapshot, current) }
