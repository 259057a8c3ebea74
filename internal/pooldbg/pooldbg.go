// Package pooldbg is the runtime half of tilesimvet's pooled-object
// lifetime discipline: a build-tag-gated sanitizer for the intrusive
// freelists on the hot path (noc.Message headers, MSHR entries,
// coherence directory entries and send jobs, mesh transits, core
// local-delivery jobs).
//
// The pooled packages call Acquire, Release and CheckAlive directly.
// Those are generic functions over the pooled pointer, defined in one
// build-tagged pair of files: empty in the default build (they inline
// to nothing — the allocation gate proves zero added cost) and
// forwarding to this file's registry under `-tags pooldebug`. The
// registry and its tests are compiled in every build. Under the
// tag every pool records the acquire and release site of every object,
// and the simulator panics — with both stack traces — the moment an
// ownership contract is broken:
//
//   - Release of an object the pool already released (double-Put):
//     the panic carries the first release's stack and the current one.
//   - CheckAlive probe with a stale generation snapshot (the object
//     was recycled since the reference was retained): the panic
//     carries the acquire and release stacks of the current lifetime.
//
// The probes are exactly the generation-snapshot guards tilesimvet's
// poollife rule requires at retention sites (clause (c)), so the
// static rule and the sanitizer verify the same contract from two
// sides: the analyzer proves every retention is guarded, the sanitizer
// proves every guard holds at run time.
//
// Call sites are captured as raw program counters (runtime.Callers)
// and symbolized only when a panic needs the text, so sanitizer builds
// stay fast enough to run the full suite under -race. The registry is
// keyed by the object pointer itself; boxing a pointer into the `any`
// key does not allocate. A mutex serializes the bookkeeping —
// sanitizer builds trade speed for fidelity, exactly like `-race`.
package pooldbg

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
)

type state int

const (
	live state = iota
	released
)

// site is one captured call stack, symbolized lazily.
type site struct {
	pcs [24]uintptr
	n   int
}

func capture(s *site) {
	s.n = runtime.Callers(3, s.pcs[:])
}

func (s *site) String() string {
	if s.n == 0 {
		return "(no stack recorded)"
	}
	var b strings.Builder
	frames := runtime.CallersFrames(s.pcs[:s.n])
	for {
		f, more := frames.Next()
		fmt.Fprintf(&b, "%s\n\t%s:%d\n", f.Function, f.File, f.Line)
		if !more {
			break
		}
	}
	return b.String()
}

// record is one pooled object's current lifetime.
type record struct {
	state      state
	gen        uint64
	acquiredAt site
	releasedAt site
	hasAcquire bool
	hasRelease bool
}

var (
	mu sync.Mutex
	// objects maps each pooled object to its lifetime record. Never
	// iterated, only point-queried, so map order cannot leak into
	// behavior.
	objects = make(map[any]*record)
)

func recordFor(obj any) *record {
	r := objects[obj]
	if r == nil {
		r = &record{}
		objects[obj] = r
	}
	return r
}

// acquire records obj leaving its pool at generation gen.
func acquire(obj any, gen uint64) {
	mu.Lock()
	defer mu.Unlock()
	r := recordFor(obj)
	r.state = live
	r.gen = gen
	capture(&r.acquiredAt)
	r.hasAcquire = true
	r.hasRelease = false
}

// release records obj returning to its pool, panicking with both stack
// traces if the pool already released it (double-Put).
func release(obj any, gen uint64) {
	mu.Lock()
	defer mu.Unlock()
	r := recordFor(obj)
	if r.hasRelease && r.state == released {
		panic(fmt.Sprintf(
			"pooldbg: double release of %T (generation %d)\n\n--- first release ---\n%s\n--- this release ---\n%s",
			obj, gen, r.releasedAt.String(), currentStack()))
	}
	r.state = released
	r.gen = gen
	capture(&r.releasedAt)
	r.hasRelease = true
}

// checkAlive verifies a generation-snapshot guard: snapshot is the
// generation recorded when the reference was retained, current the
// object's generation now. A mismatch means the object was recycled
// while the reference was held — the panic carries the acquire and
// release stacks of the lifetime that invalidated it.
func checkAlive(obj any, snapshot, current uint64) {
	if snapshot == current {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	acquireStack, releaseStack := "(not recorded)", "(not recorded)"
	if r := objects[obj]; r != nil {
		if r.hasAcquire {
			acquireStack = r.acquiredAt.String()
		}
		if r.hasRelease {
			releaseStack = r.releasedAt.String()
		}
	}
	panic(fmt.Sprintf(
		"pooldbg: stale pooled reference to %T: retained at generation %d, object now at %d\n\n--- lifetime acquire ---\n%s\n--- lifetime release ---\n%s",
		obj, snapshot, current, acquireStack, releaseStack))
}

func currentStack() string {
	var s site
	s.n = runtime.Callers(2, s.pcs[:])
	return s.String()
}

// Reset drops all lifetime records. Tests use it to isolate scenarios;
// the simulator never calls it.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	objects = make(map[any]*record)
}
