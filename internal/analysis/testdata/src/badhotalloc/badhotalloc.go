// Package badhotalloc is a tilesimvet fixture for the hot-path
// allocation discipline. Step carries the //tilesim:hotpath annotation;
// helper and waived are hot only transitively, through Step's calls.
// Each statement demonstrates one allocation source the rule flags, and
// the waived function exercises the waiver audit: a good waiver, a
// reason-less waiver, and a stale one.
package badhotalloc

import "fmt"

// event is the object the fixture pretends should be pooled.
type event struct{ seq int }

func (e event) fire() {}

// consume boxes any concrete argument into its interface parameter.
func consume(v any) { _ = v }

// events is the immutable table helper ranges over.
var events []event

// Step is the fixture's annotated event-loop entry point.
//
//tilesim:hotpath fixture event loop
func Step(n int) string {
	e := &event{seq: n} // want: composite literal
	_ = e
	counts := make(map[int]int) // want: make
	_ = counts
	label := fmt.Sprintf("step %d", n) // want: fmt.Sprintf
	consume(n)                         // want: interface boxing
	return label + helper(n)           // want: string concatenation
}

// helper is hot transitively: Step calls it.
func helper(n int) string {
	xs := []int{} // want: slice literal
	for _, e := range events {
		xs = append(xs, e.seq) // want: capacity-less append
	}
	f := func() int { return n + len(xs) } // want: capturing closure
	ev := event{seq: f()}
	h := ev.fire // want: method value
	h()
	waived()
	return ""
}

// waived exercises the waiver audit.
func waived() {
	//tilesim:allocok fixture: pooled by the caller
	_ = &event{} // correctly waived: no finding
	//tilesim:allocok
	_ = new(event) // want: waiver needs a reason
	//tilesim:allocok fixture: this line never allocates
	_ = events // want: stale waiver
}
