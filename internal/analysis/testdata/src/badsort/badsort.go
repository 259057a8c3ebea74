// Package badsort is a tilesimvet fixture: it sorts with sort.Slice in
// simulator code, whose tie-breaking order is unspecified.
package badsort

import "sort"

// Event is a scheduled simulator event.
type Event struct {
	Cycle uint64
	Tile  int
}

// ByCycle sorts events by cycle only: two events on the same cycle tie,
// so the unstable sort's tie-breaking leaks into dispatch order.
func ByCycle(events []Event) {
	sort.Slice(events, func(i, j int) bool { // want: stablesort finding here
		return events[i].Cycle < events[j].Cycle
	})
}

// ByCycleStable is the sanctioned spelling: stability makes the result
// a pure function of the input order.
func ByCycleStable(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].Cycle < events[j].Cycle
	})
}
