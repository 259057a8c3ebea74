// Package badtime is a tilesimvet fixture: it reads the wall clock from
// simulator code, which makes runs irreproducible.
package badtime

import "time"

// Stamp returns the wall-clock time in nanoseconds.
func Stamp() int64 {
	return time.Now().UnixNano() // want: taint finding here
}

// Elapsed measures wall time since a reference point.
func Elapsed(since time.Time) time.Duration {
	return time.Since(since) // want: taint finding here
}
