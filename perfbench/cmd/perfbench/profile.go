package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator packages (internal/<pkg>) the traced run
// attributes host CPU to, plus the Go runtime. Samples charged to no
// layer land in "other".
var layers = []string{
	"sim", "mesh", "coherence", "cache", "compress", "core", "workload",
	"noc", "energy", "stats", "fault", "cmp", "runtime",
}

// layerOf maps a profiled function's full name (as pprof records it,
// e.g. "tilesim/internal/mesh.(*Network).hop") to its layer: a simulator
// package, "runtime" for the Go runtime and its support packages, or
// "other" for any other tilesim code. It returns "" for the rest of the
// standard library, whose time is charged to the calling layer
// (math/rand to workload, math to fault, sort to stats).
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexAny(pkg, "(["); i >= 0 {
		pkg = pkg[:i] // type arguments may themselves hold package paths
	}
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	} else {
		return "runtime" // unqualified assembly stubs (e.g. aeshashbody)
	}
	switch {
	case strings.HasPrefix(pkg, "tilesim/internal/"):
		pkg = strings.TrimPrefix(pkg, "tilesim/internal/")
		for _, l := range layers {
			if pkg == l {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(pkg, "tilesim/"):
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/"):
		// internal/ here is the standard library's (maps, bytealg, abi):
		// runtime support code.
		return "runtime"
	}
	return ""
}

// selfNanos decodes a runtime/pprof CPU profile and returns each
// layer's self CPU nanoseconds, plus the sample count. A sample is
// charged to the innermost frame layerOf places in a layer. Only the
// fields attribution needs are decoded: samples (location ids, CPU
// nanoseconds), locations (their function ids, innermost inlined frame
// first), functions and the string table.
func selfNanos(raw []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs         []uint64 // leaf first
		count, nanos int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids
		funcName  = map[uint64]int64{}    // function id -> string index
		strtab    []string
		decodeErr error
	)
	err = fields(data, func(field int, v uint64, b []byte) {
		switch field {
		case 2: // Sample
			var locs, vals []uint64
			decodeErr = errors.Join(decodeErr, fields(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					locs = appendRepeated(locs, v, b)
				case 2:
					vals = appendRepeated(vals, v, b)
				}
			}))
			if len(vals) >= 2 {
				samples = append(samples, sample{locs, int64(vals[0]), int64(vals[1])})
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			decodeErr = errors.Join(decodeErr, fields(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4: // Line
					decodeErr = errors.Join(decodeErr, fields(b, func(f int, v uint64, _ []byte) {
						if f == 1 {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			decodeErr = errors.Join(decodeErr, fields(b, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	byLayer := map[string]int64{}
	var count int64
	for _, s := range samples {
		layer := "other"
	frames:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strtab) {
					if l := layerOf(strtab[i]); l != "" {
						layer = l
						break frames
					}
				}
			}
		}
		byLayer[layer] += s.nanos
		count += s.count
	}
	return byLayer, count, nil
}

// appendRepeated appends one occurrence of a repeated varint field, in
// either its unpacked (v) or packed (b) encoding.
func appendRepeated(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fields walks a protobuf message, calling fn with each field number
// and either its varint value (b == nil) or its length-delimited bytes.
// Fixed-width fields are skipped; the profile fields read here are all
// varints or length-delimited.
func fields(msg []byte, fn func(field int, v uint64, b []byte)) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			fn(field, v, nil)
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			fn(field, 0, b)
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
