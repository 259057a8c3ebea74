// Package trace records and replays per-core memory operation streams in
// a simple line-oriented text format, so workloads can be captured once
// and studied offline (e.g. the compression-coverage analyses of paper
// Figure 2) or replayed into the simulator deterministically.
//
// Format (one op per line, '#' comments allowed):
//
//	<core> C <cycles>   compute
//	<core> L <addr>     load (hex address)
//	<core> S <addr>     store
//	<core> B            barrier
//
// Streams of different cores may interleave arbitrarily in the file;
// per-core order is preserved.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"tilesim/internal/coherence"
	"tilesim/internal/workload"
)

// Trace is a recorded multi-core operation stream. It implements
// workload.Generator for replay.
type Trace struct {
	cores   int
	ops     [][]workload.Op
	cursors []int
}

// New creates an empty trace for the given core count.
func New(cores int) *Trace {
	if cores < 1 {
		panic("trace: need at least one core")
	}
	return &Trace{cores: cores, ops: make([][]workload.Op, cores), cursors: make([]int, cores)}
}

// Cores returns the core count.
func (t *Trace) Cores() int { return t.cores }

// Len returns the total recorded operation count.
func (t *Trace) Len() int {
	n := 0
	for _, s := range t.ops {
		n += len(s)
	}
	return n
}

// Append adds one operation to a core's stream.
func (t *Trace) Append(core int, op workload.Op) {
	t.ops[core] = append(t.ops[core], op)
}

// Name implements workload.Generator.
func (t *Trace) Name() string { return "trace" }

// Next implements workload.Generator.
func (t *Trace) Next(core int) (workload.Op, bool) {
	if t.cursors[core] >= len(t.ops[core]) {
		return workload.Op{}, false
	}
	op := t.ops[core][t.cursors[core]]
	t.cursors[core]++
	return op, true
}

// Reset implements workload.Generator.
func (t *Trace) Reset() {
	for i := range t.cursors {
		t.cursors[i] = 0
	}
}

// Capture drains a generator into a trace (the generator is consumed;
// Reset it afterwards if needed).
func Capture(gen workload.Generator, cores int) *Trace {
	t := New(cores)
	for core := 0; core < cores; core++ {
		for {
			op, ok := gen.Next(core)
			if !ok {
				break
			}
			t.Append(core, op)
		}
	}
	return t
}

// Encode writes the trace in the text format.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# tilesim trace: %d cores, %d ops\n", t.cores, t.Len())
	for core, stream := range t.ops {
		for _, op := range stream {
			var err error
			switch op.Kind {
			case workload.OpCompute:
				_, err = fmt.Fprintf(bw, "%d C %d\n", core, op.Cycles)
			case workload.OpLoad:
				_, err = fmt.Fprintf(bw, "%d L %x\n", core, op.Addr)
			case workload.OpStore:
				_, err = fmt.Fprintf(bw, "%d S %x\n", core, op.Addr)
			case workload.OpBarrier:
				_, err = fmt.Fprintf(bw, "%d B\n", core)
			default:
				return fmt.Errorf("trace: unknown op kind %d", op.Kind)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Decode parses the text format. The core count is the highest core id
// seen plus one, unless cores > 0 forces it. Core ids must be below
// coherence.MaxTiles.
func Decode(r io.Reader, cores int) (*Trace, error) {
	type parsedOp struct {
		core int
		op   workload.Op
	}
	var parsed []parsedOp
	maxCore := -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("trace: line %d: malformed %q", lineNo, line)
		}
		core, err := strconv.Atoi(fields[0])
		if err != nil || core < 0 {
			return nil, fmt.Errorf("trace: line %d: bad core %q", lineNo, fields[0])
		}
		// The core count sizes the per-core slices, so bound it first.
		if core >= coherence.MaxTiles {
			return nil, fmt.Errorf("trace: line %d: core %d exceeds the %d-tile limit", lineNo, core, coherence.MaxTiles)
		}
		if core > maxCore {
			maxCore = core
		}
		var op workload.Op
		switch fields[1] {
		case "C":
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: compute needs cycles", lineNo)
			}
			c, err := strconv.Atoi(fields[2])
			if err != nil || c < 0 {
				return nil, fmt.Errorf("trace: line %d: bad cycles %q", lineNo, fields[2])
			}
			op = workload.Op{Kind: workload.OpCompute, Cycles: c}
		case "L", "S":
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: memory op needs address", lineNo)
			}
			a, err := strconv.ParseUint(fields[2], 16, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad address %q", lineNo, fields[2])
			}
			kind := workload.OpLoad
			if fields[1] == "S" {
				kind = workload.OpStore
			}
			op = workload.Op{Kind: kind, Addr: a}
		case "B":
			op = workload.Op{Kind: workload.OpBarrier}
		default:
			return nil, fmt.Errorf("trace: line %d: unknown op %q", lineNo, fields[1])
		}
		parsed = append(parsed, parsedOp{core: core, op: op})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cores <= 0 {
		cores = maxCore + 1
	}
	if cores <= maxCore {
		return nil, fmt.Errorf("trace: core %d exceeds forced core count %d", maxCore, cores)
	}
	if cores < 1 {
		return nil, fmt.Errorf("trace: empty trace and no core count")
	}
	t := New(cores)
	for _, p := range parsed {
		t.Append(p.core, p.op)
	}
	return t, nil
}

// Summary describes a trace for reporting.
type Summary struct {
	Cores    int
	Loads    int
	Stores   int
	Computes int
	Barriers int
	// MinCoreRefs is the load+store count of the core with the fewest.
	MinCoreRefs int
	Blocks      int // distinct 64-byte blocks
	SharedPct   float64
}

// Summarize scans the trace.
func (t *Trace) Summarize() Summary {
	s := Summary{Cores: t.cores}
	blocks := map[uint64]int{} // block -> bitmask-ish core count tracking via map of maps is heavy; track first core + shared flag
	firstCore := map[uint64]int{}
	shared := map[uint64]bool{}
	for core, stream := range t.ops {
		refs := 0
		for _, op := range stream {
			switch op.Kind {
			case workload.OpLoad:
				s.Loads++
			case workload.OpStore:
				s.Stores++
			case workload.OpCompute:
				s.Computes++
			case workload.OpBarrier:
				s.Barriers++
			}
			if op.Kind == workload.OpLoad || op.Kind == workload.OpStore {
				refs++
				b := op.Addr &^ 63
				blocks[b]++
				if fc, ok := firstCore[b]; !ok {
					firstCore[b] = core
				} else if fc != core {
					shared[b] = true
				}
			}
		}
		if core == 0 || refs < s.MinCoreRefs {
			s.MinCoreRefs = refs
		}
	}
	s.Blocks = len(blocks)
	if len(blocks) > 0 {
		s.SharedPct = 100 * float64(len(shared)) / float64(len(blocks))
	}
	return s
}
