package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"tilesim/internal/sim"
)

// Series samples a Registry on a fixed simulated-time grid and
// accumulates one row per epoch (DESIGN.md §15). It is a view of the
// registry: every counter, ratio, utilization and gauge is a column,
// named as in the registry and sorted by name, so output is
// byte-deterministic regardless of registration order. Each entry's
// kind sets its column:
//
//   - counter: the per-window increment.
//   - ratio: the per-window increment of the numerator divided by that
//     of the denominator (e.g. a windowed compression coverage); 0 when
//     the denominator did not move.
//   - utilization: the per-window busy-cycle increment divided by the
//     window width (a 0..1 duty cycle for a resource that can be busy
//     at most once per cycle).
//   - gauge: the level read at the window boundary.
//
// Means and histograms are not sampled.
//
// Like every obs hook, the sampler must only read simulation state —
// the sample event consumes kernel sequence numbers but never changes
// the relative order of real events, so attaching a series shifts no
// simulated outcome (the no-feedback rule, asserted by the cmp series
// tests).
type Series struct {
	reg      *Registry
	interval sim.Time
	columns  []*entry
	started  bool
	finished bool
	data     *SeriesData
	last     []uint64 // previous raw reading per column (delta kinds)
	lastTime sim.Time
	// raw keeps each row's post-sample counter readings (the s.last
	// state, 2 per column) so Finish can rewind the sampler exactly to
	// any kept row when it drops beyond-end trailing rows. Freed at
	// Finish; without a Finish call it simply mirrors the row count.
	raw []uint64
}

// SeriesData is the accumulated epoch table: one row per sample in
// flat row-major Values (len(Times) × len(Columns)). It is plain data
// — safe to marshal, attach to cached results, and compare across
// runs.
type SeriesData struct {
	IntervalCycles uint64    `json:"interval_cycles"`
	Columns        []string  `json:"columns"`
	Times          []uint64  `json:"cycles"`
	Values         []float64 `json:"values"`
}

// NewSeries returns an empty series over r, sampling every interval
// cycles (clamped to 1, like PollCounters).
func NewSeries(r *Registry, interval sim.Time) *Series {
	if interval == 0 {
		interval = 1
	}
	return &Series{reg: r, interval: interval}
}

// Start freezes the column set (the registry's sampled entries, in name
// order), preallocates the sample state, and schedules the sampler on
// the registry's clock. The t=0 baseline row is taken synchronously
// (PollCounters semantics), so the first real window has a baseline to
// delta against.
func (s *Series) Start() *SeriesData {
	if s.started {
		panic("obs: series started twice")
	}
	s.started = true
	var names []string
	for _, e := range s.reg.sorted() {
		if e.kind != kindMean && e.kind != kindHistogram {
			s.columns = append(s.columns, e)
			names = append(names, e.name)
		}
	}
	s.data = &SeriesData{
		IntervalCycles: uint64(s.interval),
		Columns:        names,
	}
	s.last = make([]uint64, 2*len(s.columns)) // slot pairs: num, den
	PollCounters(s.reg.clock, s.interval, s.sample)
	return s.data
}

// sample appends one epoch row. It runs once per interval on the
// kernel hot path; the appends amortize via slice doubling and are the
// only allocations.
//
//tilesim:hotpath
func (s *Series) sample(now sim.Time) {
	width := now - s.lastTime // 0 only on the t=0 baseline row
	s.lastTime = now
	s.data.Times = append(s.data.Times, uint64(now))
	for i, e := range s.columns {
		var v float64
		switch e.kind {
		case kindCounter:
			cur := e.num()
			v = float64(cur - s.last[2*i])
			s.last[2*i] = cur
		case kindRatio:
			num, den := e.num(), e.den()
			dn, dd := num-s.last[2*i], den-s.last[2*i+1]
			if dd > 0 {
				v = float64(dn) / float64(dd)
			}
			s.last[2*i], s.last[2*i+1] = num, den
		case kindUtilization:
			cur := e.num()
			if width > 0 {
				v = float64(cur-s.last[2*i]) / float64(width)
			}
			s.last[2*i] = cur
		case kindGauge:
			v = e.src.(func() float64)()
		case kindMean, kindHistogram:
			// Never a column: Start skips distributions.
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		//tilesim:allocok amortized slice growth, one batch of appends per epoch
		s.data.Values = append(s.data.Values, v)
	}
	s.raw = append(s.raw, s.last...)
}

// Finish closes the series at the run's end cycle (in cmp, the last
// core's completion cycle). The poller trails the final simulation
// event, so rows can land past the end of the run — mid-drain epochs
// that belong to no execution window. Finish drops them, folds their
// increments into one final partial row stamped at end (width = the
// cycles since the last full epoch), and frees the rewind state. If the
// grid divided the run exactly, the table is left untouched. Without a
// Finish call the series behaves as before: trailing rows stay.
//
// Every counter increment between the last full epoch and the drain is
// accounted to the final row, so the column sums of a finished delta
// column equal the end-of-run snapshot total.
func (s *Series) Finish(end sim.Time) {
	if !s.started {
		panic("obs: series finished before Start")
	}
	if s.finished {
		panic("obs: series finished twice")
	}
	s.finished = true
	n := len(s.columns)
	if n == 0 {
		s.raw = nil
		return
	}
	kept := len(s.data.Times)
	for kept > 0 && s.data.Times[kept-1] > uint64(end) {
		kept--
	}
	if kept < len(s.data.Times) {
		s.data.Times = s.data.Times[:kept]
		s.data.Values = s.data.Values[:kept*n]
		// Rewind the sampler to the last kept row: the dropped rows'
		// increments re-enter the deltas of the final partial row.
		if kept > 0 {
			copy(s.last, s.raw[(kept-1)*2*n:kept*2*n])
			s.lastTime = sim.Time(s.data.Times[kept-1])
		} else {
			clear(s.last)
			s.lastTime = 0
		}
	}
	if kept > 0 && s.data.Times[kept-1] == uint64(end) {
		// The grid divided the run exactly; nothing left to flush.
		s.raw = nil
		return
	}
	s.sample(end)
	s.raw = nil
}

// Row returns sample row i as a sub-slice of Values.
func (d *SeriesData) Row(i int) []float64 {
	n := len(d.Columns)
	return d.Values[i*n : (i+1)*n]
}

// Rows returns the number of sample rows.
func (d *SeriesData) Rows() int {
	if len(d.Columns) == 0 {
		return 0
	}
	return len(d.Values) / len(d.Columns)
}

// WriteCSV serializes the series as a deterministic CSV table: a
// "cycle,<col>,<col>..." header then one row per epoch, floats in
// shortest round-trip form. Two identical series serialize
// byte-identically.
func (d *SeriesData) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("cycle")
	for _, c := range d.Columns {
		bw.WriteByte(',')
		bw.WriteString(c)
	}
	bw.WriteByte('\n')
	for i := 0; i < d.Rows(); i++ {
		fmt.Fprintf(bw, "%d", d.Times[i])
		for _, v := range d.Row(i) {
			bw.WriteByte(',')
			bw.WriteString(formatFloat(v))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteJSON serializes the series as deterministic JSON: fixed field
// order, shortest round-trip floats, rows nested per epoch so the file
// is self-describing without the flat-Values convention.
func (d *SeriesData) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\n  \"interval_cycles\": %d,\n  \"columns\": [", d.IntervalCycles)
	for i, c := range d.Columns {
		if i > 0 {
			bw.WriteString(", ")
		}
		bw.WriteString(quote(c))
	}
	bw.WriteString("],\n  \"rows\": [")
	for i := 0; i < d.Rows(); i++ {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n    {\"cycle\": %d, \"values\": [", d.Times[i])
		for j, v := range d.Row(i) {
			if j > 0 {
				bw.WriteString(", ")
			}
			bw.WriteString(formatFloat(v))
		}
		bw.WriteString("]}")
	}
	if d.Rows() > 0 {
		bw.WriteString("\n  ")
	}
	bw.WriteString("]\n}\n")
	return bw.Flush()
}
