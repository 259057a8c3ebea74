// Package obs is tilesim's observability layer: a pull-based metrics
// registry and a message-lifecycle tracer, threaded through the
// simulator stack (sim, mesh, coherence, core, cmp) and surfaced by
// the command-line front-ends (DESIGN.md §10).
//
// Design rules:
//
//   - Zero overhead when disabled. The registry is pull-based: it holds
//     closures over counters the components maintain anyway, so nothing
//     happens on the hot path until Snapshot is called. Tracer hooks are
//     nil-guarded pointer checks; with no tracer attached a hook costs
//     one branch (Tracer methods are not nil-safe, so an unguarded hook
//     panics in every untraced run that reaches it).
//   - Deterministic output. Snapshots serialize with sorted keys and
//     shortest-round-trip float encoding; trace events are emitted in
//     simulation order with simulated-clock timestamps only. Two
//     same-seed runs produce byte-identical metrics and trace files
//     (the CI obs-smoke job asserts this).
//   - No simulation feedback. Hooks only read state; attaching a
//     registry or tracer never changes a single simulated cycle.
package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"tilesim/internal/sim"
	"tilesim/internal/stats"
)

// Metric is one exported measurement. Type discriminates which fields
// are meaningful: counters carry Count, gauges carry Value, means and
// histograms carry the distribution fields.
type Metric struct {
	Type  string  `json:"type"` // "counter", "gauge", "mean" or "histogram"
	Count uint64  `json:"count,omitempty"`
	Value float64 `json:"value,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// activeFields maps each metric type to the fields that are meaningful
// for it — the fields MarshalJSON always emits, zero or not.
var activeFields = map[string][]string{
	"counter":   {"count"},
	"gauge":     {"value"},
	"mean":      {"count", "mean", "min", "max"},
	"histogram": {"count", "mean", "min", "max", "p50", "p99"},
}

// MarshalJSON emits the metric with its type's active fields always
// present, so a counter at Count 0 ({"type":"counter","count":0}) is
// distinguishable from an absent or corrupted field set — the plain
// struct tags' omitempty made the two byte-identical. Inactive fields
// (always zero by construction) stay omitted. Unknown types fall back
// to emitting every non-zero field. Floats are clamped like
// formatFloat (NaN/Inf to 0), so marshaling never fails.
//
// This governs the encoding/json path only (sweep cache entries,
// figures sidecars); Snapshot.WriteJSON keeps its original
// omit-all-zeros encoding so existing golden snapshot files stay
// byte-identical.
func (m Metric) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`{"type":` + quote(m.Type))
	fields := activeFields[m.Type]
	if fields == nil {
		// Unknown type: preserve whatever is set.
		for _, f := range []string{"count", "value", "mean", "min", "max", "p50", "p99"} {
			if m.field(f) != 0 {
				fields = append(fields, f)
			}
		}
	}
	for _, f := range fields {
		b.WriteString("," + quote(f) + ":")
		if f == "count" {
			fmt.Fprintf(&b, "%d", m.Count)
		} else {
			b.WriteString(formatFloat(m.field(f)))
		}
	}
	b.WriteString("}")
	return b.Bytes(), nil
}

// field returns the named field's value as a float64 (Count included,
// exact below 2^53 — metric counts in practice).
func (m Metric) field(name string) float64 {
	switch name {
	case "count":
		return float64(m.Count)
	case "value":
		return m.Value
	case "mean":
		return m.Mean
	case "min":
		return m.Min
	case "max":
		return m.Max
	case "p50":
		return m.P50
	case "p99":
		return m.P99
	}
	panic(fmt.Sprintf("obs: unknown metric field %q", name))
}

// Snapshot is a point-in-time reading of every registered metric,
// keyed by hierarchical metric name (e.g. "net.link.00->01.B.flits").
type Snapshot map[string]Metric

// kind is what a registry entry measures. It decides how Snapshot
// reports the entry and how a Series samples it.
type kind uint8

const (
	kindCounter     kind = iota // monotone count
	kindRatio                   // num/den of two monotone counts
	kindUtilization             // monotone busy cycles over elapsed cycles
	kindGauge                   // instantaneous level
	kindMean                    // distribution, not sampled by a Series
	kindHistogram               // distribution, not sampled by a Series
)

// entry is one registered metric: its kind and what it reads. Counters,
// ratios and utilizations, the bulk of a registry, read only num and
// den; the rarer kinds keep their source in src, which holds a gauge's
// func() float64, a mean's []*stats.Mean or a *stats.Histogram.
type entry struct {
	name     string
	kind     kind
	num, den func() uint64 // counter value; ratio num and den; busy cycles
	src      any
}

// entryBlock is how many entries one storage block holds. Entries live
// in fixed-capacity blocks so registration never copies earlier ones.
const entryBlock = 64

// Registry names and snapshots the metrics of one simulated system, and
// is the catalog an epoch Series samples (DESIGN.md §10, §15.1).
// Registration is cold-path; components keep updating their own
// stats.Counter/Mean/Histogram values and the registry reads them out
// on Snapshot. The zero value is not ready; use NewRegistry.
type Registry struct {
	clock  *sim.Kernel
	blocks [][]entry // entries in registration order
	n      int       // entries registered
	// seen holds a hash of every registered name, so registration finds
	// duplicates without a map keyed by the names themselves (half the
	// memory at 18k metrics).
	seen map[uint64]struct{}
	seed maphash.Seed
}

// NewRegistry returns an empty registry whose utilizations divide by
// clock's current cycle. clock may be nil if none is registered.
func NewRegistry(clock *sim.Kernel) *Registry {
	return &Registry{clock: clock, seen: make(map[uint64]struct{}), seed: maphash.MakeSeed()}
}

// add installs an entry under a unique name.
func (r *Registry) add(e entry) {
	h := maphash.String(r.seed, e.name)
	if _, hit := r.seen[h]; hit && r.has(e.name) {
		panic(fmt.Sprintf("obs: duplicate metric name %q", e.name))
	}
	r.seen[h] = struct{}{}
	if n := len(r.blocks); n == 0 || len(r.blocks[n-1]) == entryBlock {
		r.blocks = append(r.blocks, make([]entry, 0, entryBlock))
	}
	b := &r.blocks[len(r.blocks)-1]
	*b = append(*b, e)
	r.n++
}

// has reports whether name is registered.
func (r *Registry) has(name string) bool {
	for _, b := range r.blocks {
		for i := range b {
			if b[i].name == name {
				return true
			}
		}
	}
	return false
}

// Counter registers a monotone count read through fn (typically a
// stats.Counter.Value method value).
func (r *Registry) Counter(name string, fn func() uint64) {
	r.add(entry{name: name, kind: kindCounter, num: fn})
}

// Ratio registers num/den (0 while den is 0) of two monotone counts,
// reported as a gauge.
func (r *Registry) Ratio(name string, num, den func() uint64) {
	r.add(entry{name: name, kind: kindRatio, num: num, den: den})
}

// Utilization registers a monotone busy-cycle count, reported as a
// gauge: busy cycles over the clock's current cycle.
func (r *Registry) Utilization(name string, busy func() uint64) {
	if r.clock == nil {
		panic(fmt.Sprintf("obs: utilization %q needs a registry clock", name))
	}
	r.add(entry{name: name, kind: kindUtilization, num: busy})
}

// Gauge registers an instantaneous value read through fn.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.add(entry{name: name, kind: kindGauge, src: fn})
}

// Mean registers a stats.Mean distribution: the merge, at read time, of
// every given accumulator (one for a single stream, the per-tile
// accumulators for a chip-wide one).
func (r *Registry) Mean(name string, ms ...*stats.Mean) {
	r.add(entry{name: name, kind: kindMean, src: ms})
}

// Histogram registers a stats.Histogram distribution with percentile
// summaries.
func (r *Registry) Histogram(name string, h *stats.Histogram) {
	r.add(entry{name: name, kind: kindHistogram, src: h})
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return r.n }

// sorted returns every entry in name order.
func (r *Registry) sorted() []*entry {
	es := make([]*entry, 0, r.n)
	for _, b := range r.blocks {
		for i := range b {
			es = append(es, &b[i])
		}
	}
	slices.SortFunc(es, func(a, b *entry) int { return strings.Compare(a.name, b.name) })
	return es
}

// Names returns every registered metric name in sorted order.
func (r *Registry) Names() []string {
	es := r.sorted()
	names := make([]string, len(es))
	for i, e := range es {
		names[i] = e.name
	}
	return names
}

// Snapshot reads every entry. The result is a plain map safe to
// marshal, compare, and attach to cached results.
func (r *Registry) Snapshot() Snapshot {
	out := make(Snapshot, r.n)
	for _, b := range r.blocks {
		for i := range b {
			out[b[i].name] = r.read(&b[i])
		}
	}
	return out
}

// read returns an entry's current reading.
func (r *Registry) read(e *entry) Metric {
	switch e.kind {
	case kindCounter:
		return Metric{Type: "counter", Count: e.num()}
	case kindRatio:
		return Metric{Type: "gauge", Value: stats.Ratio(float64(e.num()), float64(e.den()))}
	case kindUtilization:
		return Metric{Type: "gauge", Value: stats.Ratio(float64(e.num()), float64(r.clock.Now()))}
	case kindGauge:
		return Metric{Type: "gauge", Value: e.src.(func() float64)()}
	case kindMean:
		var t stats.Mean
		for _, m := range e.src.([]*stats.Mean) {
			t.Merge(m)
		}
		return Metric{Type: "mean", Count: t.N(), Mean: t.Value(), Min: float64(t.Min()), Max: float64(t.Max())}
	case kindHistogram:
		h := e.src.(*stats.Histogram)
		return Metric{
			Type:  "histogram",
			Count: h.N(),
			Mean:  h.Value(),
			Min:   float64(h.Min()),
			Max:   float64(h.Max()),
			P50:   h.Percentile(0.50),
			P99:   h.Percentile(0.99),
		}
	}
	panic(fmt.Sprintf("obs: metric %q has unknown kind %d", e.name, e.kind))
}

// WriteJSON serializes the snapshot as pretty-printed JSON with sorted
// keys and shortest-round-trip floats, so two snapshots of identical
// readings are byte-identical.
func (s Snapshot) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\n")
	for i, name := range stats.SortedKeys(s) {
		m := s[name]
		if i > 0 {
			bw.WriteString(",\n")
		}
		fmt.Fprintf(bw, "  %s: {", quote(name))
		fmt.Fprintf(bw, "\"type\": %s", quote(m.Type))
		if m.Count != 0 {
			fmt.Fprintf(bw, ", \"count\": %d", m.Count)
		}
		writeFloatField(bw, "value", m.Value)
		writeFloatField(bw, "mean", m.Mean)
		writeFloatField(bw, "min", m.Min)
		writeFloatField(bw, "max", m.Max)
		writeFloatField(bw, "p50", m.P50)
		writeFloatField(bw, "p99", m.P99)
		bw.WriteString("}")
	}
	bw.WriteString("\n}\n")
	return bw.Flush()
}

// writeFloatField emits a ", \"key\": value" pair, omitting zeros (the
// struct tags' omitempty, mirrored for the hand-rolled writer).
func writeFloatField(w *bufio.Writer, key string, v float64) {
	if v == 0 {
		return
	}
	fmt.Fprintf(w, ", %s: %s", quote(key), formatFloat(v))
}

// formatFloat renders a float as a JSON number: shortest
// round-trippable form, never NaN/Inf (clamped to 0, which valid
// metrics never produce).
func formatFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	out := strconv.FormatFloat(v, 'g', -1, 64)
	// JSON numbers may not spell "e+07" with Go's 'g' uppercase — 'g'
	// emits lowercase 'e', which JSON accepts. Nothing to fix, but keep
	// integers readable.
	return out
}

// quote JSON-escapes a string. Metric names and types are plain ASCII
// identifiers; strconv.Quote is a strict superset of JSON escaping for
// them.
func quote(s string) string { return strconv.Quote(s) }
