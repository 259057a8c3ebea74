// Package stats provides the small statistics toolkit shared by every
// tilesim component: named counters, integer-sample means, histograms with
// percentile queries, and plain-text table rendering for the experiment
// harnesses.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Mean accumulates the count, exact sum, min and max of integer
// samples (cycle counts) without storing them. The mean is computed on
// read, so the per-sample cost is integer adds and compares only.
type Mean struct {
	n, sum   uint64
	min, max uint64
}

// Observe adds one sample.
func (m *Mean) Observe(x uint64) {
	if m.n == 0 || x < m.min {
		m.min = x
	}
	if x > m.max {
		m.max = x
	}
	m.n++
	m.sum += x
}

// Merge folds the samples of o into m, as if each had been observed
// on m.
func (m *Mean) Merge(o *Mean) {
	if o.n == 0 {
		return
	}
	if m.n == 0 || o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
	m.n += o.n
	m.sum += o.sum
}

// N returns the sample count.
func (m *Mean) N() uint64 { return m.n }

// Sum returns the exact total of all samples.
func (m *Mean) Sum() uint64 { return m.sum }

// Value returns sum/n (0 with no samples).
func (m *Mean) Value() float64 { return Ratio(float64(m.sum), float64(m.n)) }

// Min returns the smallest sample (0 with no samples).
func (m *Mean) Min() uint64 { return m.min }

// Max returns the largest sample (0 with no samples).
func (m *Mean) Max() uint64 { return m.max }

// Ratio safely divides a by b, returning 0 when b == 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// GeoMean returns the geometric mean of positive values; zero or negative
// values are skipped. Returns 0 for an empty input.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ArithMean returns the arithmetic mean, 0 for empty input.
func ArithMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Histogram is a fixed-width-bucket histogram of integer samples over
// [0, bucketWidth*len). Samples beyond the last bucket land in an
// overflow bucket. It supports approximate percentile queries at bucket
// resolution; the embedded Mean keeps the exact count, sum, min and max.
type Histogram struct {
	Mean
	bucketWidth uint64
	buckets     []uint64
	overflow    uint64
}

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(n int, bucketWidth uint64) *Histogram {
	if n <= 0 || bucketWidth == 0 {
		panic("stats: histogram needs n > 0 and bucketWidth > 0")
	}
	return &Histogram{bucketWidth: bucketWidth, buckets: make([]uint64, n)}
}

// Observe adds one sample.
func (h *Histogram) Observe(x uint64) {
	h.Mean.Observe(x)
	i := x / h.bucketWidth
	if i >= uint64(len(h.buckets)) {
		h.overflow++
		return
	}
	h.buckets[i]++
}

// Percentile returns an upper bound for the p-th percentile (p in [0,1])
// at bucket resolution, clamped into the exact observed [min, max] range
// so a query can never report a value outside the sample set: p0 is the
// exact minimum, p100 never exceeds the exact maximum (bucket upper
// bounds would otherwise overshoot both on sparse streams — a one-sample
// histogram used to report bucketWidth for every percentile). Overflow
// samples report the exact observed max.
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return float64(h.min)
	}
	if p > 1 {
		p = 1
	}
	target := uint64(math.Ceil(p * float64(h.n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			bound := min(max(uint64(i+1)*h.bucketWidth, h.min), h.max)
			return float64(bound)
		}
	}
	return float64(h.max)
}

// Table renders rows of labeled numeric series as an aligned plain-text
// table (the output format of cmd/figures and cmd/tables).
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are kept and simply
// widen the table.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row where each value is formatted with the
// corresponding verb ("%s" for strings, "%.3f" etc. for numbers).
func (t *Table) AddRowf(format []string, values ...any) {
	cells := make([]string, len(values))
	for i, v := range values {
		f := "%v"
		if i < len(format) {
			f = format[i]
		}
		cells[i] = fmt.Sprintf(f, v)
	}
	t.rows = append(t.rows, cells)
}

// String renders the table with space-aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	grow := func(cells []string) {
		for i, c := range cells {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	grow(t.header)
	for _, r := range t.rows {
		grow(r)
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := 0; i < len(widths); i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(widths))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting: tilesim
// labels never contain commas).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ","))
	b.WriteString("\n")
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// SortedKeys returns the keys of a string-keyed map in sorted order,
// for deterministic iteration when reporting.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //tilesim:ordered — keys are sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
