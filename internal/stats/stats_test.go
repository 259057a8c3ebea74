package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("reset counter = %d", c.Value())
	}
}

func TestMeanBasics(t *testing.T) {
	var m Mean
	for _, x := range []uint64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Observe(x)
	}
	if m.N() != 8 {
		t.Fatalf("n = %d", m.N())
	}
	if m.Value() != 5 {
		t.Fatalf("mean = %v, want 5", m.Value())
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Fatalf("min,max = %v,%v", m.Min(), m.Max())
	}
	if m.Sum() != 40 {
		t.Fatalf("sum = %v, want 40", m.Sum())
	}
}

func TestMeanEmpty(t *testing.T) {
	var m Mean
	if m.Value() != 0 || m.Min() != 0 || m.Max() != 0 || m.Sum() != 0 {
		t.Fatal("empty Mean should report zeros")
	}
}

// Property: the mean is exactly the direct sum over the count.
func TestMeanMatchesDirectProperty(t *testing.T) {
	f := func(xs []uint32) bool {
		var m Mean
		var sum uint64
		for _, x := range xs {
			m.Observe(uint64(x))
			sum += uint64(x)
		}
		if m.Sum() != sum || m.N() != uint64(len(xs)) {
			return false
		}
		return len(xs) == 0 || m.Value() == float64(sum)/float64(len(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMeanSingleSample pins the min/max behavior of a one-sample
// stream: both must be the sample itself, even when it is zero (a
// zero-initialized min would get a nonzero sample wrong).
func TestMeanSingleSample(t *testing.T) {
	for _, x := range []uint64{7, 0, math.MaxUint32} {
		var m Mean
		m.Observe(x)
		if m.N() != 1 {
			t.Fatalf("n = %d, want 1", m.N())
		}
		if m.Min() != x || m.Max() != x {
			t.Errorf("single sample %v: min,max = %v,%v, want both %v", x, m.Min(), m.Max(), x)
		}
		if m.Value() != float64(x) {
			t.Errorf("single sample %v: mean = %v", x, m.Value())
		}
	}
}

// Property: min and max always bracket the mean and equal some sample.
func TestMeanMinMaxProperty(t *testing.T) {
	f := func(xs []uint32) bool {
		var m Mean
		lo, hi := uint64(math.MaxUint64), uint64(0)
		for _, x := range xs {
			m.Observe(uint64(x))
			lo = min(lo, uint64(x))
			hi = max(hi, uint64(x))
		}
		if len(xs) == 0 {
			return m.Min() == 0 && m.Max() == 0
		}
		return m.Min() == lo && m.Max() == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: merging per-shard accumulators equals observing every
// sample on one accumulator, whatever the split (empty shards included).
func TestMeanMergeProperty(t *testing.T) {
	f := func(a, b []uint32) bool {
		var whole, left, right, merged Mean
		for _, x := range a {
			whole.Observe(uint64(x))
			left.Observe(uint64(x))
		}
		for _, x := range b {
			whole.Observe(uint64(x))
			right.Observe(uint64(x))
		}
		merged.Merge(&left)
		merged.Merge(&right)
		return merged == whole
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 4) != 2.5 {
		t.Fatal("Ratio(10,4)")
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio by zero must be 0")
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4, 16})
	if math.Abs(got-4) > 1e-9 {
		t.Fatalf("geomean = %v, want 4", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("geomean of empty should be 0")
	}
	// Non-positive values are skipped, not poisoning the result.
	got = GeoMean([]float64{0, -3, 4, 4})
	if math.Abs(got-4) > 1e-9 {
		t.Fatalf("geomean with skips = %v, want 4", got)
	}
}

func TestArithMean(t *testing.T) {
	if ArithMean([]float64{1, 2, 3}) != 2 {
		t.Fatal("arith mean")
	}
	if ArithMean(nil) != 0 {
		t.Fatal("arith mean of empty should be 0")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram(100, 1)
	for i := 1; i <= 100; i++ {
		h.Observe(uint64(i - 1)) // one sample per bucket
	}
	if h.N() != 100 {
		t.Fatalf("n = %d", h.N())
	}
	if p := h.Percentile(0.5); math.Abs(p-50) > 1.0 {
		t.Fatalf("p50 = %v, want ~50", p)
	}
	if p := h.Percentile(0.99); math.Abs(p-99) > 1.0 {
		t.Fatalf("p99 = %v, want ~99", p)
	}
	if p := h.Percentile(1.0); p < 99 {
		t.Fatalf("p100 = %v, want >= 99", p)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(10, 1)
	h.Observe(5)
	h.Observe(1e9)
	if h.Max() != 1e9 {
		t.Fatalf("max = %v", h.Max())
	}
	// p100 reports the exact max despite bucket overflow.
	if h.Percentile(1.0) != 1e9 {
		t.Fatalf("p100 = %v, want 1e9", h.Percentile(1.0))
	}
}

// TestHistogramPercentileEdges covers the degenerate queries: empty
// histogram, a single bucket, single sample, and the p0/p100 endpoints.
func TestHistogramPercentileEdges(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		h := NewHistogram(8, 1)
		for _, p := range []float64{0, 0.5, 1} {
			if got := h.Percentile(p); got != 0 {
				t.Errorf("empty histogram p%v = %v, want 0", p, got)
			}
		}
		if h.Min() != 0 || h.Max() != 0 {
			t.Errorf("empty histogram min,max = %v,%v", h.Min(), h.Max())
		}
	})
	t.Run("one bucket", func(t *testing.T) {
		h := NewHistogram(1, 10)
		h.Observe(3)
		h.Observe(7)
		if got := h.Percentile(0); got != 3 {
			t.Errorf("p0 = %v, want exact min 3", got)
		}
		// The bucket's upper bound is 10; the exact max is 7. Queries
		// must never report a value larger than any sample.
		for _, p := range []float64{0.5, 0.99, 1} {
			if got := h.Percentile(p); got != 7 {
				t.Errorf("p%v = %v, want clamped max 7", p, got)
			}
		}
	})
	t.Run("single sample", func(t *testing.T) {
		h := NewHistogram(4, 25)
		h.Observe(13)
		for _, p := range []float64{0, 0.5, 1} {
			if got := h.Percentile(p); got != 13 {
				t.Errorf("single-sample p%v = %v, want 13", p, got)
			}
		}
		if h.Min() != 13 || h.Max() != 13 {
			t.Errorf("single-sample min,max = %v,%v, want 13,13", h.Min(), h.Max())
		}
	})
	t.Run("p0 and p100 with spread", func(t *testing.T) {
		h := NewHistogram(100, 1)
		h.Observe(2)
		h.Observe(41)
		h.Observe(97)
		if got := h.Percentile(0); got != 2 {
			t.Errorf("p0 = %v, want exact min 2", got)
		}
		if got := h.Percentile(1); got != 97 {
			t.Errorf("p100 = %v, want exact max 97", got)
		}
		// Out-of-range p clamps rather than panicking.
		if got := h.Percentile(-0.5); got != 2 {
			t.Errorf("p<0 = %v, want min", got)
		}
		if got := h.Percentile(1.5); got != 97 {
			t.Errorf("p>1 = %v, want max", got)
		}
	})
}

func TestHistogramBadArgsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad histogram args did not panic")
		}
	}()
	NewHistogram(0, 1)
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("app", "value")
	tb.AddRow("fft", "1.00")
	tb.AddRow("barnes-hut", "0.95")
	out := tb.String()
	if !strings.Contains(out, "app") || !strings.Contains(out, "barnes-hut") {
		t.Fatalf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// Columns align: every line has the same prefix width before col 2.
	idx := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[2][idx:], "1.00") {
		t.Fatalf("column misaligned:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRowf([]string{"%s", "%.2f"}, "x", 1.234)
	csv := tb.CSV()
	want := "a,b\nx,1.23\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
}

func TestSortedKeys(t *testing.T) {
	cases := []struct {
		name string
		m    map[string]int
		want []string
	}{
		{"nil map", nil, []string{}},
		{"empty map", map[string]int{}, []string{}},
		{"single", map[string]int{"only": 1}, []string{"only"}},
		{"unsorted", map[string]int{"b": 1, "a": 2, "c": 3}, []string{"a", "b", "c"}},
		{"numeric-ish strings sort lexically",
			map[string]int{"10": 1, "2": 2, "1": 3}, []string{"1", "10", "2"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := SortedKeys(c.m)
			if len(got) != len(c.want) {
				t.Fatalf("SortedKeys(%v) = %v, want %v", c.m, got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("SortedKeys(%v) = %v, want %v", c.m, got, c.want)
				}
			}
		})
	}
}

// TestSortedKeysStable exercises the order guarantee directly: over
// many differently-built maps with the same contents, the result must
// be identical every time (the raw range order would not be).
func TestSortedKeysStable(t *testing.T) {
	want := SortedKeys(map[string]int{"x": 0, "y": 0, "z": 0, "w": 0})
	for trial := 0; trial < 50; trial++ {
		m := make(map[string]int)
		for _, k := range []string{"z", "w", "x", "y"} {
			m[k] = trial
		}
		got := SortedKeys(m)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: SortedKeys = %v, want %v", trial, got, want)
			}
		}
	}
}
