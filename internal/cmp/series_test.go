package cmp

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"tilesim/internal/compress"
	"tilesim/internal/fault"
	"tilesim/internal/stats"
)

// seriesConfigs are the cross-product the determinism tests run: a
// fault-free dense mesh and a high-BER torus (two topologies, with and
// without injection), both with compression + heterogeneous wiring so
// every series family (planes, coverage, retries) has live columns.
func seriesConfigs() map[string]RunConfig {
	return map[string]RunConfig{
		"mesh-faultfree": {
			App: "FFT", RefsPerCore: 300, Seed: 3,
			Compression:    compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
			Heterogeneous:  true,
			SeriesInterval: 512,
		},
		"torus-highber": {
			App: "MP3D", RefsPerCore: 300, Seed: 5,
			Topology:       "torus",
			Compression:    compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
			Heterogeneous:  true,
			SeriesInterval: 512,
			Faults:         fault.Config{BER: 1e-5, RetryLimit: 64},
		},
	}
}

// TestSeriesByteIdentity runs every config twice with the same seed
// and asserts the serialized series files are byte-identical — the
// acceptance contract behind `tilesim -series-out` (CI re-runs this
// under -race).
func TestSeriesByteIdentity(t *testing.T) {
	for name, cfg := range seriesConfigs() {
		t.Run(name, func(t *testing.T) {
			r1, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Series == nil || r2.Series == nil {
				t.Fatal("SeriesInterval > 0 produced no series")
			}
			if r1.Series.Rows() < 2 {
				t.Fatalf("series has %d rows; want at least baseline + one window", r1.Series.Rows())
			}
			var csv1, csv2, js1, js2 bytes.Buffer
			if err := r1.Series.WriteCSV(&csv1); err != nil {
				t.Fatal(err)
			}
			if err := r2.Series.WriteCSV(&csv2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
				t.Error("same-seed series CSVs differ")
			}
			if err := r1.Series.WriteJSON(&js1); err != nil {
				t.Fatal(err)
			}
			if err := r2.Series.WriteJSON(&js2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js1.Bytes(), js2.Bytes()) {
				t.Error("same-seed series JSONs differ")
			}
		})
	}
}

// TestSeriesNoSimulationFeedback asserts attaching the series changes
// no simulated outcome: a run with sampling enabled reports the same
// execution time, traffic, energy and metrics as one without. The only
// legitimate differences are the series itself and drain-clock
// bookkeeping: the sample events consume kernel event slots
// (sim.events) and the trailing sample can move the kernel clock at
// drain (sim.cycles, and the net.link.*.util gauges, which divide busy
// cycles by the clock at snapshot time) — none of which feeds back
// into cores, caches or the network.
func TestSeriesNoSimulationFeedback(t *testing.T) {
	for name, cfg := range seriesConfigs() {
		t.Run(name, func(t *testing.T) {
			with, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			plain := cfg
			plain.SeriesInterval = 0
			without, err := Run(plain)
			if err != nil {
				t.Fatal(err)
			}
			if without.Series != nil {
				t.Error("SeriesInterval == 0 produced a series")
			}

			if with.ExecCycles != without.ExecCycles {
				t.Errorf("series changed ExecCycles: %d vs %d", with.ExecCycles, without.ExecCycles)
			}
			if with.Net != without.Net {
				t.Errorf("series changed network summary:\n  with:    %+v\n  without: %+v", with.Net, without.Net)
			}
			if with.Coverage != without.Coverage || with.VLFraction != without.VLFraction {
				t.Error("series changed compression/steering results")
			}
			if with.Link != without.Link || with.InterconnectJ != without.InterconnectJ {
				t.Error("series changed energy results")
			}

			// Metric-level: everything except the drain-clock bookkeeping
			// must match exactly.
			for name, m := range without.Metrics {
				if name == "sim.events" || name == "sim.cycles" || strings.HasSuffix(name, ".util") {
					continue
				}
				if got := with.Metrics[name]; got != m {
					t.Errorf("series changed metric %s: %+v vs %+v", name, got, m)
				}
			}
			if len(with.Metrics) != len(without.Metrics) {
				t.Errorf("series changed metric count: %d vs %d", len(with.Metrics), len(without.Metrics))
			}
		})
	}
}

// TestSeriesFinishClosesAtRunEnd runs with a sampling interval that
// does not divide the execution window and asserts the Finish contract
// end-to-end: the table's last row lands exactly on ExecCycles (no
// mid-drain rows survive), and every delta column that shadows a
// registry counter sums to that counter's end-of-run Snapshot total —
// the final partial epoch accounts for every increment the grid missed.
func TestSeriesFinishClosesAtRunEnd(t *testing.T) {
	for name, cfg := range seriesConfigs() {
		cfg.SeriesInterval = 509 // prime: never divides the window
		t.Run(name, func(t *testing.T) {
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := r.Series
			if d.Rows() < 2 {
				t.Fatalf("series has %d rows", d.Rows())
			}
			if r.ExecCycles%uint64(cfg.SeriesInterval) == 0 {
				t.Fatalf("interval %d divides the %d-cycle window; the test needs a partial epoch", cfg.SeriesInterval, r.ExecCycles)
			}
			last := d.Times[d.Rows()-1]
			if last != r.ExecCycles {
				t.Errorf("last row at cycle %d, want the execution end %d", last, r.ExecCycles)
			}
			for _, ts := range d.Times {
				if ts > r.ExecCycles {
					t.Errorf("row at cycle %d lies beyond the execution end %d", ts, r.ExecCycles)
				}
			}
			// Every series column that shares a name with a registry
			// counter is a delta view of the same underlying count, so
			// its column sum must equal the snapshot total.
			checked := 0
			for i, colName := range d.Columns {
				m, ok := r.Metrics[colName]
				if !ok || m.Type != "counter" {
					continue
				}
				var sum float64
				for row := 0; row < d.Rows(); row++ {
					sum += d.Row(row)[i]
				}
				if sum != float64(m.Count) {
					t.Errorf("column %s sums to %v, want the snapshot total %d", colName, sum, m.Count)
				}
				checked++
			}
			if checked < 5 {
				t.Fatalf("only %d counter-backed columns checked; the cross-check lost its teeth", checked)
			}
		})
	}
}

// TestSeriesColumnsMatchConfig checks that the series is a view of the
// registry: its columns are exactly the counters and gauges (ratios and
// utilizations included) of the run's metrics snapshot, in name order.
// Means and histograms are not sampled.
func TestSeriesColumnsMatchConfig(t *testing.T) {
	for name, cfg := range seriesConfigs() {
		t.Run(name, func(t *testing.T) {
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, m := range stats.SortedKeys(r.Metrics) {
				if typ := r.Metrics[m].Type; typ == "counter" || typ == "gauge" {
					want = append(want, m)
				}
			}
			if !slices.Equal(r.Series.Columns, want) {
				t.Errorf("series columns differ from the registry's sampled metrics:\n  series:   %v\n  registry: %v", r.Series.Columns, want)
			}
		})
	}
}
