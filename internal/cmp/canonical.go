package cmp

import "fmt"

// SimVersion identifies the observable behavior of the simulator: two
// builds with the same SimVersion must produce bit-identical Results
// for the same RunConfig. It is one of the two inputs of the sweep
// cache key (internal/sweep), so bump it whenever a change alters what
// cmp.Run returns for an unchanged configuration — model changes,
// calibration changes, new Result fields, workload-generator changes.
// Pure refactors, speedups and new configuration knobs (whose zero
// value preserves old behavior) do not need a bump: stale cache
// entries are only a correctness problem when identical keys could map
// to different results. See DESIGN.md §9 for the invalidation rules.
// v3: Result gained the Metrics snapshot (internal/obs) and histogram
// percentile queries now clamp into the exact observed [min, max].
// v4: Result gained fault-injection counters (Failovers; Net gained
// CRCErrors/Retries/RetryFlits/Dropped), and LinkCyclesScale rounding
// switched from the ad-hoc `+0.999999` ceiling to a fuzz-tolerant
// math.Ceil — exact products such as 5 cycles x 0.2 now scale to 1
// cycle, not 2, shifting results for fractional-scale ablations.
// v5: series-enabled Results changed shape: the epoch table is closed
// at the execution window's end (Series.Finish) — mid-drain trailing
// rows are dropped and a final partial epoch flushes the remaining
// increments, so delta columns sum to the run's snapshot totals.
// v6: energy and means are computed from integer totals when read
// (link bytes per wire kind, router bytes/flits, cycle sums) instead of
// accumulated per event in float64. Float rounding moves Joule and
// mean-latency values by at most ~1e-10 relative; every count, min,
// max and percentile is unchanged.
// v7: DBRC's per-entry destination mask is a bitset covering every
// core; the old uint32 mask shifted to zero for destinations >= 32, so
// no address sent to tile 32 or above ever compressed. Runs with at
// most 32 tiles, and every non-DBRC run, are unchanged.
// v8: Result.Series carries every registry counter, ratio, utilization
// and gauge (the FFT 16-tile series grows from 226 to 255 columns);
// every earlier column and all metrics are unchanged.
const SimVersion = "tilesim-sim-v8"

// Canonical returns a stable one-line encoding of every
// simulation-relevant field of the configuration. Two configurations
// with equal encodings produce bit-identical Results (given equal
// SimVersion); equivalent spellings normalize to one encoding
// (Heterogeneous=true and Wiring="vlb" encode identically, and the
// Reply Partitioning that Wiring="lpw" implies is folded in).
//
// Configurations driven by a custom Generator have no canonical
// encoding — the generator's stream is opaque — and return an error;
// the sweep engine runs them uncached.
func (c RunConfig) Canonical() (string, error) {
	if c.Generator != nil {
		return "", fmt.Errorf("cmp: config with a custom Generator has no canonical encoding (trace replay is not cacheable)")
	}
	w := c.wiring()
	rp := c.ReplyPartitioning || w == "lpw"
	enc := fmt.Sprintf("app=%s refs=%d warmup=%d seed=%d compress=%s/%d/%d wiring=%s rp=%t router=%d linkscale=%g",
		c.App, c.RefsPerCore, c.WarmupRefs, c.Seed,
		c.Compression.Kind, c.Compression.Entries, c.Compression.LowOrderBytes,
		w, rp, c.RouterLatency, c.LinkCyclesScale)
	// Topology fields append only away from the paper's default 4x4
	// mesh, so every pre-topology-refactor configuration keeps its cache
	// key (equivalent spellings normalize: Topology="" and "mesh" encode
	// identically, as do Tiles=0 and 16).
	if c.topologyName() != "mesh" || c.tiles() != defaultTiles {
		enc += fmt.Sprintf(" topo=%s tiles=%d", c.topologyName(), c.tiles())
	}
	// Fault fields append only when injection is enabled, so every
	// fault-free configuration keeps its pre-fault cache key.
	if c.Faults.Enabled() {
		enc += " faults=" + c.Faults.Canonical()
	}
	// The series interval appends only when sampling is enabled, so
	// every series-free configuration keeps its pre-series cache key.
	// Sampling never feeds back into the simulation, but the sampled
	// series rides in the Result, so the interval distinguishes cache
	// entries.
	if c.SeriesInterval > 0 {
		enc += fmt.Sprintf(" series=%d", c.SeriesInterval)
	}
	return enc, nil
}
