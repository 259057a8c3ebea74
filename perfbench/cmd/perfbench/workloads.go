package main

import (
	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/fault"
)

// benchWorkload is one named configuration the benchmark runs. Each
// stresses a different simulator layer; BENCHMARK.json records why each
// was chosen and which layer metrics it is expected to move.
type benchWorkload struct {
	name string
	// refsPerCore and warmupRefs set the run length: long enough that the
	// simulated results vary little between seeds, short enough for many
	// runs per --seconds budget.
	refsPerCore, warmupRefs int
	cfg                     cmp.RunConfig
}

// gateScheme is the paper's headline configuration and the repo's
// alloc-gate scheme: 4-entry DBRC with 2 low-order bytes on VL+B wires.
var gateScheme = compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}

var workloads = []benchWorkload{
	{
		// Coherence-bound, zero compute gap: coherence, mesh and the
		// kernel dominate the host profile.
		name: "mp3d-16", refsPerCore: 6000, warmupRefs: 2000,
		cfg: cmp.RunConfig{App: "MP3D", Compression: gateScheme, Heterogeneous: true},
	},
	{
		// Compute-bound: the generator, math/rand and allocation
		// dominate; mesh and coherence barely run.
		name: "water-16", refsPerCore: 20000, warmupRefs: 5000,
		cfg: cmp.RunConfig{App: "Water-nsq", Compression: gateScheme, Heterogeneous: true},
	},
	{
		// The kilo-tile scale cell: setup is a visible share and the
		// mesh hop path is bound by cache misses.
		name: "fft-1024-torus", refsPerCore: 300, warmupRefs: 100,
		cfg: cmp.RunConfig{App: "FFT", Tiles: 1024, Topology: "torus", Compression: gateScheme, Heterogeneous: true},
	},
	{
		// Write-heavy scatter that defeats compression, and the only
		// workload on the fault retry/retransmit path.
		name: "radix-16-ber", refsPerCore: 5000, warmupRefs: 1500,
		cfg: cmp.RunConfig{App: "Radix", Compression: compress.Spec{Kind: "stride", LowOrderBytes: 2},
			Heterogeneous: true, Faults: fault.Config{BER: 1e-5}},
	},
}

// config returns the workload's run configuration for a seed.
func (w benchWorkload) config(seed int64) cmp.RunConfig {
	cfg := w.cfg
	cfg.RefsPerCore = w.refsPerCore
	cfg.WarmupRefs = w.warmupRefs
	cfg.Seed = seed
	return cfg
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}
