// Package tilesim is a tiled chip-multiprocessor simulator reproducing
// "Address Compression and Heterogeneous Interconnects for
// Energy-Efficient High-Performance in Tiled CMPs" (Flores, Acacio,
// Aragón — ICPP 2008).
//
// The simulator models the paper's 16-core tiled CMP (4x4 mesh,
// private L1s, a shared NUCA L2, directory MESI coherence) — scalable
// to 1024 tiles on pluggable topologies (DESIGN.md §14) — and the
// paper's proposal:
// dynamic address compression of coherence requests and commands (DBRC
// and Stride schemes) combined with a heterogeneous interconnect whose
// links split into a few very-low-latency VL-Wires for short critical
// messages plus baseline wires for everything else.
//
// Module map (each package's modelling decisions live in the named
// DESIGN.md section):
//
//	internal/sim        deterministic event kernel            DESIGN.md §3
//	internal/stats      counters, histograms, tables          DESIGN.md §3
//	internal/wire       wire RC physics, Table 2/3 catalogs   DESIGN.md §5
//	internal/cacti      SRAM cost models (Table 1)            DESIGN.md §5
//	internal/compress   DBRC / Stride / Perfect codecs        DESIGN.md §5
//	internal/noc        message model and classification      DESIGN.md §5
//	internal/mesh       pluggable Topology (mesh, cmesh,      DESIGN.md §5, §14
//	                    torus, slim), wormhole network,
//	                    per-plane links
//	internal/cache      L1/L2 arrays and MSHRs                DESIGN.md §3
//	internal/coherence  directory MESI protocol               DESIGN.md §5
//	internal/cmp        system assembly and run harness       DESIGN.md §3
//	internal/energy     link/router/chip energy, ED^2P        DESIGN.md §5
//	internal/workload   13 SPLASH-2-class synthetic apps      DESIGN.md §5
//	internal/core       the proposal: compress + plane map    DESIGN.md §1
//	internal/obs        metrics registry, tracer, epoch       DESIGN.md §10, §15
//	                    series, run ledger, host stats
//	internal/trace      workload record/replay                DESIGN.md §7
//	internal/sweep      parallel sweep engine + result cache  DESIGN.md §9, §15
//	                    + ledger records
//	internal/figures    paper table/figure regeneration       DESIGN.md §4
//	internal/analysis   tilesimvet static-analysis rules      DESIGN.md §8, §12, §17
//	internal/pooldbg    pooled-object runtime sanitizer       DESIGN.md §17
//	                    (-tags pooldebug)
//	cmd/tilesim         single-run CLI, also replays a trace
//	                    (-replay)
//	cmd/tables          Tables 1-3 (analytic, no simulation)
//	cmd/figures         Figures 2, 5, 6, 7 + ablations + the
//	                    topology scale study (-scale) via the
//	                    sweep engine
//	cmd/tracegen        trace capture and summary
//	cmd/benchdiff       run-ledger diff: determinism and      DESIGN.md §15
//	                    perf-regression gate
//	cmd/tilesimvet      the static analyzer CLI
//
// The benchmarks in bench_test.go regenerate each table and figure at a
// reduced scale and measure the sweep engine's serial-vs-parallel
// throughput; see EXPERIMENTS.md for full-scale paper-vs-measured
// numbers (with per-section reproduction commands) and DESIGN.md for
// modelling decisions.
package tilesim
