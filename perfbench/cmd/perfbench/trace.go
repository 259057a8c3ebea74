package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"tilesim/internal/cmp"
	"tilesim/internal/coherence"
	"tilesim/internal/compress"
	"tilesim/internal/core"
	"tilesim/internal/energy"
	"tilesim/internal/mesh"
	"tilesim/internal/noc"
	"tilesim/internal/sim"
	"tilesim/internal/workload"
)

// Shares of the traced run's budget: constructor timing, then paired
// plain/probed runs, then CPU-profiled runs for the rest.
const (
	buildShare  = 0.15
	pairedShare = 0.40
	// Constructor repetitions: the median needs a few; more than this
	// adds nothing on the 16-tile workloads, where each takes microseconds.
	minBuildReps, maxBuildReps = 3, 25
)

// traced makes the layer-attributed run. It measures only from outside
// the simulator, through public functions:
//
//  1. Setup attribution: each constructor NewSystem calls, timed
//     standalone with the workload's arguments (<layer>.build_s).
//  2. Paired runs: a plain run reading runtime/metrics around NewSystem
//     and around Run separately, then a probed run with timers around
//     Generator.Next and Protocol.Deliver. The probed run's wall time
//     over the plain run's is the trace overhead.
//  3. Plain runs under the CPU profiler for the rest of the budget; each
//     layer's share of self CPU time is cpu.<layer> (see selfNanos).
func traced(w benchWorkload, seed int64, budget time.Duration, chk *checker) []metric {
	cfg := w.config(seed)
	refs := float64(tilesOf(cfg) * cfg.RefsPerCore)
	start := time.Now()

	ms, err := buildTimes(cfg, time.Duration(buildShare*float64(budget)))
	if err != nil {
		chk.check(cmp.Result{}, err)
		return nil
	}

	var (
		newSystem, setupAllocs, runAllocs, setupGC, runGC []float64
		setupGCCPU, runGCCPU, overhead                    []float64
		nextCalls, deliverCalls                           uint64
		nextS, deliverS, probedS                          float64
		plain                                             *plainRun
	)
	pairedEnd := time.Duration((buildShare + pairedShare) * float64(budget))
	for prev := start; len(overhead) == 0 || fits(start, prev, pairedEnd); {
		prev = time.Now()
		p, err := runPlain(cfg)
		if !chk.check(p.res, err) {
			return nil
		}
		plain = p
		newSystem = append(newSystem, p.setupS)
		setupAllocs = append(setupAllocs, float64(p.setupMem.objects))
		runAllocs = append(runAllocs, float64(p.runMem.objects))
		setupGC = append(setupGC, float64(p.setupMem.gcCycles))
		runGC = append(runGC, float64(p.runMem.gcCycles))
		setupGCCPU = append(setupGCCPU, p.setupMem.gcCPU)
		runGCCPU = append(runGCCPU, p.runMem.gcCPU)

		pr, err := runProbed(cfg)
		if !chk.check(pr.res, err) {
			return nil
		}
		overhead = append(overhead, pr.runS/p.runS)
		nextCalls, deliverCalls = pr.next.calls, pr.deliver.calls
		nextS += pr.next.spent.Seconds()
		deliverS += pr.deliver.spent.Seconds()
		probedS += pr.runS
	}
	pairs := float64(len(overhead))
	nextS, deliverS, probedS = nextS/pairs, deliverS/pairs, probedS/pairs

	nanos := map[string]int64{}
	var samples int64
	var profiledS float64
	profiled := 0
	for prev := start; profiled == 0 || fits(start, prev, budget); {
		prev = time.Now()
		runS, err := runProfiled(cfg, nanos, &samples, chk)
		if err != nil {
			chk.check(cmp.Result{}, err)
			return nil
		}
		profiledS += runS
		profiled++
	}
	var total int64
	for _, n := range nanos {
		total += n
	}
	share := func(layer string) float64 {
		if total == 0 {
			return 0
		}
		return float64(nanos[layer]) / float64(total)
	}
	meanRunS := profiledS / float64(profiled)

	res, sum, events := plain.res, plain.net, float64(plain.events)
	var messages uint64
	for _, n := range sum.Messages {
		messages += n
	}
	fmt.Printf("traced: %d paired runs, %d profiled runs, %d CPU samples\n", len(overhead), profiled, samples)

	ms = append(ms,
		metric{"cmp.new_system_s", median(newSystem), "s"},
		metric{"trace_overhead", median(overhead), "ratio"},

		metric{"workload.next_calls", float64(nextCalls), "count"},
		metric{"workload.next_s", nextS, "s"},
		metric{"workload.next_ns", nextS / float64(nextCalls) * 1e9, "ns"},
		metric{"workload.next_share", nextS / probedS, "ratio"},
		metric{"cpu.workload", share("workload"), "ratio"},

		metric{"coherence.deliver_calls", float64(deliverCalls), "count"},
		metric{"coherence.deliver_s", deliverS, "s"},
		metric{"coherence.deliver_ns", deliverS / float64(max(deliverCalls, 1)) * 1e9, "ns"},
		metric{"coherence.deliver_per_ref", float64(deliverCalls) / refs, "ratio"},
		metric{"coherence.l1_misses", float64(plain.l1Misses), "count"},
		metric{"cpu.coherence", share("coherence"), "ratio"},

		metric{"mesh.messages", float64(messages), "count"},
		metric{"mesh.flits", float64(sum.TotalFlits), "count"},
		metric{"cpu.mesh", share("mesh"), "ratio"},
		metric{"mesh.ns_per_message", share("mesh") * meanRunS / float64(max(messages, 1)) * 1e9, "ns"},

		metric{"sim.events", events, "count"},
		metric{"cpu.sim", share("sim"), "ratio"},
		metric{"sim.ns_per_event", share("sim") * meanRunS / events * 1e9, "ns"},

		metric{"compress.coverage", res.Coverage, "ratio"},
		metric{"cpu.compress", share("compress"), "ratio"},

		metric{"cpu.cache", share("cache"), "ratio"},
		metric{"cpu.noc", share("noc"), "ratio"},
		metric{"cpu.core", share("core"), "ratio"},
		metric{"cpu.cmp", share("cmp"), "ratio"},
		metric{"core.vl_fraction", res.VLFraction, "ratio"},

		metric{"cpu.stats", share("stats"), "ratio"},
		metric{"cpu.energy", share("energy"), "ratio"},

		metric{"fault.crc_errors", float64(sum.CRCErrors), "count"},
		metric{"fault.retries", float64(sum.Retries), "count"},
		metric{"fault.retry_flits", float64(sum.RetryFlits), "count"},
		metric{"cpu.fault", share("fault"), "ratio"},

		metric{"runtime.setup_allocs", median(setupAllocs), "count"},
		metric{"runtime.run_allocs", median(runAllocs), "count"},
		metric{"runtime.setup_gc_cycles", median(setupGC), "count"},
		metric{"runtime.gc_cycles", median(runGC), "count"},
		metric{"runtime.setup_gc_cpu_s", median(setupGCCPU), "s"},
		metric{"runtime.gc_cpu_s", median(runGCCPU), "s"},
		metric{"cpu.runtime", share("runtime"), "ratio"},
		metric{"cpu.other", share("other"), "ratio"},
		metric{"cpu.samples", float64(samples), "count"},
	)
	return ms
}

// buildTimes times each constructor NewSystem calls, standalone with the
// workload's arguments, and reports the median of each over repetitions
// made within budget. All workloads use the VL+B wiring, whose network
// configuration is mesh.Heterogeneous.
func buildTimes(cfg cmp.RunConfig, budget time.Duration) ([]metric, error) {
	// cmp.vl_width_s times VLWidthBytes, which builds the codec a second
	// time to size the VL plane.
	order := []string{"cmp.build_s", "cmp.vl_width_s", "workload.build_s", "compress.build_s",
		"energy.build_s", "mesh.build_s", "coherence.build_s", "core.build_s"}
	samples := map[string][]float64{}
	timeIt := func(name string, f func()) {
		t := time.Now()
		f()
		samples[name] = append(samples[name], time.Since(t).Seconds())
	}
	start := time.Now()
	for rep := 0; rep < minBuildReps || (rep < maxBuildReps && time.Since(start) < budget); rep++ {
		runtime.GC()
		var (
			topo  mesh.Topology
			codec compress.Codec
			meter *energy.Meter
			net   *mesh.Network
			err   error
		)
		timeIt("cmp.build_s", func() { topo, err = cfg.BuildTopology() })
		if err != nil {
			return nil, err
		}
		tiles := topo.Tiles()
		timeIt("workload.build_s", func() { _, err = workload.NewNamedApp(cfg.App, tiles, cfg.RefsPerCore, cfg.Seed) })
		if err != nil {
			return nil, err
		}
		timeIt("compress.build_s", func() { codec, err = cfg.Compression.Build(tiles) })
		if err != nil {
			return nil, err
		}
		var vlWidth int
		timeIt("cmp.vl_width_s", func() { vlWidth, err = cfg.VLWidthBytes() })
		if err != nil {
			return nil, err
		}
		netCfg, err := mesh.Heterogeneous(vlWidth)
		if err != nil {
			return nil, err
		}
		netCfg.Topo = topo
		k := sim.NewKernel()
		timeIt("energy.build_s", func() { meter = energy.NewMeter(topo.Nodes()) })
		timeIt("mesh.build_s", func() { net = mesh.New(k, netCfg, meter) })
		cohCfg := coherence.DefaultConfig()
		cohCfg.Tiles = tiles
		cohCfg.ReplyPartitioning = cfg.ReplyPartitioning
		timeIt("coherence.build_s", func() { coherence.New(k, cohCfg, func(*noc.Message) {}) })
		timeIt("core.build_s", func() {
			core.New(k, net, core.Config{Codec: codec, VLWidthBytes: vlWidth}, meter, func(*noc.Message) {})
		})
	}
	ms := make([]metric, len(order))
	for i, name := range order {
		ms[i] = metric{name, median(samples[name]), "s"}
	}
	return ms, nil
}

// plainRun is one unprobed setup+run with its phase-split memory and
// the simulator's own whole-run counters (warmup included: the host
// does that work too).
type plainRun struct {
	res              cmp.Result
	setupS, runS     float64
	setupMem, runMem memStats // per-phase deltas
	events, l1Misses uint64
	net              mesh.Summary
}

func runPlain(cfg cmp.RunConfig) (*plainRun, error) {
	p := &plainRun{}
	runtime.GC()
	m0 := readMem()
	t0 := time.Now()
	sys, err := cmp.NewSystem(cfg)
	if err != nil {
		return p, err
	}
	t1 := time.Now()
	m1 := readMem()
	t2 := time.Now()
	p.res, err = sys.Run()
	t3 := time.Now()
	m2 := readMem()
	p.events, p.net = sys.K.Processed(), sys.Net.Summary()
	for i := 0; i < tilesOf(cfg); i++ {
		l1 := sys.Proto.L1(i)
		p.l1Misses += l1.LoadMisses.Value() + l1.StoreMisses.Value()
	}
	p.setupS, p.runS = t1.Sub(t0).Seconds(), t3.Sub(t2).Seconds()
	p.setupMem, p.runMem = m1.sub(m0), m2.sub(m1)
	return p, err
}

// span accumulates the calls into one layer boundary and their
// inclusive wall time.
type span struct {
	calls uint64
	spent time.Duration
}

// timedGen times every Generator.Next call.
type timedGen struct {
	gen  workload.Generator
	next span
}

func (g *timedGen) Name() string { return g.gen.Name() }
func (g *timedGen) Reset()       { g.gen.Reset() }

func (g *timedGen) Next(core int) (workload.Op, bool) {
	t := time.Now()
	op, ok := g.gen.Next(core)
	g.next.spent += time.Since(t)
	g.next.calls++
	return op, ok
}

// probedRun is one run with timers at the workload and coherence
// boundaries.
type probedRun struct {
	res           cmp.Result
	runS          float64
	next, deliver span
}

// runProbed runs with the generator wrapped and every tile's network
// handler replaced by a timer around Protocol.Deliver; the handler
// core.New installs is a plain pass-through to that same function, so
// the simulation is unchanged (the checker compares digests).
func runProbed(cfg cmp.RunConfig) (*probedRun, error) {
	pr := &probedRun{}
	gen, err := workload.NewNamedApp(cfg.App, tilesOf(cfg), cfg.RefsPerCore, cfg.Seed)
	if err != nil {
		return pr, err
	}
	tg := &timedGen{gen: gen}
	cfg.Generator = tg
	runtime.GC()
	sys, err := cmp.NewSystem(cfg)
	if err != nil {
		return pr, err
	}
	for tile := 0; tile < tilesOf(cfg); tile++ {
		sys.Net.SetHandler(tile, func(_ *sim.Kernel, m *noc.Message) {
			t := time.Now()
			sys.Proto.Deliver(m)
			pr.deliver.spent += time.Since(t)
			pr.deliver.calls++
		})
	}
	t := time.Now()
	pr.res, err = sys.Run()
	pr.runS = time.Since(t).Seconds()
	pr.next = tg.next
	return pr, err
}

// runProfiled makes one plain run with only System.Run under the CPU
// profiler, adds each layer's self CPU nanoseconds to nanos and the
// sample count to samples, and returns the run's wall seconds.
func runProfiled(cfg cmp.RunConfig, nanos map[string]int64, samples *int64, chk *checker) (float64, error) {
	runtime.GC()
	sys, err := cmp.NewSystem(cfg)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return 0, err
	}
	t := time.Now()
	res, err := sys.Run()
	runS := time.Since(t).Seconds()
	pprof.StopCPUProfile()
	chk.check(res, err)
	byLayer, n, err := selfNanos(buf.Bytes())
	if err != nil {
		return 0, err
	}
	for l, v := range byLayer {
		nanos[l] += v
	}
	*samples += n
	return runS, nil
}
