// Command perfbench is tilesim's host-time benchmark. It runs one named
// workload (workloads.go) through the public cmp.NewSystem/System.Run
// API, repeating setup and run serially in this process for a fixed
// number of seconds, and checks every result. perfbench/run.sh builds
// and runs it from the repository root:
//
//	bash perfbench/run.sh --workload mp3d-16 --seed 3 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics: setup and run host
// seconds, events and references per host second, host allocation and
// peak heap, and the simulated cycles and link ED^2P. With --trace 1 it
// makes the layer-attributed traced run instead (trace.go). The last
// line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// A run fails when it returns an error, breaks a result invariant, or
// its sweep.Digest differs from the workload's other runs or from the
// digest recorded for the current cmp.SimVersion (digests.txt).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"tilesim/internal/cmp"
	"tilesim/internal/sweep"
	"tilesim/internal/workload"
)

// minRuns is the fewest measured runs a timed invocation makes, however
// short its --seconds budget.
const minRuns = 3

// heapRuns is the most heap-sampled warm-up runs a timed invocation
// makes; the peak depends on GC timing, so it reports their median.
const heapRuns = 5

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: layer-attributed traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	chk := &checker{w: w, seed: *seed}
	var ms []metric
	if *trace == 1 {
		ms = traced(w, *seed, budget, chk)
	} else {
		ms = timed(w, *seed, budget, chk)
	}
	chk.report()
	if err := emit(chk, ms); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// metric is one reported measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// emit prints each metric on its own line, then the result object as
// the last line.
func emit(chk *checker, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{chk.attempted > 0 && chk.failed == 0, chk.attempted, chk.failed, map[string]value{}}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Printf("%-28s %.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

// checker validates every run of one workload and seed, and counts
// attempts and failures.
type checker struct {
	w         benchWorkload
	seed      int64
	digest    string // the first run's digest; every later run must match it
	attempted int
	failed    int
}

// check records one run and reports whether it passed.
func (c *checker) check(res cmp.Result, err error) bool {
	c.attempted++
	if err == nil {
		err = c.validate(res)
	}
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d run %d: %v\n", c.w.name, c.seed, c.attempted, err)
		return false
	}
	return true
}

func (c *checker) validate(res cmp.Result) error {
	// Every core issues exactly refsPerCore references, warmupRefs of
	// them before the measurement window opens.
	cfg := c.w.config(c.seed)
	wantRefs := uint64(tilesOf(cfg) * (cfg.RefsPerCore - cfg.WarmupRefs))
	if got := res.Loads + res.Stores; got != wantRefs {
		return fmt.Errorf("window has %d loads+stores, want %d", got, wantRefs)
	}
	if res.ExecCycles == 0 || res.Net.Dropped != 0 {
		return fmt.Errorf("exec cycles %d, dropped messages %d", res.ExecCycles, res.Net.Dropped)
	}
	d := sweep.Digest(res)
	if c.digest == "" {
		c.digest = d
	} else if d != c.digest {
		return fmt.Errorf("digest %s differs from the first run's %s", d, c.digest)
	}
	if want, ok := recordedDigest(c.w.name, c.seed); ok && d != want {
		return fmt.Errorf("digest %s differs from the one recorded for %s: %s", d, cmp.SimVersion, want)
	}
	return nil
}

// report states the digest and how it was checked.
func (c *checker) report() {
	status := "not recorded for this seed: determinism checked only"
	switch {
	case cmp.SimVersion != recordedVersion:
		status = fmt.Sprintf("digests recorded for %s, not %s: determinism checked only", recordedVersion, cmp.SimVersion)
	case c.digest == "":
		status = "no successful run"
	default:
		if want, ok := recordedDigest(c.w.name, c.seed); ok {
			status = "matches the recorded digest"
			if c.digest != want {
				status = "DIFFERS from the recorded digest " + want
			}
		}
	}
	fmt.Printf("%s seed %d %s digest %s (%s); %d/%d runs failed\n",
		c.w.name, c.seed, cmp.SimVersion, c.digest, status, c.failed, c.attempted)
}

func tilesOf(cfg cmp.RunConfig) int {
	if cfg.Tiles == 0 {
		return 16
	}
	return cfg.Tiles
}

// timed makes the end-to-end measurement: warm-up runs that sample the
// peak heap (up to heapRuns, within a tenth of the budget), then timed
// setup+run repetitions while another fits in the budget. Every run
// starts from a collected heap.
func timed(w benchWorkload, seed int64, budget time.Duration, chk *checker) []metric {
	cfg := w.config(seed)
	refs := float64(tilesOf(cfg) * cfg.RefsPerCore)
	start := time.Now()
	var peaks []float64
	for len(peaks) == 0 || (len(peaks) < heapRuns && time.Since(start) < budget/10) {
		peaks = append(peaks, heapPeakRun(cfg, chk))
	}

	var setup, runS, events, refRate, allocMB, allocs []float64
	var res cmp.Result
	for prev := start; len(runS) < minRuns || fits(start, prev, budget); {
		prev = time.Now()
		if chk.failed > chk.attempted/2 {
			break // a broken build: stop instead of spinning out the budget
		}
		runtime.GC()
		m0 := readMem()
		t0 := time.Now()
		sys, err := cmp.NewSystem(cfg)
		if err != nil {
			chk.check(cmp.Result{}, err)
			continue
		}
		t1 := time.Now()
		r, err := sys.Run()
		t2 := time.Now()
		m1 := readMem()
		if !chk.check(r, err) {
			continue
		}
		res = r
		s, rs := t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
		setup = append(setup, s)
		runS = append(runS, rs)
		events = append(events, float64(sys.K.Processed())/rs)
		refRate = append(refRate, refs/(s+rs))
		allocMB = append(allocMB, float64(m1.bytes-m0.bytes)/1e6)
		allocs = append(allocs, float64(m1.objects-m0.objects))
	}
	if len(runS) == 0 {
		return nil
	}
	// The tail is printed, not gated: on a shared host it tracks outside
	// interference more than the simulator.
	tail, pct := tailQuantile(runS)
	fmt.Printf("run_s over %d runs: median %.6g s, p%.0f %.6g s\n", len(runS), median(runS), pct, tail)
	return []metric{
		{"run_s", median(runS), "s"},
		{"setup_s", median(setup), "s"},
		{"events_per_s", median(events), "1/s"},
		{"refs_per_s", median(refRate), "1/s"},
		{"alloc_mb", median(allocMB), "MB"},
		{"allocs", median(allocs), "count"},
		{"heap_peak_mb", median(peaks) / 1e6, "MB"},
		{"sim_cycles", float64(res.ExecCycles), "cycles"},
		{"link_ed2p", res.LinkED2P(), "J.cycles2"},
	}
}

// heapPeakRun makes one untimed setup+run whose generator samples the
// heap every heapSampleEvery operations, and returns the peak heap
// bytes seen during the run.
func heapPeakRun(cfg cmp.RunConfig, chk *checker) float64 {
	gen, err := workload.NewNamedApp(cfg.App, tilesOf(cfg), cfg.RefsPerCore, cfg.Seed)
	if err != nil {
		chk.check(cmp.Result{}, err)
		return 0
	}
	hs := &heapSampler{gen: gen, sample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
	cfg.Generator = hs
	runtime.GC()
	sys, err := cmp.NewSystem(cfg)
	if err != nil {
		chk.check(cmp.Result{}, err)
		return 0
	}
	hs.read()
	res, err := sys.Run()
	hs.read()
	chk.check(res, err)
	return float64(hs.peak)
}

// heapSampleEvery is the heap sampling period in generator operations:
// a few megabytes of allocation at most on the 1024-tile workload.
const heapSampleEvery = 1024

// heapSampler wraps a generator and tracks the peak of the heap's
// object bytes (live plus not yet swept).
type heapSampler struct {
	gen    workload.Generator
	n      int
	peak   uint64
	sample []metrics.Sample
}

func (h *heapSampler) Name() string { return h.gen.Name() }
func (h *heapSampler) Reset()       { h.gen.Reset() }

func (h *heapSampler) Next(core int) (workload.Op, bool) {
	if h.n++; h.n%heapSampleEvery == 0 {
		h.read()
	}
	return h.gen.Next(core)
}

func (h *heapSampler) read() {
	metrics.Read(h.sample)
	if v := h.sample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// memStats are cumulative runtime counters read around a phase.
type memStats struct {
	bytes, objects, gcCycles uint64
	gcCPU                    float64
}

// readMem reads the allocation counters from runtime.ReadMemStats, which
// flushes the per-P caches and so counts exactly, and the GC CPU
// estimate from runtime/metrics.
func readMem() memStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	return memStats{ms.TotalAlloc, ms.Mallocs, uint64(ms.NumGC), gc[0].Value.Float64()}
}

func (m memStats) sub(o memStats) memStats {
	return memStats{m.bytes - o.bytes, m.objects - o.objects, m.gcCycles - o.gcCycles, m.gcCPU - o.gcCPU}
}

// fits reports whether another iteration, taking as long as the one
// that started at prev and has just ended, ends within the budget that
// started at start.
func fits(start, prev time.Time, budget time.Duration) bool {
	now := time.Now()
	return now.Add(now.Sub(prev)).Sub(start) <= budget
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile returns the highest sample with at least ten samples
// above it, and its percentile; with fewer than twenty samples no tail
// above the median has that support, so it returns the median.
func tailQuantile(xs []float64) (float64, float64) {
	n := len(xs)
	if n < 20 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n)
}
