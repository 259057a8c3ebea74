package workload

import (
	"testing"
)

func TestAllAppsBuild(t *testing.T) {
	apps, err := AllApps(16, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 13 {
		t.Fatalf("%d apps, want 13 (Table 4)", len(apps))
	}
	names := map[string]bool{}
	for _, a := range apps {
		names[a.Name()] = true
	}
	for _, want := range AppNames() {
		if !names[want] {
			t.Errorf("missing application %s", want)
		}
	}
}

func TestUnknownAppErrors(t *testing.T) {
	if _, err := NewNamedApp("Doom", 16, 100, 1); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	collect := func() []Op {
		a, err := NewNamedApp("MP3D", 16, 200, 42)
		if err != nil {
			t.Fatal(err)
		}
		var ops []Op
		for core := 0; core < 16; core++ {
			for {
				op, ok := a.Next(core)
				if !ok {
					break
				}
				ops = append(ops, op)
			}
		}
		return ops
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestResetRewinds(t *testing.T) {
	a, _ := NewNamedApp("FFT", 16, 50, 7)
	var first []Op
	for {
		op, ok := a.Next(3)
		if !ok {
			break
		}
		first = append(first, op)
	}
	a.Reset()
	for i := range first {
		op, ok := a.Next(3)
		if !ok {
			t.Fatalf("stream ended early at %d after reset", i)
		}
		if op != first[i] {
			t.Fatalf("op %d differs after reset", i)
		}
	}
}

func TestStreamEnds(t *testing.T) {
	a, _ := NewNamedApp("Water-nsq", 16, 30, 1)
	n := 0
	for {
		_, ok := a.Next(0)
		if !ok {
			break
		}
		n++
		if n > 30*20 {
			t.Fatal("stream does not terminate")
		}
	}
	if _, ok := a.Next(0); ok {
		t.Fatal("stream restarted after end")
	}
}

// refStats summarizes a core's stream.
type refStats struct {
	loads, stores, computes, barriers int
	sharedRefs                        int
	blocks                            map[uint64]bool
	computeCycles                     int
}

func collectStats(t *testing.T, name string, core int, refs int) refStats {
	t.Helper()
	a, err := NewNamedApp(name, 16, refs, 11)
	if err != nil {
		t.Fatal(err)
	}
	s := refStats{blocks: map[uint64]bool{}}
	for {
		op, ok := a.Next(core)
		if !ok {
			break
		}
		switch op.Kind {
		case OpLoad:
			s.loads++
		case OpStore:
			s.stores++
		case OpCompute:
			s.computes++
			s.computeCycles += op.Cycles
		case OpBarrier:
			s.barriers++
		}
		if op.Kind == OpLoad || op.Kind == OpStore {
			s.blocks[op.Addr&^63] = true
			if op.Addr >= sharedBase {
				s.sharedRefs++
			}
		}
	}
	return s
}

func TestSharingIntensityOrdering(t *testing.T) {
	// The paper's analysis hinges on MP3D/Unstructured sharing far more
	// than Water/LU.
	frac := func(name string) float64 {
		s := collectStats(t, name, 2, 3000)
		return float64(s.sharedRefs) / float64(s.loads+s.stores)
	}
	mp3d, unstructured := frac("MP3D"), frac("Unstructured")
	water, lu := frac("Water-nsq"), frac("LU-cont")
	if mp3d < 0.35 || unstructured < 0.30 {
		t.Errorf("high-sharing apps too private: mp3d=%.2f unstructured=%.2f", mp3d, unstructured)
	}
	if water > 0.10 || lu > 0.12 {
		t.Errorf("low-sharing apps too shared: water=%.2f lu=%.2f", water, lu)
	}
}

func TestComputeIntensityOrdering(t *testing.T) {
	// Water is compute-bound; MP3D is memory-bound.
	intensity := func(name string) float64 {
		s := collectStats(t, name, 0, 3000)
		return float64(s.computeCycles) / float64(s.loads+s.stores)
	}
	if w, m := intensity("Water-nsq"), intensity("MP3D"); w < 3*m {
		t.Errorf("water compute/ref %.1f should dwarf mp3d %.1f", w, m)
	}
}

func TestAddressIrregularity(t *testing.T) {
	// Barnes/Radix touch many more distinct 64KB regions per reference
	// than MP3D/Unstructured: the Figure 2 coverage driver.
	regions := func(name string) int {
		s := collectStats(t, name, 1, 4000)
		set := map[uint64]bool{}
		for b := range s.blocks {
			set[b>>16] = true
		}
		return len(set)
	}
	barnes, radix := regions("Barnes-Hut"), regions("Radix")
	mp3d, unstr := regions("MP3D"), regions("Unstructured")
	if barnes < 2*mp3d || radix < 2*unstr {
		t.Errorf("irregular apps not irregular enough: barnes=%d radix=%d mp3d=%d unstructured=%d",
			barnes, radix, mp3d, unstr)
	}
}

func TestPrivateRegionsDisjoint(t *testing.T) {
	a, _ := NewNamedApp("Ocean-cont", 16, 500, 3)
	perCore := make([]map[uint64]bool, 16)
	for core := 0; core < 16; core++ {
		perCore[core] = map[uint64]bool{}
		for {
			op, ok := a.Next(core)
			if !ok {
				break
			}
			if (op.Kind == OpLoad || op.Kind == OpStore) && op.Addr < sharedBase {
				perCore[core][op.Addr&^63] = true
			}
		}
	}
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			for b := range perCore[i] {
				if perCore[j][b] {
					t.Fatalf("private block %#x shared between cores %d and %d", b, i, j)
				}
			}
		}
	}
}

func TestBarriersPresentWhereConfigured(t *testing.T) {
	s := collectStats(t, "FFT", 0, 2000)
	if s.barriers == 0 {
		t.Error("FFT should emit barriers")
	}
	s = collectStats(t, "MP3D", 0, 2000)
	if s.barriers != 0 {
		t.Error("MP3D should not emit barriers")
	}
}

func TestWriteFractions(t *testing.T) {
	s := collectStats(t, "Radix", 0, 5000)
	wf := float64(s.stores) / float64(s.loads+s.stores)
	if wf < 0.2 || wf > 0.6 {
		t.Errorf("radix write fraction %.2f out of plausible band", wf)
	}
	s = collectStats(t, "Raytrace", 0, 5000)
	wf = float64(s.stores) / float64(s.loads+s.stores)
	if wf > 0.2 {
		t.Errorf("raytrace write fraction %.2f too high for a read-mostly app", wf)
	}
}

func TestParamsValidate(t *testing.T) {
	good, _ := AppParams("FFT", 16, 100, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	bad := good
	bad.SharedFraction = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("fraction > 1 accepted")
	}
	bad = good
	bad.RefsPerCore = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero refs accepted")
	}
	bad = good
	bad.Cores = 1
	if err := bad.Validate(); err == nil {
		t.Error("single core accepted")
	}
}

func BenchmarkGenerate(b *testing.B) {
	a, _ := NewNamedApp("MP3D", 16, 1<<30, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := a.Next(i % 16); !ok {
			b.Fatal("stream ended")
		}
	}
}

// TestNextAllocatesNothing pins the steady state of the generator: a
// reference queued behind a compute gap or barrier is held by value, so
// Next allocates nothing per call on a compute-heavy, barrier-carrying
// stream.
func TestNextAllocatesNothing(t *testing.T) {
	a, err := NewNamedApp("Water-nsq", 16, 1<<30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Params().ComputeMean == 0 {
		t.Fatal("Water-nsq has no compute gaps; the test needs a queued reference")
	}
	// AllocsPerRun floors the per-run average, so each run makes many
	// calls: an allocation on even a fraction of them shows.
	const callsPerRun = 256
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < callsPerRun; i++ {
			if _, ok := a.Next(i % 16); !ok {
				t.Fatal("stream ended")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%d Next calls allocate %.0f times, want 0", callsPerRun, allocs)
	}
}
