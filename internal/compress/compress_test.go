package compress

import (
	"math/rand"
	"testing"
	"testing/quick"
)

const testCores = 16

// roundTrip pushes addr through a codec on the given pair and asserts
// exact reconstruction.
func roundTrip(t *testing.T, c Codec, src, dst int, stream Stream, addr uint64) Encoded {
	t.Helper()
	e := c.Encode(src, dst, stream, addr)
	got := c.Decode(src, dst, stream, e)
	if got != addr {
		t.Fatalf("%s: round trip %#x -> %#x (compressed=%v)", c.Name(), addr, got, e.Compressed)
	}
	return e
}

func TestNoneNeverCompresses(t *testing.T) {
	c := NewNone()
	for i := 0; i < 100; i++ {
		e := roundTrip(t, c, 0, 1, RequestStream, uint64(i)*64)
		if e.Compressed {
			t.Fatal("None codec compressed")
		}
		if e.PayloadBytes != 8 {
			t.Fatalf("None payload %d bytes, want 8", e.PayloadBytes)
		}
	}
}

func TestPerfectAlwaysCompresses(t *testing.T) {
	for _, lo := range []int{1, 2} {
		c := NewPerfect(lo)
		e := c.Encode(3, 7, CommandStream, 0xdeadbeef00)
		if !e.Compressed || e.PayloadBytes != lo {
			t.Fatalf("perfect(%d): %+v", lo, e)
		}
	}
}

func TestPerfectRejectsBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPerfect(3) did not panic")
		}
	}()
	NewPerfect(3)
}

func TestDBRCFirstMissThenHit(t *testing.T) {
	c := NewDBRC(4, 2, testCores)
	// First touch: miss, full 8 bytes, install index published.
	e := roundTrip(t, c, 0, 5, RequestStream, 0x1234_5678)
	if e.Compressed || e.PayloadBytes != 8 || e.InstallIndex < 0 {
		t.Fatalf("first access should miss with install index: %+v", e)
	}
	// Same 64 KB region, same destination: hit, 2-byte payload.
	e = roundTrip(t, c, 0, 5, RequestStream, 0x1234_9abc)
	if !e.Compressed || e.PayloadBytes != 2 {
		t.Fatalf("second access should hit: %+v", e)
	}
}

func TestDBRCDestinationMaskForcesReinstall(t *testing.T) {
	c := NewDBRC(4, 2, testCores)
	roundTrip(t, c, 0, 5, RequestStream, 0x1000_0000)
	// Same base, different destination: the base is cached at the sender
	// but receiver 6 has never seen it, so it must go uncompressed once.
	e := roundTrip(t, c, 0, 6, RequestStream, 0x1000_0040)
	if e.Compressed {
		t.Fatalf("first message to a new destination must not compress: %+v", e)
	}
	// Now destination 6 knows the base.
	e = roundTrip(t, c, 0, 6, RequestStream, 0x1000_0080)
	if !e.Compressed {
		t.Fatalf("destination 6 should hit after install: %+v", e)
	}
	// And destination 5 still hits.
	e = roundTrip(t, c, 0, 5, RequestStream, 0x1000_00c0)
	if !e.Compressed {
		t.Fatalf("destination 5 lost its entry: %+v", e)
	}
}

// TestDBRCDestinationsAboveThirtyTwo covers the whole destination
// range: a sender's destination set is a bitset over every core, so at
// 1024 cores the second reference to a far tile compresses just as it
// does to tile 1. (A uint32 mask once shifted to zero for dst >= 32,
// and nothing sent there ever compressed.)
func TestDBRCDestinationsAboveThirtyTwo(t *testing.T) {
	c := NewDBRC(4, 2, 1024)
	for _, dst := range []int{1, 31, 32, 63, 64, 511, 1023} {
		addr := 0x4000_0000 + uint64(dst)<<20
		if e := roundTrip(t, c, 7, dst, RequestStream, addr); e.Compressed {
			t.Fatalf("dst %d: first reference compressed: %+v", dst, e)
		}
		if e := roundTrip(t, c, 7, dst, RequestStream, addr+64); !e.Compressed {
			t.Errorf("dst %d: second reference did not compress: %+v", dst, e)
		}
	}
	// One base, many destinations: each bit is independent.
	const shared = 0x7700_0000
	for _, dst := range []int{32, 511, 1023} {
		roundTrip(t, c, 9, dst, CommandStream, shared)
	}
	for _, dst := range []int{32, 511, 1023} {
		if e := roundTrip(t, c, 9, dst, CommandStream, shared+128); !e.Compressed {
			t.Errorf("dst %d: shared base did not compress on its second reference", dst)
		}
	}
	if e := roundTrip(t, c, 9, 33, CommandStream, shared+192); e.Compressed {
		t.Error("dst 33 compressed a base it was never sent")
	}
}

func TestDBRCLRUEviction(t *testing.T) {
	c := NewDBRC(2, 2, testCores)
	baseA, baseB, baseC := uint64(0xA_0000), uint64(0xB_0000), uint64(0xC_0000)
	roundTrip(t, c, 0, 1, RequestStream, baseA) // A installed
	roundTrip(t, c, 0, 1, RequestStream, baseB) // B installed
	roundTrip(t, c, 0, 1, RequestStream, baseA) // A touched (B now LRU)
	roundTrip(t, c, 0, 1, RequestStream, baseC) // C evicts B
	if e := roundTrip(t, c, 0, 1, RequestStream, baseC+4); !e.Compressed {
		t.Fatal("C should be cached")
	}
	if e := roundTrip(t, c, 0, 1, RequestStream, baseA+4); !e.Compressed {
		t.Fatal("A should still be cached")
	}
	// Checked last: probing B is itself a miss that reinstalls it.
	if e := roundTrip(t, c, 0, 1, RequestStream, baseB+4); e.Compressed {
		t.Fatal("B should have been evicted")
	}
}

func TestDBRCStreamsAreIndependent(t *testing.T) {
	c := NewDBRC(4, 2, testCores)
	roundTrip(t, c, 0, 1, RequestStream, 0x5555_0000)
	// The command stream has its own structures: same base misses.
	e := roundTrip(t, c, 0, 1, CommandStream, 0x5555_0040)
	if e.Compressed {
		t.Fatal("command stream shared state with request stream")
	}
}

func TestDBRCLowOrderBytesSetRegionSize(t *testing.T) {
	c1 := NewDBRC(4, 1, testCores)
	roundTrip(t, c1, 0, 1, RequestStream, 0x1000)
	// 1-byte LO: region is 256 B. 0x1100 is a different base.
	if e := roundTrip(t, c1, 0, 1, RequestStream, 0x1100); e.Compressed {
		t.Fatal("1B LO compressed across a 256B boundary")
	}
	c2 := NewDBRC(4, 2, testCores)
	roundTrip(t, c2, 0, 1, RequestStream, 0x1000)
	// 2-byte LO: region is 64 KB. 0x1100 shares the base.
	if e := roundTrip(t, c2, 0, 1, RequestStream, 0x1100); !e.Compressed {
		t.Fatal("2B LO missed inside a 64KB region")
	}
}

func TestDBRCDecodePanicsOnUninstalledEntry(t *testing.T) {
	c := NewDBRC(4, 2, testCores)
	defer func() {
		if recover() == nil {
			t.Fatal("decode of never-installed compressed entry did not panic")
		}
	}()
	c.Decode(0, 1, RequestStream, Encoded{Compressed: true, PayloadBytes: 2, Payload: 0x12, InstallIndex: 3})
}

// TestDBRCResetIsFlat pins the flat layout: resetting a codec makes the
// same few allocations at any core count, not one per endpoint pair.
func TestDBRCResetIsFlat(t *testing.T) {
	for _, cores := range []int{16, 256} {
		c := NewDBRC(4, 2, cores)
		if allocs := testing.AllocsPerRun(1, c.Reset); allocs != 4 {
			t.Errorf("%d cores: Reset made %.0f allocations, want 4", cores, allocs)
		}
	}
}

func TestDBRCConstructorValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewDBRC(0, 2, testCores) },
		func() { NewDBRC(300, 2, testCores) },
		func() { NewDBRC(4, 0, testCores) },
		func() { NewDBRC(4, 3, testCores) },
		func() { NewDBRC(4, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid DBRC config accepted")
				}
			}()
			f()
		}()
	}
}

func TestStrideSmallDeltasCompress(t *testing.T) {
	c := NewStride(2, testCores)
	e := roundTrip(t, c, 2, 9, RequestStream, 0x8000)
	if e.Compressed {
		t.Fatal("first stride message cannot compress")
	}
	// +64: fits easily in 2 bytes.
	e = roundTrip(t, c, 2, 9, RequestStream, 0x8040)
	if !e.Compressed || e.PayloadBytes != 2 {
		t.Fatalf("small positive delta: %+v", e)
	}
	// Negative delta too.
	e = roundTrip(t, c, 2, 9, RequestStream, 0x7fc0)
	if !e.Compressed {
		t.Fatalf("small negative delta: %+v", e)
	}
	// Huge jump: uncompressed, but base still updates.
	e = roundTrip(t, c, 2, 9, RequestStream, 0xdead_0000)
	if e.Compressed {
		t.Fatal("large delta compressed")
	}
	e = roundTrip(t, c, 2, 9, RequestStream, 0xdead_0040)
	if !e.Compressed {
		t.Fatal("base did not update after uncompressed message")
	}
}

func TestStrideDeltaLimits(t *testing.T) {
	// 1-byte deltas: [-128, 127].
	c := NewStride(1, testCores)
	roundTrip(t, c, 0, 1, RequestStream, 0x1000)
	if e := roundTrip(t, c, 0, 1, RequestStream, 0x1000+127); !e.Compressed {
		t.Fatal("+127 should compress in 1 byte")
	}
	roundTrip(t, c, 0, 1, RequestStream, 0x1000)
	if e := roundTrip(t, c, 0, 1, RequestStream, 0x1000+128); e.Compressed {
		t.Fatal("+128 must not compress in 1 byte")
	}
	roundTrip(t, c, 0, 1, RequestStream, 0x1000)
	if e := roundTrip(t, c, 0, 1, RequestStream, 0x1000-128); !e.Compressed {
		t.Fatal("-128 should compress in 1 byte")
	}
}

func TestStridePairsIndependent(t *testing.T) {
	c := NewStride(2, testCores)
	roundTrip(t, c, 0, 1, RequestStream, 0x4000)
	// Different destination: fresh base.
	if e := roundTrip(t, c, 0, 2, RequestStream, 0x4040); e.Compressed {
		t.Fatal("pairs shared a base register")
	}
	// Different source likewise.
	if e := roundTrip(t, c, 1, 1, RequestStream, 0x4040); e.Compressed {
		t.Fatal("sources shared a base register")
	}
}

// Property: any interleaving of addresses across pairs and streams
// round-trips exactly through every codec.
func TestRoundTripProperty(t *testing.T) {
	codecs := []struct {
		mk    func() Codec
		cores int
	}{
		{func() Codec { return NewNone() }, testCores},
		{func() Codec { return NewDBRC(4, 1, testCores) }, testCores},
		{func() Codec { return NewDBRC(4, 2, testCores) }, testCores},
		{func() Codec { return NewDBRC(16, 2, testCores) }, testCores},
		{func() Codec { return NewDBRC(4, 2, 1024) }, 1024},
		{func() Codec { return NewStride(1, testCores) }, testCores},
		{func() Codec { return NewStride(2, testCores) }, testCores},
	}
	for _, cc := range codecs {
		mk, cores := cc.mk, cc.cores
		f := func(seed int64, n uint8) bool {
			c := mk()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < int(n); i++ {
				src := rng.Intn(cores)
				dst := rng.Intn(cores)
				stream := Stream(rng.Intn(NumStreams))
				// Mix of clustered and scattered addresses.
				var addr uint64
				if rng.Intn(2) == 0 {
					addr = uint64(rng.Intn(1<<20)) &^ 63
				} else {
					addr = rng.Uint64() &^ 63
				}
				e := c.Encode(src, dst, stream, addr)
				if c.Decode(src, dst, stream, e) != addr {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", mk().Name(), err)
		}
	}
}

// Property: a sequential block stream to one destination reaches high
// coverage on every real scheme once warmed up.
func TestSequentialStreamCoverage(t *testing.T) {
	for _, c := range []Codec{
		NewDBRC(4, 2, testCores),
		NewDBRC(16, 2, testCores),
		NewStride(2, testCores),
	} {
		hits := 0
		const n = 1000
		for i := 0; i < n; i++ {
			addr := 0x10_0000 + uint64(i)*64
			e := c.Encode(1, 2, RequestStream, addr)
			c.Decode(1, 2, RequestStream, e)
			if e.Compressed {
				hits++
			}
		}
		if cov := float64(hits) / n; cov < 0.90 {
			t.Errorf("%s: sequential coverage %.2f, want > 0.90", c.Name(), cov)
		}
	}
	// With 1-byte LO the region is only 256 B (4 blocks), so a sequential
	// block stream caps at 3/4 coverage: one miss per region.
	c := NewDBRC(16, 1, testCores)
	hits := 0
	const n = 1000
	for i := 0; i < n; i++ {
		addr := 0x10_0000 + uint64(i)*64
		e := c.Encode(1, 2, RequestStream, addr)
		c.Decode(1, 2, RequestStream, e)
		if e.Compressed {
			hits++
		}
	}
	if cov := float64(hits) / n; cov < 0.73 || cov > 0.77 {
		t.Errorf("16-entry DBRC (1B LO): sequential coverage %.2f, want ~0.75", cov)
	}
}

// Scattered random addresses should defeat small DBRCs with 1-byte LO but
// not large-region 2-byte LO within a compact working set.
func TestScatterDefeatsSmallDBRC(t *testing.T) {
	small := NewDBRC(4, 1, testCores)
	rng := rand.New(rand.NewSource(42))
	hits := 0
	const n = 2000
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(1<<24)) &^ 63 // 16 MB working set
		e := small.Encode(0, 1, RequestStream, addr)
		small.Decode(0, 1, RequestStream, e)
		if e.Compressed {
			hits++
		}
	}
	if cov := float64(hits) / n; cov > 0.10 {
		t.Errorf("4-entry DBRC 1B LO coverage %.2f on 16MB scatter, want < 0.10", cov)
	}
}

func TestResetClearsState(t *testing.T) {
	c := NewDBRC(4, 2, testCores)
	roundTrip(t, c, 0, 1, RequestStream, 0x9000)
	if e := roundTrip(t, c, 0, 1, RequestStream, 0x9040); !e.Compressed {
		t.Fatal("warm-up failed")
	}
	c.Reset()
	if e := roundTrip(t, c, 0, 1, RequestStream, 0x9080); e.Compressed {
		t.Fatal("Reset did not clear DBRC state")
	}
	s := NewStride(2, testCores)
	roundTrip(t, s, 0, 1, RequestStream, 0x9000)
	s.Reset()
	if e := roundTrip(t, s, 0, 1, RequestStream, 0x9040); e.Compressed {
		t.Fatal("Reset did not clear stride state")
	}
}

func TestSpecLabelsAndBuild(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: "none"}, "baseline"},
		{Spec{Kind: "perfect", LowOrderBytes: 2}, "perfect (2B LO)"},
		{Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}, "4-entry DBRC (2B LO)"},
		{Spec{Kind: "stride", LowOrderBytes: 2}, "2-byte Stride"},
	}
	for _, c := range cases {
		if got := c.spec.Label(); got != c.want {
			t.Errorf("label %q, want %q", got, c.want)
		}
		codec, err := c.spec.Build(testCores)
		if err != nil {
			t.Errorf("%s: %v", c.want, err)
			continue
		}
		if c.spec.Kind != "none" && codec.Name() != c.want {
			t.Errorf("codec name %q, want %q", codec.Name(), c.want)
		}
	}
	if _, err := (Spec{Kind: "bogus"}).Build(testCores); err == nil {
		t.Error("bogus spec built")
	}
}

func TestFigureSpecsMatchPaper(t *testing.T) {
	if n := len(Figure2Specs()); n != 8 {
		t.Errorf("Figure 2 evaluates 8 configurations, got %d", n)
	}
	if n := len(Figure6Specs()); n != 6 {
		t.Errorf("Figure 6 shows 6 bar configurations, got %d", n)
	}
	// All Figure 6 specs are the >80%-coverage subset of Figure 2.
	fig2 := map[string]bool{}
	for _, s := range Figure2Specs() {
		fig2[s.Label()] = true
	}
	for _, s := range Figure6Specs() {
		if !fig2[s.Label()] {
			t.Errorf("Figure 6 spec %q not in Figure 2 set", s.Label())
		}
	}
	for _, s := range Figure6Specs() {
		if s.Table1Scheme() == "" {
			t.Errorf("Figure 6 spec %q has no Table 1 hardware cost", s.Label())
		}
	}
}

func BenchmarkDBRCEncode(b *testing.B) {
	c := NewDBRC(16, 2, testCores)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1024)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<22)) &^ 63
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		e := c.Encode(i%testCores, (i+1)%testCores, RequestStream, a)
		c.Decode(i%testCores, (i+1)%testCores, RequestStream, e)
	}
}

func BenchmarkStrideEncode(b *testing.B) {
	c := NewStride(2, testCores)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := uint64(i*64) & (1<<24 - 1)
		e := c.Encode(0, 1, RequestStream, a)
		c.Decode(0, 1, RequestStream, e)
	}
}
