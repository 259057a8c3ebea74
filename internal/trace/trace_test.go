package trace

import (
	"slices"
	"strings"
	"testing"

	"tilesim/internal/workload"
)

func sample() *Trace {
	t := New(2)
	t.Append(0, workload.Op{Kind: workload.OpLoad, Addr: 0x1000})
	t.Append(0, workload.Op{Kind: workload.OpCompute, Cycles: 7})
	t.Append(0, workload.Op{Kind: workload.OpStore, Addr: 0x1040})
	t.Append(1, workload.Op{Kind: workload.OpBarrier})
	t.Append(1, workload.Op{Kind: workload.OpLoad, Addr: 0x1000})
	return t
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	orig := sample()
	var b strings.Builder
	if err := orig.Encode(&b); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(strings.NewReader(b.String()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cores() != 2 || got.Len() != orig.Len() {
		t.Fatalf("decoded %d cores / %d ops", got.Cores(), got.Len())
	}
	for core := 0; core < 2; core++ {
		for {
			wantOp, wantOK := orig.Next(core)
			gotOp, gotOK := got.Next(core)
			if wantOK != gotOK {
				t.Fatalf("core %d stream lengths differ", core)
			}
			if !wantOK {
				break
			}
			if wantOp != gotOp {
				t.Fatalf("core %d: %+v != %+v", core, gotOp, wantOp)
			}
		}
	}
}

func TestReplayImplementsGenerator(t *testing.T) {
	var _ workload.Generator = New(1)
	tr := sample()
	n := 0
	for {
		if _, ok := tr.Next(0); !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("core 0 replayed %d ops", n)
	}
	tr.Reset()
	if _, ok := tr.Next(0); !ok {
		t.Fatal("reset did not rewind")
	}
}

func TestCaptureFromWorkload(t *testing.T) {
	gen, err := workload.NewNamedApp("FFT", 16, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := Capture(gen, 16)
	if tr.Len() == 0 {
		t.Fatal("empty capture")
	}
	s := tr.Summarize()
	if s.Loads+s.Stores != 16*50 {
		t.Fatalf("captured %d refs, want %d", s.Loads+s.Stores, 16*50)
	}
	if s.Blocks == 0 || s.SharedPct <= 0 {
		t.Fatalf("summary looks empty: %+v", s)
	}
	// Captured trace replays identically to a fresh generator.
	gen.Reset()
	for core := 0; core < 16; core++ {
		for {
			want, wantOK := gen.Next(core)
			got, gotOK := tr.Next(core)
			if wantOK != gotOK {
				t.Fatalf("core %d: stream length mismatch", core)
			}
			if !wantOK {
				break
			}
			if want != got {
				t.Fatalf("core %d: %+v != %+v", core, got, want)
			}
		}
	}
}

// TestRoundTripInterleavedWithComments decodes a file whose core
// streams interleave arbitrarily between comment lines, re-encodes it,
// and parses the result again: per-core op order must survive both
// directions, and re-encoding the re-parsed trace must be
// byte-identical (the format is canonical).
func TestRoundTripInterleavedWithComments(t *testing.T) {
	in := strings.Join([]string{
		"# interleaved capture",
		"1 L 2000",
		"0 L 1000",
		"# core 0 computes while core 1 stores",
		"0 C 5",
		"1 S 2040",
		"2 B",
		"0 S 1040",
		"# trailing comment",
		"1 B",
	}, "\n") + "\n"
	first, err := Decode(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cores() != 3 || first.Len() != 7 {
		t.Fatalf("decoded %d cores / %d ops, want 3 / 7", first.Cores(), first.Len())
	}

	var enc1 strings.Builder
	if err := first.Encode(&enc1); err != nil {
		t.Fatal(err)
	}
	second, err := Decode(strings.NewReader(enc1.String()), 0)
	if err != nil {
		t.Fatal(err)
	}

	// Per-core order from the interleaved file is preserved through
	// write → parse.
	want := map[int][]workload.Op{
		0: {
			{Kind: workload.OpLoad, Addr: 0x1000},
			{Kind: workload.OpCompute, Cycles: 5},
			{Kind: workload.OpStore, Addr: 0x1040},
		},
		1: {
			{Kind: workload.OpLoad, Addr: 0x2000},
			{Kind: workload.OpStore, Addr: 0x2040},
			{Kind: workload.OpBarrier},
		},
		2: {{Kind: workload.OpBarrier}},
	}
	for core, ops := range want {
		for i, w := range ops {
			got, ok := second.Next(core)
			if !ok {
				t.Fatalf("core %d: stream ended at op %d", core, i)
			}
			if got != w {
				t.Fatalf("core %d op %d: %+v, want %+v", core, i, got, w)
			}
		}
		if _, ok := second.Next(core); ok {
			t.Fatalf("core %d: stream longer than recorded", core)
		}
	}

	var enc2 strings.Builder
	if err := second.Encode(&enc2); err != nil {
		t.Fatal(err)
	}
	if enc1.String() != enc2.String() {
		t.Fatal("re-encoding a round-tripped trace changed the bytes")
	}
}

// TestRecordWriteParseReplay exercises the full chain the replay
// front-end relies on: capture a real generator, write the text
// format, parse it back, and replay — every core's op stream must be
// identical to a fresh generator's.
func TestRecordWriteParseReplay(t *testing.T) {
	gen, err := workload.NewNamedApp("MP3D", 16, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	recorded := Capture(gen, 16)

	var b strings.Builder
	if err := recorded.Encode(&b); err != nil {
		t.Fatal(err)
	}
	replayed, err := Decode(strings.NewReader(b.String()), 16)
	if err != nil {
		t.Fatal(err)
	}

	gen.Reset()
	for core := 0; core < 16; core++ {
		n := 0
		for {
			want, wantOK := gen.Next(core)
			got, gotOK := replayed.Next(core)
			if wantOK != gotOK {
				t.Fatalf("core %d: stream length diverges after %d ops", core, n)
			}
			if !wantOK {
				break
			}
			if want != got {
				t.Fatalf("core %d op %d: replayed %+v, want %+v", core, n, got, want)
			}
			n++
		}
		if n == 0 {
			t.Fatalf("core %d: empty stream", core)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"x L 40", // bad core
		"0 L",    // missing addr
		"0 L zz", // bad addr
		"0 C",    // missing cycles
		"0 C -1", // negative cycles
		"0 Q",    // unknown op
		"0",      // short line
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c), 0); err == nil {
			t.Errorf("line %q accepted", c)
		}
	}
	// Forced core count below the max seen.
	if _, err := Decode(strings.NewReader("5 B\n"), 2); err == nil {
		t.Error("core 5 accepted with forced count 2")
	}
	// A core id past the tile limit is rejected with its line number,
	// before any per-core slice is sized from it.
	if _, err := Decode(strings.NewReader("0 B\n1024 B\n"), 0); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("core 1024 not rejected with its line: %v", err)
	}
	// Empty trace without a core count.
	if _, err := Decode(strings.NewReader("# nothing\n"), 0); err == nil {
		t.Error("empty trace without core count accepted")
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	in := "# header\n\n0 L 40\n  \n# more\n1 B\n"
	tr, err := Decode(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.Cores() != 2 {
		t.Fatalf("decoded %d ops / %d cores", tr.Len(), tr.Cores())
	}
}

// FuzzDecode checks that Decode never panics on any input, and that a
// trace it accepts re-encodes and re-decodes to the same streams.
func FuzzDecode(f *testing.F) {
	var b strings.Builder
	if err := sample().Encode(&b); err != nil {
		f.Fatal(err)
	}
	f.Add(b.String())
	f.Add("# interleaved capture\n1 L 2000\n0 L 1000\n0 C 5\n1 S 2040\n2 B\n0 S 1040\n1 B\n")
	f.Add("# header\n\n0 L 40\n  \n# more\n1 B\n")
	f.Add("1023 B\n")
	f.Fuzz(func(t *testing.T, in string) {
		first, err := Decode(strings.NewReader(in), 0)
		if err != nil {
			return
		}
		var enc strings.Builder
		if err := first.Encode(&enc); err != nil {
			t.Fatalf("encode of a decoded trace: %v", err)
		}
		second, err := Decode(strings.NewReader(enc.String()), 0)
		if err != nil {
			t.Fatalf("re-decode: %v\n%s", err, enc.String())
		}
		if first.Cores() != second.Cores() {
			t.Fatalf("cores %d, re-decoded %d", first.Cores(), second.Cores())
		}
		for core := range first.ops {
			if !slices.Equal(first.ops[core], second.ops[core]) {
				t.Fatalf("core %d: %v, re-decoded %v", core, first.ops[core], second.ops[core])
			}
		}
	})
}
