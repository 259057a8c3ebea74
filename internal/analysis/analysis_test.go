package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runFixture loads and analyzes one corpus package under testdata/src.
// Fixture directories are invisible to ./... wildcards (the go tool
// skips testdata), but resolve fine as explicit relative paths.
func runFixture(t *testing.T, name string) []Diagnostic {
	t.Helper()
	diags, err := Run(".", []string{"./testdata/src/" + name})
	if err != nil {
		t.Fatalf("Run(%s): %v", name, err)
	}
	return diags
}

func TestFixtureFindings(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer string
		want     int
	}{
		{"badmaprange", "determinism", 1},
		{"badtime", "taint", 2},
		{"badrand", "taint", 1},
		{"badpanic", "panics", 3},
		{"badunits", "units", 7},
		{"badswitch", "exhaustive", 1},
		{"badsort", "stablesort", 1},
		{"badfloat", "determinism", 3},
		{"badhotalloc", "hotalloc", 11},
		{"badsharedstate", "sharedstate", 6},
		{"badpoollife", "poollife", 12},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			diags := runFixture(t, c.fixture)
			if len(diags) != c.want {
				t.Fatalf("%s: got %d findings, want %d:\n%s",
					c.fixture, len(diags), c.want, render(diags))
			}
			for _, d := range diags {
				if d.Analyzer != c.analyzer {
					t.Errorf("%s: finding from analyzer %q, want %q: %s",
						c.fixture, d.Analyzer, c.analyzer, d)
				}
				if d.File == "" || d.Line == 0 {
					t.Errorf("%s: finding without a position: %+v", c.fixture, d)
				}
				if !strings.Contains(d.File, c.fixture) {
					t.Errorf("%s: finding in unexpected file %s", c.fixture, d.File)
				}
			}
		})
	}
}

// TestFixtureFindingsAnchored pins each fixture's findings to the lines
// marked "want:" in its source, so the analyzers cannot drift to
// flagging the wrong statements while keeping the right counts.
func TestFixtureFindingsAnchored(t *testing.T) {
	cases := []struct {
		fixture string
		lines   []int
	}{
		{"badmaprange", []int{9}},
		{"badtime", []int{9, 14}},
		{"badrand", []int{10}},
		{"badpanic", []int{11, 14, 17}},
		{"badunits", []int{19, 24, 29, 34, 39, 45, 52}},
		{"badswitch", []int{18}},
		{"badsort", []int{16}},
		{"badfloat", []int{15, 23, 32}},
		{"badtaint", []int{16, 19, 24, 31, 35}},
		{"badhotalloc", []int{26, 28, 30, 31, 32, 37, 39, 41, 43, 54, 55}},
		{"badsharedstate", []int{34, 37, 38, 40, 44, 58}},
		{"badpoollife", []int{61, 70, 77, 83, 89, 96, 101, 111, 119, 122, 128, 133}},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			diags := runFixture(t, c.fixture)
			got := make(map[int]bool)
			for _, d := range diags {
				got[d.Line] = true
			}
			for _, line := range c.lines {
				if !got[line] {
					t.Errorf("%s: no finding on line %d:\n%s", c.fixture, line, render(diags))
				}
			}
		})
	}
}

// TestTaintFixture checks both halves of the taint rule: badtime's
// direct wall-clock reads are reported at the callsite with no chain,
// and badtaint's callers that reach the wall clock or the global rand
// source only through helpers and a stored function value are reported
// with a readable call chain (alongside the two direct references).
func TestTaintFixture(t *testing.T) {
	cases := []struct {
		fixture       string
		direct, chain int
	}{
		{"badtime", 2, 0},
		{"badtaint", 2, 3},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			diags := runFixture(t, c.fixture)
			direct, chain := 0, 0
			for _, d := range diags {
				switch {
				case d.Analyzer != "taint":
					t.Errorf("finding from analyzer %q, want taint: %s", d.Analyzer, d)
				case strings.Contains(d.Message, " -> "):
					chain++
				default:
					direct++
				}
			}
			if direct != c.direct || chain != c.chain {
				t.Fatalf("got %d direct and %d chained findings, want %d and %d:\n%s",
					direct, chain, c.direct, c.chain, render(diags))
			}
		})
	}
}

// TestGoldenFixtures compares the full rendered diagnostics of each
// new-rule fixture against its checked-in want.txt, pinning message
// wording, positions, and ordering all at once.
func TestGoldenFixtures(t *testing.T) {
	for _, fixture := range []string{"badsort", "badfloat", "badtaint", "badhotalloc", "badsharedstate", "badpoollife"} {
		t.Run(fixture, func(t *testing.T) {
			diags := runFixture(t, fixture)
			var b strings.Builder
			for _, d := range diags {
				line := d.String()
				if i := strings.Index(line, "testdata/src/"); i >= 0 {
					line = line[i+len("testdata/src/"):]
				}
				b.WriteString(line + "\n")
			}
			want, err := os.ReadFile(filepath.Join("testdata", "src", fixture, "want.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("diagnostics drifted from want.txt:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

func TestCleanFixture(t *testing.T) {
	for _, fixture := range []string{"clean", "cleanpool"} {
		if diags := runFixture(t, fixture); len(diags) != 0 {
			t.Fatalf("%s fixture produced findings:\n%s", fixture, render(diags))
		}
	}
}

// TestRepoIsClean is the tilesimvet gate: the whole module must
// analyze without findings, so `go test ./...` fails on any finding
// `go run ./cmd/tilesimvet ./...` would print.
func TestRepoIsClean(t *testing.T) {
	diags, err := Run("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("Run(./...): %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("module has tilesimvet findings:\n%s", render(diags))
	}
}

func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}
