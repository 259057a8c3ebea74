package cmp

import (
	"reflect"
	"strings"
	"testing"

	"tilesim/internal/compress"
	"tilesim/internal/workload"
)

func TestCanonicalNormalizesEquivalentSpellings(t *testing.T) {
	base := RunConfig{
		App: "FFT", RefsPerCore: 1000, WarmupRefs: 400, Seed: 1,
		Compression:   compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		Heterogeneous: true,
	}
	explicit := base
	explicit.Heterogeneous = false
	explicit.Wiring = "vlb"
	a, err := base.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("Heterogeneous=true and Wiring=vlb encode differently:\n  %s\n  %s", a, b)
	}

	// lpw implies Reply Partitioning; the implied and explicit forms
	// must encode identically.
	lpw := RunConfig{App: "FFT", RefsPerCore: 1000, Seed: 1, Wiring: "lpw"}
	lpwExplicit := lpw
	lpwExplicit.ReplyPartitioning = true
	a, err = lpw.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err = lpwExplicit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("implied and explicit Reply Partitioning encode differently:\n  %s\n  %s", a, b)
	}
	if !strings.Contains(a, "rp=true") {
		t.Errorf("lpw encoding should fold in Reply Partitioning: %s", a)
	}
}

func TestCanonicalRejectsGeneratorConfigs(t *testing.T) {
	gen, err := workload.NewNamedApp("FFT", 16, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{App: "FFT", RefsPerCore: 100, Seed: 1, Generator: gen}
	if _, err := cfg.Canonical(); err == nil {
		t.Error("config with custom Generator must have no canonical encoding")
	}
}

// TestCanonicalCoversEveryField guards the encoding against silently
// dropping a newly added RunConfig field: every current field must
// influence the string. Fields of module struct types are covered field
// by field (Compression.Kind, ...), unless the type carries its own
// Canonical() method and coverage test (fault.Config).
func TestCanonicalCoversEveryField(t *testing.T) {
	base := RunConfig{
		App: "FFT", RefsPerCore: 1000, WarmupRefs: 400, Seed: 1,
		Compression: compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
	}
	enc := func(c RunConfig) string {
		t.Helper()
		s, err := c.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := enc(base)
	mutate := map[string]func(*RunConfig){
		"App":                       func(c *RunConfig) { c.App = "MP3D" },
		"RefsPerCore":               func(c *RunConfig) { c.RefsPerCore++ },
		"WarmupRefs":                func(c *RunConfig) { c.WarmupRefs++ },
		"Seed":                      func(c *RunConfig) { c.Seed++ },
		"Topology":                  func(c *RunConfig) { c.Topology = "torus" },
		"Tiles":                     func(c *RunConfig) { c.Tiles = 64 },
		"Compression.Kind":          func(c *RunConfig) { c.Compression.Kind = "stride" },
		"Compression.Entries":       func(c *RunConfig) { c.Compression.Entries++ },
		"Compression.LowOrderBytes": func(c *RunConfig) { c.Compression.LowOrderBytes = 1 },
		"Heterogeneous":             func(c *RunConfig) { c.Heterogeneous = true },
		"Wiring":                    func(c *RunConfig) { c.Wiring = "vlbpw" },
		"ReplyPartitioning":         func(c *RunConfig) { c.ReplyPartitioning = true },
		"RouterLatency":             func(c *RunConfig) { c.RouterLatency = 4 },
		"LinkCyclesScale":           func(c *RunConfig) { c.LinkCyclesScale = 0.5 },
		"Faults":                    func(c *RunConfig) { c.Faults.BER = 1e-6 },
		"SeriesInterval":            func(c *RunConfig) { c.SeriesInterval = 1024 },
	}
	for name, mut := range mutate {
		cfg := base
		mut(&cfg)
		if enc(cfg) == ref {
			t.Errorf("mutating %s does not change the canonical encoding", name)
		}
	}
	// Disabled fault injection must not perturb pre-fault cache keys.
	if strings.Contains(ref, "faults=") {
		t.Errorf("fault-free encoding mentions faults: %s", ref)
	}
	// Disabled series sampling must not perturb pre-series cache keys.
	if strings.Contains(ref, "series=") {
		t.Errorf("series-free encoding mentions series: %s", ref)
	}

	// Completeness: every RunConfig field must appear above, so adding
	// a field without extending Canonical() (and this test) fails.
	// Generator is the deliberate exception — it makes a config
	// uncacheable instead of encoding.
	for _, path := range canonicalFieldPaths(reflect.TypeOf(RunConfig{}), "") {
		if path == "Generator" {
			continue
		}
		if _, ok := mutate[path]; !ok {
			t.Errorf("RunConfig field %s is not covered: extend Canonical() and this test", path)
		}
	}
}

// canonicalFieldPaths lists the dotted field paths of a struct type
// that a canonical encoding must cover. It recurses into fields whose
// type is a struct declared in this module, except types with their
// own Canonical() method: those are one path, covered by their own
// test.
func canonicalFieldPaths(typ reflect.Type, prefix string) []string {
	var paths []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		path := prefix + f.Name
		_, ownCanonical := f.Type.MethodByName("Canonical")
		if f.Type.Kind() == reflect.Struct && strings.HasPrefix(f.Type.PkgPath(), "tilesim/") && !ownCanonical {
			paths = append(paths, canonicalFieldPaths(f.Type, path+".")...)
			continue
		}
		paths = append(paths, path)
	}
	return paths
}
