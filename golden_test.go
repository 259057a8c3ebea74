package tilesim

// Golden and byte-identity guards for the topology refactor
// (DESIGN.md §14.5): the pluggable-topology network must be
// observationally identical to the pre-refactor fixed 4x4 mesh, and
// every topology must stay same-seed deterministic at scale.
//
// testdata/golden holds metrics snapshots and tilesim stdout captured
// from the pre-refactor simulator (the commit before the Topology
// interface landed) at the fault-smoke configuration. The metrics
// halves are enforced here; the stdout halves are enforced by the CI
// topology-smoke job, which runs the actual binary.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/fault"
	"tilesim/internal/sweep"
)

// goldenConfig is the configuration the goldens were captured at:
// the fault-smoke CI configuration, with and without fault injection.
func goldenConfig(faults bool) cmp.RunConfig {
	cfg := cmp.RunConfig{
		App: "FFT", RefsPerCore: 2000, WarmupRefs: 500, Seed: 1,
		Compression:   compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		Heterogeneous: true,
	}
	if faults {
		cfg.Faults = fault.Config{BER: 1e-5, VLBERScale: 4}
	}
	return cfg
}

func metricsJSON(t testing.TB, cfg cmp.RunConfig) []byte {
	t.Helper()
	r, err := cmp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenMetricsUnchanged proves the 4x4 default is byte-identical
// to the pre-refactor simulator: the refactored network must reproduce
// the captured metrics snapshots bit for bit, fault-free and at high
// BER. Runs under -race too (the CI test job), so the byte-identity
// claim is also a data-race claim.
func TestGoldenMetricsUnchanged(t *testing.T) {
	cases := []struct {
		name   string
		faults bool
	}{
		{"mesh4x4-faultfree", false},
		{"mesh4x4-ber1e5", true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", c.name+".metrics.json"))
			if err != nil {
				t.Fatalf("golden missing (regenerate per testdata/golden/README.md): %v", err)
			}
			got := metricsJSON(t, goldenConfig(c.faults))
			if !bytes.Equal(got, want) {
				t.Errorf("metrics diverged from the pre-refactor golden (%d vs %d bytes); "+
					"if the change is deliberate, regenerate testdata/golden and bump cmp.SimVersion",
					len(got), len(want))
			}
		})
	}
}

// TestTopologiesByteIdentical64 proves same-seed determinism survives
// the scale-out: on every topology at 64 tiles, two identical runs
// produce byte-identical metrics snapshots. Runs under -race in CI.
func TestTopologiesByteIdentical64(t *testing.T) {
	if testing.Short() {
		t.Skip("eight 64-tile simulations")
	}
	for _, topo := range cmp.TopologyNames {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig(false)
			cfg.Topology, cfg.Tiles = topo, 64
			cfg.RefsPerCore, cfg.WarmupRefs = 500, 250
			a := metricsJSON(t, cfg)
			b := metricsJSON(t, cfg)
			if !bytes.Equal(a, b) {
				t.Errorf("%s: same-seed 64-tile runs differ (%d vs %d bytes)", topo, len(a), len(b))
			}
		})
	}
}

// updateTopologyDigests rewrites testdata/golden/topology-digests.txt
// from the current simulator instead of checking against it:
//
//	go test -run TestTopologyDigests -update-topology-digests .
//
// Only for a deliberate behavior change, together with a SimVersion bump.
var updateTopologyDigests = flag.Bool("update-topology-digests", false,
	"rewrite testdata/golden/topology-digests.txt instead of checking it")

// topologyDigestCase is one row of the non-default topology digest table.
type topologyDigestCase struct {
	topo, scheme string
	faults       bool
}

func (c topologyDigestCase) name() string {
	ber := "faultfree"
	if c.faults {
		ber = "ber1e5"
	}
	return fmt.Sprintf("%s64-%s-%s", c.topo, c.scheme, ber)
}

func (c topologyDigestCase) config() cmp.RunConfig {
	cfg := goldenConfig(c.faults)
	cfg.Topology, cfg.Tiles = c.topo, 64
	cfg.RefsPerCore, cfg.WarmupRefs = 500, 250
	if c.scheme == "stride" {
		cfg.Compression = compress.Spec{Kind: "stride", LowOrderBytes: 2}
	}
	return cfg
}

func topologyDigestCases() []topologyDigestCase {
	var cs []topologyDigestCase
	for _, topo := range cmp.TopologyNames {
		for _, scheme := range []string{"dbrc", "stride"} {
			for _, faults := range []bool{false, true} {
				cs = append(cs, topologyDigestCase{topo, scheme, faults})
			}
		}
	}
	return cs
}

// TestTopologyDigests pins the non-default topologies the 4x4 goldens
// do not reach: mesh, cmesh, torus and slim at 64 tiles, fault-free and
// at BER 1e-5, under 4-entry 2B DBRC and 2-byte Stride. Each row of
// testdata/golden/topology-digests.txt is "<case> <sweep.Digest>".
func TestTopologyDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("sixteen 64-tile simulations")
	}
	path := filepath.Join("testdata", "golden", "topology-digests.txt")
	cases := topologyDigestCases()
	got := make([]string, len(cases))
	t.Run("run", func(t *testing.T) {
		for i, c := range cases {
			i, c := i, c
			t.Run(c.name(), func(t *testing.T) {
				t.Parallel()
				r, err := cmp.Run(c.config())
				if err != nil {
					t.Fatal(err)
				}
				got[i] = c.name() + " " + sweep.Digest(r)
			})
		}
	})
	if t.Failed() {
		return
	}
	if *updateTopologyDigests {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("digest table missing (regenerate with -update-topology-digests): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("digest table has %d rows, want %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d diverged:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
