package mesh

import (
	"strings"
	"testing"

	"tilesim/internal/noc"
	"tilesim/internal/sim"
)

// mustPanic runs fn and returns the recovered panic message, failing
// the test if fn returns normally or panics with a non-string value.
func mustPanic(t *testing.T, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected panic, got normal return")
			}
			s, ok := r.(string)
			if !ok {
				t.Fatalf("panic value %T (%v), want string", r, r)
			}
			msg = s
		}()
		fn()
	}()
	return msg
}

// emptyLegs is a mesh whose routes are all empty, so no link is the
// one-hop route its port table needs.
type emptyLegs struct{ Mesh }

func (emptyLegs) Legs(src, dst int) Legs { return Legs{} }

// sharedPort is a mesh that routes −X hops out of the +X port, so a
// router with both neighbours maps two links to one port.
type sharedPort struct{ Mesh }

func (m sharedPort) Legs(src, dst int) Legs {
	l := m.Mesh.Legs(src, dst)
	if l.First.Port == 1 {
		l.First.Port = 0
	}
	return l
}

// TestPanicPaths drives every defensive panic in the mesh and checks
// both that it fires and that its message carries the "mesh: " prefix
// tilesimvet's panic-hygiene rule demands.
func TestPanicPaths(t *testing.T) {
	newNet := func(cfg Config) *Network {
		return New(sim.NewKernel(), cfg, nil)
	}
	cases := []struct {
		name string
		want string // substring of the panic message
		fn   func()
	}{
		{
			name: "no bulk channel",
			want: "bulk channel",
			fn: func() {
				newNet(Config{Width: 4, Height: 4, RouterLatency: 2})
			},
		},
		{
			name: "zero router latency",
			want: "router latency",
			fn: func() {
				cfg := DefaultBaseline()
				cfg.RouterLatency = 0
				newNet(cfg)
			},
		},
		{
			name: "malformed message",
			want: "malformed",
			fn: func() {
				n := newNet(DefaultBaseline())
				n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 0, SizeBytes: 11})
			},
		},
		{
			name: "both VL and PW requested",
			want: "both VL and PW",
			fn: func() {
				n := newNet(DefaultBaseline())
				n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 11, VL: true, PW: true})
			},
		},
		{
			name: "absent VL plane",
			want: "absent plane",
			fn: func() {
				n := newNet(DefaultBaseline()) // baseline has no VL channel
				n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 11, VL: true})
			},
		},
		{
			name: "link not one hop",
			want: "not one hop",
			fn: func() {
				cfg := DefaultBaseline()
				cfg.Topo = emptyLegs{NewMesh(4, 4)}
				newNet(cfg)
			},
		},
		{
			name: "two links share a port",
			want: "share port",
			fn: func() {
				cfg := DefaultBaseline()
				cfg.Topo = sharedPort{NewMesh(4, 4)}
				newNet(cfg)
			},
		},
		{
			name: "missing handler",
			want: "no handler",
			fn: func() {
				k := sim.NewKernel()
				n := New(k, DefaultBaseline(), nil)
				// No SetHandler calls: delivery must panic, not drop.
				n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 11})
				k.Run(nil)
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			msg := mustPanic(t, c.fn)
			if !strings.HasPrefix(msg, "mesh: ") {
				t.Errorf("panic %q does not carry the \"mesh: \" prefix", msg)
			}
			if !strings.Contains(msg, c.want) {
				t.Errorf("panic %q does not mention %q", msg, c.want)
			}
		})
	}
}
