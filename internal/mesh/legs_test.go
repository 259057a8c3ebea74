package mesh

import (
	"fmt"
	"slices"
	"testing"
)

// refRoute is the reference the two-leg routes are checked against: the
// router-by-router walk the topologies used before routes became legs.
// It appends the routers of the route from src to dst (src excluded)
// to buf.
func refRoute(buf []int, topo Topology, src, dst int) []int {
	switch t := topo.(type) {
	case Mesh:
		return refRouteXY(buf, t.grid, src, dst, false)
	case CMesh:
		return refRouteXY(buf, t.grid, src, dst, false)
	case Torus:
		return refRouteXY(buf, t.grid, src, dst, true)
	case Slim:
		a, b := t.CoordOf(src), t.CoordOf(dst)
		if a.X != b.X {
			a.X = b.X
			buf = append(buf, t.IDOf(a))
		}
		if a.Y != b.Y {
			a.Y = b.Y
			buf = append(buf, t.IDOf(a))
		}
		return buf
	}
	panic(fmt.Sprintf("refRoute: no reference for %T", topo))
}

// refRouteXY resolves X fully, then Y, one grid coordinate at a time.
func refRouteXY(buf []int, g grid, src, dst int, wrap bool) []int {
	a, b := g.CoordOf(src), g.CoordOf(dst)
	for a.X != b.X {
		a.X = refAxisStep(a.X, b.X, g.W, wrap)
		buf = append(buf, g.IDOf(a))
	}
	for a.Y != b.Y {
		a.Y = refAxisStep(a.Y, b.Y, g.H, wrap)
		buf = append(buf, g.IDOf(a))
	}
	return buf
}

// refAxisStep moves one unit from toward to on an axis of size n: on a
// wrapped axis the shorter way around, ties toward +.
func refAxisStep(from, to, n int, wrap bool) int {
	if !wrap {
		if from < to {
			return from + 1
		}
		return from - 1
	}
	fwd := (to - from + n) % n
	if fwd <= n-fwd {
		return (from + 1) % n
	}
	return (from - 1 + n) % n
}

// walkLegs follows Legs(src, dst) through a port table built by
// portTable and appends the routers it reaches (src excluded) to buf.
// It fails on a port the router lacks and on a walk that does not end
// at dst.
func walkLegs(buf []int, topo Topology, table []int32, ports int, links []Link, src, dst int) ([]int, error) {
	legs := topo.Legs(src, dst)
	at := src
	for _, leg := range [2]Leg{legs.First, legs.Second} {
		p := int(leg.Port)
		for h := int32(0); h < leg.Hops; h++ {
			if p < 0 || p >= ports || table[at*ports+p] < 0 {
				return buf, fmt.Errorf("%d->%d: router %d has no port %d (legs %+v)", src, dst, at, p, legs)
			}
			at = links[table[at*ports+p]].To
			buf = append(buf, at)
		}
	}
	if at != dst {
		return buf, fmt.Errorf("%d->%d: legs %+v end at %d", src, dst, legs, at)
	}
	return buf, nil
}

// checkLegs walks the route from src to dst and checks it against the
// reference: it reaches dst in exactly Hops(src, dst) hops, every hop
// crosses a real link, and it visits the reference route's routers.
func checkLegs(topo Topology, table []int32, ports int, links []Link, src, dst int, got, want []int) ([]int, []int, error) {
	got, err := walkLegs(got[:0], topo, table, ports, links, src, dst)
	if err != nil {
		return got, want, err
	}
	want = refRoute(want[:0], topo, src, dst)
	if len(got) != topo.Hops(src, dst) {
		return got, want, fmt.Errorf("%d->%d: %d hops, Hops says %d", src, dst, len(got), topo.Hops(src, dst))
	}
	if !slices.Equal(got, want) {
		return got, want, fmt.Errorf("%d->%d: legs walk %v, reference %v", src, dst, got, want)
	}
	return got, want, nil
}

// legsWalker returns a function that walks Legs through topo's port
// table, failing t on a port a router lacks.
func legsWalker(t *testing.T, topo Topology) func(src, dst int) []int {
	t.Helper()
	links := topo.Links()
	table, ports := portTable(topo, links)
	return func(src, dst int) []int {
		t.Helper()
		route, err := walkLegs(nil, topo, table, ports, links, src, dst)
		if err != nil {
			t.Fatalf("%s: %v", topo.Label(), err)
		}
		return route
	}
}

// TestLegsFollowReferenceRoutes walks every router pair of all four
// topologies at 16, 64 and 1024 tiles, plus degenerate rows and an
// odd-sized torus, through a network's port table and compares each
// walk with the reference route.
func TestLegsFollowReferenceRoutes(t *testing.T) {
	topos := []Topology{
		NewMesh(4, 4), NewCMesh(2, 2, 4), NewTorus(4, 4), NewSlim(4, 4),
		NewMesh(8, 8), NewCMesh(4, 4, 4), NewTorus(8, 8), NewSlim(8, 8),
		NewMesh(32, 32), NewCMesh(16, 16, 4), NewTorus(32, 32), NewSlim(32, 32),
		NewMesh(1, 5), NewMesh(5, 1), NewTorus(3, 5), NewSlim(2, 3),
	}
	for _, topo := range topos {
		t.Run(topo.Label(), func(t *testing.T) {
			cfg := DefaultBaseline()
			cfg.Topo = topo
			n := New(nil, cfg, nil)
			var got, want []int
			var err error
			for src := 0; src < topo.Nodes(); src++ {
				for dst := 0; dst < topo.Nodes(); dst++ {
					got, want, err = checkLegs(topo, n.portLink, n.ports, n.links, src, dst, got, want)
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// FuzzLegs checks the routing contract on arbitrary legal grids: the
// legs walk from src reaches dst in exactly Hops(src, dst) hops, each
// over a real link, and equals the reference route.
func FuzzLegs(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(4), uint16(0), uint16(15))
	f.Add(uint8(1), uint8(4), uint8(4), uint16(3), uint16(12))
	f.Add(uint8(2), uint8(8), uint8(8), uint16(0), uint16(4))
	f.Add(uint8(3), uint8(8), uint8(8), uint16(9), uint16(54))
	f.Add(uint8(0), uint8(1), uint8(7), uint16(6), uint16(0))
	f.Fuzz(func(t *testing.T, kind, w, h uint8, src, dst uint16) {
		// clamp maps v onto [lo, 64].
		clamp := func(v uint8, lo int) int { return lo + int(v)%(65-lo) }
		// A mesh or cmesh needs at least two routers.
		mw, mh := clamp(w, 1), clamp(h, 1)
		if mw*mh < 2 {
			mh = 2
		}
		var topo Topology
		switch kind % 4 {
		case 0:
			topo = NewMesh(mw, mh)
		case 1:
			topo = NewCMesh(mw, mh, 4)
		case 2:
			topo = NewTorus(clamp(w, 3), clamp(h, 3))
		case 3:
			topo = NewSlim(clamp(w, 2), clamp(h, 2))
		}
		links := topo.Links()
		table, ports := portTable(topo, links)
		s, d := int(src)%topo.Nodes(), int(dst)%topo.Nodes()
		if _, _, err := checkLegs(topo, table, ports, links, s, d, nil, nil); err != nil {
			t.Fatalf("%s: %v", topo.Label(), err)
		}
	})
}
