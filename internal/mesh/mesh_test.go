package mesh

import (
	"math"
	"testing"
	"testing/quick"

	"tilesim/internal/energy"
	"tilesim/internal/fault"
	"tilesim/internal/noc"
	"tilesim/internal/sim"
	"tilesim/internal/wire"
)

func TestTopologyCoordRoundTrip(t *testing.T) {
	topo := NewMesh(4, 4)
	for id := 0; id < 16; id++ {
		if got := topo.IDOf(topo.CoordOf(id)); got != id {
			t.Errorf("tile %d round-trips to %d", id, got)
		}
	}
	if topo.Tiles() != 16 {
		t.Errorf("tiles = %d", topo.Tiles())
	}
}

func TestRouteXYIsMinimalAndDimensionOrdered(t *testing.T) {
	topo := NewMesh(4, 4)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			route := topo.AppendRoute(nil, src, dst)
			if len(route) != topo.Hops(src, dst) {
				t.Fatalf("%d->%d: route length %d, hops %d", src, dst, len(route), topo.Hops(src, dst))
			}
			if route[len(route)-1] != dst {
				t.Fatalf("%d->%d: route ends at %d", src, dst, route[len(route)-1])
			}
			// X moves first, then Y: once Y changes, X must stay fixed.
			prev := topo.CoordOf(src)
			yPhase := false
			for _, id := range route {
				c := topo.CoordOf(id)
				dx, dy := abs(c.X-prev.X), abs(c.Y-prev.Y)
				if dx+dy != 1 {
					t.Fatalf("%d->%d: non-adjacent step %+v -> %+v", src, dst, prev, c)
				}
				if dy == 1 {
					yPhase = true
				}
				if dx == 1 && yPhase {
					t.Fatalf("%d->%d: X move after Y phase", src, dst)
				}
				prev = c
			}
		}
	}
}

func TestAvgHops4x4(t *testing.T) {
	// For a 4x4 mesh the mean minimal distance over distinct pairs is
	// 2*(mean 1-D distance over pairs) adjusted for ordered pairs: 8/3.
	got := AvgHops(NewMesh(4, 4))
	if math.Abs(got-8.0/3.0) > 1e-12 {
		t.Fatalf("avg hops %.4f, want %.4f", got, 8.0/3.0)
	}
}

func TestDegenerateTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("1x1 topology accepted")
		}
	}()
	NewMesh(1, 1)
}

// deliverOne sends a single message through an idle network and returns
// its end-to-end latency in cycles.
func deliverOne(t *testing.T, cfg Config, m *noc.Message) sim.Time {
	t.Helper()
	k := sim.NewKernel()
	n := New(k, cfg, nil)
	var done sim.Time
	for i := 0; i < n.Topology().Tiles(); i++ {
		n.SetHandler(i, func(k *sim.Kernel, got *noc.Message) {
			if got != m {
				t.Fatal("wrong message delivered")
			}
			done = k.Now()
		})
	}
	n.Send(m)
	k.Run(nil)
	if n.InFlight() != 0 {
		t.Fatalf("in-flight %d after drain", n.InFlight())
	}
	return done
}

func TestBaselineSingleHopLatency(t *testing.T) {
	// Tile 0 -> tile 1: one hop. Router(2) + link(8) + final router(2)
	// + 0 extra serialization (11B message = 1 flit on 75B link) = 12.
	m := &noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 11}
	if got := deliverOne(t, DefaultBaseline(), m); got != 12 {
		t.Fatalf("1-hop latency %d, want 12", got)
	}
}

func TestBaselineMultiHopLatency(t *testing.T) {
	// Tile 0 -> tile 15: 6 hops. 6*(2+8) + 2 = 62, one flit.
	m := &noc.Message{Type: noc.GetS, Src: 0, Dst: 15, SizeBytes: 11}
	if got := deliverOne(t, DefaultBaseline(), m); got != 62 {
		t.Fatalf("6-hop latency %d, want 62", got)
	}
}

func TestHeterogeneousVLFasterThanB(t *testing.T) {
	cfg, err := Heterogeneous(5)
	if err != nil {
		t.Fatal(err)
	}
	// Compressed 5-byte request on VL wires: 6 hops, 6*(2+3)+2 = 32.
	mVL := &noc.Message{Type: noc.GetS, Src: 0, Dst: 15, SizeBytes: 5, Compressed: true, VL: true}
	gotVL := deliverOne(t, cfg, mVL)
	if gotVL != 32 {
		t.Fatalf("VL 6-hop latency %d, want 32", gotVL)
	}
	// Uncompressed 11-byte request on the 34B B plane: 6*(2+8)+2 = 62.
	mB := &noc.Message{Type: noc.GetS, Src: 0, Dst: 15, SizeBytes: 11}
	if got := deliverOne(t, cfg, mB); got != 62 {
		t.Fatalf("B 6-hop latency %d, want 62", got)
	}
}

func TestDataReplySerializationOnNarrowBPlane(t *testing.T) {
	// 67-byte reply: baseline 75B link = 1 flit; heterogeneous 34B B
	// plane = 2 flits -> +1 cycle tail serialization.
	base := deliverOne(t, DefaultBaseline(),
		&noc.Message{Type: noc.Data, Src: 0, Dst: 3, DataBytes: 64, SizeBytes: 67})
	cfg, _ := Heterogeneous(5)
	het := deliverOne(t, cfg,
		&noc.Message{Type: noc.Data, Src: 0, Dst: 3, DataBytes: 64, SizeBytes: 67})
	if het != base+1 {
		t.Fatalf("data reply: het %d, baseline %d, want +1 serialization", het, base)
	}
}

func TestChannelContentionSerializesHeads(t *testing.T) {
	// Two 67-byte messages injected the same cycle on the same route:
	// the second head must wait for the first tail to enter the link.
	k := sim.NewKernel()
	cfg := DefaultBaseline()
	cfg.Channels[PlaneB].WidthBytes = 34 // 2 flits per message
	n := New(k, cfg, nil)
	var times []sim.Time
	for i := 0; i < 16; i++ {
		n.SetHandler(i, func(k *sim.Kernel, m *noc.Message) { times = append(times, k.Now()) })
	}
	m1 := &noc.Message{Type: noc.Data, Src: 0, Dst: 1, DataBytes: 64, SizeBytes: 67}
	m2 := &noc.Message{Type: noc.WriteBack, Src: 0, Dst: 1, DataBytes: 64, SizeBytes: 67}
	n.Send(m1)
	n.Send(m2)
	k.Run(nil)
	if len(times) != 2 {
		t.Fatalf("delivered %d messages", len(times))
	}
	// First: 2+8+2+1 = 13. Second head enters link 2 cycles later.
	if times[0] != 13 || times[1] != 15 {
		t.Fatalf("delivery times %v, want [13 15]", times)
	}
	if s := n.Summary(); s.MeanHopQueuing == 0 {
		t.Error("queueing not recorded under contention")
	}
}

func TestPlanesDoNotContend(t *testing.T) {
	// A VL message and a B message on the same physical link are on
	// different wire planes: no mutual delay.
	cfg, _ := Heterogeneous(5)
	k := sim.NewKernel()
	n := New(k, cfg, nil)
	var vlTime sim.Time
	for i := 0; i < 16; i++ {
		n.SetHandler(i, func(k *sim.Kernel, m *noc.Message) {
			if m.VL {
				vlTime = k.Now()
			}
		})
	}
	big := &noc.Message{Type: noc.Data, Src: 0, Dst: 1, DataBytes: 64, SizeBytes: 67}
	small := &noc.Message{Type: noc.InvAck, Src: 0, Dst: 1, SizeBytes: 3, VL: true}
	n.Send(big)
	n.Send(small)
	k.Run(nil)
	// VL: 2 + 3 + 2 = 7, unaffected by the 2-flit B message.
	if vlTime != 7 {
		t.Fatalf("VL delivery %d, want 7 (independent of B traffic)", vlTime)
	}
}

func TestSendValidates(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, DefaultBaseline(), nil)
	cases := []*noc.Message{
		{Type: noc.GetS, Src: 0, Dst: 0, SizeBytes: 11},          // self
		{Type: noc.GetS, Src: 0, Dst: 1},                         // no size
		{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 4, VL: true}, // no VL plane
	}
	for i, m := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad send %d accepted", i)
				}
			}()
			n.Send(m)
		}()
	}
}

func TestSummaryCounts(t *testing.T) {
	k := sim.NewKernel()
	cfg, _ := Heterogeneous(4)
	n := New(k, cfg, nil)
	for i := 0; i < 16; i++ {
		n.SetHandler(i, func(*sim.Kernel, *noc.Message) {})
	}
	n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 5, SizeBytes: 4, VL: true, Compressed: true})
	n.Send(&noc.Message{Type: noc.Data, Src: 5, Dst: 0, DataBytes: 64, SizeBytes: 67})
	n.Send(&noc.Message{Type: noc.WriteBack, Src: 3, Dst: 9, DataBytes: 64, SizeBytes: 67})
	k.Run(nil)
	s := n.Summary()
	if s.TotalMessages() != 3 {
		t.Fatalf("total %d, want 3", s.TotalMessages())
	}
	if s.Messages[noc.ClassRequest] != 1 || s.Messages[noc.ClassResponse] != 1 || s.Messages[noc.ClassReplacement] != 1 {
		t.Fatalf("class counts %v", s.Messages)
	}
	if s.PlaneMessages[PlaneVL] != 1 || s.PlaneMessages[PlaneB] != 2 {
		t.Fatalf("plane counts %v", s.PlaneMessages)
	}
	if s.Bytes[noc.ClassRequest] != 4 {
		t.Fatalf("request bytes %d, want 4 (compressed)", s.Bytes[noc.ClassRequest])
	}
	if s.TotalFlits == 0 {
		t.Fatal("no flits recorded")
	}
}

// TestStaticWires checks that New registers every plane's standing
// wires with the meter: the 4x4 VL+B layout's 48 directed links leak
// exactly what the two planes' wire counts price to, B plane first.
func TestStaticWires(t *testing.T) {
	k := sim.NewKernel()
	cfg, _ := Heterogeneous(5)
	meter := energy.NewMeter(16)
	n := New(k, cfg, meter)
	// 4x4 mesh: 2 * (3*4 + 3*4) = 48 directed links.
	if n.Links() != 48 {
		t.Fatalf("links = %d, want 48", n.Links())
	}
	watts := wire.StaticPowerWatts(wire.B8X, 5e-3, 34*8*48)*energy.LinkLeakageDuty +
		wire.StaticPowerWatts(wire.VL5B, 5e-3, 5*8*48)*energy.LinkLeakageDuty
	const cycles = 4_000_000
	want := energy.Joules(watts * float64(energy.Seconds(cycles)))
	if got := meter.Link(cycles).StaticJ; got != want {
		t.Fatalf("standing link leakage %g J, want %g J", got, want)
	}
}

// meterNet builds a network on a fresh meter with sink handlers.
func meterNet(t *testing.T, cfg Config) (*sim.Kernel, *Network, *energy.Meter) {
	t.Helper()
	k := sim.NewKernel()
	meter := energy.NewMeter(16)
	n := New(k, cfg, meter)
	for i := 0; i < n.Topology().Tiles(); i++ {
		n.SetHandler(i, func(*sim.Kernel, *noc.Message) {})
	}
	return k, n, meter
}

// TestMeterCountsEveryHop pins the meter's counts against hand-computed
// totals: every router a message crosses charges its bytes and flits,
// every link its bytes under the plane's wire kind.
func TestMeterCountsEveryHop(t *testing.T) {
	t.Run("multi-hop", func(t *testing.T) {
		cfg, _ := Heterogeneous(5) // 34-byte B8X plane, 5-byte VL5B plane
		k, n, meter := meterNet(t, cfg)
		// 0 -> 15: 6 hops, 11 bytes in 1 flit on B.
		n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 15, SizeBytes: 11})
		// 0 -> 3: 3 hops, 67 bytes in 2 flits on B.
		n.Send(&noc.Message{Type: noc.Data, Src: 0, Dst: 3, DataBytes: 64, SizeBytes: 67})
		// 5 -> 6: 1 hop, 4 bytes in 1 flit on VL.
		n.Send(&noc.Message{Type: noc.GetS, Src: 5, Dst: 6, SizeBytes: 4, VL: true, Compressed: true})
		k.Run(nil)
		var want energy.DynSnapshot
		want.LinkBytes[wire.B8X] = 6*11 + 3*67
		want.LinkBytes[wire.VL5B] = 1 * 4
		want.RouterBytes = 6*11 + 3*67 + 1*4
		want.RouterFlits = 6*1 + 3*2 + 1*1
		if got := meter.Snapshot(); got != want {
			t.Fatalf("meter counts %+v, want %+v", got, want)
		}
	})
	t.Run("same-router", func(t *testing.T) {
		cfg := DefaultBaseline()
		cfg.Topo = NewCMesh(2, 2, 4) // tiles 0..3 share router 0
		k, n, meter := meterNet(t, cfg)
		n.Send(&noc.Message{Type: noc.Data, Src: 1, Dst: 2, DataBytes: 64, SizeBytes: 67})
		k.Run(nil)
		// One crossbar traversal: router only, no link.
		want := energy.DynSnapshot{RouterBytes: 67, RouterFlits: 1}
		if got := meter.Snapshot(); got != want {
			t.Fatalf("meter counts %+v, want %+v", got, want)
		}
	})
	t.Run("crc-retry", func(t *testing.T) {
		cfg, _ := Heterogeneous(5)
		k, n, meter := meterNet(t, cfg)
		// ~73% of 67-byte traversals fail at this BER.
		in, err := fault.NewInjector(fault.Config{BER: 2.45e-3, RetryLimit: 64}, 7)
		if err != nil {
			t.Fatal(err)
		}
		n.SetInjector(in)
		// 67 bytes in 2 flits on B over 2 + 1 + 3 = 6 hops.
		for _, sd := range [][2]int{{0, 2}, {5, 6}, {15, 12}} {
			n.Send(&noc.Message{Type: noc.Data, Src: sd[0], Dst: sd[1], DataBytes: 64, SizeBytes: 67})
		}
		k.Run(nil)
		crc := n.Summary().CRCErrors
		if crc == 0 || n.FaultError() != nil {
			t.Fatalf("want corrupted traversals and a delivery; crc errors %d, fault %v", crc, n.FaultError())
		}
		// Each corrupted traversal was charged before its CRC verdict,
		// then charged again by its retransmission.
		traversals := 6 + crc
		var want energy.DynSnapshot
		want.LinkBytes[wire.B8X] = traversals * 67
		want.RouterBytes = traversals * 67
		want.RouterFlits = traversals * 2
		if got := meter.Snapshot(); got != want {
			t.Fatalf("meter counts %+v, want %+v (%d crc errors)", got, want, crc)
		}
	})
}

// Property: end-to-end latency on an idle network equals
// hops*(router+link) + router + flits - 1 for any pair.
func TestIdleLatencyFormulaProperty(t *testing.T) {
	cfg := DefaultBaseline()
	f := func(srcRaw, dstRaw, sizeRaw uint8) bool {
		src, dst := int(srcRaw%16), int(dstRaw%16)
		if src == dst {
			return true
		}
		size := 1 + int(sizeRaw)%67
		m := &noc.Message{Type: noc.GetS, Src: src, Dst: dst, SizeBytes: size}
		k := sim.NewKernel()
		n := New(k, cfg, nil)
		var got sim.Time
		for i := 0; i < 16; i++ {
			n.SetHandler(i, func(k *sim.Kernel, _ *noc.Message) { got = k.Now() })
		}
		n.Send(m)
		k.Run(nil)
		topo := n.Topology()
		hops := topo.Hops(src, dst)
		flits := int(noc.Flits(size, 75))
		want := sim.Time(hops*(2+8) + 2 + flits - 1)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, DefaultBaseline(), nil)
	for i := 0; i < 16; i++ {
		n.SetHandler(i, func(*sim.Kernel, *noc.Message) {})
	}
	// Mixed distances: 1-hop and 6-hop requests.
	for i := 0; i < 10; i++ {
		n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 11})
		n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 15, SizeBytes: 11})
		k.Run(nil)
	}
	p50 := n.LatencyPercentile(noc.ClassRequest, 0.5)
	p99 := n.LatencyPercentile(noc.ClassRequest, 0.99)
	// 1-hop = 12 cycles, 6-hop = 62 cycles.
	if p50 < 10 || p50 > 64 {
		t.Fatalf("p50 = %v out of range", p50)
	}
	if p99 < 60 {
		t.Fatalf("p99 = %v, expected to capture the 6-hop tail", p99)
	}
	if p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
}

func TestLayoutAreaBudgets(t *testing.T) {
	// Every layout must fit the 75-byte B-Wire metal budget (600 track
	// units), within the same rounding tolerance as the paper's own
	// VL+B layout.
	budget := wire.AreaUnits(wire.B8X, 75*8)
	layouts := map[string]Config{
		"lpw": LayoutLPW(),
	}
	if c, err := LayoutVLBPW(4); err == nil {
		layouts["vlbpw4"] = c
	}
	if c, err := LayoutVLBPW(5); err == nil {
		layouts["vlbpw5"] = c
	}
	for name, cfg := range layouts {
		var area float64
		for _, ch := range cfg.Channels {
			if ch.WidthBytes > 0 {
				area += wire.AreaUnits(ch.Kind, ch.WidthBytes*8)
			}
		}
		if area > budget*1.015 {
			t.Errorf("%s: %.0f track units exceeds budget %.0f", name, area, budget)
		}
		if area < budget*0.55 {
			t.Errorf("%s: %.0f track units wastes the budget %.0f", name, area, budget)
		}
	}
}

func TestPWPlaneMessages(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, LayoutLPW(), nil)
	for i := 0; i < 16; i++ {
		n.SetHandler(i, func(*sim.Kernel, *noc.Message) {})
	}
	// A relaxed data reply on PW wires: slow but delivered.
	m := &noc.Message{Type: noc.Data, Src: 0, Dst: 1, DataBytes: 64, SizeBytes: 67, Relaxed: true, PW: true}
	n.Send(m)
	k.Run(nil)
	s := n.Summary()
	if s.PlaneMessages[PlanePW] != 1 {
		t.Fatalf("PW plane count %v", s.PlaneMessages)
	}
	// PW 5mm link = 26 cycles: 2+26+2 + (flits-1 = 1) = 31.
	if lat := s.MeanLatency[noc.ClassResponse]; lat != 31 {
		t.Fatalf("PW 1-hop latency %v, want 31", lat)
	}
}

func TestBothPlanesRequestedPanics(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, LayoutLPW(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("VL+PW message accepted")
		}
	}()
	n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 11, VL: true, PW: true})
}
