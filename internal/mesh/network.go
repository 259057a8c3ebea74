package mesh

import (
	"fmt"
	"math"
	"slices"

	"tilesim/internal/energy"
	"tilesim/internal/fault"
	"tilesim/internal/noc"
	"tilesim/internal/obs"
	"tilesim/internal/pooldbg"
	"tilesim/internal/sim"
	"tilesim/internal/stats"
	"tilesim/internal/wire"
)

// Plane selects the physical channel set a message travels on.
type Plane int

const (
	// PlaneB is the baseline-wire channel (always present).
	PlaneB Plane = iota
	// PlaneVL is the low-latency channel: VL-Wires in the paper's
	// proposal, L-Wires in the Cheng-style layout of the Reply
	// Partitioning extension.
	PlaneVL
	// PlanePW is the power-optimized channel for non-critical messages
	// (present only in the Reply Partitioning layouts).
	PlanePW

	numPlanes
)

// String names the plane.
func (p Plane) String() string {
	switch p {
	case PlaneB:
		return "B"
	case PlaneVL:
		return "VL"
	case PlanePW:
		return "PW"
	}
	return "?"
}

// ChannelConfig describes one wire plane of every link.
type ChannelConfig struct {
	Kind       wire.Kind
	WidthBytes int
}

// Config parameterizes the network.
type Config struct {
	// Topo is the interconnect topology. When nil, a dense Width x
	// Height mesh is built — the paper's network and the zero-config
	// default, so pre-interface configurations keep their meaning.
	Topo Topology
	// Width, Height describe the default dense mesh used when Topo is
	// nil; ignored otherwise.
	Width, Height int
	// RouterLatency is the per-hop router pipeline depth in cycles.
	RouterLatency int
	// Channels maps each plane to its wire design; a zero-width plane is
	// absent. PlaneB must be present.
	Channels [numPlanes]ChannelConfig
	// LinkLengthM is the physical link length (5 mm in the paper).
	LinkLengthM float64
	// LinkCyclesScale scales every channel's wire-traversal cycles
	// (rounded up, minimum 1); 0 means 1.0. Used by the sensitivity
	// ablation to explore faster/slower wire technology around the
	// calibrated 0.4 ns/mm point.
	LinkCyclesScale float64
}

// DefaultBaseline returns the paper's baseline network: 4x4 mesh,
// 75-byte B-Wire (8X) unidirectional links, 5 mm, 2-stage routers (the
// speculative two-stage pipeline typical of the paper's era).
func DefaultBaseline() Config {
	return Config{
		Width: 4, Height: 4,
		RouterLatency: 2,
		Channels: [numPlanes]ChannelConfig{
			PlaneB: {Kind: wire.B8X, WidthBytes: 75},
		},
		LinkLengthM: wire.LinkLengthM,
	}
}

// Heterogeneous returns the proposal's network: each link split into a
// vlBytes-wide VL-Wire channel (3, 4 or 5 bytes) plus a 34-byte B-Wire
// channel (Section 4.3).
func Heterogeneous(vlBytes int) (Config, error) {
	kind, err := wire.VLForWidth(vlBytes)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Width: 4, Height: 4,
		RouterLatency: 2,
		Channels: [numPlanes]ChannelConfig{
			PlaneB:  {Kind: wire.B8X, WidthBytes: 34},
			PlaneVL: {Kind: kind, WidthBytes: vlBytes},
		},
		LinkLengthM: wire.LinkLengthM,
	}, nil
}

// LayoutLPW returns the Cheng et al. / Reply Partitioning layout: an
// 11-byte L-Wire channel carries whole short critical messages with no
// compression needed, and the remaining metal budget becomes a 62-byte
// PW-Wire channel for non-critical traffic (no separate B plane: the PW
// channel doubles as the bulk plane).
//
// Area check against the 75-byte B-Wire budget (600 tracks):
// 11 B x 8 x 4.0 (L) = 352; 62 B x 8 x 0.5 (PW) = 248; total 600.
func LayoutLPW() Config {
	return Config{
		Width: 4, Height: 4,
		RouterLatency: 2,
		Channels: [numPlanes]ChannelConfig{
			PlaneVL: {Kind: wire.L8X, WidthBytes: 11},
			PlanePW: {Kind: wire.PW4X, WidthBytes: 62},
		},
		LinkLengthM: wire.LinkLengthM,
	}
}

// LayoutVLBPW returns the combined design the paper sketches as future
// work: compression + VL-Wires for critical shorts, a small B channel
// for uncompressed shorts and partial replies, and a PW channel for the
// non-critical bulk.
//
// Area check: 4 B x 8 x 10 (VL4B) = 320 or 5 B x 8 x 8 (VL5B) = 320;
// 20 B x 8 x 1 (B) = 160; 30 B x 8 x 0.5 (PW) = 120; total 600.
func LayoutVLBPW(vlBytes int) (Config, error) {
	kind, err := wire.VLForWidth(vlBytes)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Width: 4, Height: 4,
		RouterLatency: 2,
		Channels: [numPlanes]ChannelConfig{
			PlaneB:  {Kind: wire.B8X, WidthBytes: 20},
			PlaneVL: {Kind: kind, WidthBytes: vlBytes},
			PlanePW: {Kind: wire.PW4X, WidthBytes: 30},
		},
		LinkLengthM: wire.LinkLengthM,
	}, nil
}

// channel is one wire plane of one directed link. Each flit occupies
// the channel for one cycle, so flits doubles as its busy-cycle count.
type channel struct {
	cfg      ChannelConfig
	cycles   int      // head traversal latency
	nextFree sim.Time // first cycle a new head flit may enter
	flits    stats.Counter
}

// Handler consumes messages delivered at a tile.
type Handler func(*sim.Kernel, *noc.Message)

// Network is the switched interconnect over a Topology.
type Network struct {
	k    *sim.Kernel
	topo Topology
	// nodes caches topo.Nodes() for the route and link-salt arithmetic.
	nodes    int
	cfg      Config
	meter    *energy.Meter // activity counts for energy; nil = none
	handlers []Handler

	// links is topo.Links(): a link id is a position in this canonical
	// (From, To) order. linkStart indexes it by source router (CSR):
	// the links leaving router r are links[linkStart[r]:linkStart[r+1]].
	links     []Link
	linkStart []int32
	// chans holds every plane of every directed link, indexed
	// link*numPlanes+plane; planes the configuration lacks stay zero
	// and unused. Flat and pointer-free, so the hop path makes one
	// indexed load instead of chasing a per-link pointer table.
	chans []channel

	inFlight int

	// Per-class latency statistics (message inject -> tail delivery).
	latHist [noc.NumClasses]*stats.Histogram
	byPlane [numPlanes]stats.Counter
	msgs    [noc.NumClasses]stats.Counter
	bytes   [noc.NumClasses]stats.Counter
	hopWait stats.Mean // queueing cycles per hop, congestion signal

	// planeFlits accumulates flit-cycles per plane across all links,
	// the occupancy time series the tracer's counter poller samples.
	planeFlits [numPlanes]stats.Counter
	// breakdown decomposes delivered-message latency exactly (obs.go).
	breakdown [noc.NumClasses]LatencyBreakdown

	tracer *obs.Tracer

	// free is the transit freelist: delivered and dropped messages
	// return their in-flight state here and Send reuses it, so steady
	// state allocates no transit structs (and none of the prebound
	// continuation closures they carry). BENCH_obs.json measured the
	// per-message transit at +5.7% of the run's allocations before
	// pooling.
	free *transit
	// routeOff caches each (src,dst) router pair's route, built on
	// first use (routes are pure functions of the topology).
	// routeOff[src*nodes+dst] is 0 for a pair not yet built, else the
	// position in routeArena of the route's hop count h, followed by
	// its h link ids. routeArena[0] is an unused sentinel.
	routeOff   []int32
	routeArena []int32
	// routeBuf is the reused scratch buffer routes are built in.
	routeBuf []int

	// inj, when non-nil, is the fault-injection source (DESIGN.md §11).
	// Fault accounting below stays zero without an injector.
	inj        *fault.Injector
	crcErrors  stats.Counter // corrupted traversals detected by link CRC
	retries    stats.Counter // retransmissions scheduled (crcErrors - dropped)
	retryFlits stats.Counter // flits burned by corrupted traversals
	dropped    stats.Counter // messages dropped on retry-budget exhaustion
	stallInj   stats.Counter // injected router-stall cycles
	outageWait stats.Counter // cycles transmissions waited out plane outages
	// faultErr records the first retry-budget exhaustion; the system
	// surfaces it as the run's explicit error (livelock protection).
	faultErr error
}

// The fault package mirrors this package's plane ordering without
// importing it; a drifting constant would silently misdirect BER and
// outage draws, so pin the correspondence at compile time.
var (
	_ = [1]struct{}{}[int(PlaneB)-fault.PlaneB]
	_ = [1]struct{}{}[int(PlaneVL)-fault.PlaneVL]
	_ = [1]struct{}{}[int(PlanePW)-fault.PlanePW]
	_ = [1]struct{}{}[int(numPlanes)-fault.NumPlanes]
)

// New builds a network on kernel k and registers its standing link
// wires with meter, which counts every hop's activity. meter may be nil
// (no energy accounting).
func New(k *sim.Kernel, cfg Config, meter *energy.Meter) *Network {
	if cfg.Channels[PlaneB].WidthBytes <= 0 && cfg.Channels[PlanePW].WidthBytes <= 0 {
		panic("mesh: a bulk channel (PlaneB or PlanePW) is mandatory")
	}
	if cfg.RouterLatency < 1 {
		panic("mesh: router latency must be >= 1 cycle")
	}
	topo := cfg.Topo
	if topo == nil {
		topo = NewMesh(cfg.Width, cfg.Height)
	}
	nodes := topo.Nodes()
	n := &Network{
		k:        k,
		topo:     topo,
		nodes:    nodes,
		cfg:      cfg,
		meter:    meter,
		handlers: make([]Handler, topo.Tiles()),
		links:    topo.Links(),
		routeOff: make([]int32, nodes*nodes),
		// The sentinel, plus room for the routes of a small run.
		routeArena: make([]int32, 1, 1024),
	}
	for c := range n.latHist {
		// 2-cycle buckets up to 512 cycles; congested tails overflow
		// into the exact-max tracking.
		n.latHist[c] = stats.NewHistogram(256, 2)
	}
	// Index the canonical link list by source router; Links() is
	// sorted by From, so each router's links are contiguous.
	n.linkStart = make([]int32, nodes+1)
	for _, l := range n.links {
		n.linkStart[l.From+1]++
	}
	for r := 0; r < nodes; r++ {
		n.linkStart[r+1] += n.linkStart[r]
	}
	// Every link gets the same plane set.
	var planes [numPlanes]channel
	for p := Plane(0); p < numPlanes; p++ {
		if cfg.Channels[p].WidthBytes > 0 {
			cycles := wire.LatencyCycles(cfg.Channels[p].Kind)
			if cfg.LinkCyclesScale > 0 {
				cycles = scaledCycles(cycles, cfg.LinkCyclesScale)
			}
			planes[p] = channel{cfg: cfg.Channels[p], cycles: cycles}
		}
	}
	n.chans = make([]channel, len(n.links)*int(numPlanes))
	for li := range n.links {
		copy(n.chans[li*int(numPlanes):], planes[:])
	}
	if meter != nil {
		for p := Plane(0); p < numPlanes; p++ {
			if ch := cfg.Channels[p]; ch.WidthBytes > 0 {
				meter.AddStaticWires(ch.Kind, cfg.LinkLengthM, ch.WidthBytes*8*len(n.links))
			}
		}
	}
	return n
}

// scaledCycles scales a channel's wire-traversal latency, rounding up
// with a float-fuzz-tolerant ceiling (minimum 1 cycle). A plain
// math.Ceil on the raw product over-rounds exact factors: 5 cycles at
// scale 0.2 computes 1.0000000000000002 in float64, which must still
// mean 1 cycle, not 2 (the old `+ 0.999999` ad-hoc ceiling got this
// wrong; fixed under SimVersion v4).
func scaledCycles(cycles int, scale float64) int {
	const fuzz = 1e-9
	scaled := int(math.Ceil(float64(cycles)*scale - fuzz))
	if scaled < 1 {
		return 1
	}
	return scaled
}

// linkSalt numbers the directed link from->to as from*nodes+to: the
// fault injector's per-link stream salt and the tracer's link track id.
// It predates link ids and stays, so BER runs draw the same numbers and
// traces name the same tracks.
func (n *Network) linkSalt(from, to int) int { return from*n.nodes + to }

// channel returns plane p of link li.
func (n *Network) channel(li int32, p Plane) *channel {
	return &n.chans[int(li)*int(numPlanes)+int(p)]
}

// Topology returns the network's topology.
func (n *Network) Topology() Topology { return n.topo }

// SetHandler installs the delivery callback for a tile.
func (n *Network) SetHandler(tile int, h Handler) {
	n.handlers[tile] = h
}

// InFlight returns the number of messages currently traversing the mesh.
func (n *Network) InFlight() int { return n.inFlight }

// HasPlane reports whether the configuration includes the plane.
func (n *Network) HasPlane(p Plane) bool { return n.cfg.Channels[p].WidthBytes > 0 }

// SetInjector attaches a fault injector. Must be called before the
// first Send; a nil injector (the default) keeps every fault hook a
// single pointer check and the simulation bit-identical to a build
// without the fault subsystem.
func (n *Network) SetInjector(in *fault.Injector) { n.inj = in }

// FaultsEnabled reports whether a fault injector is attached.
func (n *Network) FaultsEnabled() bool { return n.inj != nil }

// PlaneUp reports whether the plane exists and is not inside an
// injected outage window at the current cycle. The message manager
// consults it at injection time to fail critical traffic over from an
// out VL plane to the bulk plane.
func (n *Network) PlaneUp(p Plane) bool {
	if !n.HasPlane(p) {
		return false
	}
	return n.inj == nil || !n.inj.PlaneDown(int(p), uint64(n.k.Now()))
}

// FaultError returns the first retry-budget exhaustion of the run, or
// nil. A non-nil value means at least one message was dropped: the
// protocol above has lost a transition and the run's results are
// meaningless, so cmp.System.Run surfaces this as the run error.
func (n *Network) FaultError() error { return n.faultErr }

// PlaneWidth returns the channel width of a plane in bytes (0 if absent).
func (n *Network) PlaneWidth(p Plane) int { return n.cfg.Channels[p].WidthBytes }

// Send injects a message. The message must have SizeBytes set and, if
// m.VL, the VL plane must exist and the message must fit policy-wise
// (the message manager guarantees this; the mesh enforces only that the
// plane exists).
//
//tilesim:hotpath mesh injection, once per message
func (n *Network) Send(m *noc.Message) {
	if err := m.Validate(n.topo.Tiles()); err != nil {
		panic(fmt.Sprintf("mesh: refusing malformed message: %v", err))
	}
	plane := PlaneB
	switch {
	case m.VL && m.PW:
		panic(fmt.Sprintf("mesh: message %v requests both VL and PW planes", m.Type))
	case m.VL:
		plane = PlaneVL
	case m.PW:
		plane = PlanePW
	}
	if !n.HasPlane(plane) {
		panic(fmt.Sprintf("mesh: message %v requests absent plane %v", m.Type, plane))
	}
	srcNode, dstNode := n.topo.NodeOf(m.Src), n.topo.NodeOf(m.Dst)
	n.inFlight++
	injected := n.k.Now()
	flits := noc.Flits(m.SizeBytes, n.cfg.Channels[plane].WidthBytes)
	n.byPlane[plane].Inc()
	var traceID uint64
	if n.tracer != nil {
		if id, sampled := n.tracer.NextID(); sampled {
			traceID = id
			n.tracer.Begin(obs.PidMessages, id, m.Type.String(),
				classSlug(noc.ClassOf(m.Type)), uint64(injected))
		}
	}
	if srcNode == dstNode {
		// Same-router tiles (concentrated mesh only): the message
		// crosses the local crossbar — one router pipeline plus tail
		// serialization — with no link, no wire flight, and no channel
		// contention. The empty route makes the latency breakdown exact
		// (hops = 0, Wire = 0).
		t := n.newTransit(m, localRoute, srcNode, injected, flits, plane, traceID)
		if n.meter != nil {
			n.meter.RouterHop(m.SizeBytes, flits)
		}
		n.k.ScheduleAt(injected+sim.Time(n.cfg.RouterLatency)+sim.Time(flits-1), t.deliverFn)
		return
	}
	route := n.routeOf(srcNode, dstNode)
	n.hop(n.newTransit(m, route, srcNode, injected, flits, plane, traceID))
}

// localRoute is the shared empty route of same-router (crossbar)
// deliveries; non-nil so a transit carrying it is distinguishable from
// a recycled one.
var localRoute = []int32{}

// transit is one message's in-flight state, taken from the Network's
// freelist at Send so the per-hop event closures capture a single
// pointer instead of the whole argument list (the hop path dominates
// the simulator's allocation volume). The kernel is single-threaded,
// so hops may mutate it in place. at holds a router (node) id, not a
// tile id — they coincide except on a concentrated mesh — and route
// holds link ids.
type transit struct {
	m *noc.Message
	// mGen snapshots m's pool generation when the transit retains it
	// (poollife clause (c)); delivery and drop probe it before
	// dereferencing, so a header recycled mid-flight panics under
	// -tags pooldebug.
	mGen     uint64
	route    []int32
	injected sim.Time
	// waited accumulates output-channel queueing across hops so
	// delivery can decompose the end-to-end latency exactly.
	waited sim.Time
	at     int
	idx    int
	flits  noc.FlitCount
	plane  Plane
	// traceID is the sampled lifecycle span id (0 when untraced or
	// unsampled).
	traceID uint64
	// attempts counts CRC-failed traversals of this message (fault
	// injection only); it drives the bounded exponential backoff and
	// the retry budget.
	attempts int
	// retryCycles accumulates the full duration of failed traversal
	// attempts — router pipeline, channel wait, wire flight, NACK
	// round trip and backoff — so the latency breakdown stays an
	// exact decomposition under retransmission (obs.go).
	retryCycles sim.Time

	// Prebound continuations, allocated once when the transit struct is
	// first created and reused across pool generations: they capture
	// only the (stable) transit pointer, so a recycled message performs
	// zero closure allocations on the hop path.
	arriveFn  sim.Event // head flit reached the next router (hop tail)
	deliverFn sim.Event // tail serialized at the destination
	hopFn     sim.Event // retransmission entry (fault injection)
	dropFn    sim.Event // retry-budget exhaustion (fault injection)
	// dropFrom/dropTo park the failing link's endpoints for dropFn
	// (set by retryHop; nothing touches a doomed transit in between).
	dropFrom, dropTo int
	// next links the freelist.
	next *transit
}

// newTransit takes a transit from the freelist (or allocates the pool's
// next entry) and initializes every in-flight field. srcNode is the
// router the message enters at. The retained message is guarded by a
// generation snapshot (mGen): delivery and drop probe it before
// dereferencing.
//
//tilesim:pool
func (n *Network) newTransit(m *noc.Message, route []int32, srcNode int, injected sim.Time, flits noc.FlitCount, plane Plane, traceID uint64) *transit {
	t := n.free
	if t == nil {
		//tilesim:allocok pool miss: one transit + its four continuation closures, reused for the rest of the run
		t = &transit{}
		//tilesim:allocok pool miss: closure allocated once per pooled transit, reused for the rest of the run
		t.arriveFn = func() { n.arrive(t) }
		//tilesim:allocok pool miss: closure allocated once per pooled transit, reused for the rest of the run
		t.deliverFn = func() { n.deliver(t) }
		//tilesim:allocok pool miss: closure allocated once per pooled transit, reused for the rest of the run
		t.hopFn = func() { n.hop(t) }
		//tilesim:allocok pool miss: closure allocated once per pooled transit, reused for the rest of the run
		t.dropFn = func() { n.drop(t, t.dropFrom, t.dropTo) }
	} else {
		n.free = t.next
		t.next = nil
	}
	pooldbg.Acquire(t, 0)
	t.mGen = m.Generation()
	t.m, t.route, t.injected, t.waited = m, route, injected, 0
	t.at, t.idx, t.flits, t.plane = srcNode, 0, flits, plane
	t.traceID, t.attempts, t.retryCycles = traceID, 0, 0
	return t
}

// recycle returns a finished transit to the freelist. The caller must
// be done with every field; the next Send will overwrite them.
//
//tilesim:release
func (n *Network) recycle(t *transit) {
	pooldbg.Release(t, 0)
	t.m, t.route = nil, nil
	t.next = n.free
	n.free = t
}

// routeOf returns the link ids of the topology's route between two
// distinct routers, from the per-(src,dst) cache. An empty route for
// distinct routers means the topology's AppendRoute contract is broken
// — always a bug, never recoverable. Cached routes are read-only:
// transits index into them but never mutate. A transit may keep a
// route from before an arena growth; that copy stays valid.
func (n *Network) routeOf(srcNode, dstNode int) []int32 {
	pair := srcNode*n.nodes + dstNode
	if off := n.routeOff[pair]; off != 0 {
		return n.routeArena[off+1 : off+1+n.routeArena[off]]
	}
	n.routeBuf = n.topo.AppendRoute(n.routeBuf[:0], srcNode, dstNode)
	if len(n.routeBuf) == 0 {
		panic("mesh: zero-length route")
	}
	off := int32(len(n.routeArena))
	n.routeArena = append(n.routeArena, int32(len(n.routeBuf)))
	from := srcNode
	for _, to := range n.routeBuf {
		//tilesim:allocok route arena growth: amortized doubling, and each (src,dst) router pair is built once per run
		n.routeArena = append(n.routeArena, n.linkID(from, to))
		from = to
	}
	n.routeOff[pair] = off
	return n.routeArena[off+1 : off+1+n.routeArena[off]]
}

// linkID returns the id of the directed link from->to by binary search
// over from's links, which Links() orders by ascending To.
func (n *Network) linkID(from, to int) int32 {
	first := n.linkStart[from]
	i, ok := slices.BinarySearchFunc(n.links[first:n.linkStart[from+1]], to,
		func(l Link, to int) int { return l.To - to })
	if !ok {
		panic(fmt.Sprintf("mesh: no link %d->%d", from, to))
	}
	return first + int32(i)
}

// hop models the head flit leaving router t.at over link t.route[t.idx].
// Under fault injection the traversal may be corrupted (caught by the
// link CRC at the receiving router and NACKed back — see retryHop) or
// delayed by an injected router stall or plane outage.
//
//tilesim:hotpath per-hop transit, the simulator's innermost loop
func (n *Network) hop(t *transit) {
	entered := n.k.Now()
	li := t.route[t.idx]
	next := n.links[li].To
	ch := n.channel(li, t.plane)
	// Router pipeline (plus any injected stall), then wait for the
	// output channel and for any plane outage to lift: an out plane
	// accepts no new transmissions until its window ends.
	var stall sim.Time
	if n.inj != nil {
		stall = sim.Time(n.inj.StallCyclesAt(t.at))
		if stall > 0 {
			n.stallInj.Add(uint64(stall))
		}
	}
	ready := n.k.Now() + sim.Time(n.cfg.RouterLatency) + stall
	start := ready
	if ch.nextFree > start {
		start = ch.nextFree
	}
	if n.inj != nil && n.inj.PlaneDown(int(t.plane), uint64(start)) {
		if end := sim.Time(n.inj.OutageEnd()); end > start {
			n.outageWait.Add(uint64(end - start))
			start = end
		}
	}
	wait := start - ready
	n.hopWait.Observe(uint64(wait))
	ch.nextFree = start + sim.Time(t.flits)
	ch.flits.Add(uint64(t.flits))
	n.planeFlits[t.plane].Add(uint64(t.flits))
	// Charged before the CRC verdict: a corrupted traversal still
	// toggled the wires and the router.
	if n.meter != nil {
		n.meter.RouterHop(t.m.SizeBytes, t.flits)
		n.meter.LinkTraversal(ch.cfg.Kind, t.m.SizeBytes)
	}
	if n.tracer != nil && t.traceID != 0 {
		n.traceLinkOccupancy(t.m, t.plane, t.at, next, start, t.flits)
	}
	headArrives := start + sim.Time(ch.cycles)
	if n.inj != nil && n.inj.CorruptTraversal(n.linkSalt(t.at, next), int(t.plane), t.m.SizeBytes*8) {
		n.retryHop(t, ch, next, entered, headArrives)
		return
	}
	// Clean traversal: stalls and channel/outage waits count as
	// queueing in the latency decomposition.
	t.waited += wait + stall
	n.k.ScheduleAt(headArrives, t.arriveFn)
}

// arrive fires when the head flit reaches the far router of link
// t.route[t.idx]: either the final tail-serialization delay before
// delivery, or the next hop. Nothing mutates the transit between the
// schedule in hop and this callback, so recomputing the next router
// here is exact.
func (n *Network) arrive(t *transit) {
	if t.idx == len(t.route)-1 {
		// Final router pipeline plus tail serialization.
		deliver := n.k.Now() + sim.Time(n.cfg.RouterLatency) + sim.Time(t.flits-1)
		n.k.ScheduleAt(deliver, t.deliverFn)
		return
	}
	t.at, t.idx = n.links[t.route[t.idx]].To, t.idx+1
	n.hop(t)
}

// retryHop handles a corrupted traversal: the receiving router's link
// CRC rejects the message when its tail arrives, a NACK flies back
// over the reverse channel, and the sender retransmits after a
// bounded exponential backoff — unless the message has exhausted its
// retry budget, in which case it is dropped and the run fails with an
// explicit error (the protocol above has no recovery for a lost
// message; failing loudly beats livelocking the directory).
//
// The whole failed attempt — from hop entry through NACK and backoff
// — is charged to the transit's retryCycles, keeping the delivered
// latency decomposition exact (LatencyBreakdown.Retry).
func (n *Network) retryHop(t *transit, ch *channel, next int, entered, headArrives sim.Time) {
	n.crcErrors.Inc()
	n.retryFlits.Add(uint64(t.flits))
	// The CRC verdict lands when the tail arrives at the receiver.
	tail := headArrives + sim.Time(t.flits-1)
	t.attempts++
	if n.tracer != nil && t.traceID != 0 {
		tid := n.linkSalt(t.at, next)*int(numPlanes) + int(t.plane)
		//tilesim:allocok sampled-span label on the fault path
		n.tracer.Instant(obs.PidLinks, tid, "crc-nack:"+t.m.Type.String(), "fault", uint64(tail))
	}
	if t.attempts > n.inj.RetryLimit() {
		// The prebound drop continuation reads the failing link's
		// endpoints from the transit; nothing touches a doomed transit
		// between here and the scheduled drop.
		t.dropFrom, t.dropTo = t.at, next
		n.k.ScheduleAt(tail, t.dropFn)
		return
	}
	n.retries.Inc()
	// NACK round trip over the reverse channel, then back off.
	retryAt := tail + sim.Time(ch.cycles) + sim.Time(fault.Backoff(t.attempts))
	t.retryCycles += retryAt - entered
	n.k.ScheduleAt(retryAt, t.hopFn)
}

// drop removes a message whose retry budget is exhausted and records
// the run-fatal fault error (first drop wins; later drops only count).
func (n *Network) drop(t *transit, from, to int) {
	t.m.CheckAlive(t.mGen)
	n.inFlight--
	n.dropped.Inc()
	if n.faultErr == nil {
		//tilesim:allocok terminal fault path: the first drop composes the run-fatal error
		n.faultErr = fmt.Errorf("mesh: %v %d->%d dropped on link %d->%d at cycle %d: retry budget (%d) exhausted",
			t.m.Type, t.m.Src, t.m.Dst, from, to, n.k.Now(), n.inj.RetryLimit())
	}
	if n.tracer != nil && t.traceID != 0 {
		n.tracer.End(obs.PidMessages, t.traceID, t.m.Type.String(),
			classSlug(noc.ClassOf(t.m.Type)), uint64(n.k.Now()),
			//tilesim:allocok traced terminal fault path: span args only materialize for sampled drops
			[]obs.Arg{{Key: "dropped", Val: 1}, {Key: "attempts", Val: float64(t.attempts)}})
	}
	n.recycle(t)
}

func (n *Network) deliver(t *transit) {
	m := t.m
	m.CheckAlive(t.mGen)
	n.inFlight--
	class := noc.ClassOf(m.Type)
	n.latHist[class].Observe(uint64(n.k.Now() - t.injected))
	n.msgs[class].Inc()
	n.bytes[class].Add(uint64(m.SizeBytes))
	n.recordBreakdown(t, class)
	h := n.handlers[m.Dst]
	if h == nil {
		panic(fmt.Sprintf("mesh: no handler at tile %d for %v", m.Dst, m.Type))
	}
	// The transit is done before the handler runs: recycling first lets
	// a handler that immediately Sends (directory forwards, NACK
	// turnarounds) reuse this very struct.
	n.recycle(t)
	h(n.k, m)
}

// Summary aggregates network statistics.
type Summary struct {
	Messages       [noc.NumClasses]uint64
	Bytes          [noc.NumClasses]uint64
	MeanLatency    [noc.NumClasses]float64
	PlaneMessages  [numPlanes]uint64
	MeanHopQueuing float64
	TotalFlits     uint64

	// Link-level fault activity (all zero without a fault injector):
	// CRC-detected corrupted traversals, scheduled retransmissions,
	// flits burned by failed traversals, and messages dropped on
	// retry-budget exhaustion (any nonzero Dropped fails the run).
	CRCErrors  uint64
	Retries    uint64
	RetryFlits uint64
	Dropped    uint64
}

// Summary returns the accumulated statistics.
func (n *Network) Summary() Summary {
	var s Summary
	for c := 0; c < int(noc.NumClasses); c++ {
		s.Messages[c] = n.msgs[c].Value()
		s.Bytes[c] = n.bytes[c].Value()
		s.MeanLatency[c] = n.latHist[c].Value()
	}
	for p := 0; p < int(numPlanes); p++ {
		s.PlaneMessages[p] = n.byPlane[p].Value()
	}
	s.MeanHopQueuing = n.hopWait.Value()
	s.CRCErrors = n.crcErrors.Value()
	s.Retries = n.retries.Value()
	s.RetryFlits = n.retryFlits.Value()
	s.Dropped = n.dropped.Value()
	for i := range n.chans {
		s.TotalFlits += n.chans[i].flits.Value()
	}
	return s
}

// TotalMessages returns the delivered message count across classes.
func (s Summary) TotalMessages() uint64 {
	var t uint64
	for _, v := range s.Messages {
		t += v
	}
	return t
}

// Sub returns the summary of the window between prev and s: counters are
// differenced; the latency means (not decomposable) keep the full-run
// values.
func (s Summary) Sub(prev Summary) Summary {
	out := s
	for c := range out.Messages {
		out.Messages[c] -= prev.Messages[c]
		out.Bytes[c] -= prev.Bytes[c]
	}
	for p := range out.PlaneMessages {
		out.PlaneMessages[p] -= prev.PlaneMessages[p]
	}
	out.TotalFlits -= prev.TotalFlits
	out.CRCErrors -= prev.CRCErrors
	out.Retries -= prev.Retries
	out.RetryFlits -= prev.RetryFlits
	out.Dropped -= prev.Dropped
	return out
}

// LatencyPercentile returns the p-th percentile (p in [0,1]) of
// end-to-end latency for a message class, at 2-cycle resolution.
func (n *Network) LatencyPercentile(c noc.Class, p float64) float64 {
	return n.latHist[c].Percentile(p)
}

// Links returns the number of directed links in the mesh.
func (n *Network) Links() int { return len(n.links) }
