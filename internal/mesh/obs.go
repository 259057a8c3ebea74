package mesh

import (
	"fmt"
	"strings"

	"tilesim/internal/noc"
	"tilesim/internal/obs"
	"tilesim/internal/sim"
)

// LatencyBreakdown decomposes delivered-message latency into the
// stages of a mesh transit — router pipelines, output-channel queueing,
// wire flight, tail serialization, and (under fault injection)
// retransmission — as exact cycle sums, so for every class
//
//	Total == Router + Queue + Wire + Serialize + Retry
//
// holds to the cycle (the obs integration test asserts it). The stages
// follow the timing model of hop/deliver: a message crossing H links
// pays (H+1) router pipelines, its accumulated channel waits, H wire
// traversals, and flits-1 cycles of tail serialization. Retry charges
// every cycle spent on CRC-failed traversals and NACK backoff; it is
// zero without a fault injector.
type LatencyBreakdown struct {
	// Messages counts delivered messages in this class.
	Messages uint64
	// Total is the summed inject->eject latency in cycles.
	Total uint64
	// Router is the summed router-pipeline occupancy in cycles.
	Router uint64
	// Queue is the summed output-channel wait in cycles.
	Queue uint64
	// Wire is the summed head-flit wire-flight time in cycles.
	Wire uint64
	// Serialize is the summed tail-serialization time in cycles.
	Serialize uint64
	// Retry is the summed retransmission time (failed traversals plus
	// NACK backoff) in cycles; zero when faults are disabled.
	Retry uint64
}

// ComponentsSum returns Router+Queue+Wire+Serialize+Retry, which must
// equal Total exactly.
func (b LatencyBreakdown) ComponentsSum() uint64 {
	return b.Router + b.Queue + b.Wire + b.Serialize + b.Retry
}

// Breakdown returns the accumulated latency decomposition for a class.
func (n *Network) Breakdown(c noc.Class) LatencyBreakdown {
	return n.breakdown[c]
}

// PlaneFlits returns the cumulative flit-cycles carried on a plane
// across all links.
func (n *Network) PlaneFlits(p Plane) uint64 {
	return n.planeFlits[p].Value()
}

// SetTracer attaches a message-lifecycle tracer. Must be called before
// the first Send; a nil tracer (the default) makes every hook a single
// pointer check.
func (n *Network) SetTracer(t *obs.Tracer) { n.tracer = t }

// classSlug renders a message class as a metric-name segment
// ("coherence commands" -> "coherence_commands").
func classSlug(c noc.Class) string {
	return strings.ReplaceAll(c.String(), " ", "_")
}

// recordBreakdown accumulates the exact latency decomposition of one
// delivered message and closes its lifecycle span if sampled.
//
// All components except Wire are accumulated from first principles
// (pipeline depth, measured waits, flit count, charged retry time);
// Wire is the residual, which by the hop timing model equals
// hops x channel-traversal cycles and guarantees the components always
// sum exactly to Total.
func (n *Network) recordBreakdown(t *transit, class noc.Class) {
	hops := len(t.route)
	total := uint64(n.k.Now() - t.injected)
	router := uint64(hops+1) * uint64(n.cfg.RouterLatency)
	serialize := uint64(t.flits - 1)
	queue := uint64(t.waited)
	retry := uint64(t.retryCycles)
	wire := total - router - serialize - queue - retry

	bd := &n.breakdown[class]
	bd.Messages++
	bd.Total += total
	bd.Router += router
	bd.Queue += queue
	bd.Wire += wire
	bd.Serialize += serialize
	bd.Retry += retry

	if n.tracer != nil && t.traceID != 0 {
		//tilesim:allocok sampled-span emission: guarded by tracer and trace id
		args := []obs.Arg{
			{Key: "hops", Val: float64(hops)},
			{Key: "flits", Val: float64(t.flits)},
			{Key: "plane", Val: float64(t.plane)},
			{Key: "bytes", Val: float64(t.m.SizeBytes)},
			{Key: "router_cycles", Val: float64(router)},
			{Key: "queue_cycles", Val: float64(queue)},
			{Key: "wire_cycles", Val: float64(wire)},
			{Key: "serialize_cycles", Val: float64(serialize)},
		}
		if retry > 0 {
			args = append(args,
				obs.Arg{Key: "retry_cycles", Val: float64(retry)},
				obs.Arg{Key: "attempts", Val: float64(t.attempts)})
		}
		n.tracer.End(obs.PidMessages, t.traceID, t.m.Type.String(), classSlug(class),
			uint64(n.k.Now()), args)
	}
}

// traceLinkOccupancy emits one complete-span event on the link's track
// covering the cycles the message's flits occupy the channel. Only
// called for sampled messages with a tracer attached (hop guards).
func (n *Network) traceLinkOccupancy(m *noc.Message, plane Plane, from, to int, start sim.Time, flits noc.FlitCount) {
	tid := n.linkSalt(from, to)*int(numPlanes) + int(plane)
	n.tracer.SetTrackName(obs.PidLinks, tid,
		//tilesim:allocok sampled-span emission: guarded by tracer and trace id
		fmt.Sprintf("%02d->%02d.%s", from, to, plane))
	n.tracer.Complete(obs.PidLinks, tid, m.Type.String(), "link",
		//tilesim:allocok sampled-span emission: guarded by tracer and trace id
		uint64(start), uint64(flits), []obs.Arg{
			{Key: "flits", Val: float64(flits)},
			{Key: "bytes", Val: float64(m.SizeBytes)},
		})
}

// RegisterMetrics installs the network's counters in a registry under
// the "net." prefix (DESIGN.md §10 naming):
//
//	net.msgs.<class> / net.bytes.<class>    delivered traffic
//	net.lat.<class>                         end-to-end latency distribution
//	net.breakdown.<class>.<stage>_cycles    exact latency decomposition
//	net.plane.<plane>.{msgs,flits}          per-plane traffic
//	net.link.<ff>-><tt>.<plane>.{flits,util} per directed link
//	net.hop_wait / net.inflight             congestion signals
//	net.fault.*                             fault-injection activity
//	                                        (only with an injector)
//
// The fault family — and the per-class retry_cycles breakdown stage —
// register only when a fault injector is attached, keeping fault-free
// metric output byte-identical to earlier versions.
func (n *Network) RegisterMetrics(r *obs.Registry) {
	for c := noc.Class(0); c < noc.NumClasses; c++ {
		slug := classSlug(c)
		r.Counter("net.msgs."+slug, n.msgs[c].Value)
		r.Counter("net.bytes."+slug, n.bytes[c].Value)
		r.Mean("net.lat."+slug, &n.latHist[c].Mean)
		r.Histogram("net.lat."+slug+".hist", n.latHist[c])
		bd := &n.breakdown[c]
		r.Counter("net.breakdown."+slug+".total_cycles", func() uint64 { return bd.Total })
		r.Counter("net.breakdown."+slug+".router_cycles", func() uint64 { return bd.Router })
		r.Counter("net.breakdown."+slug+".queue_cycles", func() uint64 { return bd.Queue })
		r.Counter("net.breakdown."+slug+".wire_cycles", func() uint64 { return bd.Wire })
		r.Counter("net.breakdown."+slug+".serialize_cycles", func() uint64 { return bd.Serialize })
		if n.inj != nil {
			r.Counter("net.breakdown."+slug+".retry_cycles", func() uint64 { return bd.Retry })
		}
	}
	if n.inj != nil {
		r.Counter("net.fault.crc_errors", n.crcErrors.Value)
		r.Counter("net.fault.retries", n.retries.Value)
		r.Counter("net.fault.retry_flits", n.retryFlits.Value)
		r.Counter("net.fault.dropped", n.dropped.Value)
		r.Counter("net.fault.stall_cycles", n.stallInj.Value)
		r.Counter("net.fault.outage_wait_cycles", n.outageWait.Value)
	}
	for p := Plane(0); p < numPlanes; p++ {
		if !n.HasPlane(p) {
			continue
		}
		r.Counter("net.plane."+p.String()+".msgs", n.byPlane[p].Value)
		r.Counter("net.plane."+p.String()+".flits", n.planeFlits[p].Value)
	}
	r.Mean("net.hop_wait", &n.hopWait)
	r.Gauge("net.inflight", func() float64 { return float64(n.inFlight) })
	// Per-link metrics follow the topology's canonical link enumeration
	// (ascending (From, To) — for the dense mesh, byte-identical names
	// and order to the pre-interface grid scan); names are unique, so
	// registration cannot collide. Above perLinkMetricLinksCap directed
	// links (a 1024-tile slim topology has 63k) the per-link family is
	// skipped: snapshots would balloon to hundreds of thousands of keys
	// while the plane/class aggregates keep carrying the signal.
	if len(n.links) > perLinkMetricLinksCap {
		return
	}
	for li, l := range n.links {
		link := fmt.Sprintf("net.link.%02d->%02d.", l.From, l.To)
		for p := Plane(0); p < numPlanes; p++ {
			if !n.HasPlane(p) {
				continue
			}
			flits := n.channel(int32(li), p).flits.Value
			r.Counter(link+p.String()+".flits", flits)
			// Utilization: the channel carries one flit per busy cycle.
			r.Utilization(link+p.String()+".util", flits)
		}
	}
}

// perLinkMetricLinksCap bounds the per-link metric family: topologies
// with more directed links than this register only aggregate metrics.
// 4096 keeps every mesh/cmesh/torus up to 1024 tiles fully instrumented
// (a 32x32 mesh has 3968 directed links).
const perLinkMetricLinksCap = 4096
