// Package core implements the paper's contribution: performance- and
// energy-efficient message management for tiled CMPs by combining
// dynamic address compression with a heterogeneous interconnect
// (Section 4).
//
// Every protocol message passes through the Manager on its way to the
// network:
//
//  1. If the message is a request or coherence command (the two
//     compressible streams), the configured address-compression codec
//     encodes its block address: on a hit the 11-byte message shrinks to
//     3 bytes of control plus 1-2 low-order bytes.
//  2. The message is mapped to a wire plane: critical messages that fit
//     the VL-Wire channel (compressed requests/commands and the already
//     3-byte coherence replies) ride the very-low-latency wires;
//     everything else — uncompressed short messages, data replies,
//     replacements — rides the baseline wires.
//
// The manager also shortcuts tile-local messages (an L1 talking to its
// own tile's L2 slice) past the network, counts compression coverage
// (Figure 2) and the per-plane traffic split, and reports compression
// events to the energy meter.
//
// Ordering note: a compressed message (VL plane) can physically overtake
// the uncompressed install message it depends on (B plane). Hardware
// resolves this with per-stream sequence numbers and a small reorder
// buffer at the receiving network interface; the simulator models the
// equivalent by committing the codec pair state atomically at send time
// and verifying the decode against the true address (see DESIGN.md).
package core

import (
	"fmt"

	"tilesim/internal/compress"
	"tilesim/internal/energy"
	"tilesim/internal/mesh"
	"tilesim/internal/noc"
	"tilesim/internal/pooldbg"
	"tilesim/internal/sim"
	"tilesim/internal/stats"
)

// Config parameterizes the message manager.
type Config struct {
	// Codec is the address-compression scheme (NewNone() for the
	// baseline).
	Codec compress.Codec
	// VLWidthBytes is the VL-Wire channel width (3, 4 or 5); 0 means no
	// VL plane (baseline interconnect).
	VLWidthBytes int
	// LocalDelay is the latency of a tile-internal L1<->L2 hop.
	LocalDelay sim.Time
}

// Manager is the per-chip message management unit.
type Manager struct {
	k     *sim.Kernel
	net   *mesh.Network
	cfg   Config
	meter *energy.Meter // may be nil
	// deliver hands arrived messages to the protocol.
	deliver func(*noc.Message)

	// freeJobs pools tile-local delivery jobs, so the local shortcut
	// allocates nothing in steady state.
	freeJobs *localJob

	verifyDecode bool // off for the Perfect oracle codec

	// Statistics.
	Compressible stats.Counter // remote messages eligible for compression
	Compressed   stats.Counter // of those, how many hit
	VLMessages   stats.Counter
	BMessages    stats.Counter
	PWMessages   stats.Counter
	LocalMsgs    stats.Counter
	SavedBytes   stats.Counter // wire bytes removed by compression
	// FailoverMsgs counts critical messages that would have ridden the
	// VL wires but were steered to the bulk plane uncompressed because
	// an injected outage had the VL plane down at send time (the paper's
	// own fallback path for compression misses, reused for resilience).
	FailoverMsgs stats.Counter
}

// New wires a manager between the protocol and the network. deliver is
// the protocol's Deliver. meter may be nil.
func New(k *sim.Kernel, net *mesh.Network, cfg Config, meter *energy.Meter, deliver func(*noc.Message)) *Manager {
	if cfg.Codec == nil {
		panic("core: manager needs a codec (use compress.NewNone for the baseline)")
	}
	if cfg.VLWidthBytes != 0 {
		if !net.HasPlane(mesh.PlaneVL) {
			panic("core: VL width configured but network has no VL plane")
		}
		if got := net.PlaneWidth(mesh.PlaneVL); got != cfg.VLWidthBytes {
			panic(fmt.Sprintf("core: VL width %d does not match network channel width %d", cfg.VLWidthBytes, got))
		}
		want := noc.ControlBytes + cfg.Codec.CompressedPayloadBytes()
		if _, isPerfect := cfg.Codec.(*compress.Perfect); cfg.VLWidthBytes < want && !isPerfect {
			panic(fmt.Sprintf("core: VL channel %dB cannot carry compressed messages of %dB", cfg.VLWidthBytes, want))
		}
	}
	if cfg.LocalDelay == 0 {
		cfg.LocalDelay = 1
	}
	_, isPerfect := cfg.Codec.(*compress.Perfect)
	m := &Manager{
		k:            k,
		net:          net,
		cfg:          cfg,
		meter:        meter,
		deliver:      deliver,
		verifyDecode: !isPerfect,
	}
	for tile := 0; tile < net.Topology().Tiles(); tile++ {
		net.SetHandler(tile, func(_ *sim.Kernel, msg *noc.Message) { m.deliver(msg) })
	}
	return m
}

// localJob is one pooled tile-local delivery: a prebound kernel event
// carrying the message past the network. The job returns to the pool
// before the delivery runs, so a delivery that synchronously sends
// another local message can reuse it immediately.
type localJob struct {
	mgr *Manager
	msg *noc.Message
	// msgGen snapshots msg's pool generation when the job retains it
	// (poollife clause (c)); run probes it before the delivery, so a
	// header recycled while the job was pending panics under
	// -tags pooldebug.
	msgGen uint64
	fn     sim.Event
	next   *localJob
}

func (j *localJob) run() {
	mgr, msg := j.mgr, j.msg
	msg.CheckAlive(j.msgGen)
	j.msg = nil
	pooldbg.Release(j, 0)
	j.next = mgr.freeJobs
	mgr.freeJobs = j
	mgr.deliver(msg)
}

// streamOf maps a compressible message type to its hardware stream.
func streamOf(t noc.Type) compress.Stream {
	switch t {
	case noc.GetS, noc.GetX, noc.Upgrade:
		return compress.RequestStream
	case noc.Inv, noc.FwdGetS, noc.FwdGetX:
		return compress.CommandStream
	default:
		panic(fmt.Sprintf("core: %v has no compression stream", t))
	}
}

// Send sizes, compresses and routes one protocol message. It is the
// Sender the coherence protocol is constructed with.
//
//tilesim:hotpath message sizing/compression/routing, once per protocol message
func (m *Manager) Send(msg *noc.Message) {
	if msg.Src == msg.Dst {
		// Tile-local: L1 and home on the same tile; no link, no
		// compression, no network statistics (Figure 5 counts messages
		// that travel on the interconnect).
		msg.SizeBytes = msg.UncompressedSize()
		m.LocalMsgs.Inc()
		j := m.freeJobs
		if j == nil {
			//tilesim:allocok pool miss: one local-delivery job, reused for the rest of the run
			j = &localJob{mgr: m}
			//tilesim:allocok pool miss: the job's prebound event, bound once per pooled job
			j.fn = j.run
		} else {
			m.freeJobs = j.next
			j.next = nil
		}
		pooldbg.Acquire(j, 0)
		j.msgGen = msg.Generation()
		j.msg = msg
		// LocalDelay is constant, so jobs fire in schedule order and the
		// pooled path is bit-identical to the per-message closure.
		m.k.Schedule(m.cfg.LocalDelay, j.fn)
		return
	}
	msg.SizeBytes = msg.UncompressedSize()
	// Graceful degradation under an injected VL-plane outage: skip
	// compression entirely (keeping both codec endpoints' dictionaries
	// untouched, exactly as hardware would when the encoder is bypassed)
	// and let the message fall through to the bulk plane uncompressed —
	// the same fallback path a compression miss takes.
	vlDown := m.cfg.VLWidthBytes > 0 && !m.net.PlaneUp(mesh.PlaneVL)
	if noc.Compressible(msg.Type) && !vlDown {
		m.compress(msg)
	}
	critical := noc.Critical(msg.Type) && !msg.Relaxed
	if vlDown && critical && (noc.Compressible(msg.Type) || msg.SizeBytes <= m.cfg.VLWidthBytes) {
		m.FailoverMsgs.Inc()
	}
	switch {
	case critical && !vlDown && m.cfg.VLWidthBytes > 0 && msg.SizeBytes <= m.cfg.VLWidthBytes:
		msg.VL = true
		m.VLMessages.Inc()
	case (!critical || !m.net.HasPlane(mesh.PlaneB)) && m.net.HasPlane(mesh.PlanePW):
		// Reply Partitioning layouts: the non-critical bulk (ordinary
		// replies, replacements, revisions) rides power-optimized
		// wires. In the L+PW layout the PW channel is also the only
		// home for anything that does not fit the L channel.
		msg.PW = true
		m.PWMessages.Inc()
	default:
		m.BMessages.Inc()
	}
	m.net.Send(msg)
}

func (m *Manager) compress(msg *noc.Message) {
	stream := streamOf(msg.Type)
	m.Compressible.Inc()
	enc := m.cfg.Codec.Encode(msg.Src, msg.Dst, stream, msg.Addr)
	// Commit the receiver state atomically (see the ordering note in
	// the package comment) and verify exact reconstruction.
	dec := m.cfg.Codec.Decode(msg.Src, msg.Dst, stream, enc)
	if m.verifyDecode && dec != msg.Addr {
		panic(fmt.Sprintf("core: codec %s corrupted address %#x -> %#x", m.cfg.Codec.Name(), msg.Addr, dec))
	}
	if m.meter != nil {
		m.meter.CompressionEvent()
	}
	if enc.Compressed {
		m.Compressed.Inc()
		size := noc.ControlBytes + enc.PayloadBytes
		m.SavedBytes.Add(uint64(msg.SizeBytes - size))
		msg.SizeBytes = size
		msg.Compressed = true
	}
}

// Coverage returns the fraction of compressible messages that were
// actually compressed (Figure 2's metric).
func (m *Manager) Coverage() float64 {
	return stats.Ratio(float64(m.Compressed.Value()), float64(m.Compressible.Value()))
}

// VLFraction returns the fraction of remote messages that rode the
// low-latency wires.
func (m *Manager) VLFraction() float64 {
	total := m.VLMessages.Value() + m.BMessages.Value() + m.PWMessages.Value()
	return stats.Ratio(float64(m.VLMessages.Value()), float64(total))
}
