// Package coherence implements the directory-based MESI protocol of the
// tiled CMP (paper Section 4.1/4.2): per-tile L1 caches kept coherent by
// a directory held in the tags of the home tile's L2 slice, over an
// arbitrary message transport.
//
// Protocol shape:
//
//   - The home tile serializes transactions per block (home-blocking):
//     while a transaction is in flight the block is busy and later
//     requests queue at the home in arrival order.
//   - Reads (GetS) are granted E when no other copy exists, else S. A
//     modified/exclusive copy elsewhere is forwarded (FwdGetS): the owner
//     sends the line straight to the requestor (the critical 3a leg) and
//     a Revision copy back to the home (the non-critical 3b leg).
//   - Writes (GetX/Upgrade) invalidate sharers; invalidation acks flow
//     directly to the requestor, which completes when it holds data plus
//     every expected ack.
//   - L1 evictions of M lines send WriteBack (with data); E lines send a
//     ReplacementHint; S lines are silent (so directory sharer sets are
//     supersets and invalidations of absent lines are simply acked).
//     Evicted M/E lines stay addressable in a writeback buffer until the
//     home acknowledges (WBAck), and serve interventions that raced with
//     the eviction from there.
//   - L2 is inclusive: fills that evict a directory-present victim first
//     recall it (invalidate sharers / pull back the owner's copy).
//
// The package is transport-agnostic: controllers emit messages through a
// Sender and receive them via Deliver, so the same protocol runs over
// the timed mesh or over a zero-latency loopback in tests.
package coherence

import (
	"fmt"
	"math/bits"

	"tilesim/internal/noc"
	"tilesim/internal/obs"
	"tilesim/internal/pooldbg"
	"tilesim/internal/sim"
)

// Sender injects a protocol message into the transport. The transport
// must deliver every message exactly once, but may reorder freely; the
// protocol tolerates reordering through MSHR ack counting and home
// queueing.
type Sender func(*noc.Message)

// Config parameterizes the protocol timing (paper Table 4).
type Config struct {
	Tiles int
	// L1HitCycles is the L1 access latency.
	L1HitCycles int
	// L2TagCycles is the directory/tag access at the home.
	L2TagCycles int
	// L2DataCycles is the additional data-array access for replies.
	L2DataCycles int
	// MemCycles is the off-chip access latency.
	MemCycles int
	// MSHRs is the per-L1 miss-register count (demand misses plus
	// writeback buffer entries).
	MSHRs int
	// ReplyPartitioning enables the extension of Flores et al. [9]: data
	// responses split into a critical-word PartialReply plus a relaxed
	// (non-critical) full-line reply; the core resumes on the partial.
	ReplyPartitioning bool
}

// DefaultConfig returns the paper's 16-tile configuration: L1 2 cycles,
// L2 6+2 cycles, memory 400 cycles.
func DefaultConfig() Config {
	return Config{
		Tiles:        16,
		L1HitCycles:  2,
		L2TagCycles:  2,
		L2DataCycles: 6,
		MemCycles:    400,
		MSHRs:        8,
	}
}

// HomePageShift sets the home-interleaving granularity: 4 KB pages.
// Page-granularity NUCA placement is what makes small-low-order address
// compression meaningful (paper Figure 2's 1-byte-LO configurations): a
// compression base region must stay within one home for per-destination
// bases to re-hit.
const HomePageShift = 12

// HomeOf returns the home tile of a block address: page-granularity
// interleaving.
func HomeOf(addr uint64, tiles int) int {
	if bits.OnesCount(uint(tiles)) != 1 {
		panic(fmt.Sprintf("coherence: tile count %d not a power of two", tiles))
	}
	return int((addr >> HomePageShift) & uint64(tiles-1))
}

// Protocol owns every tile's controllers and the shared transaction
// counter. All controllers run on one simulation kernel.
type Protocol struct {
	cfg  Config
	k    *sim.Kernel
	send Sender

	l1s   []*L1Controller
	homes []*HomeController

	nextTxn uint64

	// pool recycles message headers: msg draws from it and Deliver
	// releases each header once its dispatch returns.
	pool noc.Pool
	// freeJobs pools deferred-send jobs (sendLater), so delaying a
	// message costs no allocation in steady state.
	freeJobs *sendJob

	// tracer is the optional miss-lifecycle tracer (obs.go). Reads
	// only; never affects timing.
	tracer *obs.Tracer
}

// sendJob is one pooled deferred send: a prebound kernel event carrying
// the message to emit. The job returns to the pool before the send runs,
// so a send that synchronously schedules another deferred send can reuse
// it immediately.
type sendJob struct {
	p *Protocol
	m *noc.Message
	// mGen snapshots m's pool generation when the job retains it
	// (poollife clause (c)); run probes it before the send, so a header
	// recycled while the job was pending panics under -tags pooldebug.
	mGen uint64
	fn   sim.Event
	next *sendJob
}

func (j *sendJob) run() {
	p, m := j.p, j.m
	m.CheckAlive(j.mGen)
	j.m = nil
	pooldbg.Release(j, 0)
	j.next = p.freeJobs
	p.freeJobs = j
	p.send(m)
}

// sendLater emits m after delay cycles, through a pooled job instead of
// a per-call closure. Jobs scheduled at equal delays fire in call order
// (kernel FIFO), matching the closure version bit for bit.
func (p *Protocol) sendLater(m *noc.Message, delay sim.Time) {
	j := p.freeJobs
	if j == nil {
		//tilesim:allocok pool miss: one deferred-send job, reused for the rest of the run
		j = &sendJob{p: p}
		//tilesim:allocok pool miss: the job's prebound event, bound once per pooled job
		j.fn = j.run
	} else {
		p.freeJobs = j.next
		j.next = nil
	}
	pooldbg.Acquire(j, 0)
	j.mGen = m.Generation()
	j.m = m
	p.k.Schedule(delay, j.fn)
}

// New builds the protocol. send is invoked for every outgoing message
// (including tile-local ones; the transport decides how to route those).
func New(k *sim.Kernel, cfg Config, send Sender) *Protocol {
	if cfg.Tiles < 2 || cfg.Tiles > MaxTiles || bits.OnesCount(uint(cfg.Tiles)) != 1 {
		panic(fmt.Sprintf("coherence: tile count %d must be a power of two in 2..%d", cfg.Tiles, MaxTiles))
	}
	p := &Protocol{cfg: cfg, k: k, send: send}
	p.l1s = make([]*L1Controller, cfg.Tiles)
	p.homes = make([]*HomeController, cfg.Tiles)
	for i := 0; i < cfg.Tiles; i++ {
		p.l1s[i] = newL1Controller(p, i)
		p.homes[i] = newHomeController(p, i)
	}
	return p
}

// L1 returns tile id's L1 controller.
func (p *Protocol) L1(id int) *L1Controller { return p.l1s[id] }

// Home returns tile id's home (L2 slice + directory) controller.
func (p *Protocol) Home(id int) *HomeController { return p.homes[id] }

// Config returns the protocol configuration.
func (p *Protocol) Config() Config { return p.cfg }

// Deliver routes an arriving message to the right controller at its
// destination tile.
//
//tilesim:hotpath coherence dispatch, once per delivered message
func (p *Protocol) Deliver(m *noc.Message) {
	switch m.Type {
	case noc.GetS, noc.GetX, noc.Upgrade, noc.WriteBack, noc.ReplacementHint, noc.Revision, noc.OwnAck:
		p.homes[m.Dst].deliver(m)
	case noc.InvAck:
		// Invalidation acks flow to the write requestor's L1, except
		// during L2 inclusion recalls, where the home collects them.
		block := m.Addr &^ uint64(noc.LineBytes-1)
		if p.homes[m.Dst].wantsInvAck(block) {
			p.homes[m.Dst].deliver(m)
		} else {
			p.l1s[m.Dst].deliver(m)
		}
	case noc.Data, noc.DataExclusive, noc.AckNoData, noc.WBAck, noc.Inv, noc.FwdGetS, noc.FwdGetX, noc.PartialReply:
		p.l1s[m.Dst].deliver(m)
	default:
		panic(fmt.Sprintf("coherence: undeliverable message type %v", m.Type))
	}
	// Dispatch extracted everything it needs (controllers never retain a
	// header): the header returns to the pool here, the single release
	// point of every delivered message.
	p.pool.Put(m)
}

func (p *Protocol) txn() uint64 {
	p.nextTxn++
	return p.nextTxn
}

// msg builds a protocol message with simulator-tracked address. Headers
// come from the protocol's pool; Deliver recycles them.
//
//tilesim:pool
func (p *Protocol) msg(t noc.Type, src, dst int, addr uint64, txn uint64) *noc.Message {
	m := p.pool.Get()
	m.Type, m.Src, m.Dst, m.Addr, m.Txn = t, src, dst, addr, txn
	return m
}

// OutstandingTransactions reports protocol liveness state for drain
// checks: the number of busy home entries plus live L1 MSHR entries.
func (p *Protocol) OutstandingTransactions() int {
	n := 0
	for _, h := range p.homes {
		n += h.busyCount()
	}
	for _, l := range p.l1s {
		n += l.mshr.Len()
	}
	return n
}
