package coherence

import (
	"fmt"
	"math/bits"
	"slices"

	"tilesim/internal/cache"
	"tilesim/internal/noc"
	"tilesim/internal/pooldbg"
	"tilesim/internal/sim"
	"tilesim/internal/stats"
)

// txnKind is the in-flight transaction context of a busy directory
// entry.
type txnKind int

const (
	txnNone   txnKind = iota
	txnFwdS           // waiting for the owner's Revision after FwdGetS
	txnFwdX           // waiting for the owner's Revision after FwdGetX
	txnFill           // waiting for memory (and possibly a victim recall)
	txnRecall         // the entry is the *victim* of an L2 recall
	txnGrant          // ownership granted, waiting for the requestor's OwnAck
)

// pendOp names the grant operation a fill transaction resumes with once
// the data lands in L2 (DESIGN.md §16: the prebound encoding of the old
// ensureData continuation closures).
const (
	opNone uint8 = iota
	opGrantS
	opGrantX
)

// dirEntry is the directory state of one block at its home. Entries are
// pooled on the controller's freelist: release recycles empty ones and
// entry reuses them, so steady state allocates none.
type dirEntry struct {
	sharers SharerSet // tiles with S copies (may be a superset)
	owner   int       // tile with the M/E copy, or -1

	busy  bool
	kind  txnKind
	queue []homeReq // requests waiting for the transaction

	// Context for the in-flight transaction.
	requestor  int
	reqType    noc.Type
	recallAcks int
	// pendingCloses counts the messages that must still arrive before
	// the transaction unbusies: the owner's Revision for interventions,
	// the requestor's OwnAck for ownership transfers (both for FwdGetX).
	pendingCloses int
	// Pending grant of a txnFill entry, dispatched when the fill lands.
	pendOp  uint8
	pendSrc int
	pendTxn uint64
	// fillFor is the block whose fill recalled this txnRecall victim;
	// the fill resumes once the last recall ack arrives.
	fillFor uint64

	// next links the controller's entry freelist.
	next *dirEntry
}

func (e *dirEntry) empty() bool {
	return e.sharers.Empty() && e.owner < 0 && !e.busy && len(e.queue) == 0
}

// HomeController is one tile's L2 slice plus the directory for the
// address partition it is home to.
type HomeController struct {
	p  *Protocol
	id int

	l2  *cache.Cache
	dir map[uint64]*dirEntry
	// freeEntries pools released directory entries.
	freeEntries *dirEntry
	// spareQueue is a drained request queue's storage, kept for the
	// next finishTxn to hand its entry, so a drain allocates no new
	// queue (see finishTxn).
	spareQueue []homeReq
	// busyEntries counts dir entries with busy set, maintained by
	// setBusy so busyCount is O(1) — it runs on every drain check and
	// epoch-series sample, where a directory walk dominated the cost.
	busyEntries int

	// Pending-state queues with prebound dispatch events (DESIGN.md
	// §16): each queue's pushes all schedule the same constant delay,
	// so pop order equals push order equals the old closure fire order.
	tagQ        fifo[homeReq]  // request/replacement, after L2TagCycles
	fillQ       fifo[homeFill] // memory fill, after MemCycles
	fillRetryQ  fifo[homeFill] // victim-busy fill retry, after 8 cycles
	tagFn       sim.Event
	fillFn      sim.Event
	fillRetryFn sim.Event

	// Statistics.
	Requests     stats.Counter
	L2Misses     stats.Counter
	MemFetches   stats.Counter
	Recalls      stats.Counter
	Forwards     stats.Counter
	InvsSent     stats.Counter
	QueuedAtHome stats.Counter
}

func newHomeController(p *Protocol, id int) *HomeController {
	l2cfg := cache.L2SliceConfig()
	// Blocks are home-interleaved on the page bits; within this slice
	// those bits are constant, so fold them out of the set index.
	l2cfg.IndexSkipLo = HomePageShift
	l2cfg.IndexSkipBits = bits.TrailingZeros(uint(p.cfg.Tiles))
	h := &HomeController{
		p:   p,
		id:  id,
		l2:  cache.New(l2cfg),
		dir: make(map[uint64]*dirEntry),
	}
	h.tagFn = h.dispatchTag
	h.fillFn = h.dispatchFill
	h.fillRetryFn = h.dispatchFillRetry
	return h
}

// L2 exposes the slice array (stats, tests).
func (h *HomeController) L2() *cache.Cache { return h.l2 }

// entry returns block's directory entry, taking a pooled one (and
// registering it) when the block is untracked.
//
//tilesim:pool
func (h *HomeController) entry(block uint64) *dirEntry {
	if e, ok := h.dir[block]; ok {
		return e
	}
	e := h.freeEntries
	if e == nil {
		//tilesim:allocok pool miss: one directory entry, reused for the rest of the run
		e = &dirEntry{}
	} else {
		h.freeEntries = e.next
	}
	q := e.queue[:0]
	*e = dirEntry{owner: -1, queue: q}
	pooldbg.Acquire(e, 0)
	h.dir[block] = e
	return e
}

// release recycles block's entry once it holds no state — the single
// release point of the directory-entry pool.
//
//tilesim:release
func (h *HomeController) release(block uint64, e *dirEntry) {
	if e.empty() {
		delete(h.dir, block)
		pooldbg.Release(e, 0)
		e.next = h.freeEntries
		h.freeEntries = e
	}
}

// sortedBlocks returns the tracked block addresses in ascending order,
// so every walk of the directory is deterministic regardless of map
// iteration order.
func (h *HomeController) sortedBlocks() []uint64 {
	blocks := make([]uint64, 0, len(h.dir))
	for b := range h.dir { //tilesim:ordered — keys are sorted below
		blocks = append(blocks, b)
	}
	slices.Sort(blocks)
	return blocks
}

// setBusy transitions an entry's busy flag while maintaining the
// running busy-entry count. No-op transitions are tolerated: finishTxn
// clears a flag the fill path may already have cleared.
func (h *HomeController) setBusy(e *dirEntry, v bool) {
	if e.busy == v {
		return
	}
	e.busy = v
	if v {
		h.busyEntries++
	} else {
		h.busyEntries--
	}
}

// busyCount returns the number of busy directory entries. It reads the
// incrementally maintained count (TestBusyCountMatchesWalk cross-checks
// it against a directory walk) because it runs on every drain check and
// epoch-series sample, where walking — let alone sorting — the
// directory dominated the sample cost.
func (h *HomeController) busyCount() int { return h.busyEntries }

// wantsInvAck reports whether an InvAck for block belongs to a recall in
// progress at this home (as opposed to a requestor L1's transaction).
func (h *HomeController) wantsInvAck(block uint64) bool {
	e, ok := h.dir[block]
	return ok && e.busy && e.kind == txnRecall
}

// deliver handles a message addressed to this home. Requests and
// replacements extract their fields into a homeReq and queue behind the
// directory/tag latency; the header itself is never retained.
func (h *HomeController) deliver(m *noc.Message) {
	block := m.Addr &^ uint64(noc.LineBytes-1)
	if HomeOf(block, h.p.cfg.Tiles) != h.id {
		panic(fmt.Sprintf("coherence: home %d got %v for block %#x homed at %d",
			h.id, m.Type, block, HomeOf(block, h.p.cfg.Tiles)))
	}
	switch m.Type {
	case noc.GetS, noc.GetX, noc.Upgrade:
		h.Requests.Inc()
		// Charge the directory/tag lookup. One queue serves requests and
		// replacements: both charge the same latency, so a single FIFO
		// preserves their relative arrival order.
		h.tagQ.push(homeReq{typ: int(m.Type), src: m.Src, txn: m.Txn, block: block})
		h.p.k.Schedule(sim.Time(h.p.cfg.L2TagCycles), h.tagFn)
	case noc.WriteBack, noc.ReplacementHint:
		h.tagQ.push(homeReq{typ: int(m.Type), src: m.Src, txn: m.Txn, block: block})
		h.p.k.Schedule(sim.Time(h.p.cfg.L2TagCycles), h.tagFn)
	case noc.Revision:
		h.handleRevision(m, block)
	case noc.OwnAck:
		h.handleOwnAck(m, block)
	case noc.InvAck:
		h.handleRecallAck(m, block)
	default:
		panic(fmt.Sprintf("coherence: home %d got %v", h.id, m.Type))
	}
}

// dispatchTag pops one queued request or replacement after the tag
// latency.
func (h *HomeController) dispatchTag() {
	r := h.tagQ.pop()
	switch noc.Type(r.typ) {
	case noc.GetS, noc.GetX, noc.Upgrade:
		h.handleRequest(r)
	case noc.WriteBack, noc.ReplacementHint:
		h.handleReplacement(r)
	default:
		panic(fmt.Sprintf("coherence: home %d tag dispatch got %v", h.id, noc.Type(r.typ)))
	}
}

func (h *HomeController) handleRequest(r homeReq) {
	e := h.entry(r.block)
	if e.busy {
		h.QueuedAtHome.Inc()
		e.queue = append(e.queue, r)
		return
	}
	switch noc.Type(r.typ) {
	case noc.GetS:
		h.handleGetS(r, e)
	case noc.GetX:
		h.handleGetX(r, e)
	case noc.Upgrade:
		h.handleUpgrade(r, e)
	default:
		panic(fmt.Sprintf("coherence: home %d request dispatch got %v", h.id, noc.Type(r.typ)))
	}
}

func (h *HomeController) handleGetS(r homeReq, e *dirEntry) {
	if e.owner == r.src {
		panic(fmt.Sprintf("coherence: home %d GetS from current owner %d for %#x", h.id, r.src, r.block))
	}
	if e.owner >= 0 {
		// 3-hop read: intervene at the owner.
		h.Forwards.Inc()
		h.setBusy(e, true)
		e.kind, e.requestor, e.reqType = txnFwdS, r.src, noc.Type(r.typ)
		e.pendingCloses = 1 // the owner's Revision
		fwd := h.p.msg(noc.FwdGetS, h.id, e.owner, r.block, r.txn)
		fwd.ReplyTo = r.src
		h.p.send(fwd)
		return
	}
	h.ensureData(r.block, e, opGrantS, r.src, r.txn)
}

// grantS applies a read grant at its serialization point: the directory
// mutates now; only the grant message waits for the data array (delay).
func (h *HomeController) grantS(block uint64, e *dirEntry, src int, txn uint64, delay sim.Time) {
	var grant *noc.Message
	if e.sharers.Empty() {
		// Sole copy: grant E. Unlike write-ownership transfers, E
		// grants need no completion ack: a racing recall resolves
		// through the requestor's use-once handling (it relinquishes
		// with a replacement hint), and racing interventions defer
		// at the requestor until the grant lands.
		grant = h.p.msg(noc.DataExclusive, h.id, src, block, txn)
		e.owner = src
	} else {
		grant = h.p.msg(noc.Data, h.id, src, block, txn)
		e.sharers.Add(src)
	}
	grant.DataBytes = noc.LineBytes
	h.sendDataGrant(grant, delay)
}

// sendDataGrant emits a data-carrying grant. Under Reply Partitioning
// the critical word leaves first as a PartialReply and the full line
// follows off the critical path.
func (h *HomeController) sendDataGrant(grant *noc.Message, delay sim.Time) {
	if h.p.cfg.ReplyPartitioning && grant.DataBytes > 0 {
		pr := h.p.msg(noc.PartialReply, grant.Src, grant.Dst, grant.Addr, grant.Txn)
		pr.AckCount = grant.AckCount
		grant.Relaxed = true
		h.p.sendLater(pr, delay)
	}
	h.p.sendLater(grant, delay)
}

// handleGetX covers true GetX and Upgrade requests demoted to GetX by a
// race (the upgrader's copy was invalidated before its request reached
// the home).
func (h *HomeController) handleGetX(r homeReq, e *dirEntry) {
	if e.owner == r.src {
		panic(fmt.Sprintf("coherence: home %d GetX from current owner %d for %#x", h.id, r.src, r.block))
	}
	if e.owner >= 0 {
		h.Forwards.Inc()
		h.setBusy(e, true)
		e.kind, e.requestor, e.reqType = txnFwdX, r.src, noc.Type(r.typ)
		e.pendingCloses = 2 // the owner's Revision + the requestor's OwnAck
		fwd := h.p.msg(noc.FwdGetX, h.id, e.owner, r.block, r.txn)
		fwd.ReplyTo = r.src
		h.p.send(fwd)
		return
	}
	h.ensureData(r.block, e, opGrantX, r.src, r.txn)
}

// grantX applies a write grant at its serialization point: invalidate
// the other sharers, transfer ownership, and stay busy until the
// requestor confirms completion (OwnAck), so recalls and interventions
// can never race an in-flight grant.
func (h *HomeController) grantX(block uint64, e *dirEntry, src int, txn uint64, delay sim.Time) {
	others := e.sharers.Without(src)
	h.invalidateSharers(others, block, src, txn)
	grant := h.p.msg(noc.Data, h.id, src, block, txn)
	grant.DataBytes = noc.LineBytes
	grant.AckCount = others.Count()
	e.sharers.Clear()
	e.owner = src
	h.setBusy(e, true)
	e.kind, e.pendingCloses = txnGrant, 1
	h.sendDataGrant(grant, delay)
}

func (h *HomeController) handleUpgrade(r homeReq, e *dirEntry) {
	if e.owner >= 0 {
		// The requestor lost its copy to a racing write: full GetX path.
		h.handleGetX(r, e)
		return
	}
	if e.sharers.Has(r.src) {
		// Upgrade in place: invalidate the others, no data needed.
		others := e.sharers.Without(r.src)
		h.invalidateSharers(others, r.block, r.src, r.txn)
		grant := h.p.msg(noc.AckNoData, h.id, r.src, r.block, r.txn)
		grant.AckCount = others.Count()
		e.sharers.Clear()
		e.owner = r.src
		h.setBusy(e, true)
		e.kind, e.pendingCloses = txnGrant, 1
		h.p.send(grant)
		return
	}
	// The requestor's copy vanished (recall): needs data again.
	h.handleGetX(r, e)
}

func (h *HomeController) invalidateSharers(mask SharerSet, block uint64, replyTo int, txn uint64) {
	for t := 0; t < h.p.cfg.Tiles; t++ {
		if !mask.Has(t) {
			continue
		}
		h.InvsSent.Inc()
		inv := h.p.msg(noc.Inv, h.id, t, block, txn)
		inv.ReplyTo = replyTo
		h.p.send(inv)
	}
}

// recallSharers sends recall-flavoured invalidations acked to the home.
func (h *HomeController) recallSharers(mask SharerSet, block uint64, txn uint64) {
	for t := 0; t < h.p.cfg.Tiles; t++ {
		if !mask.Has(t) {
			continue
		}
		h.InvsSent.Inc()
		inv := h.p.msg(noc.Inv, h.id, t, block, txn)
		inv.ReplyTo = h.id
		inv.Recall = true
		h.p.send(inv)
	}
}

func (h *HomeController) handleReplacement(r homeReq) {
	e := h.entry(r.block)
	if e.busy {
		h.QueuedAtHome.Inc()
		e.queue = append(e.queue, r)
		return
	}
	if e.owner == r.src {
		e.owner = -1
		if noc.Type(r.typ) == noc.WriteBack {
			// The line's dirty data lands in the L2 slice.
			if line := h.l2.Probe(r.block); line != nil {
				line.State = cache.Modified
			} else {
				panic(fmt.Sprintf("coherence: home %d writeback for L2-absent block %#x (inclusion broken)", h.id, r.block))
			}
		}
	}
	// Stale replacements (ownership already moved) are acked silently.
	ack := h.p.msg(noc.WBAck, h.id, r.src, r.block, r.txn)
	h.p.send(ack)
	h.release(r.block, e)
}

func (h *HomeController) handleRevision(m *noc.Message, block uint64) {
	e, ok := h.dir[block]
	if !ok || !e.busy {
		panic(fmt.Sprintf("coherence: home %d revision for idle block %#x", h.id, block))
	}
	switch e.kind {
	case txnFwdS:
		if m.DataBytes > 0 {
			if line := h.l2.Probe(block); line != nil {
				line.State = cache.Modified
			} else {
				panic(fmt.Sprintf("coherence: home %d revision data for L2-absent block %#x", h.id, block))
			}
		}
		oldOwner := e.owner
		e.owner = -1
		e.sharers.Add(e.requestor)
		if !m.NoCopy {
			e.sharers.Add(oldOwner)
		}
		h.closeOne(block, e)
	case txnFwdX:
		e.owner = e.requestor
		e.sharers.Clear()
		h.closeOne(block, e)
	case txnRecall:
		if m.DataBytes > 0 {
			// Dirty recall data returns; the line is leaving L2 anyway,
			// so it flows to memory (counted, not stored).
		}
		h.recallAckArrived(block, e)
	default:
		panic(fmt.Sprintf("coherence: home %d revision during %d txn for %#x", h.id, e.kind, block))
	}
}

func (h *HomeController) handleOwnAck(m *noc.Message, block uint64) {
	e, ok := h.dir[block]
	if !ok || !e.busy || (e.kind != txnGrant && e.kind != txnFwdX) {
		panic(fmt.Sprintf("coherence: home %d OwnAck for non-grant block %#x", h.id, block))
	}
	h.closeOne(block, e)
}

// closeOne retires one of the transaction's pending closing messages.
func (h *HomeController) closeOne(block uint64, e *dirEntry) {
	e.pendingCloses--
	if e.pendingCloses <= 0 {
		h.finishTxn(block, e)
	}
}

func (h *HomeController) handleRecallAck(m *noc.Message, block uint64) {
	e, ok := h.dir[block]
	if !ok || !e.busy || e.kind != txnRecall {
		panic(fmt.Sprintf("coherence: home %d recall ack for non-recall block %#x", h.id, block))
	}
	h.recallAckArrived(block, e)
}

func (h *HomeController) recallAckArrived(block uint64, e *dirEntry) {
	e.recallAcks--
	if e.recallAcks > 0 {
		return
	}
	e.sharers.Clear()
	e.owner = -1
	fillFor := e.fillFor
	e.fillFor = 0
	// Complete the eviction (L2 invalidate + fill) before draining the
	// victim's queued requests, so they observe the post-recall state.
	h.l2.Invalidate(block)
	fe := h.dir[fillFor]
	if fe == nil || !fe.busy || fe.kind != txnFill {
		panic(fmt.Sprintf("coherence: home %d recall for %#x finished without a pending fill for %#x", h.id, block, fillFor))
	}
	h.finishFill(fillFor, fe)
	h.finishTxn(block, e)
}

// finishTxn clears the busy state and drains queued requests in order.
//
// The entry gets the spare queue storage while the old queue drains: a
// drained request may re-queue on this very entry (it appends to the
// spare, never to the slice being drained), and a nested finishTxn
// during the drain finds no spare and starts its entry on a nil queue.
// Once drained, the old storage becomes the spare.
func (h *HomeController) finishTxn(block uint64, e *dirEntry) {
	h.setBusy(e, false)
	e.kind = txnNone
	queued := e.queue
	e.queue, h.spareQueue = h.spareQueue[:0], nil
	h.release(block, e)
	for _, r := range queued {
		switch noc.Type(r.typ) {
		case noc.GetS, noc.GetX, noc.Upgrade:
			h.handleRequest(r)
		case noc.WriteBack, noc.ReplacementHint:
			h.handleReplacement(r)
		default:
			panic(fmt.Sprintf("coherence: home %d queued %v", h.id, noc.Type(r.typ)))
		}
	}
	if cap(queued) > cap(h.spareQueue) {
		h.spareQueue = queued[:0]
	}
}

// ensureData dispatches the grant op once the block's data is available
// in the L2 slice, fetching from memory (and recalling an L2 victim) if
// needed. The grant runs at the transaction's serialization point and
// applies its directory mutations synchronously; the latency of the L2
// data array is the delay applied to outgoing data messages. The tag
// lookup is already charged by the caller.
func (h *HomeController) ensureData(block uint64, e *dirEntry, op uint8, src int, txn uint64) {
	if h.l2.Probe(block) != nil {
		h.l2.Access(block) // LRU touch + hit accounting
		h.dispatchGrant(block, e, op, src, txn, sim.Time(h.p.cfg.L2DataCycles))
		return
	}
	h.l2.Access(block) // records the miss
	if !e.sharers.Empty() || e.owner >= 0 {
		panic(fmt.Sprintf("coherence: home %d block %#x has L1 copies but no L2 line (inclusion broken)", h.id, block))
	}
	h.L2Misses.Inc()
	h.MemFetches.Inc()
	h.setBusy(e, true)
	e.kind = txnFill
	e.pendOp, e.pendSrc, e.pendTxn = op, src, txn
	h.fillQ.push(homeFill{block: block})
	h.p.k.Schedule(sim.Time(h.p.cfg.MemCycles), h.fillFn)
}

// dispatchGrant resumes a pending grant operation.
func (h *HomeController) dispatchGrant(block uint64, e *dirEntry, op uint8, src int, txn uint64, delay sim.Time) {
	switch op {
	case opGrantS:
		h.grantS(block, e, src, txn, delay)
	case opGrantX:
		h.grantX(block, e, src, txn, delay)
	default:
		panic(fmt.Sprintf("coherence: home %d grant dispatch op %d for %#x", h.id, op, block))
	}
}

func (h *HomeController) dispatchFill() {
	f := h.fillQ.pop()
	h.fillL2(f.block)
}

func (h *HomeController) dispatchFillRetry() {
	f := h.fillRetryQ.pop()
	h.fillL2(f.block)
}

// fillL2 inserts a memory-fetched block, recalling the victim first when
// inclusion demands it.
func (h *HomeController) fillL2(block uint64) {
	e := h.dir[block]
	if e == nil || !e.busy || e.kind != txnFill {
		panic(fmt.Sprintf("coherence: home %d fill for %#x without a fill transaction", h.id, block))
	}
	victim := h.pickL2Victim(block)
	if victim == nil {
		// Every way's block is mid-transaction; retry shortly.
		h.fillRetryQ.push(homeFill{block: block})
		h.p.k.Schedule(8, h.fillRetryFn)
		return
	}
	if !victim.Valid() {
		h.finishFill(block, e)
		return
	}
	vblock := victim.Block
	ve, hasDir := h.dir[vblock]
	if !hasDir || (ve.sharers.Empty() && ve.owner < 0) {
		// No L1 copies: plain L2 eviction (dirty data flows to memory).
		h.l2.Invalidate(vblock)
		h.finishFill(block, e)
		return
	}
	// Inclusion recall: the fill resumes from recallAckArrived once the
	// last ack (or the owner's Revision) lands.
	h.Recalls.Inc()
	h.setBusy(ve, true)
	ve.kind = txnRecall
	ve.fillFor = block
	if ve.owner >= 0 {
		ve.recallAcks = 1
		inv := h.p.msg(noc.Inv, h.id, ve.owner, vblock, h.p.txn())
		inv.ReplyTo = h.id
		inv.Recall = true
		h.p.send(inv)
	} else {
		ve.recallAcks = ve.sharers.Count()
		h.recallSharers(ve.sharers, vblock, h.p.txn())
	}
}

// finishFill completes a memory fill: the line lands in L2 and the
// pending grant dispatches with no further data-array delay.
func (h *HomeController) finishFill(block uint64, e *dirEntry) {
	h.l2.Insert(block, cache.Shared) // clean w.r.t. memory
	// The fill transaction ends here; the grant may immediately open an
	// ownership-grant transaction on the same entry, in which case the
	// queued requests keep waiting for its OwnAck.
	h.setBusy(e, false)
	e.kind = txnNone
	op, src, txn := e.pendOp, e.pendSrc, e.pendTxn
	e.pendOp = opNone
	h.dispatchGrant(block, e, op, src, txn, 0)
	if !e.busy {
		h.finishTxn(block, e)
	}
}

// pickL2Victim chooses an eviction victim for block's set: an invalid
// way, else the least-recently-used way whose block has no transaction
// in flight. nil means every way is busy.
func (h *HomeController) pickL2Victim(block uint64) *cache.Line {
	v := h.l2.Victim(block)
	if !v.Valid() {
		return v
	}
	var best *cache.Line
	set := h.l2.Set(block)
	for i := range set {
		cand := &set[i]
		if !cand.Valid() {
			return cand
		}
		if e, ok := h.dir[cand.Block]; ok && e.busy {
			continue
		}
		if best == nil {
			best = cand
		}
	}
	return best
}

// DirInfo returns the directory view of one block for invariant checks:
// the sharer mask, the owner (-1 if none), whether a transaction is in
// flight, and whether the block is tracked at all.
func (h *HomeController) DirInfo(block uint64) (sharers SharerSet, owner int, busy bool, tracked bool) {
	e, ok := h.dir[block]
	if !ok {
		return SharerSet{}, -1, false, false
	}
	return e.sharers, e.owner, e.busy, true
}

// DirSummary describes directory occupancy for tests and reporting.
type DirSummary struct {
	TrackedBlocks int
	BusyBlocks    int
}

// Summary returns the directory occupancy.
func (h *HomeController) Summary() DirSummary {
	return DirSummary{TrackedBlocks: len(h.dir), BusyBlocks: h.busyCount()}
}
