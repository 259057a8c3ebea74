package coherence

import (
	"fmt"

	"tilesim/internal/cache"
	"tilesim/internal/noc"
	"tilesim/internal/sim"
	"tilesim/internal/stats"
)

// L1Controller is one tile's private L1 data cache plus its MSHR file
// and writeback buffer, driven by the core (Load/Store) and by protocol
// messages (deliver).
//
// Continuations are prebound (DESIGN.md §16): each fixed-latency step
// pushes a value record on a FIFO and schedules the queue's single
// prebound event, and completions parked on MSHR entries are typed
// cache.Waiter records interpreted by runWaiter — so the steady-state
// access path allocates neither closures nor MSHR entries (the entry
// file is pooled).
type L1Controller struct {
	p  *Protocol
	id int

	cache *cache.Cache
	mshr  *cache.MSHR

	// Pending-state queues, each paired with a prebound dispatch event
	// scheduled at that queue's constant delay.
	accessQ  fifo[l1Access]   // Load/Store -> access, after L1HitCycles
	retryQ   fifo[l1Retry]    // MSHR-full miss retry, after 4 cycles
	fwdQ     fifo[l1FwdReply] // intervention reply burst, after L1HitCycles
	accessFn sim.Event
	retryFn  sim.Event
	fwdFn    sim.Event

	// scratch receives a freed entry's waiters so they run after the
	// entry is recycled; draining guards against reentrant drains (the
	// waiter kinds cannot free another entry synchronously, and this
	// pins that invariant).
	scratch  []cache.Waiter
	draining bool

	// Statistics.
	Loads, Stores           stats.Counter
	LoadMisses, StoreMisses stats.Counter
	Upgrades                stats.Counter
	Writebacks, Hints       stats.Counter
	Interventions           stats.Counter
	Invalidations           stats.Counter
	MissLatency             stats.Mean
	// MSHRResidency measures allocation-to-free lifetimes of this
	// tile's MSHR entries (demand misses and writeback buffering).
	MSHRResidency stats.Mean
}

func newL1Controller(p *Protocol, id int) *L1Controller {
	l := &L1Controller{
		p:     p,
		id:    id,
		cache: cache.New(cache.L1Config()),
		mshr:  cache.NewMSHR(p.cfg.MSHRs),
	}
	// One prebound event per queue, allocated once per controller.
	l.accessFn = l.dispatchAccess
	l.retryFn = l.dispatchRetry
	l.fwdFn = l.dispatchFwdReply
	return l
}

// Cache exposes the underlying array (read-only use: stats, tests).
func (l *L1Controller) Cache() *cache.Cache { return l.cache }

// Load performs a read; done runs when the data is available. The L1 hit
// latency is charged here.
//
//tilesim:hotpath L1 read entry, once per load reference
func (l *L1Controller) Load(addr uint64, done func()) {
	l.Loads.Inc()
	l.accessQ.push(l1Access{addr: addr, done: done})
	l.p.k.Schedule(sim.Time(l.p.cfg.L1HitCycles), l.accessFn)
}

// Store performs a write; done runs when ownership is obtained.
//
//tilesim:hotpath L1 write entry, once per store reference
func (l *L1Controller) Store(addr uint64, done func()) {
	l.Stores.Inc()
	l.accessQ.push(l1Access{addr: addr, isWrite: true, done: done})
	l.p.k.Schedule(sim.Time(l.p.cfg.L1HitCycles), l.accessFn)
}

// dispatchAccess pops one queued core access after the L1 hit latency.
//
//tilesim:hotpath access dispatch, once per reference
func (l *L1Controller) dispatchAccess() {
	a := l.accessQ.pop()
	l.access(a.addr, a.isWrite, a.done)
}

func (l *L1Controller) access(addr uint64, isWrite bool, done func()) {
	block := l.cache.BlockOf(addr)
	// A transaction already live on this block: wait for it, then retry
	// the access from scratch. Covers re-references to writeback-buffered
	// blocks and (with non-blocking cores) same-block coalescing.
	if e := l.mshr.Lookup(block); e != nil {
		e.Waiters = append(e.Waiters, cache.Waiter{Kind: cache.WaiterRetry, Addr: addr, IsWrite: isWrite, Done: done})
		return
	}
	line := l.cache.Access(addr)
	if line != nil {
		if !isWrite {
			done()
			return
		}
		switch line.State {
		case cache.Modified:
			done()
		case cache.Exclusive:
			line.State = cache.Modified // silent E->M
			done()
		case cache.Shared:
			l.StoreMisses.Inc()
			l.Upgrades.Inc()
			l.startMiss(block, noc.Upgrade, done)
		default:
			panic("coherence: L1 access to invalid-but-present line")
		}
		return
	}
	if isWrite {
		l.StoreMisses.Inc()
		l.startMiss(block, noc.GetX, done)
	} else {
		l.LoadMisses.Inc()
		l.startMiss(block, noc.GetS, done)
	}
}

func (l *L1Controller) startMiss(block uint64, req noc.Type, done func()) {
	if l.mshr.Full() {
		// All registers busy (writeback bursts): retry shortly.
		l.retryQ.push(l1Retry{block: block, req: int(req), done: done})
		l.p.k.Schedule(4, l.retryFn)
		return
	}
	e := l.mshr.Allocate(block)
	e.IsWrite = req != noc.GetS
	start := l.p.k.Now()
	e.AllocAt = uint64(start)
	// Sampling decision for the miss's trace span happens at allocation
	// so the id sequence (and so which misses are traced) is fixed by
	// simulation order, independent of completion interleaving.
	var spanID uint64
	if l.p.tracer != nil {
		if id, sampled := l.p.tracer.NextID(); sampled {
			spanID = id
		}
	}
	doneW := cache.Waiter{Kind: cache.WaiterDone, Done: done}
	finish := cache.Waiter{Kind: cache.WaiterFinish, Addr: block, Start: uint64(start), SpanID: spanID, Req: int(req)}
	if l.p.cfg.ReplyPartitioning {
		// The core resumes as soon as the critical word and all acks
		// are in; the full line install happens off its back.
		e.PartialWaiters = append(e.PartialWaiters, doneW, finish)
	} else {
		e.Waiters = append(e.Waiters, doneW, finish)
	}
	home := HomeOf(block, l.p.cfg.Tiles)
	m := l.p.msg(req, l.id, home, block, l.p.txn())
	l.p.send(m)
}

// dispatchRetry re-attempts one MSHR-full miss after the backoff: if a
// transaction took the block meanwhile, park behind it; else start over.
func (l *L1Controller) dispatchRetry() {
	r := l.retryQ.pop()
	req := noc.Type(r.req)
	if e := l.mshr.Lookup(r.block); e != nil {
		e.Waiters = append(e.Waiters, cache.Waiter{Kind: cache.WaiterRetry, Addr: r.block, IsWrite: req != noc.GetS, Done: r.done})
		return
	}
	l.startMiss(r.block, req, r.done)
}

// runWaiter resumes one parked continuation (see cache.WaiterKind for
// the state-machine encoding of the old per-miss closures).
func (l *L1Controller) runWaiter(w cache.Waiter) {
	switch w.Kind {
	case cache.WaiterDone:
		w.Done()
	case cache.WaiterRetry:
		// The blocking transaction finished; the line may now be present.
		l.access(w.Addr, w.IsWrite, w.Done)
	case cache.WaiterFwd:
		l.serviceFwd(w.Addr, w.ReplyTo, w.Txn, w.IsWrite)
	case cache.WaiterFinish:
		l.MissLatency.Observe(uint64(l.p.k.Now()) - w.Start)
		if l.p.tracer != nil && w.SpanID != 0 {
			l.traceMiss(noc.Type(w.Req), w.Addr, sim.Time(w.Start))
		}
	}
}

// deliver handles protocol messages addressed to this L1.
func (l *L1Controller) deliver(m *noc.Message) {
	switch m.Type {
	case noc.Data, noc.DataExclusive, noc.AckNoData:
		l.onGrant(m)
	case noc.PartialReply:
		l.onPartial(m)
	case noc.InvAck:
		l.onInvAck(m)
	case noc.Inv:
		l.onInv(m)
	case noc.FwdGetS:
		l.onFwd(m, false)
	case noc.FwdGetX:
		l.onFwd(m, true)
	case noc.WBAck:
		l.onWBAck(m)
	default:
		panic(fmt.Sprintf("coherence: L1 %d got %v", l.id, m.Type))
	}
}

func (l *L1Controller) onGrant(m *noc.Message) {
	block := l.cache.BlockOf(m.Addr)
	e := l.mshr.Lookup(block)
	if e == nil || e.WritebackData {
		panic(fmt.Sprintf("coherence: L1 %d grant %v for block %#x without demand MSHR", l.id, m.Type, block))
	}
	e.GotData = true
	l.addAcks(e, m)
	e.GrantUpgrade = m.Type == noc.AckNoData
	e.GrantExclusive = m.Type == noc.DataExclusive
	if e.GrantUpgrade {
		// Upgrade grant: the S line must still be here (the L1 never
		// evicts a block with a live MSHR, and home serialization
		// guarantees no invalidation raced ahead of this grant).
		if line := l.cache.Probe(block); line == nil || line.State != cache.Shared {
			panic(fmt.Sprintf("coherence: L1 %d upgrade grant without S line %#x", l.id, block))
		}
	}
	l.maybeComplete(block, e)
}

// addAcks folds the expected-ack count in exactly once: under Reply
// Partitioning both the partial and the ordinary reply carry it.
func (l *L1Controller) addAcks(e *cache.MSHREntry, m *noc.Message) {
	if !e.AckCounted {
		e.PendingAcks += m.AckCount
		e.AckCounted = true
	}
}

// onPartial handles the Reply Partitioning critical word.
func (l *L1Controller) onPartial(m *noc.Message) {
	block := l.cache.BlockOf(m.Addr)
	e := l.mshr.Lookup(block)
	if e == nil || e.WritebackData {
		// The ordinary reply overtook the partial and already completed
		// the transaction; the word is redundant.
		return
	}
	e.GotPartial = true
	l.addAcks(e, m)
	l.maybePartial(e)
}

// maybePartial resumes the core once the critical word and every ack
// are in, possibly before the full line installs. The partial waiters
// are only ever the demand continuation and the finish record (parked
// at startMiss), so running them cannot re-enter this drain.
func (l *L1Controller) maybePartial(e *cache.MSHREntry) {
	if len(e.PartialWaiters) == 0 {
		return
	}
	if !e.AckCounted || e.PendingAcks > 0 || !(e.GotPartial || e.GotData) {
		return
	}
	if l.draining {
		panic("coherence: reentrant partial-waiter drain")
	}
	l.draining = true
	l.scratch = append(l.scratch[:0], e.PartialWaiters...)
	clear(e.PartialWaiters)
	e.PartialWaiters = e.PartialWaiters[:0]
	for i := range l.scratch {
		l.runWaiter(l.scratch[i])
	}
	clear(l.scratch)
	l.scratch = l.scratch[:0]
	l.draining = false
}

func (l *L1Controller) onInvAck(m *noc.Message) {
	block := l.cache.BlockOf(m.Addr)
	e := l.mshr.Lookup(block)
	if e == nil || e.WritebackData {
		panic(fmt.Sprintf("coherence: L1 %d stray InvAck for %#x", l.id, block))
	}
	e.PendingAcks--
	l.maybeComplete(block, e)
}

func (l *L1Controller) maybeComplete(block uint64, e *cache.MSHREntry) {
	l.maybePartial(e)
	if !e.Complete() {
		return
	}
	// Apply the grant. Ownership grants (M or E) are confirmed back to
	// the home, which holds the block busy until then: recalls and
	// interventions can therefore never race an in-flight ownership
	// transfer.
	writeOwnership, relinquish := false, false
	switch {
	case e.GrantUpgrade:
		l.cache.Probe(block).State = cache.Modified
		writeOwnership = true
	case e.IsWrite:
		l.insertLine(block, cache.Modified)
		writeOwnership = true
	case e.GrantExclusive:
		l.insertLine(block, cache.Exclusive)
		// A recall (or a long-delayed stale invalidation) asked us not
		// to keep this line: use it once, then relinquish it below; the
		// replacement traffic squares the directory.
		relinquish = e.InvalidatedInFlight
	case e.InvalidatedInFlight:
		// A racing write invalidated this read before its data arrived:
		// the data is used once by the waiters but not cached.
	default:
		l.insertLine(block, cache.Shared)
	}
	if writeOwnership {
		home := HomeOf(block, l.p.cfg.Tiles)
		l.p.send(l.p.msg(noc.OwnAck, l.id, home, block, l.p.txn()))
	}
	l.freeEntry(block, e)
	if relinquish {
		if line := l.cache.Probe(block); line != nil {
			l.evictLine(line)
		}
	}
}

// insertLine fills a granted line, evicting a victim if needed and
// emitting the replacement traffic of Figure 4.
func (l *L1Controller) insertLine(block uint64, st cache.State) {
	l.evictLine(l.victimAvoidingMSHR(block))
	if l.cache.Probe(block) != nil {
		panic(fmt.Sprintf("coherence: L1 %d double fill %#x", l.id, block))
	}
	l.cache.Insert(block, st)
}

// victimAvoidingMSHR picks the eviction victim for block's set, skipping
// lines with live MSHR entries (their transactions may still need them).
func (l *L1Controller) victimAvoidingMSHR(block uint64) *cache.Line {
	v := l.cache.Victim(block)
	if !v.Valid() || l.mshr.Lookup(v.Block) == nil {
		return v
	}
	var best *cache.Line
	set := l.cache.Set(block)
	for i := range set {
		cand := &set[i]
		if !cand.Valid() {
			return cand
		}
		if l.mshr.Lookup(cand.Block) != nil {
			continue
		}
		if best == nil {
			best = cand
		}
	}
	if best == nil {
		panic(fmt.Sprintf("coherence: L1 %d all ways of set for %#x transaction-locked", l.id, block))
	}
	return best
}

// evictLine removes a valid line, emitting WriteBack/ReplacementHint and
// opening a writeback-buffer MSHR entry for M/E lines.
func (l *L1Controller) evictLine(v *cache.Line) {
	if !v.Valid() {
		return
	}
	st := v.State
	block := v.Block
	l.cache.Invalidate(block)
	if st == cache.Shared {
		return // silent
	}
	e := l.mshr.AllocateOver(block)
	e.WritebackData = true
	e.AllocAt = uint64(l.p.k.Now())
	e.Dirty = st == cache.Modified
	home := HomeOf(block, l.p.cfg.Tiles)
	var m *noc.Message
	if st == cache.Modified {
		l.Writebacks.Inc()
		m = l.p.msg(noc.WriteBack, l.id, home, block, l.p.txn())
		m.DataBytes = noc.LineBytes
	} else {
		l.Hints.Inc()
		m = l.p.msg(noc.ReplacementHint, l.id, home, block, l.p.txn())
	}
	l.p.send(m)
}

func (l *L1Controller) onInv(m *noc.Message) {
	l.Invalidations.Inc()
	block := l.cache.BlockOf(m.Addr)
	if e := l.mshr.Lookup(block); e != nil && e.WritebackData {
		// Recall racing our eviction: answer from the buffer.
		rev := l.p.msg(noc.Revision, l.id, HomeOf(block, l.p.cfg.Tiles), block, m.Txn)
		rev.NoCopy = true
		if e.Dirty && !e.Forwarded {
			rev.DataBytes = noc.LineBytes
		}
		e.Forwarded = true
		l.p.send(rev)
		return
	}
	line := l.cache.Probe(block)
	switch {
	case line == nil, line.State == cache.Shared:
		// Possibly a stale-epoch invalidation of a silently evicted S
		// copy; ack either way. Acking immediately (never deferring) is
		// what keeps the ack dependency graph acyclic: every later
		// ownership grant transitively waits on these acks.
		if line != nil {
			l.cache.Invalidate(block)
		}
		if e := l.mshr.Lookup(block); e != nil && !e.WritebackData && !e.IsWrite {
			// Our own read is in flight: its shared grant may already
			// be traveling, so mark the entry to use the data once
			// without caching it. Writes need no mark: ownership
			// transfers hold the home busy until acknowledged, so any
			// invalidation reaching a pending write was serialized
			// before it and the eventual grant stands. The ack always
			// goes out now, keeping the ack dependency graph acyclic.
			e.InvalidatedInFlight = true
		}
		ack := l.p.msg(noc.InvAck, l.id, m.ReplyTo, block, m.Txn)
		l.p.send(ack)
	default:
		// Recall of an M/E owner: return the line to the home.
		rev := l.p.msg(noc.Revision, l.id, HomeOf(block, l.p.cfg.Tiles), block, m.Txn)
		rev.NoCopy = true
		if line.State == cache.Modified {
			rev.DataBytes = noc.LineBytes
		}
		l.cache.Invalidate(block)
		l.p.send(rev)
	}
}

// onFwd handles interventions: the home has named us owner. The
// message's fields are extracted here; deferred service (WaiterFwd)
// replays them without retaining the header.
func (l *L1Controller) onFwd(m *noc.Message, exclusive bool) {
	l.serviceFwd(l.cache.BlockOf(m.Addr), m.ReplyTo, m.Txn, exclusive)
}

func (l *L1Controller) serviceFwd(block uint64, replyTo int, txn uint64, exclusive bool) {
	l.Interventions.Inc()
	if e := l.mshr.Lookup(block); e != nil {
		if e.WritebackData {
			// Raced our eviction: answer from the buffer.
			l.queueFwdReply(block, replyTo, txn, e.Dirty && !e.Forwarded, true, exclusive)
			e.Forwarded = true
			return
		}
		// Our own ownership transaction (Upgrade/GetX/E-grant GetS) has
		// not completed yet; the home serialized this intervention after
		// it, so service it once we complete. The completion depends
		// only on messages already in flight, never on the intervening
		// requestor, so this cannot deadlock.
		e.Waiters = append(e.Waiters, cache.Waiter{Kind: cache.WaiterFwd, Addr: block, ReplyTo: replyTo, Txn: txn, IsWrite: exclusive})
		return
	}
	line := l.cache.Probe(block)
	if line == nil || (line.State != cache.Modified && line.State != cache.Exclusive) {
		panic(fmt.Sprintf("coherence: L1 %d forwarded for %#x it does not own (line=%v)", l.id, block, line))
	}
	dirty := line.State == cache.Modified
	if exclusive {
		l.cache.Invalidate(block)
	} else {
		line.State = cache.Shared
	}
	l.queueFwdReply(block, replyTo, txn, dirty, false, exclusive)
}

// queueFwdReply queues the intervention's reply burst behind the L1
// access latency: the line to the requestor (split under Reply
// Partitioning) plus the Revision leg back to the home.
func (l *L1Controller) queueFwdReply(block uint64, replyTo int, txn uint64, dirty, fromBuffer, exclusive bool) {
	l.fwdQ.push(l1FwdReply{block: block, replyTo: replyTo, txn: txn, dirty: dirty, noCopy: exclusive || fromBuffer})
	l.p.k.Schedule(sim.Time(l.p.cfg.L1HitCycles), l.fwdFn)
}

func (l *L1Controller) dispatchFwdReply() {
	r := l.fwdQ.pop()
	home := HomeOf(r.block, l.p.cfg.Tiles)
	data := l.p.msg(noc.Data, l.id, r.replyTo, r.block, r.txn)
	data.DataBytes = noc.LineBytes
	if l.p.cfg.ReplyPartitioning {
		pr := l.p.msg(noc.PartialReply, l.id, r.replyTo, r.block, r.txn)
		l.p.send(pr)
		data.Relaxed = true
	}
	l.p.send(data)
	rev := l.p.msg(noc.Revision, l.id, home, r.block, r.txn)
	if r.dirty {
		rev.DataBytes = noc.LineBytes
	}
	rev.NoCopy = r.noCopy
	l.p.send(rev)
}

func (l *L1Controller) onWBAck(m *noc.Message) {
	block := l.cache.BlockOf(m.Addr)
	e := l.mshr.Lookup(block)
	if e == nil || !e.WritebackData {
		panic(fmt.Sprintf("coherence: L1 %d stray WBAck for %#x", l.id, block))
	}
	l.freeEntry(block, e)
}

// freeEntry releases the MSHR entry for block, recording its
// allocation-to-free residency, and runs the entry's parked waiters
// from the controller's scratch buffer. The entry returns to the pool
// — poisoned, Gen bumped — before the first waiter runs, so a waiter
// that re-allocates the same block can never alias the dead
// transaction's state.
//
//tilesim:release MSHREntry
func (l *L1Controller) freeEntry(block uint64, e *cache.MSHREntry) {
	l.MSHRResidency.Observe(uint64(l.p.k.Now()) - e.AllocAt)
	if l.draining {
		panic("coherence: reentrant MSHR waiter drain")
	}
	l.draining = true
	l.scratch = l.mshr.Free(block, l.scratch[:0])
	for i := range l.scratch {
		l.runWaiter(l.scratch[i])
	}
	clear(l.scratch)
	l.scratch = l.scratch[:0]
	l.draining = false
}
