// Package badpoollife is a tilesimvet fixture for the pooled-object
// lifetime rule. It declares its own intrusive freelist (Get/Put carry
// the //tilesim:pool and //tilesim:release annotations) and then
// violates each clause of the ownership contract once: a read after
// the release point, a double release on a branchy path, every escape
// flavour without a generation-snapshot guard (struct field, slice,
// closure, sim.Event payload), a header no path ever releases, a
// release not dominated by an acquire, the two annotation misuse
// shapes, and the waiver-audit pair (a reason-less //tilesim:retainok
// and a stale one).
package badpoollife

import "tilesim/internal/sim"

// header is the pooled object.
type header struct {
	id   int
	next *header
	gen  uint64
}

// Generation exposes the reuse counter the snapshot guard records.
func (h *header) Generation() uint64 { return h.gen }

// pool is an intrusive freelist of headers.
type pool struct{ free *header }

// Get takes a header from the pool.
//
//tilesim:pool
func (p *pool) Get() *header {
	h := p.free
	if h == nil {
		return &header{}
	}
	p.free = h.next
	return h
}

// Put returns h to the pool and poisons its generation.
//
//tilesim:release
func (p *pool) Put(h *header) {
	h.gen++
	h.next = p.free
	p.free = h
}

// holder retains a header; the hGen sibling field is where escapeField
// should record the header's generation snapshot.
type holder struct {
	h    *header
	hGen uint64
}

// useAfterPut reads the header after its release point — the
// Protocol.Deliver tail contract violated.
func useAfterPut(p *pool) int {
	h := p.Get()
	p.Put(h)
	return h.id // want: use after release
}

// doubleRelease releases on the branch and again on the fall-through.
func doubleRelease(p *pool, cond bool) {
	h := p.Get()
	if cond {
		p.Put(h)
	}
	p.Put(h) // want: double release
}

// escapeField stores the pooled pointer into a struct field with no
// generation snapshot, although hGen exists to hold one.
func escapeField(p *pool, dst *holder) {
	h := p.Get()
	dst.h = h // want: unguarded field escape
}

// escapeSlice appends the pooled pointer into a caller-owned slice.
func escapeSlice(p *pool, buf []*header) []*header {
	h := p.Get()
	return append(buf, h) // want: unguarded append escape
}

// escapeClosure returns a closure capturing the pooled pointer.
func escapeClosure(p *pool) func() int {
	h := p.Get()
	return func() int { return h.id } // want: unguarded closure escape
}

// escapeEvent schedules a kernel event whose payload captures the
// pooled pointer: the retention whose lifetime is hardest to see.
func escapeEvent(p *pool, k *sim.Kernel) {
	h := p.Get()
	k.Schedule(1, func() { h.id++ }) // want: unguarded sim.Event payload escape
}

// leak acquires a header that no path releases, hands off, or retains.
func leak(p *pool) {
	h := p.Get() // want: leaked header
	h.id = 1
}

// undominated releases a header only one branch acquired.
func undominated(p *pool, cond bool) {
	var h *header
	if cond {
		h = p.Get()
	}
	p.Put(h) // want: release not dominated by an acquire
}

// waived exercises the waiver audit: the retention is waived but the
// waiver carries no reason.
func waived(p *pool, dst *holder) {
	h := p.Get()
	//tilesim:retainok
	dst.h = h // want: waiver needs a reason
}

//tilesim:retainok nothing below retains a pooled pointer // want: stale waiver
func nothing() {}

// badAcquire is misannotated: it returns no pointer to a named type.
//
//tilesim:pool
func badAcquire() int { return 0 } // want: acquire must return a pooled pointer

// badRelease names a type its package does not declare.
//
//tilesim:release widget
func badRelease() {} // want: unknown release type
