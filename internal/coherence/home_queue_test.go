package coherence

import (
	"slices"
	"testing"

	"tilesim/internal/noc"
)

// TestFinishTxnDrainRequeuesOnSameEntry drives finishTxn's drain
// directly: the first drained GetX opens a new transaction on the same
// entry, so the requests behind it must re-queue there, in order, while
// the old queue is still being read. The drained storage then serves
// the next drain instead of a fresh allocation.
func TestFinishTxnDrainRequeuesOnSameEntry(t *testing.T) {
	ts := newTestSystem(nil)
	h := ts.p.Home(0)
	var block uint64
	for HomeOf(block, ts.p.Config().Tiles) != 0 {
		block += noc.LineBytes
	}
	req := func(typ noc.Type, src int) homeReq {
		return homeReq{typ: int(typ), src: src, txn: uint64(100 + src), block: block}
	}
	e := h.entry(block)
	h.setBusy(e, true)
	e.kind = txnGrant
	e.queue = append(e.queue, req(noc.GetX, 1), req(noc.GetS, 2), req(noc.GetS, 3))

	// GetX misses in L2 and opens a fill on e; both GetS re-queue.
	h.finishTxn(block, e)
	if !e.busy || e.kind != txnFill || e.pendSrc != 1 {
		t.Fatalf("drained GetX did not open a fill for tile 1: busy=%v kind=%d src=%d", e.busy, e.kind, e.pendSrc)
	}
	if want := []homeReq{req(noc.GetS, 2), req(noc.GetS, 3)}; !slices.Equal(e.queue, want) {
		t.Fatalf("re-queued %+v, want %+v", e.queue, want)
	}
	spare := h.spareQueue
	if cap(spare) < 3 {
		t.Fatalf("drained queue storage not kept: spare cap %d", cap(spare))
	}

	// The next drain hands e the kept storage: GetS 2 opens a fill and
	// GetS 3 re-queues into it.
	e.kind = txnGrant
	h.finishTxn(block, e)
	if want := []homeReq{req(noc.GetS, 3)}; !slices.Equal(e.queue, want) {
		t.Fatalf("second drain re-queued %+v, want %+v", e.queue, want)
	}
	if &e.queue[:cap(e.queue)][0] != &spare[:cap(spare)][0] {
		t.Error("second drain allocated a new queue instead of reusing the kept one")
	}
}
