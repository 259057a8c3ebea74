package compress

import "fmt"

// DBRC implements dynamic base register caching (Farrens & Park [8]),
// adapted to a tiled CMP per paper Figure 1 (left):
//
//   - At each sending core, per stream, a small fully-associative
//     compression cache of address bases (the address with its low-order
//     bytes stripped), LRU-replaced.
//   - At each receiving core, per (source, stream), a register file
//     mirroring the sender's cache contents for the pairs that have
//     communicated.
//
// In the original bus-based DBRC there is a single receiver, so sender
// and receiver stay trivially coherent. With 16 possible receivers, a
// base cached at the sender may not yet be known to a given receiver:
// each sender entry therefore carries a per-destination valid bitset,
// one bit per core, and a hit requires both the base match and the
// destination bit. Misses travel uncompressed together with the entry
// index the receiver must install the base into (the index rides in
// spare header bits).
//
// On a hit the wire carries only the low-order bytes (plus the entry
// index in spare header bits), so the compressed payload is loBytes and
// the whole message fits the 3+loBytes+1 = 4- or 5-byte VL channel.
type DBRC struct {
	entries int
	loBytes int
	cores   int

	// All state lives in four flat, pointer-free arrays, so a
	// kilo-tile codec is four allocations and nothing for the GC to
	// mark (DESIGN.md §19).
	//
	// tags holds every sender cache: entry i of core's stream cache is
	// tags[(core*NumStreams+stream)*entries+i], storing base+1 (0 =
	// invalid, as for recv below). lastUse is parallel to it: the LRU
	// stamp of each entry. dsts holds each entry's destination bitset,
	// dstWords words from dsts[entry*dstWords]: bit dst%64 of word
	// dst/64 is set once receiver dst holds the entry's base.
	tags     []uint64
	lastUse  []uint64
	dsts     []uint64
	dstWords int
	// clock stamps sender touches. One clock serves every sender cache:
	// LRU only compares stamps within one cache, and a shared counter
	// orders one cache's touches exactly as a private one would.
	clock uint64
	// recv holds every receiver register file: register i for the pair
	// src->dst on a stream is recv[((dst*cores+src)*NumStreams+stream)*entries+i].
	// A register stores base+1, so 0 means "not installed"; a base is
	// at most 56 bits (an address without its >= 1 low-order bytes), so
	// the +1 cannot overflow.
	recv []uint64
}

// NewDBRC builds an entries-way DBRC codec with loBytes (1 or 2)
// uncompressed low-order bytes, for a CMP with cores tiles.
func NewDBRC(entries, loBytes, cores int) *DBRC {
	if entries < 1 || entries > 256 {
		panic(fmt.Sprintf("compress: DBRC entries must be 1..256, got %d", entries))
	}
	if loBytes < 1 || loBytes > 2 {
		panic(fmt.Sprintf("compress: DBRC low-order bytes must be 1 or 2, got %d", loBytes))
	}
	if cores < 2 || cores > 1024 {
		panic(fmt.Sprintf("compress: DBRC cores must be 2..1024, got %d", cores))
	}
	d := &DBRC{entries: entries, loBytes: loBytes, cores: cores}
	d.Reset()
	return d
}

// Name implements Codec, matching the paper's figure labels.
func (d *DBRC) Name() string {
	return fmt.Sprintf("%d-entry DBRC (%dB LO)", d.entries, d.loBytes)
}

// Entries returns the compression-cache entry count.
func (d *DBRC) Entries() int { return d.entries }

// LowOrderBytes returns the uncompressed low-order byte count.
func (d *DBRC) LowOrderBytes() int { return d.loBytes }

// CompressedPayloadBytes implements Codec.
func (d *DBRC) CompressedPayloadBytes() int { return d.loBytes }

// Reset implements Codec.
func (d *DBRC) Reset() {
	senders := d.cores * NumStreams * d.entries
	d.tags = make([]uint64, senders)
	d.lastUse = make([]uint64, senders)
	d.dstWords = (d.cores + 63) / 64
	d.dsts = make([]uint64, senders*d.dstWords)
	d.clock = 0
	d.recv = make([]uint64, d.cores*d.cores*NumStreams*d.entries)
}

func (d *DBRC) loMask() uint64 { return uint64(1)<<(8*d.loBytes) - 1 }

// Encode implements Codec.
func (d *DBRC) Encode(src, dst int, stream Stream, addr uint64) Encoded {
	d.checkPair(src, dst)
	first := (src*NumStreams + int(stream)) * d.entries
	tags := d.tags[first : first+d.entries]
	lastUse := d.lastUse[first : first+d.entries]
	d.clock++
	tag := addr>>(8*d.loBytes) + 1
	word, dstBit := dst/64, uint64(1)<<(dst%64)

	// Fully-associative lookup.
	for i := range tags {
		if tags[i] != tag {
			continue
		}
		lastUse[i] = d.clock
		dsts := &d.dsts[(first+i)*d.dstWords+word]
		if *dsts&dstBit != 0 {
			// Compressed: low-order bytes on the wire, index in header.
			return Encoded{
				Compressed:   true,
				PayloadBytes: d.loBytes,
				Payload:      addr & d.loMask(),
				InstallIndex: i,
			}
		}
		// The base is cached here but this receiver has never seen it:
		// send in full and tell the receiver where to install it.
		*dsts |= dstBit
		return Encoded{Compressed: false, PayloadBytes: 8, Payload: addr, InstallIndex: i}
	}

	// Miss: evict the LRU entry (or fill an invalid one).
	victim := 0
	for i := range tags {
		if tags[i] == 0 {
			victim = i
			break
		}
		if lastUse[i] < lastUse[victim] {
			victim = i
		}
	}
	tags[victim] = tag
	lastUse[victim] = d.clock
	dsts := d.dsts[(first+victim)*d.dstWords : (first+victim+1)*d.dstWords]
	clear(dsts)
	dsts[word] = dstBit
	return Encoded{Compressed: false, PayloadBytes: 8, Payload: addr, InstallIndex: victim}
}

// Decode implements Codec.
func (d *DBRC) Decode(src, dst int, stream Stream, e Encoded) uint64 {
	d.checkPair(src, dst)
	if e.InstallIndex < 0 || e.InstallIndex >= d.entries {
		panic(fmt.Sprintf("compress: DBRC decode with bad index %d", e.InstallIndex))
	}
	reg := &d.recv[((dst*d.cores+src)*NumStreams+int(stream))*d.entries+e.InstallIndex]
	if !e.Compressed {
		addr := e.Payload
		*reg = addr>>(8*d.loBytes) + 1
		return addr
	}
	if *reg == 0 {
		panic(fmt.Sprintf("compress: DBRC receiver %d<-%d %v entry %d used before install",
			dst, src, stream, e.InstallIndex))
	}
	return (*reg-1)<<(8*d.loBytes) | (e.Payload & d.loMask())
}

func (d *DBRC) checkPair(src, dst int) {
	if src < 0 || src >= d.cores || dst < 0 || dst >= d.cores {
		panic(fmt.Sprintf("compress: DBRC endpoint out of range src=%d dst=%d cores=%d", src, dst, d.cores))
	}
}
