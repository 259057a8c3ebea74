// Package cache implements the set-associative cache arrays of the tiled
// CMP (32 KB 4-way L1s and 256 KB 4-way L2 slices, 64-byte lines) with
// true-LRU replacement, plus the L1 miss-status holding registers.
//
// The arrays track tags and coherence state only; tilesim is a timing and
// traffic simulator, so line contents never exist (message payloads are
// sized, not valued).
package cache

import (
	"fmt"
	"math/bits"

	"tilesim/internal/stats"
)

// State is the MESI state of a cached line.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Line is one cache line's bookkeeping.
type Line struct {
	Block   uint64 // block address (addr &^ (lineBytes-1))
	State   State
	lastUse uint64
}

// Valid reports whether the line holds a block.
func (l *Line) Valid() bool { return l.State != Invalid }

// Config sizes a cache.
type Config struct {
	CapacityBytes int
	Ways          int
	LineBytes     int
	// IndexSkipLo/IndexSkipBits remove an address bit-field from the set
	// index computation. A NUCA L2 slice skips the home-interleave bits:
	// they are constant within one slice, and indexing with them would
	// leave most sets unreachable. IndexSkipLo is the absolute bit
	// position of the field (must be >= log2(LineBytes)); IndexSkipBits
	// its width (0 disables).
	IndexSkipLo, IndexSkipBits int
}

// L1Config returns the paper's L1 data cache geometry.
func L1Config() Config { return Config{CapacityBytes: 32 * 1024, Ways: 4, LineBytes: 64} }

// L2SliceConfig returns the paper's per-tile L2 slice geometry.
func L2SliceConfig() Config { return Config{CapacityBytes: 256 * 1024, Ways: 4, LineBytes: 64} }

// Cache is a set-associative array with true LRU.
type Cache struct {
	cfg     Config
	sets    int
	shift   uint // log2(lineBytes)
	setMask uint64
	lines   []Line // sets*ways, set-major
	clock   uint64
	hits    stats.Counter
	misses  stats.Counter
	evicts  stats.Counter
}

// New builds a cache; capacity must divide evenly into sets of ways
// power-of-two lines.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || bits.OnesCount(uint(cfg.LineBytes)) != 1 {
		panic(fmt.Sprintf("cache: line size %d not a power of two", cfg.LineBytes))
	}
	if cfg.Ways <= 0 || cfg.CapacityBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	linesTotal := cfg.CapacityBytes / cfg.LineBytes
	if linesTotal%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by %d ways", linesTotal, cfg.Ways))
	}
	sets := linesTotal / cfg.Ways
	if bits.OnesCount(uint(sets)) != 1 {
		panic(fmt.Sprintf("cache: %d sets not a power of two", sets))
	}
	if cfg.IndexSkipBits > 0 && cfg.IndexSkipLo < bits.TrailingZeros(uint(cfg.LineBytes)) {
		panic(fmt.Sprintf("cache: index skip at bit %d is inside the %d-byte block offset", cfg.IndexSkipLo, cfg.LineBytes))
	}
	return &Cache{
		cfg:     cfg,
		sets:    sets,
		shift:   uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask: uint64(sets - 1),
		lines:   make([]Line, linesTotal),
	}
}

// Config returns the geometry.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the set count.
func (c *Cache) Sets() int { return c.sets }

// BlockOf returns the block address containing addr.
func (c *Cache) BlockOf(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineBytes-1) }

func (c *Cache) setOf(block uint64) []Line {
	b := block >> c.shift // block number
	if c.cfg.IndexSkipBits > 0 {
		// Fold out the skipped bit-field: keep the bits below it,
		// concatenate the bits above it.
		lowBits := uint(c.cfg.IndexSkipLo) - c.shift
		low := b & (1<<lowBits - 1)
		high := b >> (lowBits + uint(c.cfg.IndexSkipBits))
		b = low | high<<lowBits
	}
	set := int(b & c.setMask)
	return c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
}

// Probe returns the line holding addr's block without touching LRU, or
// nil.
func (c *Cache) Probe(addr uint64) *Line {
	block := c.BlockOf(addr)
	set := c.setOf(block)
	for i := range set {
		if set[i].Valid() && set[i].Block == block {
			return &set[i]
		}
	}
	return nil
}

// Access looks up addr, updating LRU and hit/miss statistics. It returns
// the line on a hit, nil on a miss.
func (c *Cache) Access(addr uint64) *Line {
	c.clock++
	if l := c.Probe(addr); l != nil {
		l.lastUse = c.clock
		c.hits.Inc()
		return l
	}
	c.misses.Inc()
	return nil
}

// Set returns the cache set that addr maps to, in way order, without
// allocating: the slice aliases the cache's line storage. Callers may
// mutate line state through it but must not change Block of a valid
// line.
func (c *Cache) Set(addr uint64) []Line {
	return c.setOf(c.BlockOf(addr))
}

// SetLines returns pointers to every line (valid or not) of the set that
// addr maps to, in way order. Callers may mutate states but must not
// change Block of a valid line. Hot paths should use Set, which does
// not allocate.
func (c *Cache) SetLines(addr uint64) []*Line {
	set := c.setOf(c.BlockOf(addr))
	out := make([]*Line, len(set))
	for i := range set {
		out[i] = &set[i]
	}
	return out
}

// Victim returns the line that would be evicted to make room for addr's
// block: an invalid way if any, else the LRU line. It never returns nil.
func (c *Cache) Victim(addr uint64) *Line {
	set := c.setOf(c.BlockOf(addr))
	victim := &set[0]
	for i := range set {
		if !set[i].Valid() {
			return &set[i]
		}
		if set[i].lastUse < victim.lastUse {
			victim = &set[i]
		}
	}
	return victim
}

// Insert places block into the cache in the given state, returning the
// evicted line's previous contents (Valid()==false if the way was free).
// Inserting a block that is already present panics: callers must use
// the existing line.
func (c *Cache) Insert(addr uint64, st State) Line {
	block := c.BlockOf(addr)
	if c.Probe(block) != nil {
		panic(fmt.Sprintf("cache: double insert of block %#x", block))
	}
	if st == Invalid {
		panic("cache: inserting an invalid line")
	}
	c.clock++
	v := c.Victim(block)
	old := *v
	if old.Valid() {
		c.evicts.Inc()
	}
	*v = Line{Block: block, State: st, lastUse: c.clock}
	return old
}

// Invalidate removes addr's block, returning its previous state
// (Invalid if absent).
func (c *Cache) Invalidate(addr uint64) State {
	if l := c.Probe(addr); l != nil {
		st := l.State
		*l = Line{}
		return st
	}
	return Invalid
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].Valid() {
			n++
		}
	}
	return n
}

// Stats returns (hits, misses, evictions).
func (c *Cache) Stats() (hits, misses, evicts uint64) {
	return c.hits.Value(), c.misses.Value(), c.evicts.Value()
}

// HitRate returns hits / (hits + misses), 0 when unused.
func (c *Cache) HitRate() float64 {
	h, m, _ := c.Stats()
	return stats.Ratio(float64(h), float64(h+m))
}
