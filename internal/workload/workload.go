// Package workload generates the per-core memory reference streams that
// drive the simulator, standing in for the SPLASH/SPLASH-2 + EM3D +
// Unstructured binaries of the paper's evaluation (Table 4 bottom).
//
// Each application is a parameterized synthetic model that reproduces
// the traits the paper's analysis depends on (Section 5.2):
//
//   - Sharing intensity: Water and LU have little inter-core sharing
//     (the proposal barely helps them); MP3D and Unstructured are
//     coherence-bound (the proposal helps them most).
//   - Address-stream regularity: Barnes-Hut (octree pointer chasing) and
//     Radix (permutation scatter) touch many address regions in an
//     irregular order, defeating small compression caches (Figure 2);
//     FFT/LU/Ocean sweep regions sequentially and compress well.
//   - Read/write mix and producer-consumer vs. migratory shared access.
//
// Streams are deterministic for a (application, core, seed) triple.
// Problem sizes are scaled commensurate with the 32 KB L1s following the
// methodology of Woo et al. [23], exactly as the paper scales its own
// inputs.
package workload

import (
	"fmt"
	"math/rand"
)

// OpKind discriminates the operations a core executes.
type OpKind uint8

const (
	// OpCompute is n cycles of non-memory work.
	OpCompute OpKind = iota
	// OpLoad reads an address.
	OpLoad
	// OpStore writes an address.
	OpStore
	// OpBarrier synchronizes all cores.
	OpBarrier
)

// Op is one operation of a core's stream.
type Op struct {
	Kind   OpKind
	Addr   uint64
	Cycles int // OpCompute only
}

// Generator produces per-core operation streams.
type Generator interface {
	// Name is the application name as used in the paper's figures.
	Name() string
	// Next returns the next operation for a core; ok=false ends the
	// core's parallel phase.
	Next(core int) (op Op, ok bool)
	// Reset rewinds all streams (same sequence again).
	Reset()
}

// Pattern selects how an address stream walks its region.
type Pattern uint8

const (
	// Sequential walks blocks in order, wrapping.
	Sequential Pattern = iota
	// Strided jumps by a fixed stride, wrapping.
	Strided
	// Random draws blocks uniformly.
	Random
	// Chase follows a pseudo-random permutation (pointer chasing): as
	// scattered as Random but deterministic per step.
	Chase
)

// Params configures one synthetic application.
type Params struct {
	Name  string
	Cores int
	// RefsPerCore is the number of memory references each core issues.
	RefsPerCore int

	// PrivateBytes is each core's private working set.
	PrivateBytes int
	// SharedBytes is the global shared region.
	SharedBytes int
	// SharedFraction of references target the shared region.
	SharedFraction float64
	// HotFraction of shared references target a small contended set
	// (migratory objects, reduction cells).
	HotFraction float64
	// HotBytes is the size of that contended set.
	HotBytes int

	// WriteFraction of private references are stores.
	WriteFraction float64
	// SharedWriteFraction of shared references are stores.
	SharedWriteFraction float64

	PrivatePattern Pattern
	SharedPattern  Pattern
	// StrideBytes is the step for Strided patterns.
	StrideBytes int

	// RereferenceProb is the probability of re-touching one of the last
	// few blocks instead of advancing (temporal locality -> L1 hits).
	RereferenceProb float64

	// ComputeMean is the mean compute gap (cycles) between references;
	// geometric distribution. Models each app's memory intensity.
	ComputeMean int

	// BarrierEvery inserts a global barrier every n references (0 =
	// none).
	BarrierEvery int

	Seed int64
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Cores < 2 {
		return fmt.Errorf("workload %s: need >= 2 cores", p.Name)
	}
	if p.RefsPerCore <= 0 {
		return fmt.Errorf("workload %s: RefsPerCore must be positive", p.Name)
	}
	if p.PrivateBytes < 64 || p.SharedBytes < 64 {
		return fmt.Errorf("workload %s: working sets must hold at least one block", p.Name)
	}
	if p.SharedFraction < 0 || p.SharedFraction > 1 ||
		p.WriteFraction < 0 || p.WriteFraction > 1 ||
		p.SharedWriteFraction < 0 || p.SharedWriteFraction > 1 ||
		p.HotFraction < 0 || p.HotFraction > 1 ||
		p.RereferenceProb < 0 || p.RereferenceProb > 1 {
		return fmt.Errorf("workload %s: fractions must be in [0,1]", p.Name)
	}
	if p.HotFraction > 0 && p.HotBytes < 64 {
		return fmt.Errorf("workload %s: HotBytes must hold a block", p.Name)
	}
	return nil
}

// Address-space layout: private regions are striped per core well away
// from each other; the shared region is common; the hot set sits at the
// start of the shared region.
const (
	privateBase = 0x1000_0000
	// privateStride keeps per-core regions far apart without power-of-
	// two alignment: exactly 16 MB-aligned heaps would alias every
	// core's region onto the same cache-set indices, which no real
	// physical page allocation does.
	privateStride = 0x0101_0400 // 16 MB + 64 KB + 1 KB
	sharedBase    = 0x8000_0000
)

// App is the concrete Generator.
type App struct {
	p     Params
	cores []coreState
}

type coreState struct {
	rng    *rand.Rand
	issued int
	// pending is the reference queued behind a barrier or compute gap,
	// emitted by the next call; never more than one is queued.
	pending    Op
	hasPending bool
	privPos    uint64
	shPos      uint64
	recent     [8]uint64
	recentN    int
	chaseMul   uint64 // per-core LCG multiplier for Chase
}

// NewApp builds the generator.
func NewApp(p Params) (*App, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a := &App{p: p}
	a.Reset()
	return a, nil
}

// Name implements Generator.
func (a *App) Name() string { return a.p.Name }

// Params returns the configuration.
func (a *App) Params() Params { return a.p }

// Reset implements Generator.
func (a *App) Reset() {
	a.cores = make([]coreState, a.p.Cores)
	for i := range a.cores {
		a.cores[i] = coreState{
			rng:      rand.New(rand.NewSource(a.p.Seed + int64(i)*7919)),
			chaseMul: 2862933555777941757,
		}
	}
}

// Next implements Generator.
func (a *App) Next(core int) (Op, bool) {
	c := &a.cores[core]
	if c.hasPending {
		c.hasPending = false
		return c.pending, true
	}
	if c.issued >= a.p.RefsPerCore {
		return Op{}, false
	}
	c.issued++

	// Barrier due?
	if a.p.BarrierEvery > 0 && c.issued%a.p.BarrierEvery == 0 {
		c.pending, c.hasPending = a.genRef(core, c), true
		return Op{Kind: OpBarrier}, true
	}

	// Compute gap, then the reference.
	if a.p.ComputeMean > 0 {
		gap := geometric(c.rng, a.p.ComputeMean)
		if gap > 0 {
			c.pending, c.hasPending = a.genRef(core, c), true
			return Op{Kind: OpCompute, Cycles: gap}, true
		}
	}
	return a.genRef(core, c), true
}

// genRef produces one memory reference.
func (a *App) genRef(core int, c *coreState) Op {
	// Temporal locality: re-touch a recent block.
	if c.recentN > 0 && c.rng.Float64() < a.p.RereferenceProb {
		addr := c.recent[c.rng.Intn(c.recentN)]
		kind := OpLoad
		if c.rng.Float64() < a.p.WriteFraction {
			kind = OpStore
		}
		return Op{Kind: kind, Addr: addr}
	}

	shared := c.rng.Float64() < a.p.SharedFraction
	var addr uint64
	var write bool
	if shared {
		write = c.rng.Float64() < a.p.SharedWriteFraction
		if a.p.HotFraction > 0 && c.rng.Float64() < a.p.HotFraction {
			blocks := uint64(a.p.HotBytes / 64)
			addr = sharedBase + (uint64(c.rng.Intn(int(blocks))))*64
		} else {
			addr = a.walk(c, &c.shPos, sharedBase, a.p.SharedBytes, a.p.SharedPattern)
		}
	} else {
		write = c.rng.Float64() < a.p.WriteFraction
		base := uint64(privateBase + core*privateStride)
		addr = a.walk(c, &c.privPos, base, a.p.PrivateBytes, a.p.PrivatePattern)
	}
	c.recent[c.recentN%len(c.recent)] = addr
	if c.recentN < len(c.recent) {
		c.recentN++
	}
	kind := OpLoad
	if write {
		kind = OpStore
	}
	return Op{Kind: kind, Addr: addr}
}

// walk advances a position through a region per the pattern and returns
// the block address.
func (a *App) walk(c *coreState, pos *uint64, base uint64, size int, pat Pattern) uint64 {
	blocks := uint64(size / 64)
	if blocks == 0 {
		blocks = 1
	}
	switch pat {
	case Sequential:
		*pos = (*pos + 1) % blocks
	case Strided:
		step := uint64(a.p.StrideBytes / 64)
		if step == 0 {
			step = 1
		}
		*pos = (*pos + step) % blocks
	case Random:
		*pos = uint64(c.rng.Intn(int(blocks)))
	case Chase:
		// Affine permutation step: scattered but deterministic.
		*pos = (*pos*c.chaseMul + 0x9E3779B97F4A7C15) % blocks
	}
	return base + *pos*64
}

// geometric samples a geometric distribution with the given mean.
func geometric(rng *rand.Rand, mean int) int {
	if mean <= 0 {
		return 0
	}
	p := 1.0 / float64(mean)
	n := 0
	for rng.Float64() >= p && n < mean*10 {
		n++
	}
	return n
}
