// Package energy accumulates the energy of a simulation run and computes
// the paper's metrics: the link ED^2P of Figure 6 (bottom) and the
// full-CMP ED^2P of Figure 7.
//
// The run only counts: the network increments integer activity totals
// on a Meter (link payload bytes per wire kind, router bytes and flits,
// compression events), and every Joule is priced from those counts when
// a result is read. Link energy is physical: dynamic energy per bit
// transition and leakage per wire from the Table 2/3 catalog
// (internal/wire). Router energy is an Orion-class per-byte/per-flit
// model.
//
// Full-CMP energy uses a share calibration instead of absolute core
// watts: the baseline run of each application pins the interconnect at a
// configurable fraction of chip energy (default 36%, the Raw measurement
// the paper cites [22]), which backs out an effective rest-of-chip power
// (cores + caches, dominated by leakage and clocking at 65 nm and hence
// time-proportional). That rest power is then held fixed across the
// configurations of the same application, so execution-time and
// interconnect-energy changes move full-chip ED^2P exactly as in the
// paper's accounting. The address-compression hardware is charged per
// Table 1: its static power as the published percentage of core power,
// its dynamic energy per compression event.
package energy

import (
	"fmt"

	"tilesim/internal/cacti"
	"tilesim/internal/noc"
	"tilesim/internal/wire"
)

// Joules is an amount of energy. Keeping energy in its own defined type
// (rather than a bare float64) lets the compiler and tilesimvet's units
// analyzer catch dimensionally bogus arithmetic such as adding an
// energy to a cycle count.
//
//tilesim:unit joules
type Joules float64

// Alpha is the average switching factor of message payload bits: each
// bit toggles with probability 1/2 between consecutive transfers.
const Alpha = 0.5

// LinkLeakageDuty derates the worst-case repeater leakage of the wire
// catalog: global-link repeaters are power-gated/body-biased when a link
// is idle, so only a small duty of the catalog's always-on W/m figure is
// spent. Calibrated so static is a ~10-15% share of baseline link energy
// at the paper's traffic intensities, which is what makes the reported
// per-application spread of Figure 6 (bottom) come out (see DESIGN.md).
const LinkLeakageDuty = 0.01

// Router energy constants (Orion-class, 65 nm, 4 GHz).
const (
	// RouterDynPerByteJ is the buffer+crossbar+arbitration energy per
	// payload byte per hop.
	RouterDynPerByteJ = 3.0e-12
	// RouterDynPerFlitJ is the fixed per-flit control overhead per hop.
	RouterDynPerFlitJ = 8.0e-12
	// RouterStaticWEach is the leakage of one router.
	RouterStaticWEach = 15e-3
)

// Meter is the integer activity record of a run. The network counts
// into it on every hop; nothing is priced until a report is read, and
// static contributions are integrated from the run length then.
type Meter struct {
	count DynSnapshot

	// Standing resources, registered by the network at construction.
	linkLengthM [wire.NumKinds]float64 // per wire kind; 0 = unregistered
	staticLinkW float64
	routers     int
}

// DynSnapshot is the meter's activity counts, all monotone. A
// measurement window subtracts the snapshot taken at its start; the
// difference is exact.
type DynSnapshot struct {
	// LinkBytes is the payload bytes summed over link traversals, per
	// wire kind.
	LinkBytes [wire.NumKinds]uint64
	// RouterBytes and RouterFlits are the payload bytes and flits summed
	// over router traversals.
	RouterBytes, RouterFlits uint64
	// ComprEvents counts address compressions.
	ComprEvents uint64
}

// sub returns the counts accumulated since prev.
func (s DynSnapshot) sub(prev DynSnapshot) DynSnapshot {
	for k := range s.LinkBytes {
		s.LinkBytes[k] -= prev.LinkBytes[k]
	}
	s.RouterBytes -= prev.RouterBytes
	s.RouterFlits -= prev.RouterFlits
	s.ComprEvents -= prev.ComprEvents
	return s
}

// NewMeter builds a meter for a network with the given router count.
func NewMeter(routers int) *Meter {
	return &Meter{routers: routers}
}

// AddStaticWires registers one plane of standing link wires: wires
// wires of kind, each lengthM long, summed over every link. The network
// calls it once per plane; link traversals of kind are priced at
// lengthM.
func (m *Meter) AddStaticWires(kind wire.Kind, lengthM float64, wires int) {
	m.linkLengthM[kind] = lengthM
	m.staticLinkW += wire.StaticPowerWatts(kind, lengthM, wires) * LinkLeakageDuty
}

// LinkTraversal records msgBytes of payload crossing one link of the
// given wire kind.
func (m *Meter) LinkTraversal(kind wire.Kind, msgBytes int) {
	m.count.LinkBytes[kind] += uint64(msgBytes)
}

// RouterHop records one message crossing one router.
func (m *Meter) RouterHop(msgBytes int, flits noc.FlitCount) {
	m.count.RouterBytes += uint64(msgBytes)
	m.count.RouterFlits += uint64(flits)
}

// CompressionEvent records one address compression/decompression (one
// sender search plus one receiver access).
func (m *Meter) CompressionEvent() { m.count.ComprEvents++ }

// ComprEvents returns the number of compression events recorded.
func (m *Meter) ComprEvents() uint64 { return m.count.ComprEvents }

// Snapshot returns the current counts.
func (m *Meter) Snapshot() DynSnapshot { return m.count }

// linkDynJ prices link traversal counts, in wire-kind order: each
// payload bit toggles with probability Alpha per traversal.
func (m *Meter) linkDynJ(c DynSnapshot) Joules {
	var j Joules
	for k, bytes := range c.LinkBytes {
		if bytes == 0 {
			continue
		}
		lengthM := m.linkLengthM[k]
		if lengthM == 0 {
			panic(fmt.Sprintf("energy: traversals of unregistered wire kind %v", wire.Kind(k)))
		}
		j += Joules(float64(bytes*8) * Alpha * wire.DynamicEnergyPerTransition(wire.Kind(k), lengthM))
	}
	return j
}

// routerDynJ prices router traversal counts.
func routerDynJ(c DynSnapshot) Joules {
	return Joules(float64(c.RouterBytes)*RouterDynPerByteJ + float64(c.RouterFlits)*RouterDynPerFlitJ)
}

// LinkSince returns the link energy of a window of the given cycles
// that started at snapshot s.
func (m *Meter) LinkSince(s DynSnapshot, cycles uint64) LinkReport {
	return LinkReport{
		DynJ:    m.linkDynJ(m.count.sub(s)),
		StaticJ: Joules(m.staticLinkW * float64(Seconds(cycles))),
	}
}

// InterconnectSince returns links+routers energy over a window.
func (m *Meter) InterconnectSince(s DynSnapshot, cycles uint64) Joules {
	return m.LinkSince(s, cycles).TotalJ() + routerDynJ(m.count.sub(s)) +
		Joules(RouterStaticWEach*float64(m.routers)*float64(Seconds(cycles)))
}

// Link returns the link energy over a run of the given cycles.
func (m *Meter) Link(cycles uint64) LinkReport { return m.LinkSince(DynSnapshot{}, cycles) }

// InterconnectJ returns links plus routers energy over the run: the
// "interconnect" whose chip share anchors the full-CMP model.
func (m *Meter) InterconnectJ(cycles uint64) Joules {
	return m.InterconnectSince(DynSnapshot{}, cycles)
}

// RouterDynJ returns the router dynamic energy of every recorded hop.
func (m *Meter) RouterDynJ() Joules { return routerDynJ(m.count) }

// Seconds converts a cycle count to seconds at the system clock.
func Seconds(cycles uint64) wire.Seconds {
	return wire.Seconds(float64(cycles) / wire.ClockHz)
}

// LinkReport is the energy of the inter-router links only (the subject
// of Figure 6 bottom).
type LinkReport struct {
	DynJ    Joules
	StaticJ Joules
}

// TotalJ returns dynamic plus static link energy.
func (r LinkReport) TotalJ() Joules { return r.DynJ + r.StaticJ }

// ED2P returns the energy-delay^2 product in J*s^2 for an energy and a
// run length in cycles.
func ED2P(energyJ Joules, cycles uint64) float64 {
	t := float64(cycles) / wire.ClockHz
	return float64(energyJ) * t * t
}

// FullCMPModel converts a run's interconnect energy and duration into
// full-chip energy.
type FullCMPModel struct {
	// ICShare is the interconnect's share of baseline chip energy.
	ICShare float64
	// RestW is the effective rest-of-chip power (cores, caches, clocks),
	// time-proportional; produced by Calibrate on the baseline run.
	RestW float64
	// Tiles is the core count (for per-core compression hardware).
	Tiles int
}

// Calibrate pins the interconnect at icShare of chip energy for the
// baseline run, backing out the rest-of-chip power.
func Calibrate(baselineICJ Joules, baselineCycles uint64, icShare float64, tiles int) FullCMPModel {
	if icShare <= 0 || icShare >= 1 {
		panic(fmt.Sprintf("energy: interconnect share %v out of (0,1)", icShare))
	}
	if baselineICJ <= 0 || baselineCycles == 0 {
		panic("energy: calibration needs a positive baseline")
	}
	t := float64(baselineCycles) / wire.ClockHz
	restJ := float64(baselineICJ) * (1 - icShare) / icShare
	return FullCMPModel{ICShare: icShare, RestW: restJ / t, Tiles: tiles}
}

// PerCoreW returns the effective per-core rest power, the reference for
// Table 1's percentage columns.
func (f FullCMPModel) PerCoreW() float64 { return f.RestW / float64(f.Tiles) }

// ChipJ returns full-chip energy for a run: interconnect + rest +
// compression hardware (scheme == "" means no compression hardware).
// comprEvents is the number of compression events (Meter.ComprEvents).
func (f FullCMPModel) ChipJ(icJ Joules, cycles uint64, scheme string, comprEvents uint64) (Joules, error) {
	t := float64(cycles) / wire.ClockHz
	total := icJ + Joules(f.RestW*t)
	if scheme != "" {
		var row cacti.Table1Row
		found := false
		for _, r := range cacti.Table1Rows() {
			if r.Scheme == scheme {
				row, found = r, true
				break
			}
		}
		if !found {
			// Untabulated design points (8-/32-entry DBRC ablations) come
			// from the analytical surrogate.
			modeled, err := cacti.ModelRow(scheme)
			if err != nil {
				return 0, fmt.Errorf("energy: no Table 1 row or model for scheme %q: %v", scheme, err)
			}
			row = modeled
		}
		perCore := f.PerCoreW()
		// Static: the published percentage of core power, always on, in
		// every tile. The paper's percentages are against core *static*
		// power; the rest-power here folds static and clocking together,
		// so the static percentage applies to the whole rest share that
		// is leakage-like (~60% at 65 nm high-performance).
		const leakageLikeShare = 0.6
		total += Joules(row.StaticPct / 100 * perCore * leakageLikeShare * float64(f.Tiles) * t)
		// Dynamic: per compression event, scaled off the max-dynamic
		// percentage at the paper's 4-structures-per-cycle peak.
		accessJ := (row.MaxDynPct / 100 * perCore) / (4 * wire.ClockHz)
		total += Joules(accessJ * float64(comprEvents))
	}
	return total, nil
}
