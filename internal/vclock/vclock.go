// Package vclock models the unsynchronized node-local clocks of a
// metacomputer and the algorithms that map their readings back onto a
// common time base.
//
// Following the paper (§3, Figure 1), every node clock is assumed to be
// a linear function of true time — an initial offset plus a constant
// drift — optionally quantized by a read granularity. Processes on the
// same SMP node share a clock ("we assume that time stamps taken on the
// same node are already synchronized").
//
// Three synchronization schemes are provided, matching Table 2:
//
//	FlatSingle   — one offset measurement per slave against the global
//	               master at program start; no drift compensation.
//	FlatInterp   — two offset measurements (start and end) per slave
//	               against the global master; linear interpolation
//	               (KOJAK/SCALASCA's previous method).
//	Hierarchical — the paper's contribution: slaves measure against a
//	               local master on their own metahost, local masters
//	               measure against a global metamaster, and the two
//	               linear maps are composed.
package vclock

import (
	"errors"
	"fmt"
	"math"

	"metascope/internal/obs"
	"metascope/internal/sim"
	"metascope/internal/topology"
)

// Clock is a node-local clock: local(t) = Offset + (1+Drift)·t, rounded
// down to a multiple of Granularity when Granularity > 0.
type Clock struct {
	Offset      float64
	Drift       float64
	Granularity float64
}

// Read converts true (simulation) time into a local clock reading.
func (c *Clock) Read(global float64) float64 {
	local := c.Offset + (1+c.Drift)*global
	if c.Granularity > 0 {
		local = math.Floor(local/c.Granularity) * c.Granularity
	}
	return local
}

// TrueMap returns the exact global→local mapping, ignoring granularity.
// Tests use it as ground truth for synchronization accuracy.
func (c *Clock) TrueMap() LinearMap {
	return LinearMap{A: c.Offset, B: 1 + c.Drift}
}

// LinearMap is an affine time transformation y = A + B·x. Offset
// corrections, drift interpolation, and their compositions are all
// linear maps.
type LinearMap struct {
	A float64
	B float64
}

// Identity returns the map y = x.
func Identity() LinearMap { return LinearMap{A: 0, B: 1} }

// Apply evaluates the map at x.
func (m LinearMap) Apply(x float64) float64 { return m.A + m.B*x }

// Compose returns the map x ↦ m(inner(x)).
func (m LinearMap) Compose(inner LinearMap) LinearMap {
	return LinearMap{A: m.A + m.B*inner.A, B: m.B * inner.B}
}

// Invert returns the inverse map, or an error if the map is singular
// (B == 0), which cannot arise from physical clocks.
func (m LinearMap) Invert() (LinearMap, error) {
	if m.B == 0 {
		return LinearMap{}, errors.New("vclock: cannot invert singular time map")
	}
	return LinearMap{A: -m.A / m.B, B: 1 / m.B}, nil
}

// SingleOffsetMap builds the correction used by FlatSingle: one offset
// o measured once; corrected(s) = s + o.
func SingleOffsetMap(o float64) LinearMap { return LinearMap{A: o, B: 1} }

// InterpMap builds the two-measurement linear interpolation of §3:
// offsets o1 at local time s1 and o2 at local time s2 yield
//
//	m(s) = s + o1 + (s − s1)·(o2 − o1)/(s2 − s1)
//
// mapping slave-local time onto master time. If the two measurements
// coincide in time the drift term is dropped (plain offset map).
func InterpMap(s1, o1, s2, o2 float64) LinearMap {
	if s2 == s1 {
		return SingleOffsetMap(o1)
	}
	slope := (o2 - o1) / (s2 - s1)
	// s + o1 + (s-s1)*slope  ==  (o1 - s1*slope) + s*(1+slope)
	return LinearMap{A: o1 - s1*slope, B: 1 + slope}
}

// Measurement is one remote-clock-reading result: at slave-local time
// Local, the master's clock was estimated to lead the slave's by
// Offset (master ≈ local + Offset). Err is the half-round-trip error
// bound of Cristian's method, kept for diagnostics.
type Measurement struct {
	Local  float64
	Offset float64
	Err    float64
}

// Scheme selects a time-stamp synchronization algorithm.
type Scheme int

// The three schemes compared in Table 2 of the paper.
const (
	FlatSingle Scheme = iota
	FlatInterp
	Hierarchical
)

// String names the scheme as in Table 2.
func (s Scheme) String() string {
	switch s {
	case FlatSingle:
		return "single flat offset"
	case FlatInterp:
		return "two flat offsets"
	case Hierarchical:
		return "two hierarchical offsets"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme converts a CLI spelling ("flat1", "flat2", "hier", …)
// into a Scheme.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "flat1", "single", "flat-single":
		return FlatSingle, nil
	case "flat2", "interp", "flat-interp":
		return FlatInterp, nil
	case "hier", "hierarchical":
		return Hierarchical, nil
	default:
		return 0, fmt.Errorf("vclock: unknown sync scheme %q (want flat1|flat2|hier)", s)
	}
}

// Correction maps one process's local time stamps onto the global
// master time base.
type Correction struct {
	Rank int
	Map  LinearMap
}

// FlatCorrection builds the correction map for one rank under a flat
// scheme from its own measurements against the global master: the
// single start offset for FlatSingle, the start/end interpolation for
// FlatInterp. The master rank passes zero-offset measurements for
// itself. Every scheme derives a rank's map from that rank's own sync
// block alone, so a live session builds it the moment the block arrives,
// without waiting for the rest of the archive, and it never changes once
// built.
func FlatCorrection(scheme Scheme, start, end Measurement) (LinearMap, error) {
	switch scheme {
	case FlatSingle:
		return SingleOffsetMap(start.Offset), nil
	case FlatInterp:
		return InterpMap(start.Local, start.Offset, end.Local, end.Offset), nil
	default:
		return LinearMap{}, errors.New("vclock: FlatCorrection cannot build hierarchical corrections; use HierarchicalCorrection")
	}
}

// HierarchicalInput bundles the measurements of the paper's
// hierarchical scheme for one process: the slave's offsets against its
// metahost-local master, and that local master's offsets against the
// metamaster. For a process on the metamaster's metahost the
// LocalMaster* fields are zero maps (identity composition); for a local
// master itself the Slave* fields are zero.
type HierarchicalInput struct {
	Rank int
	// Slave → local master, measured at start and end.
	SlaveStart, SlaveEnd Measurement
	// Local master → metamaster, measured at start and end. The local
	// master's measurement is shared by every slave on its metahost,
	// which is exactly why their relative offsets stay consistent (§4).
	MasterStart, MasterEnd Measurement
	// SharedNodeClock indicates the metahost provides hardware
	// synchronization across nodes; the slave step is then omitted (§4).
	SharedNodeClock bool
}

// HierarchicalCorrection composes one rank's slave→local-master
// interpolation with its local master's →metamaster interpolation,
// yielding the slave→metamaster correction. Like FlatCorrection, every
// input is rank-local, so the map is available as soon as that rank's
// header has been ingested.
func HierarchicalCorrection(in HierarchicalInput) LinearMap {
	toLocal := Identity()
	if !in.SharedNodeClock {
		toLocal = InterpMap(in.SlaveStart.Local, in.SlaveStart.Offset,
			in.SlaveEnd.Local, in.SlaveEnd.Offset)
	}
	toMeta := InterpMap(in.MasterStart.Local, in.MasterStart.Offset,
		in.MasterEnd.Local, in.MasterEnd.Offset)
	return toMeta.Compose(toLocal)
}

// ObserveCorrections records residual-drift statistics of a built
// correction set: the drift magnitude |B−1| of every per-rank
// correction map as a histogram, the largest one as a gauge, and the
// number of corrections built as a counter, all labeled by scheme. A
// large residual drift means the scheme had to stretch local time
// noticeably to meet the master time base — the effect Table 2's
// violation counts trace back to.
func ObserveCorrections(rec *obs.Recorder, scheme Scheme, corrs []Correction) {
	rec = obs.OrDefault(rec)
	s := scheme.String()
	hist := rec.Reg.Histogram("metascope_sync_residual_drift",
		"per-rank clock-correction drift magnitude |B-1|", obs.DriftBuckets, "scheme").With(s)
	maxG := rec.Reg.Gauge("metascope_sync_residual_drift_max",
		"largest per-rank clock-correction drift magnitude |B-1|", "scheme").With(s)
	built := rec.Reg.Counter("metascope_sync_corrections_total",
		"per-rank clock corrections built", "scheme").With(s)
	max := 0.0
	for _, c := range corrs {
		d := math.Abs(c.Map.B - 1)
		hist.Observe(d)
		if d > max {
			max = d
		}
	}
	maxG.Set(max)
	built.Add(float64(len(corrs)))
}

// Set holds the generated clocks of a metacomputer, one per SMP node
// (or one per metahost when the metahost advertises hardware clock
// synchronization).
type Set struct {
	mc     *topology.Metacomputer
	clocks map[nodeKey]*Clock
}

type nodeKey struct{ metahost, node int }

// Generate draws a clock for every node of every metahost from the
// engine's "clock" random stream: offsets uniform in ±MaxOffset, drifts
// uniform in ±MaxDrift. Metahosts with Synchronized clocks get a single
// shared clock.
func Generate(eng *sim.Engine, mc *topology.Metacomputer) *Set {
	s := &Set{mc: mc, clocks: make(map[nodeKey]*Clock)}
	for _, m := range mc.Metahosts {
		var shared *Clock
		for n := 0; n < m.Nodes; n++ {
			if m.Clock.Synchronized && shared != nil {
				s.clocks[nodeKey{m.ID, n}] = shared
				continue
			}
			c := &Clock{
				Offset:      eng.Uniform("clock", -m.Clock.MaxOffset, m.Clock.MaxOffset),
				Drift:       eng.Uniform("clock", -m.Clock.MaxDrift, m.Clock.MaxDrift),
				Granularity: m.Clock.Granularity,
			}
			s.clocks[nodeKey{m.ID, n}] = c
			if m.Clock.Synchronized {
				shared = c
			}
		}
	}
	return s
}

// ForLoc returns the clock serving the given location.
func (s *Set) ForLoc(loc topology.Loc) *Clock {
	c, ok := s.clocks[nodeKey{loc.Metahost, loc.Node}]
	if !ok {
		panic(fmt.Sprintf("vclock: no clock for location %v", loc))
	}
	return c
}

// MaxDivergence returns the largest absolute difference between any two
// node clocks' readings at global time t — the spread illustrated by
// the paper's Figure 1.
func (s *Set) MaxDivergence(t float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range s.clocks {
		r := c.Read(t)
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}
