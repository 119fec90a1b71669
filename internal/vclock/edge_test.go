package vclock

import (
	"math"
	"strings"
	"testing"
)

// TestInterpMapZeroDuration: when both offset measurements coincide in
// time — a zero-duration run, or a crash right after initialization —
// the interpolation must degrade to the plain offset map instead of
// dividing by zero.
func TestInterpMapZeroDuration(t *testing.T) {
	m := InterpMap(3.5, 0.25, 3.5, 0.75)
	want := SingleOffsetMap(0.25)
	if m != want {
		t.Errorf("zero-duration interpolation = %+v, want offset map %+v", m, want)
	}
	if got := m.Apply(10); got != 10.25 {
		t.Errorf("degraded map applies as %g, want 10.25", got)
	}
}

// TestInterpMapEndpoints: the interpolation is defined by passing
// through both measurements exactly — m(s1) = s1+o1 and m(s2) = s2+o2 —
// including with negative offsets and with the "end" measurement taken
// before the "start" (the formula is symmetric in the two points).
func TestInterpMapEndpoints(t *testing.T) {
	cases := []struct{ s1, o1, s2, o2 float64 }{
		{0, 0.5, 10, 0.7},
		{0, -0.5, 10, -0.9},         // negative offsets: slave ahead of master
		{2, -1e-3, 1, 1e-3},         // end before start
		{-5, 0.1, 5, -0.1},          // negative local times
		{1e6, 2e-6, 1e6 + 60, 3e-6}, // long-run magnitudes
	}
	for _, c := range cases {
		m := InterpMap(c.s1, c.o1, c.s2, c.o2)
		if got, want := m.Apply(c.s1), c.s1+c.o1; math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("InterpMap(%v): m(s1) = %.12g, want %.12g", c, got, want)
		}
		if got, want := m.Apply(c.s2), c.s2+c.o2; math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("InterpMap(%v): m(s2) = %.12g, want %.12g", c, got, want)
		}
	}
}

// TestComposeInvertRoundTrip: corrections are composed and inverted
// when moving between time bases; the algebra must hold numerically.
func TestComposeInvertRoundTrip(t *testing.T) {
	m := LinearMap{A: 0.37, B: 1 + 4.2e-6}
	inv, err := m.Invert()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-10, 0, 1e-9, 123.456, 1e7} {
		if got := inv.Apply(m.Apply(x)); math.Abs(got-x) > 1e-6*math.Max(1, math.Abs(x)) {
			t.Errorf("inv(m(%g)) = %.12g", x, got)
		}
	}
	id := m.Compose(Identity())
	if id != m {
		t.Errorf("m∘id = %+v, want %+v", id, m)
	}
	if got := Identity().Compose(m); got != m {
		t.Errorf("id∘m = %+v, want %+v", got, m)
	}
	if _, err := (LinearMap{A: 1, B: 0}).Invert(); err == nil {
		t.Error("singular map inverted without error")
	}
}

// TestBuildFlatErrors: the flat builder must reject the hierarchical
// scheme with an error naming the builder to use, and FlatSingle must
// not read the end measurement at all.
func TestBuildFlatErrors(t *testing.T) {
	if _, err := FlatCorrection(Hierarchical, Measurement{}, Measurement{}); err == nil ||
		!strings.Contains(err.Error(), "HierarchicalCorrection") {
		t.Errorf("hierarchical scheme through FlatCorrection: %v", err)
	}
	start := Measurement{Local: 3, Offset: 0.25}
	a, errA := FlatCorrection(FlatSingle, start, Measurement{})
	b, errB := FlatCorrection(FlatSingle, start, Measurement{Local: 50, Offset: -7})
	if errA != nil || errB != nil || a != b {
		t.Errorf("FlatSingle depends on the end measurement: %+v (%v) vs %+v (%v)", a, errA, b, errB)
	}
}

// TestBuildHierarchicalSingleMetahost: in a single-metahost federation
// the local master IS the metamaster, so its own measurements are zero
// maps and the composition must reduce to the slave interpolation alone.
func TestBuildHierarchicalSingleMetahost(t *testing.T) {
	in := HierarchicalInput{
		Rank:       1,
		SlaveStart: Measurement{Local: 0, Offset: 0.5},
		SlaveEnd:   Measurement{Local: 10, Offset: 0.6},
		// MasterStart/MasterEnd zero: identity composition.
	}
	got := HierarchicalCorrection(in)
	want := InterpMap(0, 0.5, 10, 0.6)
	if math.Abs(got.A-want.A) > 1e-12 || math.Abs(got.B-want.B) > 1e-12 {
		t.Errorf("single-metahost correction = %+v, want slave interpolation %+v", got, want)
	}
}

// TestSharedNodeClockIgnoresSlaveMeasurements: with hardware clock
// synchronization the slave step is skipped entirely — whatever junk
// the slave measurements hold must not leak into the correction.
func TestSharedNodeClockIgnoresSlaveMeasurements(t *testing.T) {
	in := HierarchicalInput{
		Rank:            2,
		SlaveStart:      Measurement{Local: 1, Offset: 99}, // must be ignored
		SlaveEnd:        Measurement{Local: 2, Offset: 99},
		MasterStart:     Measurement{Local: 0, Offset: 0.25},
		MasterEnd:       Measurement{Local: 20, Offset: 0.35},
		SharedNodeClock: true,
	}
	got := HierarchicalCorrection(in)
	want := InterpMap(0, 0.25, 20, 0.35)
	if got != want {
		t.Errorf("shared-clock correction = %+v, want master interpolation %+v", got, want)
	}
}

// TestBuildHierarchicalRecoversTrueClocks: end-to-end on exact
// measurements — slave and local master drawn as linear clocks, offsets
// computed analytically at two instants — the composed correction must
// equal master∘slave⁻¹, i.e. recover every true timestamp exactly. This
// pins the algebra the conformance oracle's exactness argument rests on.
func TestBuildHierarchicalRecoversTrueClocks(t *testing.T) {
	slave := Clock{Offset: -2.5e-3, Drift: 1.7e-6}
	local := Clock{Offset: 1.2e-3, Drift: -0.8e-6}
	meta := Clock{Offset: 0.4e-3, Drift: 0.3e-6}
	// Exact offsets at true times t1 and t2: offset = other(t) − own(t).
	measure := func(own, other Clock, tt float64) Measurement {
		return Measurement{Local: own.Read(tt), Offset: other.Read(tt) - own.Read(tt)}
	}
	in := HierarchicalInput{
		SlaveStart:  measure(slave, local, 0.1),
		SlaveEnd:    measure(slave, local, 9.9),
		MasterStart: measure(local, meta, 0.1),
		MasterEnd:   measure(local, meta, 9.9),
	}
	corr := HierarchicalCorrection(in)
	for _, tt := range []float64{0.1, 1, 5, 9.9, 20} {
		got := corr.Apply(slave.Read(tt))
		want := meta.Read(tt)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("t=%g: corrected slave reading %.12g, want metamaster %.12g", tt, got, want)
		}
	}
}

// TestClockGranularityQuantizes: a positive granularity floors readings
// to its multiple; zero granularity must leave readings untouched (the
// conformance testbed relies on this).
func TestClockGranularityQuantizes(t *testing.T) {
	c := Clock{Offset: 0, Drift: 0, Granularity: 1e-3}
	if got := c.Read(0.0127); math.Abs(got-0.012) > 1e-15 {
		t.Errorf("quantized read = %.15g, want 0.012", got)
	}
	exact := Clock{Offset: 0.5, Drift: 1e-6}
	if got, want := exact.Read(3), exact.TrueMap().Apply(3); got != want {
		t.Errorf("granularity-free read = %.15g, want %.15g", got, want)
	}
}

func TestFlatCorrectionRejectsHierarchical(t *testing.T) {
	if _, err := FlatCorrection(Hierarchical, Measurement{}, Measurement{}); err == nil {
		t.Fatal("FlatCorrection accepted Hierarchical")
	}
}
