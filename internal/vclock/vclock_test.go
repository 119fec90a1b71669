package vclock

import (
	"math"
	"testing"
	"testing/quick"

	"metascope/internal/sim"
	"metascope/internal/topology"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestClockReadLinearModel(t *testing.T) {
	c := &Clock{Offset: 1.5, Drift: 1e-4}
	if got := c.Read(0); got != 1.5 {
		t.Errorf("Read(0) = %g", got)
	}
	if got := c.Read(1000); !approx(got, 1.5+1000*1.0001, 1e-9) {
		t.Errorf("Read(1000) = %g", got)
	}
}

func TestClockGranularityFloors(t *testing.T) {
	c := &Clock{Offset: 0, Drift: 0, Granularity: 1e-6}
	if got := c.Read(3.4567891234); !approx(got, 3.456789, 1e-12) {
		t.Errorf("granular read = %.10f", got)
	}
	// Readings never decrease under granularity.
	prev := math.Inf(-1)
	for i := 0; i < 1000; i++ {
		g := c.Read(float64(i) * 1e-7)
		if g < prev {
			t.Fatalf("granular clock went backwards")
		}
		prev = g
	}
}

func TestLinearMapApplyComposeInvert(t *testing.T) {
	m := LinearMap{A: 2, B: 3}
	if m.Apply(4) != 14 {
		t.Errorf("Apply = %g", m.Apply(4))
	}
	inner := LinearMap{A: -1, B: 0.5}
	comp := m.Compose(inner)
	for _, x := range []float64{-3, 0, 1, 7.5} {
		if !approx(comp.Apply(x), m.Apply(inner.Apply(x)), 1e-12) {
			t.Errorf("compose mismatch at %g", x)
		}
	}
	inv, err := m.Invert()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-3, 0, 1, 7.5} {
		if !approx(inv.Apply(m.Apply(x)), x, 1e-9) {
			t.Errorf("inverse mismatch at %g", x)
		}
	}
	if _, err := (LinearMap{A: 1, B: 0}).Invert(); err == nil {
		t.Errorf("singular map inverted")
	}
}

// Property: composition is associative and identity is neutral.
func TestLinearMapAlgebraProperties(t *testing.T) {
	sane := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 1
		}
		return math.Mod(v, 100)
	}
	f := func(a1, b1, a2, b2, x float64) bool {
		m1 := LinearMap{A: sane(a1), B: sane(b1) + 2} // keep B away from 0
		m2 := LinearMap{A: sane(a2), B: sane(b2) + 2}
		x = sane(x)
		lhs := m1.Compose(m2).Apply(x)
		rhs := m1.Apply(m2.Apply(x))
		idl := Identity().Compose(m1)
		idr := m1.Compose(Identity())
		return approx(lhs, rhs, 1e-6*(1+math.Abs(lhs))) &&
			approx(idl.Apply(x), m1.Apply(x), 1e-9) &&
			approx(idr.Apply(x), m1.Apply(x), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInterpMapRecoversLinearClockExactly(t *testing.T) {
	// A slave clock s(t) and master clock m(t): the interpolation built
	// from two exact offset measurements must map slave readings onto
	// master readings exactly (linear through two points).
	slave := &Clock{Offset: -3, Drift: 5e-5}
	master := &Clock{Offset: 2, Drift: -1e-5}
	t1, t2 := 10.0, 500.0
	s1, s2 := slave.Read(t1), slave.Read(t2)
	o1, o2 := master.Read(t1)-s1, master.Read(t2)-s2
	m := InterpMap(s1, o1, s2, o2)
	for _, tt := range []float64{0, 10, 123.4, 500, 1000} {
		got := m.Apply(slave.Read(tt))
		want := master.Read(tt)
		if !approx(got, want, 1e-6) {
			t.Errorf("t=%g: corrected %.9f, want %.9f", tt, got, want)
		}
	}
}

func TestInterpMapDegeneratePoints(t *testing.T) {
	m := InterpMap(5, 0.25, 5, 0.75) // same measurement instant
	if m != SingleOffsetMap(0.25) {
		t.Errorf("degenerate interpolation = %+v", m)
	}
}

func TestSingleOffsetMap(t *testing.T) {
	m := SingleOffsetMap(2.5)
	if m.Apply(10) != 12.5 {
		t.Errorf("Apply = %g", m.Apply(10))
	}
}

func TestSchemeStringAndParse(t *testing.T) {
	for s, want := range map[Scheme]string{
		FlatSingle:   "single flat offset",
		FlatInterp:   "two flat offsets",
		Hierarchical: "two hierarchical offsets",
	} {
		if s.String() != want {
			t.Errorf("%v String = %q", int(s), s.String())
		}
	}
	for in, want := range map[string]Scheme{
		"flat1": FlatSingle, "single": FlatSingle,
		"flat2": FlatInterp, "interp": FlatInterp,
		"hier": Hierarchical, "hierarchical": Hierarchical,
	} {
		got, err := ParseScheme(in)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Errorf("bogus scheme parsed")
	}
}

func TestBuildFlatSingleIgnoresDrift(t *testing.T) {
	m, err := FlatCorrection(FlatSingle, Measurement{Local: 10, Offset: 2}, Measurement{Local: 90, Offset: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Apply(100) != 102 {
		t.Errorf("FlatSingle correction wrong: %g", m.Apply(100))
	}
	if m.B != 1 {
		t.Errorf("FlatSingle must not compensate drift (B=%g)", m.B)
	}
}

// TestBuildFlatInterpValidation: FlatInterp takes both measurements —
// the start one at program start, the end one at program end — and its
// map passes through each of them exactly.
func TestBuildFlatInterpValidation(t *testing.T) {
	start, end := Measurement{Local: 10, Offset: 2}, Measurement{Local: 90, Offset: 3}
	m, err := FlatCorrection(FlatInterp, start, end)
	if err != nil {
		t.Fatal(err)
	}
	for _, meas := range []Measurement{start, end} {
		if got, want := m.Apply(meas.Local), meas.Local+meas.Offset; !approx(got, want, 1e-12) {
			t.Errorf("FlatInterp maps %g to %g, want %g", meas.Local, got, want)
		}
	}
}

func TestBuildHierarchicalComposition(t *testing.T) {
	// Three linear clocks: metamaster M, local master L, slave S.
	M := &Clock{Offset: 0, Drift: 0}
	L := &Clock{Offset: 1, Drift: 2e-5}
	S := &Clock{Offset: -2, Drift: -1e-5}
	t1, t2 := 5.0, 400.0

	meas := func(from, to *Clock, tt float64) Measurement {
		return Measurement{Local: from.Read(tt), Offset: to.Read(tt) - from.Read(tt)}
	}
	in := HierarchicalInput{
		Rank:        1,
		SlaveStart:  meas(S, L, t1),
		SlaveEnd:    meas(S, L, t2),
		MasterStart: meas(L, M, t1),
		MasterEnd:   meas(L, M, t2),
	}
	corr := HierarchicalCorrection(in)
	for _, tt := range []float64{0, 5, 100, 400, 777} {
		got := corr.Apply(S.Read(tt))
		want := M.Read(tt)
		if !approx(got, want, 1e-6) {
			t.Errorf("t=%g: %.9f want %.9f", tt, got, want)
		}
	}
}

func TestBuildHierarchicalSharedNodeClock(t *testing.T) {
	// With a shared node clock the slave step is skipped and only the
	// local-master map applies.
	in := HierarchicalInput{
		SharedNodeClock: true,
		MasterStart:     Measurement{Local: 0, Offset: 5},
		MasterEnd:       Measurement{Local: 100, Offset: 5},
	}
	if got := HierarchicalCorrection(in).Apply(50); !approx(got, 55, 1e-9) {
		t.Errorf("shared-clock correction = %g, want 55", got)
	}
}

// Property: for arbitrary linear clocks, hierarchical composition from
// exact measurements reproduces the master time to numerical accuracy
// (the correctness argument behind §4's scheme).
func TestHierarchicalExactnessProperty(t *testing.T) {
	f := func(lOff, lDrift, sOff, sDrift, probe float64) bool {
		clampOff := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 10)
		}
		clampDrift := func(v float64) float64 { return clampOff(v) * 1e-5 }
		L := &Clock{Offset: clampOff(lOff), Drift: clampDrift(lDrift)}
		S := &Clock{Offset: clampOff(sOff), Drift: clampDrift(sDrift)}
		M := &Clock{}
		probe = math.Abs(clampOff(probe)) * 50
		meas := func(from, to *Clock, tt float64) Measurement {
			return Measurement{Local: from.Read(tt), Offset: to.Read(tt) - from.Read(tt)}
		}
		in := HierarchicalInput{
			SlaveStart: meas(S, L, 1), SlaveEnd: meas(S, L, 301),
			MasterStart: meas(L, M, 1), MasterEnd: meas(L, M, 301),
		}
		got := HierarchicalCorrection(in).Apply(S.Read(probe))
		return approx(got, M.Read(probe), 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateRespectsTopology(t *testing.T) {
	eng := sim.NewEngine(11)
	mc := topology.VIOLA()
	set := Generate(eng, mc)
	// Same node → same clock; different nodes → different clocks.
	a := set.ForLoc(topology.Loc{Metahost: 2, Node: 0, CPU: 0})
	b := set.ForLoc(topology.Loc{Metahost: 2, Node: 0, CPU: 1})
	c := set.ForLoc(topology.Loc{Metahost: 2, Node: 1, CPU: 0})
	if a != b {
		t.Errorf("same-node processes got different clocks")
	}
	if a == c {
		t.Errorf("different nodes share a clock object")
	}
	spec := mc.Metahost(2).Clock
	if math.Abs(a.Offset) > spec.MaxOffset {
		t.Errorf("offset %g exceeds bound %g", a.Offset, spec.MaxOffset)
	}
	if math.Abs(a.Drift) > spec.MaxDrift {
		t.Errorf("drift %g exceeds bound %g", a.Drift, spec.MaxDrift)
	}
	if a.Granularity != spec.Granularity {
		t.Errorf("granularity not propagated")
	}
}

func TestGenerateSynchronizedMetahost(t *testing.T) {
	eng := sim.NewEngine(11)
	mc := topology.New("sync")
	link := topology.Link{LatencyMean: 1e-5, Bandwidth: 1e9}
	mc.AddMetahost(&topology.Metahost{
		Name: "BGL", Nodes: 4, CPUs: 2,
		Internal: link, NodeLocal: link,
		Clock: topology.ClockSpec{MaxOffset: 1, MaxDrift: 1e-5, Synchronized: true},
	})
	set := Generate(eng, mc)
	first := set.ForLoc(topology.Loc{Metahost: 0, Node: 0})
	for n := 1; n < 4; n++ {
		if set.ForLoc(topology.Loc{Metahost: 0, Node: n}) != first {
			t.Fatalf("synchronized metahost has per-node clocks")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	mc := topology.VIOLA()
	a := Generate(sim.NewEngine(5), mc)
	b := Generate(sim.NewEngine(5), mc)
	la := topology.Loc{Metahost: 1, Node: 3}
	if *a.ForLoc(la) != *b.ForLoc(la) {
		t.Errorf("same seed produced different clocks")
	}
	c := Generate(sim.NewEngine(6), mc)
	if *a.ForLoc(la) == *c.ForLoc(la) {
		t.Errorf("different seeds produced identical clocks")
	}
}

func TestMaxDivergenceGrowsWithDrift(t *testing.T) {
	eng := sim.NewEngine(11)
	set := Generate(eng, topology.VIOLA())
	d0 := set.MaxDivergence(0)
	d1 := set.MaxDivergence(10000)
	if d0 <= 0 {
		t.Fatalf("no initial divergence (offsets all zero?)")
	}
	if d1 <= d0 {
		t.Errorf("divergence did not grow with drift: %g -> %g", d0, d1)
	}
}

func TestForLocUnknownPanics(t *testing.T) {
	eng := sim.NewEngine(11)
	set := Generate(eng, topology.VIOLA())
	defer func() {
		if recover() == nil {
			t.Errorf("unknown location did not panic")
		}
	}()
	set.ForLoc(topology.Loc{Metahost: 9, Node: 9})
}
