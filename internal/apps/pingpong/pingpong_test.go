package pingpong

import (
	"math"
	"testing"

	"metascope/internal/sim"
	"metascope/internal/topology"
)

func violaPlace() (*topology.Metacomputer, *topology.Placement) {
	mc := topology.VIOLA()
	return mc, topology.ViolaExperiment1Placement(mc)
}

func TestTable1PairsSelection(t *testing.T) {
	_, place := violaPlace()
	pairs, err := Table1Pairs(place)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("%d pairs", len(pairs))
	}
	// Pair 0: external FZJ to FH-BRS.
	if c := topology.Classify(place.Loc(pairs[0].A), place.Loc(pairs[0].B)); c != topology.External {
		t.Errorf("pair 0 class %v", c)
	}
	// Pairs 1 and 2: internal, on FZJ and FH-BRS respectively.
	for i, wantMH := range map[int]int{1: 2, 2: 1} {
		la, lb := place.Loc(pairs[i].A), place.Loc(pairs[i].B)
		if topology.Classify(la, lb) != topology.Internal {
			t.Errorf("pair %d not internal", i)
		}
		if la.Metahost != wantMH || lb.Metahost != wantMH {
			t.Errorf("pair %d on metahost %d/%d, want %d", i, la.Metahost, lb.Metahost, wantMH)
		}
		if la.Node == lb.Node {
			t.Errorf("pair %d on the same node measures shared memory, not the network", i)
		}
	}
}

func TestTable1PairsRejectsForeignTopology(t *testing.T) {
	mc := topology.IBMPower()
	place := topology.IBMExperiment2Placement(mc)
	if _, err := Table1Pairs(place); err == nil {
		t.Fatalf("IBM placement accepted as VIOLA")
	}
}

func TestMeasureReproducesTable1Shape(t *testing.T) {
	_, place := violaPlace()
	pairs, err := Table1Pairs(place)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Measure(sim.NewEngine(42), place, pairs, 400, 64)
	if err != nil {
		t.Fatal(err)
	}
	ext, fzj, brs := rs[0], rs[1], rs[2]
	// Means within 20% of the configured (Table 1) values; the
	// measured value sits slightly above the raw latency because it
	// includes per-message overhead and transfer time.
	within := func(got, want, frac float64) bool {
		return math.Abs(got-want) <= frac*want
	}
	if !within(ext.Mean, 988e-6, 0.2) {
		t.Errorf("external mean %.1f us, want ~988", ext.Mean*1e6)
	}
	if !within(fzj.Mean, 21.5e-6, 0.4) {
		t.Errorf("FZJ internal mean %.1f us, want ~21.5", fzj.Mean*1e6)
	}
	if !within(brs.Mean, 44.4e-6, 0.3) {
		t.Errorf("FH-BRS internal mean %.1f us, want ~44.4", brs.Mean*1e6)
	}
	// The ordering that drives the whole paper: external latency two
	// orders of magnitude above internal.
	if ext.Mean < 10*brs.Mean || ext.Mean < 20*fzj.Mean {
		t.Errorf("latency hierarchy too flat: %v", rs)
	}
	// The standard deviation ordering of Table 1: the external link
	// jitters more in absolute terms than either internal network.
	if ext.StdDev < fzj.StdDev || ext.StdDev < brs.StdDev {
		t.Errorf("external sd %.3f us not the largest (fzj %.3f, brs %.3f)",
			ext.StdDev*1e6, fzj.StdDev*1e6, brs.StdDev*1e6)
	}
	if ext.Samples != 399 { // one warm-up dropped
		t.Errorf("samples = %d", ext.Samples)
	}
}

func TestMeasureDeterministic(t *testing.T) {
	_, place := violaPlace()
	pairs, _ := Table1Pairs(place)
	a, err := Measure(sim.NewEngine(7), place, pairs, 50, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Measure(sim.NewEngine(7), place, pairs, 50, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Mean != b[i].Mean || a[i].StdDev != b[i].StdDev {
			t.Fatalf("pair %d not deterministic", i)
		}
	}
}

func TestMeasureValidation(t *testing.T) {
	_, place := violaPlace()
	pairs, _ := Table1Pairs(place)
	if _, err := Measure(sim.NewEngine(1), place, pairs, 1, 64); err == nil {
		t.Fatalf("single round accepted")
	}
}
