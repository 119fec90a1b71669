package conformance

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"metascope/internal/cube"
	"metascope/internal/pattern"
	"metascope/internal/replay"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// measureTraces runs a scenario through the normal trace path and
// returns the decoded archive, ready for metamorphic rewriting.
func measureTraces(t *testing.T, s Scenario, seed int64) []*trace.Trace {
	t.Helper()
	e, err := s.NewExperiment(seed)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	if err := e.Run(s.Body); err != nil {
		t.Fatalf("%s: measuring: %v", s.Name, err)
	}
	traces, err := e.Traces()
	if err != nil {
		t.Fatalf("%s: loading archive: %v", s.Name, err)
	}
	return traces
}

func analyzeTraces(t *testing.T, traces []*trace.Trace) *replay.Result {
	t.Helper()
	res, err := replay.Analyze(traces, replay.Config{Scheme: vclock.Hierarchical})
	if err != nil {
		t.Fatalf("analyzing: %v", err)
	}
	return res
}

// severityVector flattens a report into rank × wait-state-key totals.
func severityVector(rep *cube.Report, n int) map[int]map[string]float64 {
	out := make(map[int]map[string]float64, n)
	for r := 0; r < n; r++ {
		out[r] = make(map[string]float64)
		for _, key := range pattern.WaitStateKeys() {
			out[r][key] = rep.RankMetricTotal(key, r)
		}
	}
	return out
}

// wantEqualVectors asserts two severity vectors agree within tol at a
// given rank mapping (identity when perm is nil).
func wantEqualVectors(t *testing.T, got, want map[int]map[string]float64, perm []int, tol float64) {
	t.Helper()
	for r, keys := range want {
		gr := r
		if perm != nil {
			gr = perm[r]
		}
		for key, w := range keys {
			g := got[gr][key]
			if math.Abs(g-w) > tol {
				t.Errorf("rank %d→%d %s: got %.12g, want %.12g", r, gr, key, g, w)
			}
		}
	}
}

// TestMetamorphicTimeShift: starting every clock delta later — all
// event timestamps and all offset-measurement points shift by the same
// delta — leaves every severity unchanged. Severities are differences
// of corrected times, and the correction maps commute with a uniform
// shift of their measurement points.
func TestMetamorphicTimeShift(t *testing.T) {
	t.Parallel()
	s := Scenario{Name: "shift-nxn", Base: pattern.WaitNxN, Grid: true,
		Delays: []float64{0.09, 0.31, 0.14, 0.22}, Align: 1.0}
	traces := measureTraces(t, s, 3)
	base := severityVector(analyzeTraces(t, traces).Report, s.N())
	shifted := severityVector(analyzeTraces(t, ShiftEventTimes(traces, 5.0)).Report, s.N())
	wantEqualVectors(t, shifted, base, nil, 1e-9)
}

// TestMetamorphicMetahostRenumber: swapping the two metahost ids of a
// grid run must not move any severity. Grid classification depends only
// on whether two ids differ, never on their values.
func TestMetamorphicMetahostRenumber(t *testing.T) {
	t.Parallel()
	s := Scenario{Name: "renumber-nxn", Base: pattern.WaitNxN, Grid: true,
		Delays: []float64{0.09, 0.31, 0.14, 0.22}, Align: 1.0}
	traces := measureTraces(t, s, 4)
	base := severityVector(analyzeTraces(t, traces).Report, s.N())
	ren := severityVector(analyzeTraces(t, RenumberMetahosts(traces, map[int]int{0: 1, 1: 0})).Report, s.N())
	wantEqualVectors(t, ren, base, nil, 1e-12)
}

// TestMetamorphicMetahostCycle: renumbering three metahosts in a cycle
// moves every per-pair grid value to its pair's new key — both ids
// renumbered, then put back in ascending order — and changes none. The
// pair table is indexed by metahost column (0, 1, 2 here) and keyed by
// metahost id (10, 20, 30), so a column taken for an id, or a pair left
// unordered, moves a value to the wrong key. amr's barriers cover the
// collective pairs, a rank's own metahost among them; halo1d's exchanges
// the point-to-point ones.
func TestMetamorphicMetahostCycle(t *testing.T) {
	t.Parallel()
	spread := map[int]int{0: 10, 1: 20, 2: 30}
	cycled := map[int]int{0: 20, 1: 30, 2: 10}
	cycle := map[int]int{10: 20, 20: 30, 30: 10} // spread, then cycle = cycled
	for _, kernel := range []string{"amr", "halo1d"} {
		e := runSpec(t, fmt.Sprintf(`{"name":"cycle-%s","kernel":"%s","ranks":9,"iterations":3,
			"topology":{"preset":"conformance","count":3}}`, kernel, kernel), 2)
		traces, err := e.Traces()
		if err != nil {
			t.Fatal(err)
		}
		base := analyzeTraces(t, RenumberMetahosts(traces, spread)).Report
		ren := analyzeTraces(t, RenumberMetahosts(traces, cycled)).Report
		pairs, flipped := 0, 0
		for _, m := range base.Metrics {
			parent, ids, ok := strings.Cut(m.Key, ".pair.")
			if !ok {
				continue
			}
			var a, b int
			if _, err := fmt.Sscanf(ids, "%d-%d", &a, &b); err != nil {
				t.Fatalf("%s: pair metric %q: %v", kernel, m.Key, err)
			}
			a, b = cycle[a], cycle[b]
			if a > b {
				a, b = b, a
				flipped++
			}
			key := fmt.Sprintf("%s.pair.%d-%d", parent, a, b)
			if ren.MetricIndex(key) < 0 {
				t.Errorf("%s: %s has no renumbered counterpart %s", kernel, m.Key, key)
				continue
			}
			pairs++
			for r := range traces {
				if g, w := ren.RankMetricTotal(key, r), base.RankMetricTotal(m.Key, r); math.Abs(g-w) > 1e-12 {
					t.Errorf("%s: rank %d: %s = %.17g after renumbering, %s = %.17g before", kernel, r, key, g, m.Key, w)
				}
			}
		}
		if n := strings.Count(strings.Join(ren.SortedMetricKeys(), " "), ".pair."); n != pairs {
			t.Errorf("%s: %d pair metrics after renumbering, %d before", kernel, n, pairs)
		}
		if pairs < 2 || flipped == 0 {
			t.Errorf("%s: %d pair metrics, %d reordered by the cycle: the case checks too little", kernel, pairs, flipped)
		}
	}
}

// TestMetamorphicRankRelabel: permuting world ranks moves each rank's
// severities to its new label without changing any value — each trace
// carries its own clock measurements, so corrections travel with it.
func TestMetamorphicRankRelabel(t *testing.T) {
	t.Parallel()
	s := Scenario{Name: "relabel-barrier", Base: pattern.WaitBarrier,
		Delays: []float64{0.05, 0.17, 0.08, 0.26}, Align: 1.0}
	perm := []int{3, 2, 1, 0}
	traces := measureTraces(t, s, 5)
	base := severityVector(analyzeTraces(t, traces).Report, s.N())
	rel := severityVector(analyzeTraces(t, RelabelRanks(traces, perm)).Report, s.N())
	wantEqualVectors(t, rel, base, perm, 1e-12)
}

// TestMetamorphicDelayDoubling: doubling the planted delay doubles
// exactly the planted metric at the suffering rank and moves nothing
// else. This is the response-linearity half of the oracle: severities
// scale with their cause.
func TestMetamorphicDelayDoubling(t *testing.T) {
	t.Parallel()
	s := Scenario{Name: "double-ls", Base: pattern.LateSender,
		Delays: []float64{0.11, 0}, Align: 1.0, Bytes: 2048}
	d := s
	d.Name = "double-ls-2x"
	d.Delays = []float64{0.22, 0}
	one := severityVector(analyzeTraces(t, measureTraces(t, s, 6)).Report, s.N())
	two := severityVector(analyzeTraces(t, measureTraces(t, d, 6)).Report, d.N())
	key := s.PlantedKey()
	if g, w := two[1][key], 2*one[1][key]; math.Abs(g-w) > 1e-6*w {
		t.Errorf("doubling the planted delay: %s at rank 1 went %.9g → %.9g, want %.9g", key, one[1][key], g, w)
	}
	for r := 0; r < s.N(); r++ {
		for _, k := range pattern.WaitStateKeys() {
			if r == 1 && k == key {
				continue
			}
			if one[r][k] != 0 || two[r][k] != 0 {
				t.Errorf("rank %d %s: expected zero in both runs, got %.9g and %.9g", r, k, one[r][k], two[r][k])
			}
		}
	}
}
