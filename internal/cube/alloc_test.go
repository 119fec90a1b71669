package cube

import (
	"fmt"
	"testing"

	"metascope/internal/pattern"
)

// TestWritesAllocateByTouch: a report stores what was written to it. A
// write into a row already written allocates nothing, and a new call
// node costs its one written row, not a row per metric: on a report of
// the standard metric tree over 1000 locations, adding a call node and
// writing one cell of it allocates under one object on average.
func TestWritesAllocateByTouch(t *testing.T) {
	locs := make([]Loc, 1000)
	for i := range locs {
		locs[i] = Loc{Rank: i, MetahostName: "A"}
	}
	r := New("touch", FromMetricDefs(pattern.MetricTree()), locs)
	exec := r.MetricIndex(pattern.KeyExecution)
	main := r.AddCall("main", -1)
	r.Set(exec, main, 0, 1)
	if n := testing.AllocsPerRun(100, func() {
		r.Add(exec, main, 7, 0.5)
		r.Set(exec, main, 999, 2)
	}); n != 0 {
		t.Errorf("Add and Set on a written row: %.1f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Add(exec, r.AddCall("leaf", main), 3, 1)
	}); n >= 1 {
		t.Errorf("a new call node and one cell of it: %.1f allocations, want < 1 (%d metrics)", n, len(r.Metrics))
	}
}

// pairReport is tinyReport with n per-metahost-pair children under Grid
// Late Sender, each holding a little time at MPI_Recv.
func pairReport(n int) *Report {
	r := tinyReport()
	gls := r.MetricIndex(pattern.KeyGridLS)
	recv := r.CallByPath([]string{"main", "MPI_Recv"})
	for i := range n {
		m := r.AddMetric(Metric{Key: fmt.Sprintf("%s.pair.%d-%d", pattern.KeyGridLS, i, i+1), Name: "pair", Unit: "sec", Parent: gls})
		r.Set(m, recv, i%2, 1e-3)
	}
	return r
}

// TestTreeQueryAllocsFlatInMetrics: the metric panel, the findings and a
// subtree total walk the metric tree in place, so what they allocate
// does not grow with the metric count — here, from 25 to 100 pair
// metrics.
func TestTreeQueryAllocsFlatInMetrics(t *testing.T) {
	small, large := pairReport(25), pairReport(100)
	gls := small.MetricIndex(pattern.KeyGridLS)
	for _, q := range []struct {
		name string
		run  func(r *Report)
	}{
		{"RenderMetricTree", func(r *Report) { r.RenderMetricTree() }},
		{"Findings", func(r *Report) { r.Findings(5, 0.5) }},
		{"MetricTotal", func(r *Report) { r.MetricTotal(gls) }},
	} {
		a := testing.AllocsPerRun(20, func() { q.run(small) })
		b := testing.AllocsPerRun(20, func() { q.run(large) })
		if b > a {
			t.Errorf("%s: %.0f allocations over %d metrics, %.0f over %d", q.name, a, len(small.Metrics), b, len(large.Metrics))
		}
	}
	if n := testing.AllocsPerRun(20, func() { large.MetricTotal(gls) }); n != 0 {
		t.Errorf("MetricTotal: %.0f allocations, want 0", n)
	}
}
