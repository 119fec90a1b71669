package cube

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"metascope/internal/pattern"
)

// tinyReport builds a report with the standard metric tree, a small
// call tree (main → {solve, MPI_Recv}), and two locations on different
// metahosts.
func tinyReport() *Report {
	locs := []Loc{
		{Rank: 0, Metahost: 0, MetahostName: "A", Node: 0},
		{Rank: 1, Metahost: 1, MetahostName: "B", Node: 0},
	}
	r := New("tiny", FromMetricDefs(pattern.MetricTree()), locs)
	main := r.AddCall("main", -1)
	solve := r.AddCall("solve", main)
	recv := r.AddCall("MPI_Recv", main)

	exec := r.MetricIndex(pattern.KeyExecution)
	p2p := r.MetricIndex(pattern.KeyP2P)
	ls := r.MetricIndex(pattern.KeyLateSender)
	gls := r.MetricIndex(pattern.KeyGridLS)
	visits := r.MetricIndex(pattern.KeyVisits)

	r.Set(exec, main, 0, 1.0)
	r.Set(exec, main, 1, 1.0)
	r.Set(exec, solve, 0, 5.0)
	r.Set(exec, solve, 1, 3.0)
	r.Set(p2p, recv, 0, 0.5)
	r.Set(p2p, recv, 1, 0.5)
	r.Set(ls, recv, 0, 1.0)
	r.Set(gls, recv, 1, 2.0)
	r.Set(visits, main, 0, 1)
	r.Set(visits, main, 1, 1)
	return r
}

func TestMetricAndCallLookups(t *testing.T) {
	r := tinyReport()
	if r.MetricIndex("nope") != -1 {
		t.Errorf("bogus metric found")
	}
	if r.LocIndex(1) != 1 || r.LocIndex(9) != -1 {
		t.Errorf("LocIndex broken")
	}
	main := r.CallByPath([]string{"main"})
	if main < 0 {
		t.Fatalf("main not found")
	}
	if r.CallByPath([]string{"main", "solve"}) < 0 {
		t.Fatalf("main/solve not found")
	}
	if r.CallByPath([]string{"solve"}) != -1 {
		t.Errorf("solve is not a root")
	}
	if got := PathString(r.CallPath(r.CallByPath([]string{"main", "solve"}))); got != "main / solve" {
		t.Errorf("CallPath = %q", got)
	}
	// Child deduplicates.
	if r.Child(-1, "main") != main {
		t.Errorf("Child created a duplicate root")
	}
	n := len(r.Calls)
	r.Child(main, "solve")
	if len(r.Calls) != n {
		t.Errorf("Child duplicated an existing node")
	}
}

func TestInclusiveAggregation(t *testing.T) {
	r := tinyReport()
	timeIdx := r.MetricIndex(pattern.KeyTime)
	// Total time = all exec + p2p + waits = (1+1+5+3) + (0.5+0.5) + (1+2) = 14
	if got := r.TotalTime(); math.Abs(got-14) > 1e-9 {
		t.Fatalf("TotalTime = %g, want 14", got)
	}
	// Late Sender inclusive includes the grid child: 3 of 14.
	ls := r.MetricIndex(pattern.KeyLateSender)
	if got := r.MetricTotal(ls); math.Abs(got-3) > 1e-9 {
		t.Errorf("LS inclusive = %g, want 3", got)
	}
	if got := r.MetricPercent(ls); math.Abs(got-300.0/14.0) > 1e-6 {
		t.Errorf("LS percent = %g", got)
	}
	// MPI inclusive = p2p + waits = 4.
	mpi := r.MetricIndex(pattern.KeyMPI)
	if got := r.MetricTotal(mpi); math.Abs(got-4) > 1e-9 {
		t.Errorf("MPI inclusive = %g, want 4", got)
	}
	// Call-axis aggregation: time at main includes children.
	main := r.CallByPath([]string{"main"})
	if got := r.MetricCallInclusive(timeIdx, main); math.Abs(got-14) > 1e-9 {
		t.Errorf("time at main inclusive = %g, want 14", got)
	}
	// Per-location slice.
	recv := r.CallByPath([]string{"main", "MPI_Recv"})
	gls := r.MetricIndex(pattern.KeyGridLS)
	if got := r.MetricLocValue(gls, recv, 1); math.Abs(got-2) > 1e-9 {
		t.Errorf("grid LS at (recv, rank1) = %g, want 2", got)
	}
	if got := r.MetricLocValue(gls, recv, 0); got != 0 {
		t.Errorf("grid LS at rank0 = %g, want 0", got)
	}
}

func TestHottestCall(t *testing.T) {
	r := tinyReport()
	ls := r.MetricIndex(pattern.KeyLateSender)
	hot, v := r.HottestCall(ls)
	if PathString(r.CallPath(hot)) != "main / MPI_Recv" || math.Abs(v-3) > 1e-9 {
		t.Errorf("hottest = %q (%g)", PathString(r.CallPath(hot)), v)
	}
}

func TestMetahostAggregation(t *testing.T) {
	r := tinyReport()
	if got := r.MetahostNames(); len(got) != 2 || got[0] != "A" {
		t.Fatalf("metahosts %v", got)
	}
	gls := r.MetricIndex(pattern.KeyGridLS)
	main := r.CallByPath([]string{"main"})
	if got := r.MetahostValue(gls, main, "B"); math.Abs(got-2) > 1e-9 {
		t.Errorf("grid LS on B = %g", got)
	}
	if got := r.MetahostValue(gls, main, "A"); got != 0 {
		t.Errorf("grid LS on A = %g", got)
	}
}

func TestValidate(t *testing.T) {
	r := tinyReport()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := tinyReport()
	bad.Metrics[3].Parent = 3 // self-parent
	if err := bad.Validate(); err == nil {
		t.Errorf("self-parent metric validated")
	}
	bad = tinyReport()
	bad.Metrics[2].Key = bad.Metrics[1].Key
	if err := bad.Validate(); err == nil {
		t.Errorf("duplicate key validated")
	}
	bad = tinyReport()
	bad.Locs[1].Rank = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("duplicate rank validated")
	}
	bad = tinyReport()
	bad.Calls[1].Parent = 5
	if err := bad.Validate(); err == nil {
		t.Errorf("forward call parent validated")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := tinyReport()
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != r.Title {
		t.Errorf("title %q", got.Title)
	}
	if len(got.Metrics) != len(r.Metrics) || len(got.Calls) != len(r.Calls) || len(got.Locs) != len(r.Locs) {
		t.Fatalf("dimensions differ")
	}
	for m := range r.Metrics {
		for c := range r.Calls {
			for l := range r.Locs {
				if a, b := r.Value(m, c, l), got.Value(m, c, l); a != b {
					t.Fatalf("sev(%d,%d,%d) %g != %g", m, c, l, a, b)
				}
			}
		}
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	r := tinyReport()
	var buf bytes.Buffer
	r.Write(&buf)
	full := buf.String()

	cases := map[string]string{
		"bad header": strings.Replace(full, "mscpcube 1", "wrong 9", 1),
		"no end":     strings.TrimSuffix(strings.TrimSpace(full), "end"),
		"bad verb":   strings.Replace(full, "title", "ttile", 1),
		"oob sev":    strings.Replace(full, "end", "sev 999 0 0 1\nend", 1),
		"sparse ids": strings.Replace(full, "call 0", "call 7", 1),
	}
	for name, text := range cases {
		if _, err := Read(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Errorf("empty input accepted")
	}
}

func TestDiffIdentityIsZero(t *testing.T) {
	a := tinyReport()
	d := Diff(a, tinyReport())
	for m := range d.Metrics {
		for c := range d.Calls {
			for l := range d.Locs {
				if v := d.Value(m, c, l); v != 0 {
					t.Fatalf("diff(a,a) has non-zero cell %g at (%d,%d,%d)", v, m, c, l)
				}
			}
		}
	}
}

func TestDiffDetectsChange(t *testing.T) {
	a := tinyReport()
	b := tinyReport()
	ls := b.MetricIndex(pattern.KeyLateSender)
	recv := b.CallByPath([]string{"main", "MPI_Recv"})
	b.Add(ls, recv, 0, 2.5) // b has 2.5 more LS
	d := Diff(a, b)
	dls := d.MetricIndex(pattern.KeyLateSender)
	drecv := d.CallByPath([]string{"main", "MPI_Recv"})
	if got := d.Value(dls, drecv, 0); math.Abs(got+2.5) > 1e-9 {
		t.Fatalf("diff cell = %g, want -2.5", got)
	}
}

func TestMergeAddsAndAlignsStructure(t *testing.T) {
	a := tinyReport()
	// b has an extra call path and an extra location.
	b := tinyReport()
	extra := b.AddCall("io", b.CallByPath([]string{"main"}))
	b.Locs = append(b.Locs, Loc{Rank: 2, Metahost: 0, MetahostName: "A", Node: 1})
	exec := b.MetricIndex(pattern.KeyExecution)
	b.Set(exec, extra, 2, 7.0)

	m := Merge(a, b)
	if m.CallByPath([]string{"main", "io"}) < 0 {
		t.Fatalf("merged structure lost extra call")
	}
	if m.LocIndex(2) < 0 {
		t.Fatalf("merged structure lost extra loc")
	}
	// Shared cells add up.
	mexec := m.MetricIndex(pattern.KeyExecution)
	msolve := m.CallByPath([]string{"main", "solve"})
	if got := m.Value(mexec, msolve, m.LocIndex(0)); math.Abs(got-10) > 1e-9 {
		t.Fatalf("merged cell = %g, want 10", got)
	}
	// b-only cells carried over.
	mio := m.CallByPath([]string{"main", "io"})
	if got := m.Value(mexec, mio, m.LocIndex(2)); math.Abs(got-7) > 1e-9 {
		t.Fatalf("b-only cell = %g, want 7", got)
	}
}

func TestMeanAverages(t *testing.T) {
	a := tinyReport()
	b := tinyReport()
	exec := b.MetricIndex(pattern.KeyExecution)
	solve := b.CallByPath([]string{"main", "solve"})
	b.Set(exec, solve, 0, 9.0) // a has 5.0 here
	m, err := Mean(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Value(m.MetricIndex(pattern.KeyExecution), m.CallByPath([]string{"main", "solve"}), m.LocIndex(0))
	if math.Abs(got-7) > 1e-9 {
		t.Fatalf("mean cell = %g, want 7", got)
	}
	if _, err := Mean(); err == nil {
		t.Errorf("Mean of nothing succeeded")
	}
}

// Property: diff(a, b) + b == a on aligned cells (algebra consistency).
func TestAlgebraConsistencyProperty(t *testing.T) {
	f := func(vals []float64) bool {
		a := tinyReport()
		b := tinyReport()
		// Perturb b with the fuzz values on the first metric rows.
		exec := b.MetricIndex(pattern.KeyExecution)
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			c := i % len(b.Calls)
			l := (i / len(b.Calls)) % len(b.Locs)
			b.Add(exec, c, l, math.Mod(v, 1000))
		}
		d := Diff(a, b)
		back := Merge(d, b)
		// back must equal a on every aligned cell.
		for m := range a.Metrics {
			for c := range a.Calls {
				for l := range a.Locs {
					bm := back.MetricIndex(a.Metrics[m].Key)
					bc := back.CallByPath(a.CallPath(c))
					bl := back.LocIndex(a.Locs[l].Rank)
					if math.Abs(back.Value(bm, bc, bl)-a.Value(m, c, l)) > 1e-6 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRenderMetricTree(t *testing.T) {
	out := tinyReport().RenderMetricTree()
	for _, want := range []string{"Time", "Late Sender", "Grid Late Sender", "Visits", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("metric tree missing %q:\n%s", want, out)
		}
	}
}

func TestRenderCallTree(t *testing.T) {
	out := tinyReport().RenderCallTree(pattern.KeyLateSender)
	if !strings.Contains(out, "MPI_Recv") || !strings.Contains(out, "main") {
		t.Errorf("call tree missing nodes:\n%s", out)
	}
	if !strings.Contains(tinyReport().RenderCallTree("bogus"), "unknown metric") {
		t.Errorf("bogus metric not reported")
	}
}

func TestRenderSystemTree(t *testing.T) {
	r := tinyReport()
	recv := r.CallByPath([]string{"main", "MPI_Recv"})
	out := r.RenderSystemTree(pattern.KeyGridLS, recv)
	for _, want := range []string{"A", "B", "rank 0", "rank 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("system tree missing %q:\n%s", want, out)
		}
	}
	// Whole-program view (call = -1).
	out = r.RenderSystemTree(pattern.KeyTime, -1)
	if !strings.Contains(out, "all call paths") {
		t.Errorf("whole-program header missing:\n%s", out)
	}
}

func TestRenderFigure(t *testing.T) {
	out := tinyReport().RenderFigure(pattern.KeyGridLS)
	for _, want := range []string{"Grid Late Sender", "Metric tree", "Call tree", "System tree"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure missing %q", want)
		}
	}
}

func TestSeverityMark(t *testing.T) {
	for pct, want := range map[float64]string{
		25: "###", 12: "## ", 7: "#  ", 2: "+  ", 0.5: ".  ", 0: "   ",
	} {
		if got := severityMark(pct); got != want {
			t.Errorf("severityMark(%g) = %q, want %q", pct, got, want)
		}
	}
}
