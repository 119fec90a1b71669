package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"metascope/internal/apps/clockbench"
	"metascope/internal/pattern"
	"metascope/internal/vclock"
)

// These are the repository's headline integration tests: they assert
// that every table and figure of the paper reproduces in *shape* —
// orderings, rough magnitudes, and the placement of the dominant wait
// states — as recorded in EXPERIMENTS.md.

func TestTable1Shape(t *testing.T) {
	rs, err := table1(context.Background(), 42, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("%d rows", len(rs))
	}
	ext, fzj, brs := rs[0], rs[1], rs[2]
	// Paper: 988 / 21.5 / 44.4 us. Allow the overhead-inflated means.
	if ext.Mean < 900e-6 || ext.Mean > 1100e-6 {
		t.Errorf("external mean %.1f us", ext.Mean*1e6)
	}
	if fzj.Mean < 18e-6 || fzj.Mean > 32e-6 {
		t.Errorf("FZJ internal mean %.1f us", fzj.Mean*1e6)
	}
	if brs.Mean < 40e-6 || brs.Mean > 60e-6 {
		t.Errorf("FH-BRS internal mean %.1f us", brs.Mean*1e6)
	}
	// "the latency of the external network exceeds the latency of the
	// internal network by two orders of magnitude"
	if ext.Mean/fzj.Mean < 30 {
		t.Errorf("external/internal ratio %g too small", ext.Mean/fzj.Mean)
	}
	out := formatTable1(rs)
	for _, want := range []string{"Table 1", "FZJ - FH-BRS", "mean [us]"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q", want)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := table2(context.Background(), 42, clockbench.Quick())
	if err != nil {
		t.Fatal(err)
	}
	v1 := res.Violations[vclock.FlatSingle]
	v2 := res.Violations[vclock.FlatInterp]
	v3 := res.Violations[vclock.Hierarchical]
	// Paper (Table 2): 7560 / 2179 / 0 — the shape is strict ordering
	// with hierarchical at exactly zero.
	if v3 != 0 {
		t.Errorf("hierarchical violations = %d, want 0", v3)
	}
	if !(v1 > v2 && v2 > v3) {
		t.Errorf("violation ordering broken: %d / %d / %d", v1, v2, v3)
	}
	out := formatTable2(res)
	if !strings.Contains(out, "single flat offset") || !strings.Contains(out, "two hierarchical offsets") {
		t.Errorf("format incomplete:\n%s", out)
	}
}

func TestFigure1DivergenceLinear(t *testing.T) {
	pts := figure1(42, 100, 11)
	if len(pts) != 11 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Divergence <= 0 {
		t.Errorf("no initial offset spread")
	}
	// Linear growth: divergence increments are nearly constant.
	d1 := pts[1].Divergence - pts[0].Divergence
	dLast := pts[10].Divergence - pts[9].Divergence
	if d1 <= 0 {
		t.Errorf("divergence not growing (drift missing)")
	}
	if math.Abs(dLast-d1) > 0.2*d1 {
		t.Errorf("divergence growth not linear: %g vs %g", d1, dLast)
	}
	if !strings.Contains(formatFigure1(pts), "Figure 1") {
		t.Errorf("format broken")
	}
}

func TestFigure3ErrorHierarchy(t *testing.T) {
	rows, internalLat, err := figure3(context.Background(), 42, clockbench.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byScheme := map[vclock.Scheme]figure3Row{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	hier := byScheme[vclock.Hierarchical]
	flat2 := byScheme[vclock.FlatInterp]
	flat1 := byScheme[vclock.FlatSingle]
	// The paper's requirement: the error of the offset between two
	// processes must stay below the message latency between them. The
	// hierarchical scheme achieves that for intra-metahost pairs, the
	// flat schemes do not.
	if hier.MaxIntraError >= internalLat {
		t.Errorf("hierarchical intra error %.2f us >= internal latency %.2f us",
			hier.MaxIntraError*1e6, internalLat*1e6)
	}
	if flat2.MaxIntraError <= internalLat {
		t.Errorf("flat-interp intra error %.2f us unexpectedly below internal latency",
			flat2.MaxIntraError*1e6)
	}
	if flat1.MaxIntraError <= flat2.MaxIntraError {
		t.Errorf("drift-uncompensated error (%.1f us) not worse than interpolated (%.1f us)",
			flat1.MaxIntraError*1e6, flat2.MaxIntraError*1e6)
	}
	if !strings.Contains(formatFigure3(rows, internalLat), "Figure 3") {
		t.Errorf("format broken")
	}
}

func TestFigure6ThreeMetahostShape(t *testing.T) {
	r, err := figure6(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Res.Report
	// Headline numbers of §5: Grid Late Sender 9.3 %, Grid Wait at
	// Barrier 23.1 %. Accept a generous band around them.
	gls := r.Pct[pattern.KeyGridLS]
	gwb := r.Pct[pattern.KeyGridWB]
	if gls < 5 || gls > 14 {
		t.Errorf("Grid Late Sender %.1f%%, paper 9.3%%", gls)
	}
	if gwb < 15 || gwb > 32 {
		t.Errorf("Grid Wait at Barrier %.1f%%, paper 23.1%%", gwb)
	}
	if r.Res.Violations != 0 {
		t.Errorf("hierarchical analysis found %d violations", r.Res.Violations)
	}

	// Placement of the waits, as in Figure 6: the Grid Late Sender
	// concentrates in cgiteration…
	glsIdx := rep.MetricIndex(pattern.KeyGridLS)
	hot, _ := rep.HottestCall(glsIdx)
	path := strings.Join(rep.CallPath(hot), "/")
	if !strings.Contains(path, "cgiteration") {
		t.Errorf("Grid LS hottest at %q, want inside cgiteration", path)
	}
	// …mostly on the faster FH-BRS cluster…
	cg := rep.CallByPath([]string{"main", "cgiteration"})
	onBRS := rep.MetahostValue(glsIdx, cg, "FH-BRS")
	onCAESAR := rep.MetahostValue(glsIdx, cg, "CAESAR")
	if onBRS <= 3*onCAESAR {
		t.Errorf("Grid LS in cgiteration: FH-BRS %.1f s vs CAESAR %.1f s — should concentrate on FH-BRS",
			onBRS, onCAESAR)
	}
	// …while the Grid Wait at Barrier sits in ReadVelFieldFromTrace on
	// the XD1 (metahost FZJ).
	gwbIdx := rep.MetricIndex(pattern.KeyGridWB)
	hotWB, _ := rep.HottestCall(gwbIdx)
	pathWB := strings.Join(rep.CallPath(hotWB), "/")
	if !strings.Contains(pathWB, "ReadVelFieldFromTrace") {
		t.Errorf("Grid WB hottest at %q, want inside ReadVelFieldFromTrace", pathWB)
	}
	read := rep.CallByPath([]string{"main", "ReadVelFieldFromTrace"})
	onFZJ := rep.MetahostValue(gwbIdx, read, "FZJ")
	inRead := rep.MetricCallInclusive(gwbIdx, read)
	if onFZJ < 0.99*inRead {
		t.Errorf("Grid WB in ReadVelFieldFromTrace: %.1f of %.1f s on FZJ — Partrace runs there exclusively", onFZJ, inRead)
	}
	// And ReadVelFieldFromTrace holds the bigger share of the total
	// barrier waiting ("the bigger share … could be attributed to
	// Partrace", §5).
	if total := rep.MetricTotal(gwbIdx); inRead < total/2 {
		t.Errorf("Partrace barrier share %.1f of %.1f s — should dominate", inRead, total)
	}
}

func TestFigure7OneMetahostShape(t *testing.T) {
	r6, err := figure6(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	r7, err := figure7(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	// No metahost boundaries → no grid patterns at all.
	if g := r7.Pct[pattern.KeyGridLS] + r7.Pct[pattern.KeyGridWB] + r7.Pct[pattern.KeyGridNxN]; g != 0 {
		t.Errorf("grid patterns %.2f%% on a single metahost", g)
	}
	// §5: "running the application on the homogeneous cluster leads to
	// a significant decrease of the barrier waiting time" …
	if r7.Pct[pattern.KeyWaitBarrier] > r6.Pct[pattern.KeyWaitBarrier]/2 {
		t.Errorf("barrier wait did not decrease significantly: %.1f%% vs %.1f%%",
			r7.Pct[pattern.KeyWaitBarrier], r6.Pct[pattern.KeyWaitBarrier])
	}
	// …and of the cgiteration receive waiting, while the steering Late
	// Sender increases (Trace now waits for Partrace).
	rep6, rep7 := r6.Res.Report, r7.Res.Report
	steer := func(rep interface {
		MetricIndex(string) int
		CallByPath([]string) int
		MetricCallInclusive(int, int) float64
	}) float64 {
		m := rep.MetricIndex(pattern.KeyLateSender)
		c := rep.CallByPath([]string{"main", "getsteering"})
		if c < 0 {
			return 0
		}
		return rep.MetricCallInclusive(m, c)
	}
	s6 := steer(rep6) / rep6.TotalTime()
	s7 := steer(rep7) / rep7.TotalTime()
	if s7 <= 2*s6 {
		t.Errorf("steering Late Sender share did not increase: %.3f%% -> %.3f%%", 100*s6, 100*s7)
	}
	// Overall performance improves on the homogeneous machine.
	if rep7.TotalTime() >= rep6.TotalTime() {
		t.Errorf("homogeneous run not faster: %.0f s vs %.0f s", rep7.TotalTime(), rep6.TotalTime())
	}
}

func TestAlgebraDiffDirection(t *testing.T) {
	diff, err := algebra(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	// The metacomputer run has far more barrier waiting: diff must be
	// clearly positive there.
	wb := diff.MetricIndex(pattern.KeyWaitBarrier)
	if got := diff.MetricTotal(wb); got <= 0 {
		t.Errorf("diff(exp1, exp2) barrier wait = %g, want positive", got)
	}
}

func TestMetaTraceDeterminism(t *testing.T) {
	a, err := figure6(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := figure6(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for key, av := range a.Pct {
		if bv := b.Pct[key]; av != bv {
			t.Errorf("%s: %g vs %g across identical runs", key, av, bv)
		}
	}
	c, err := figure6(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pct[pattern.KeyGridLS] == c.Pct[pattern.KeyGridLS] &&
		a.Pct[pattern.KeyGridWB] == c.Pct[pattern.KeyGridWB] {
		t.Errorf("different seeds produced bit-identical percentages (suspicious)")
	}
}

func TestFormatMetaTrace(t *testing.T) {
	r, err := figure6(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	out := formatMetaTrace("hdr", r, true)
	for _, want := range []string{"hdr", "Grid Late Sender", "Grid Wait at Barrier", "cgiteration"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}
