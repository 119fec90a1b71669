package main

// The paper benchmarks: each runs one experiment of the evaluation
// (§5) end to end — simulation, measurement, archive, synchronization,
// parallel replay — and reports the paper-relevant quantities as
// benchmark metrics, so
//
//	go test -bench=. -benchmem ./cmd/metascope
//
// prints, next to the usual ns/op, the reproduced numbers: latencies in
// microseconds for Table 1, violation counts for Table 2, and
// wait-state percentages for Figures 6 and 7. Paper values appear in
// the comments and in EXPERIMENTS.md.

import (
	"context"
	"testing"

	"metascope/internal/apps/clockbench"
	"metascope/internal/cube"
	"metascope/internal/pattern"
	"metascope/internal/vclock"
)

// BenchmarkTable1Latencies reproduces Table 1: latencies of the
// internal and external networks in VIOLA.
// Paper: FZJ–FH-BRS 988 µs (σ 3.86), FZJ 21.5 µs (σ 0.814),
// FH-BRS 44.4 µs (σ 0.360).
func BenchmarkTable1Latencies(b *testing.B) {
	var last []float64
	for i := 0; i < b.N; i++ {
		rs, err := table1(context.Background(), 42, 500)
		if err != nil {
			b.Fatal(err)
		}
		last = []float64{rs[0].Mean, rs[1].Mean, rs[2].Mean, rs[0].StdDev}
	}
	b.ReportMetric(last[0]*1e6, "ext_us")
	b.ReportMetric(last[1]*1e6, "fzj_us")
	b.ReportMetric(last[2]*1e6, "fhbrs_us")
	b.ReportMetric(last[3]*1e6, "ext_sd_us")
}

// BenchmarkTable2ClockViolations reproduces Table 2: clock-condition
// violations under the three synchronization schemes.
// Paper: single flat 7560, two flat 2179, two hierarchical 0.
func BenchmarkTable2ClockViolations(b *testing.B) {
	var v1, v2, v3 int
	for i := 0; i < b.N; i++ {
		res, err := table2(context.Background(), 42, clockbench.Default())
		if err != nil {
			b.Fatal(err)
		}
		v1 = res.Violations[vclock.FlatSingle]
		v2 = res.Violations[vclock.FlatInterp]
		v3 = res.Violations[vclock.Hierarchical]
	}
	b.ReportMetric(float64(v1), "flat1_viol")
	b.ReportMetric(float64(v2), "flat2_viol")
	b.ReportMetric(float64(v3), "hier_viol")
}

// BenchmarkFigure1ClockDrift reproduces Figure 1: node clocks with
// initial offsets and constant drifts diverge linearly.
func BenchmarkFigure1ClockDrift(b *testing.B) {
	var d0, d100 float64
	for i := 0; i < b.N; i++ {
		pts := figure1(42, 100, 11)
		d0, d100 = pts[0].Divergence, pts[10].Divergence
	}
	b.ReportMetric(d0, "div_t0_s")
	b.ReportMetric(d100, "div_t100_s")
}

// BenchmarkFigure3OffsetError reproduces the comparison of Figure 3:
// maximum pairwise synchronization error within a metahost under the
// flat and the hierarchical scheme, against the internal latency bound.
func BenchmarkFigure3OffsetError(b *testing.B) {
	var flat2, hier float64
	for i := 0; i < b.N; i++ {
		rows, _, err := figure3(context.Background(), 42, clockbench.Quick())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Scheme {
			case vclock.FlatInterp:
				flat2 = r.MaxIntraError
			case vclock.Hierarchical:
				hier = r.MaxIntraError
			}
		}
	}
	b.ReportMetric(flat2*1e6, "flat2_intra_us")
	b.ReportMetric(hier*1e6, "hier_intra_us")
}

// BenchmarkFigure6ThreeMetahost reproduces Figure 6 / Table 3
// Experiment 1: MetaTrace on three metahosts.
// Paper: Grid Late Sender 9.3 %, Grid Wait at Barrier 23.1 %, the
// former inside cgiteration on FH-BRS, the latter inside
// ReadVelFieldFromTrace on the Cray XD1.
func BenchmarkFigure6ThreeMetahost(b *testing.B) {
	var gls, gwb float64
	for i := 0; i < b.N; i++ {
		r, err := figure6(context.Background(), 42)
		if err != nil {
			b.Fatal(err)
		}
		gls = r.Pct[pattern.KeyGridLS]
		gwb = r.Pct[pattern.KeyGridWB]
	}
	b.ReportMetric(gls, "grid_late_sender_pct")
	b.ReportMetric(gwb, "grid_wait_barrier_pct")
}

// BenchmarkFigure7OneMetahost reproduces Figure 7 / Table 3
// Experiment 2: MetaTrace on the homogeneous IBM system. Paper: the
// barrier waiting inside ReadVelFieldFromTrace decreases
// significantly, while the steering Late Sender grows (Trace now waits
// for Partrace); grid patterns vanish.
func BenchmarkFigure7OneMetahost(b *testing.B) {
	var ls, wb, grid float64
	for i := 0; i < b.N; i++ {
		r, err := figure7(context.Background(), 42)
		if err != nil {
			b.Fatal(err)
		}
		ls = r.Pct[pattern.KeyLateSender]
		wb = r.Pct[pattern.KeyWaitBarrier]
		grid = r.Pct[pattern.KeyGridLS] + r.Pct[pattern.KeyGridWB]
	}
	b.ReportMetric(ls, "late_sender_pct")
	b.ReportMetric(wb, "wait_barrier_pct")
	b.ReportMetric(grid, "grid_pct") // expect exactly 0
}

// BenchmarkCubeAlgebra exercises the cross-experiment difference of §6
// (future work realized): diff of the two MetaTrace analyses.
func BenchmarkCubeAlgebra(b *testing.B) {
	r6, err := figure6(context.Background(), 42)
	if err != nil {
		b.Fatal(err)
	}
	r7, err := figure7(context.Background(), 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var wbDelta float64
	for i := 0; i < b.N; i++ {
		d := cube.Diff(r6.Res.Report, r7.Res.Report)
		wbDelta = d.MetricTotal(d.MetricIndex(pattern.KeyWaitBarrier))
	}
	b.ReportMetric(wbDelta, "wait_barrier_delta_s")
}
