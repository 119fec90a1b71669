package metascope_test

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§5). Each benchmark runs the corresponding experiment
// end-to-end — simulation, measurement, archive, synchronization,
// parallel replay — and reports the paper-relevant quantities as
// benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// prints, next to the usual ns/op, the reproduced numbers:
// latencies in microseconds for Table 1, violation counts for
// Table 2, and wait-state percentages for Figures 6 and 7. Paper
// values appear in the comments and in EXPERIMENTS.md.

import (
	"testing"

	"metascope"
	"metascope/internal/apps/clockbench"
	"metascope/internal/apps/metatrace"
	"metascope/internal/cube"
	"metascope/internal/experiments"
	"metascope/internal/measure"
	"metascope/internal/pattern"
	"metascope/internal/replay"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// BenchmarkTable1Latencies reproduces Table 1: latencies of the
// internal and external networks in VIOLA.
// Paper: FZJ–FH-BRS 988 µs (σ 3.86), FZJ 21.5 µs (σ 0.814),
// FH-BRS 44.4 µs (σ 0.360).
func BenchmarkTable1Latencies(b *testing.B) {
	var last []float64
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Table1(42, 500)
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
		res, err := experiments.Table2(42, clockbench.Default())
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
		pts := experiments.Figure1(42, 100, 11)
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
		rows, _, err := experiments.Figure3(42, clockbench.Quick())
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

// BenchmarkFigure4PatternMicro reproduces the two timing diagrams of
// Figure 4 as micro-traces through the full analyzer: a Late Sender of
// exactly 4 time units and a Wait at N×N of 6/4/0 units.
func BenchmarkFigure4PatternMicro(b *testing.B) {
	regions := []trace.Region{
		{ID: 0, Name: "main", Kind: trace.RegionUser},
		{ID: 1, Name: "MPI_Send", Kind: trace.RegionMPIP2P},
		{ID: 2, Name: "MPI_Recv", Kind: trace.RegionMPIP2P},
		{ID: 3, Name: "MPI_Allreduce", Kind: trace.RegionMPIColl},
	}
	mk := func(rank int, events []trace.Event) *trace.Trace {
		return &trace.Trace{
			Loc:     trace.Location{Rank: rank, Metahost: rank % 2, MetahostName: []string{"A", "B"}[rank%2], Node: rank},
			Sync:    trace.SyncData{SharedNodeClock: true},
			Regions: regions,
			Comms:   []trace.CommDef{{ID: 0, Ranks: []int32{0, 1, 2}}},
			Events:  events,
		}
	}
	build := func() []*trace.Trace {
		return []*trace.Trace{
			mk(0, []trace.Event{
				{Kind: trace.KindEnter, Time: 0, Region: 0},
				{Kind: trace.KindEnter, Time: 14, Region: 1},
				{Kind: trace.KindSend, Time: 14, Comm: 0, Peer: 1, Tag: 1, Bytes: 64},
				{Kind: trace.KindExit, Time: 14.5, Region: 1},
				{Kind: trace.KindEnter, Time: 20, Region: 3},
				{Kind: trace.KindCollExit, Time: 27, Comm: 0, Coll: trace.CollAllreduce, Root: -1},
				{Kind: trace.KindExit, Time: 27, Region: 3},
				{Kind: trace.KindExit, Time: 30, Region: 0},
			}),
			mk(1, []trace.Event{
				{Kind: trace.KindEnter, Time: 0, Region: 0},
				{Kind: trace.KindEnter, Time: 10, Region: 2},
				{Kind: trace.KindRecv, Time: 15, Comm: 0, Peer: 0, Tag: 1, Bytes: 64},
				{Kind: trace.KindExit, Time: 15, Region: 2},
				{Kind: trace.KindEnter, Time: 22, Region: 3},
				{Kind: trace.KindCollExit, Time: 27, Comm: 0, Coll: trace.CollAllreduce, Root: -1},
				{Kind: trace.KindExit, Time: 27, Region: 3},
				{Kind: trace.KindExit, Time: 30, Region: 0},
			}),
			mk(2, []trace.Event{
				{Kind: trace.KindEnter, Time: 0, Region: 0},
				{Kind: trace.KindEnter, Time: 26, Region: 3},
				{Kind: trace.KindCollExit, Time: 27, Comm: 0, Coll: trace.CollAllreduce, Root: -1},
				{Kind: trace.KindExit, Time: 27, Region: 3},
				{Kind: trace.KindExit, Time: 30, Region: 0},
			}),
		}
	}
	var ls, nxn float64
	for i := 0; i < b.N; i++ {
		res, err := replay.Analyze(build(), replay.Config{Scheme: vclock.FlatSingle})
		if err != nil {
			b.Fatal(err)
		}
		r := res.Report
		ls = r.MetricTotal(r.MetricIndex(pattern.KeyLateSender))
		nxn = r.MetricTotal(r.MetricIndex(pattern.KeyWaitNxN))
	}
	b.ReportMetric(ls, "late_sender_units") // expect 4 (Figure 4a)
	b.ReportMetric(nxn, "wait_nxn_units")   // expect 6+4+0 = 10 (Figure 4b)
}

// BenchmarkFigure6ThreeMetahost reproduces Figure 6 / Table 3
// Experiment 1: MetaTrace on three metahosts.
// Paper: Grid Late Sender 9.3 %, Grid Wait at Barrier 23.1 %, the
// former inside cgiteration on FH-BRS, the latter inside
// ReadVelFieldFromTrace on the Cray XD1.
func BenchmarkFigure6ThreeMetahost(b *testing.B) {
	var gls, gwb float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure6(42)
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
		r, err := experiments.Figure7(42)
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
	r6, err := experiments.Figure6(42)
	if err != nil {
		b.Fatal(err)
	}
	r7, err := experiments.Figure7(42)
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

// ---------------------------------------------------------------------
// Component benchmarks: the substrate costs behind the experiments.
// ---------------------------------------------------------------------

// BenchmarkSimulationMetaTrace measures the raw simulation +
// measurement cost of one Experiment-1 MetaTrace run (no analysis).
func BenchmarkSimulationMetaTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo := metascope.VIOLA()
		place := metascope.ViolaExperiment1Placement(topo)
		e := metascope.NewExperiment("bench", topo, place, 42)
		if err := e.Build(); err != nil {
			b.Fatal(err)
		}
		params, err := metatrace.Setup(e.World(), metatrace.Default(16))
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Run(func(m *measure.M) { metatrace.Body(m, params) }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayTrafficVsTraceSize quantifies §4's argument for
// replay-based parallel analysis: "the amount of data transferred per
// process is significantly smaller than the entire trace file
// belonging to that process". Reported metrics: mean trace file size,
// mean analysis-time traffic per process, and their ratio.
func BenchmarkReplayTrafficVsTraceSize(b *testing.B) {
	topo := metascope.VIOLA()
	place := metascope.ViolaExperiment1Placement(topo)
	e := metascope.NewExperiment("traffic", topo, place, 42)
	if err := e.Build(); err != nil {
		b.Fatal(err)
	}
	def := metatrace.Default(16)
	def.Detail = 16 // preprocessor-grade instrumentation granularity
	params, err := metatrace.Setup(e.World(), def)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Run(func(m *measure.M) { metatrace.Body(m, params) }); err != nil {
		b.Fatal(err)
	}
	traces, err := e.Traces()
	if err != nil {
		b.Fatal(err)
	}
	sizes, err := replay.TraceSizes(traces)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var mergeExternal, replayExternal float64
	for i := 0; i < b.N; i++ {
		res, err := replay.Analyze(traces, replay.Config{Scheme: vclock.Hierarchical})
		if err != nil {
			b.Fatal(err)
		}
		// Merging-based analysis copies every trace not already on the
		// analysis site (rank 0's metahost) across the external
		// network; replay ships only the records of inter-metahost
		// communication.
		analysisMH := traces[0].Loc.Metahost
		var me, re int64
		for r := range sizes {
			if traces[r].Loc.Metahost != analysisMH {
				me += sizes[r]
			}
			re += res.ReplayExternalBytes[r]
		}
		mergeExternal = float64(me)
		replayExternal = float64(re)
	}
	b.ReportMetric(mergeExternal/1024, "merge_ext_KiB")
	b.ReportMetric(replayExternal/1024, "replay_ext_KiB")
	b.ReportMetric(mergeExternal/replayExternal, "reduction_x")
}
