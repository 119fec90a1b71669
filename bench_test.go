package metascope_test

// Benchmarks of the analyzer and its substrate. The paper benchmarks,
// one per table and figure of the evaluation (§5) that runs an
// experiment, live next to the experiments in
// cmd/metascope/bench_test.go; the Figure 4 micro-traces stay here.

import (
	"testing"

	"metascope"
	"metascope/internal/apps/metatrace"
	"metascope/internal/measure"
	"metascope/internal/pattern"
	"metascope/internal/replay"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

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
