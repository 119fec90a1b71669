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
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"metascope"
	"metascope/internal/apps/clockbench"
	"metascope/internal/apps/metatrace"
	"metascope/internal/cube"
	"metascope/internal/experiments"
	"metascope/internal/measure"
	"metascope/internal/pattern"
	"metascope/internal/phase"
	"metascope/internal/replay"
	"metascope/internal/scenario"
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

// BenchmarkParallelReplay measures the analyzer alone on a prepared
// MetaTrace archive: the per-analysis cost an interactive user pays
// when switching synchronization schemes.
func BenchmarkParallelReplay(b *testing.B) {
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
	traces, err := e.Traces()
	if err != nil {
		b.Fatal(err)
	}
	events := 0
	for _, t := range traces {
		events += len(t.Events)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Analyze(traces, replay.Config{Scheme: vclock.Hierarchical}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events), "events")
}

// BenchmarkArchiveLoad measures the ingestion path alone: listing the
// per-metahost archives and decoding every rank's trace file into
// memory — the fixed cost every analysis, timeline export, or profile
// pays before replay can start. b.SetBytes reports decode throughput
// over the total encoded archive size. Sub-benchmarks compare the v1
// row encoding, the columnar v2 encoding fully materialized, and the
// v2 header-only lazy open (decode deferred into the replay sweep) —
// the default load path since the v2 push.
func BenchmarkArchiveLoad(b *testing.B) {
	archiveOf := func(b *testing.B, f trace.Format) (*metascope.Experiment, int64) {
		b.Helper()
		topo := metascope.VIOLA()
		place := metascope.ViolaExperiment1Placement(topo)
		e := metascope.NewExperiment("bench", topo, place, 42)
		e.TraceFormat = f
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
		traces, err := e.Traces()
		if err != nil {
			b.Fatal(err)
		}
		sizes, err := replay.TraceSizesFormat(traces, f)
		if err != nil {
			b.Fatal(err)
		}
		var total int64
		for _, s := range sizes {
			total += s
		}
		return e, total
	}
	b.Run("v1", func(b *testing.B) {
		e, total := archiveOf(b, trace.FormatV1)
		mounts, metahosts := e.Mounts(), e.Place.MetahostsUsed()
		b.SetBytes(total)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := replay.LoadArchive(mounts, metahosts, e.ArchiveDir); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v2", func(b *testing.B) {
		e, total := archiveOf(b, trace.FormatV2)
		mounts, metahosts := e.Mounts(), e.Place.MetahostsUsed()
		b.SetBytes(total)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := replay.LoadArchive(mounts, metahosts, e.ArchiveDir); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v2-lazy", func(b *testing.B) {
		e, total := archiveOf(b, trace.FormatV2)
		mounts, metahosts := e.Mounts(), e.Place.MetahostsUsed()
		b.SetBytes(total)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := replay.LoadArchiveLazy(mounts, metahosts, e.ArchiveDir); err != nil {
				b.Fatal(err)
			}
		}
	})
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

// metatraceExperiment runs MetaTrace on the VIOLA testbed (32 ranks,
// seed 42) at the given instrumentation detail and returns the measured
// experiment, its v2 archive in memory.
func metatraceExperiment(tb testing.TB, detail int) *metascope.Experiment {
	tb.Helper()
	topo := metascope.VIOLA()
	e := metascope.NewExperiment("bench", topo, metascope.ViolaExperiment1Placement(topo), 42)
	if err := e.Build(); err != nil {
		tb.Fatal(err)
	}
	p := metatrace.Default(16)
	p.Detail = detail
	params, err := metatrace.Setup(e.World(), p)
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.Run(func(m *measure.M) { metatrace.Body(m, params) }); err != nil {
		tb.Fatal(err)
	}
	return e
}

// BenchmarkStreamingIngest measures the live ingest path on a prepared
// MetaTrace archive: encoded trace bytes fed through a live session —
// chunk decode, incremental replay, window scheduling — to a final
// result, either as one chunk per rank ("oneshot") or as interleaved
// 64 KiB chunks ("chunked"), against BenchmarkParallelReplay as the
// post-mortem baseline, for both wire encodings. Reported metrics:
// severity windows closed per second of wall time, and bytes and
// allocations per ingested event.
func BenchmarkStreamingIngest(b *testing.B) {
	traces, err := metatraceExperiment(b, 1).Traces()
	if err != nil {
		b.Fatal(err)
	}
	events := 0
	for _, tr := range traces {
		events += len(tr.Events)
	}
	encodeAll := func(f trace.Format) (blobs [][]byte, total int64) {
		blobs = make([][]byte, len(traces))
		for i, tr := range traces {
			var buf bytes.Buffer
			if err := tr.EncodeFormat(&buf, f); err != nil {
				b.Fatal(err)
			}
			blobs[i] = buf.Bytes()
			total += int64(buf.Len())
		}
		return blobs, total
	}
	run := func(b *testing.B, blobs [][]byte, total int64, chunk int) {
		b.SetBytes(total)
		var windows int64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			var w int64
			l, err := replay.NewLive(replay.LiveConfig{
				Config:    replay.Config{Scheme: vclock.Hierarchical},
				Ranks:     len(blobs),
				WindowSec: 0.5,
				EmitEvery: time.Millisecond,
				OnEvent: func(ev replay.StreamEvent) {
					if ev.Summary != nil {
						w = ev.Summary.WindowsClosed
					}
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			if chunk <= 0 {
				for r, blob := range blobs {
					if err := l.FeedChunk(r, blob); err != nil {
						b.Fatal(err)
					}
				}
			} else {
				offs := make([]int, len(blobs))
				for progressed := true; progressed; {
					progressed = false
					for r, blob := range blobs {
						if offs[r] >= len(blob) {
							continue
						}
						end := offs[r] + chunk
						if end > len(blob) {
							end = len(blob)
						}
						if err := l.FeedChunk(r, blob[offs[r]:end]); err != nil {
							b.Fatal(err)
						}
						offs[r] = end
						progressed = true
					}
				}
			}
			if _, err := l.Finalize(context.Background()); err != nil {
				b.Fatal(err)
			}
			windows += w
		}
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(windows)/b.Elapsed().Seconds(), "windows/s")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*events), "B/event")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*events), "allocs/event")
	}
	for _, f := range []trace.Format{trace.FormatV1, trace.FormatV2} {
		f := f
		blobs, total := encodeAll(f)
		b.Run(f.String()+"-oneshot", func(b *testing.B) { run(b, blobs, total, 0) })
		b.Run(f.String()+"-chunked-64KiB", func(b *testing.B) { run(b, blobs, total, 64<<10) })
	}
}

// BenchmarkTraceEncodeDecode measures the trace format's throughput.
func BenchmarkTraceEncodeDecode(b *testing.B) {
	tr := &trace.Trace{
		Loc:     trace.Location{MetahostName: "bench"},
		Regions: []trace.Region{{ID: 0, Name: "f", Kind: trace.RegionUser}},
	}
	now := 0.0
	for i := 0; i < 50000; i++ {
		now += 1e-4
		tr.Events = append(tr.Events, trace.Event{Kind: trace.KindEnter, Time: now, Region: 0})
		now += 1e-4
		tr.Events = append(tr.Events, trace.Event{Kind: trace.KindExit, Time: now, Region: 0})
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tr.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.Decode(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkPhaseAnalysis runs the straggler kernel through the full
// pipeline — simulate, measure, archive, replay with phase detection —
// and reports every phase's wait-at-NxN severity as a benchmark
// metric ("sev:p<phase>:wait_nxn"). These are exact simulation
// outputs, not timings: script/benchdelta renders them as a per-phase
// table, so `make bench` tracks per-iteration analysis severities
// across changes and a regression confined to one phase shows up as
// that phase's row moving.
func BenchmarkPhaseAnalysis(b *testing.B) {
	var pp *phase.Profile
	for i := 0; i < b.N; i++ {
		prog, err := scenario.LoadLibrary("straggler")
		if err != nil {
			b.Fatal(err)
		}
		e, err := prog.Run("bench-phases", 1)
		if err != nil {
			b.Fatal(err)
		}
		traces, err := e.Traces()
		if err != nil {
			b.Fatal(err)
		}
		res, err := replay.Analyze(traces, replay.Config{Scheme: vclock.Hierarchical, Title: "bench-phases"})
		if err != nil {
			b.Fatal(err)
		}
		pp = res.Phases
	}
	b.ReportMetric(float64(len(pp.Phases)), "phases")
	for i := range pp.Phases {
		total := 0.0
		for _, r := range pp.Phases[i].Rows {
			if phase.FamilyOf(r.Family) == pattern.KeyWaitNxN {
				total += r.Severity
			}
		}
		b.ReportMetric(total, fmt.Sprintf("sev:p%d:wait_nxn", i))
	}
}
