package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"metascope"
	"metascope/internal/apps/clockbench"
	"metascope/internal/apps/metatrace"
	"metascope/internal/apps/pingpong"
	"metascope/internal/cube"
	"metascope/internal/measure"
	"metascope/internal/obs"
	"metascope/internal/pattern"
	"metascope/internal/replay"
	"metascope/internal/sim"
	"metascope/internal/topology"
	"metascope/internal/vclock"
)

// experimentsVerb is experiments: it regenerates every table and figure
// of the paper's evaluation section (§5) on the simulated metacomputer.
//
//	metascope experiments [-seed N] [-only table1|table2|fig1|fig3|fig6|fig7|topology|algebra]
//
// Without -only it runs everything in paper order. Each experiment is a
// pure function of the seed, so this verb, the paper benchmarks and the
// shape tests next to it produce identical numbers for identical seeds:
//
//	table1  — internal/external network latencies (apps/pingpong)
//	table2  — clock-condition violations per sync scheme (apps/clockbench)
//	figure1 — clock offset+drift divergence (vclock)
//	figure3 — flat vs hierarchical offset error (ground truth compare)
//	figure6 — three-metahost MetaTrace analysis (apps/metatrace, Table 3 exp 1)
//	figure7 — one-metahost MetaTrace analysis (apps/metatrace, Table 3 exp 2)
//	algebra — §6 future work: cube difference of figure6 vs figure7
func experimentsVerb(fs *flag.FlagSet) verbFunc {
	seed := fs.Int64("seed", 42, "simulation seed (same seed = same numbers)")
	only := fs.String("only", "", "run a single experiment (table1, table2, fig1, fig3, fig6, fig7, topology, algebra)")
	return func(ctx context.Context, _ []string, stdout io.Writer) error {
		did := false
		for _, x := range paperExperiments {
			if *only != "" && *only != x.name {
				continue
			}
			did = true
			s, err := x.render(ctx, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, s)
		}
		if !did {
			return fmt.Errorf("unknown experiment %q", *only)
		}
		obs.Default.Log.Debug("experiments complete", "only", *only)
		return nil
	}
}

// paperExperiments renders each experiment of the evaluation, in paper
// order; experiments prints each section followed by a blank line.
var paperExperiments = []struct {
	name   string
	render func(ctx context.Context, seed int64) (string, error)
}{
	{"topology", func(context.Context, int64) (string, error) {
		return "=== Figures 2 and 5: metacomputer topology ===\n" + metascope.VIOLA().Describe(), nil
	}},
	{"table1", func(ctx context.Context, seed int64) (string, error) {
		rs, err := table1(ctx, seed, 1000)
		if err != nil {
			return "", err
		}
		return formatTable1(rs), nil
	}},
	{"fig1", func(_ context.Context, seed int64) (string, error) { return formatFigure1(figure1(seed, 100, 11)), nil }},
	{"table2", func(ctx context.Context, seed int64) (string, error) {
		t2, err := table2(ctx, seed, clockbench.Default())
		if err != nil {
			return "", err
		}
		return formatTable2(t2), nil
	}},
	{"fig3", func(ctx context.Context, seed int64) (string, error) {
		rows, lat, err := figure3(ctx, seed, clockbench.Default())
		if err != nil {
			return "", err
		}
		return formatFigure3(rows, lat), nil
	}},
	{"fig6", func(ctx context.Context, seed int64) (string, error) {
		r, err := figure6(ctx, seed)
		if err != nil {
			return "", err
		}
		return formatMetaTrace("=== Figure 6: MetaTrace on three metahosts (Table 3, Experiment 1) ===", r, true), nil
	}},
	{"fig7", func(ctx context.Context, seed int64) (string, error) {
		r, err := figure7(ctx, seed)
		if err != nil {
			return "", err
		}
		return formatMetaTrace("=== Figure 7: MetaTrace on one metahost (Table 3, Experiment 2) ===", r, false), nil
	}},
	{"algebra", func(ctx context.Context, seed int64) (string, error) {
		diff, err := algebra(ctx, seed)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString("=== Cross-experiment algebra: diff(three-metahost, one-metahost) ===\n")
		for _, key := range []string{pattern.KeyLateSender, pattern.KeyWaitBarrier, pattern.KeyMPI} {
			m := diff.MetricIndex(key)
			fmt.Fprintf(&b, "  %-20s %+.2f s (positive = more severe on the metacomputer)\n",
				diff.Metrics[m].Name, diff.MetricTotal(m))
		}
		return b.String(), nil
	}},
}

// table1 measures the latencies of Table 1 on the VIOLA testbed: the
// external FZJ–FH-BRS link and the FZJ and FH-BRS internal networks.
func table1(ctx context.Context, seed int64, rounds int) ([]pingpong.Result, error) {
	topo := metascope.VIOLA()
	place := metascope.ViolaExperiment1Placement(topo)
	if err := place.Validate(); err != nil {
		return nil, err
	}
	pairs, err := pingpong.Table1Pairs(place)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(seed)
	defer interruptible(ctx, eng)()
	return pingpong.Measure(eng, place, pairs, rounds, 64)
}

// formatTable1 renders the measurement like the paper's Table 1.
func formatTable1(rs []pingpong.Result) string {
	var b strings.Builder
	b.WriteString("Table 1: Latencies of the internal and external networks in VIOLA\n")
	fmt.Fprintf(&b, "  %-34s %12s %18s\n", "", "mean [us]", "std. deviation [us]")
	for _, r := range rs {
		fmt.Fprintf(&b, "  %-34s %12.2f %18.3f\n", r.Label, r.Mean*1e6, r.StdDev*1e6)
	}
	return b.String()
}

// table2Result holds the violation counts per synchronization scheme.
type table2Result struct {
	Violations map[vclock.Scheme]int
	Messages   int
}

// table2 runs the clock benchmark on VIOLA (Experiment 1 placement)
// and counts clock-condition violations under the three schemes of
// Table 2: a single flat offset, two flat offsets with interpolation,
// and two hierarchical offsets with interpolation.
func table2(ctx context.Context, seed int64, params clockbench.Params) (*table2Result, error) {
	topo := metascope.VIOLA()
	place := metascope.ViolaExperiment1Placement(topo)
	e := metascope.NewExperiment("clockbench", topo, place, seed)
	if err := e.Build(); err != nil {
		return nil, err
	}
	defer interruptible(ctx, e.Engine())()
	if err := e.Run(func(m *measure.M) { clockbench.Body(m, params) }); err != nil {
		return nil, err
	}
	all, err := e.AnalyzeAll()
	if err != nil {
		return nil, err
	}
	out := &table2Result{Violations: make(map[vclock.Scheme]int, 3)}
	for s, r := range all {
		out.Violations[s] = r.Violations
		out.Messages = r.Messages
	}
	return out, nil
}

// formatTable2 renders the counts like the paper's Table 2.
func formatTable2(t *table2Result) string {
	var b strings.Builder
	b.WriteString("Table 2: Number of clock condition violations recognized by the parallel analyzer\n")
	fmt.Fprintf(&b, "  (%d point-to-point messages replayed)\n", t.Messages)
	fmt.Fprintf(&b, "  %-28s %s\n", "Measurement", "clock condition violations")
	for _, s := range []vclock.Scheme{vclock.FlatSingle, vclock.FlatInterp, vclock.Hierarchical} {
		fmt.Fprintf(&b, "  %-28s %d\n", s.String(), t.Violations[s])
	}
	return b.String()
}

// figure1Point is one sample of the clock-divergence illustration.
type figure1Point struct {
	T          float64 // true time
	Divergence float64 // max pairwise clock difference
}

// figure1 samples the maximum pairwise divergence of the VIOLA node
// clocks over an interval — the situation sketched in Figure 1: clocks
// with both initial offset and different constant drifts drift apart
// linearly.
func figure1(seed int64, horizon float64, samples int) []figure1Point {
	eng := sim.NewEngine(seed)
	topo := metascope.VIOLA()
	clocks := vclock.Generate(eng, topo)
	out := make([]figure1Point, samples)
	for i := 0; i < samples; i++ {
		t := horizon * float64(i) / float64(samples-1)
		out[i] = figure1Point{T: t, Divergence: clocks.MaxDivergence(t)}
	}
	return out
}

// formatFigure1 renders the divergence series.
func formatFigure1(pts []figure1Point) string {
	var b strings.Builder
	b.WriteString("Figure 1: Clocks with both initial offset and different constant drifts\n")
	b.WriteString("  max pairwise divergence of VIOLA node clocks over true time\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "  t=%8.1f s   divergence=%.6f s\n", p.T, p.Divergence)
	}
	return b.String()
}

// figure3Row summarizes the synchronization error of one scheme.
type figure3Row struct {
	Scheme vclock.Scheme
	// MaxIntraError is the largest pairwise synchronization error
	// between two processes on the same metahost (the error that must
	// stay below the internal network latency to satisfy the clock
	// condition on internal messages).
	MaxIntraError float64
	// MaxInterError is the largest pairwise error between processes on
	// different metahosts (bounded by the external latency).
	MaxInterError float64
}

// figure3 quantifies the comparison sketched in Figure 3: the flat
// scheme derives intra-metahost offsets from two measurements across
// the external network, inflating the relative error between processes
// connected by a low-latency link; the hierarchical scheme keeps
// intra-metahost errors at internal-measurement accuracy. Every process
// reads its own simulated clock at one true instant, mid-run, and the
// readings are corrected: a perfect scheme maps them all onto one value,
// so each row holds the largest pairwise spread of the corrected
// readings, within and across metahosts.
func figure3(ctx context.Context, seed int64, params clockbench.Params) ([]figure3Row, float64, error) {
	topo := metascope.VIOLA()
	place := metascope.ViolaExperiment1Placement(topo)
	e := metascope.NewExperiment("figure3", topo, place, seed)
	if err := e.Build(); err != nil {
		return nil, 0, err
	}
	defer interruptible(ctx, e.Engine())()
	if err := e.Run(func(m *measure.M) { clockbench.Body(m, params) }); err != nil {
		return nil, 0, err
	}
	traces, err := e.Traces()
	if err != nil {
		return nil, 0, err
	}
	clocks := e.Clocks()
	tMid := e.Engine().Now() / 2

	var rows []figure3Row
	for _, scheme := range []vclock.Scheme{vclock.FlatSingle, vclock.FlatInterp, vclock.Hierarchical} {
		corr, err := replay.BuildCorrections(traces, scheme)
		if err != nil {
			return nil, 0, err
		}
		corrected := make([]float64, len(corr))
		for r := range corr {
			local := clocks.ForLoc(place.Loc(r)).Read(tMid)
			corrected[r] = corr[r].Map.Apply(local)
		}
		row := figure3Row{Scheme: scheme}
		for a := range corrected {
			for bn := a + 1; bn < len(corrected); bn++ {
				diff := corrected[a] - corrected[bn]
				if diff < 0 {
					diff = -diff
				}
				sameMH := place.Loc(a).Metahost == place.Loc(bn).Metahost
				if sameMH && diff > row.MaxIntraError {
					row.MaxIntraError = diff
				}
				if !sameMH && diff > row.MaxInterError {
					row.MaxInterError = diff
				}
			}
		}
		rows = append(rows, row)
	}
	minInternal := topo.Metahost(2).Internal.LatencyMean // FZJ, the tightest bound
	return rows, minInternal, nil
}

// formatFigure3 renders the error comparison.
func formatFigure3(rows []figure3Row, internalLatency float64) string {
	var b strings.Builder
	b.WriteString("Figure 3: Flat vs. hierarchical synchronization (max pairwise error at mid-run)\n")
	fmt.Fprintf(&b, "  clock condition on internal messages requires intra-metahost error < %.1f us\n",
		internalLatency*1e6)
	fmt.Fprintf(&b, "  %-28s %20s %20s\n", "scheme", "intra-metahost [us]", "inter-metahost [us]")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-28s %20.2f %20.2f\n", r.Scheme.String(), r.MaxIntraError*1e6, r.MaxInterError*1e6)
	}
	return b.String()
}

// metaTraceResult bundles the analysis of one MetaTrace experiment.
type metaTraceResult struct {
	Res *replay.Result
	// Shares of total execution time, in percent (the numbers quoted
	// in §5: Grid Late Sender 9.3 %, Grid Wait at Barrier 23.1 % for
	// the three-metahost case).
	Pct map[string]float64
}

func metaTraceRun(ctx context.Context, title string, topo *topology.Metacomputer, place *topology.Placement, seed int64) (*metaTraceResult, error) {
	e := metascope.NewExperiment(title, topo, place, seed)
	if err := e.Build(); err != nil {
		return nil, err
	}
	defer interruptible(ctx, e.Engine())()
	params, err := metatrace.Setup(e.World(), metatrace.Default(place.N()/2))
	if err != nil {
		return nil, err
	}
	if err := e.Run(func(m *measure.M) { metatrace.Body(m, params) }); err != nil {
		return nil, err
	}
	res, err := e.Analyze(vclock.Hierarchical)
	if err != nil {
		return nil, err
	}
	out := &metaTraceResult{Res: res, Pct: make(map[string]float64)}
	for _, key := range []string{
		pattern.KeyLateSender, pattern.KeyGridLS,
		pattern.KeyWaitBarrier, pattern.KeyGridWB,
		pattern.KeyWaitNxN, pattern.KeyGridNxN,
		pattern.KeyLateRecv, pattern.KeyGridLR,
		pattern.KeyMPI,
	} {
		if m := res.Report.MetricIndex(key); m >= 0 {
			out.Pct[key] = res.Report.MetricPercent(m)
		}
	}
	return out, nil
}

// figure6 runs MetaTrace in the three-metahost configuration of
// Table 3 (Experiment 1: Partrace on the XD1, Trace split across
// FH-BRS and CAESAR) and analyzes it hierarchically.
func figure6(ctx context.Context, seed int64) (*metaTraceResult, error) {
	topo := metascope.VIOLA()
	place := metascope.ViolaExperiment1Placement(topo)
	return metaTraceRun(ctx, "metatrace-exp1", topo, place, seed)
}

// figure7 runs MetaTrace in the one-metahost configuration of Table 3
// (Experiment 2: both submodels on the IBM AIX POWER system).
func figure7(ctx context.Context, seed int64) (*metaTraceResult, error) {
	topo := metascope.IBMPower()
	place := metascope.IBMExperiment2Placement(topo)
	return metaTraceRun(ctx, "metatrace-exp2", topo, place, seed)
}

// formatMetaTrace renders the headline shares and the three-panel view
// for the two dominant grid patterns, the textual equivalent of the
// Figure 6/7 screenshots.
func formatMetaTrace(title string, r *metaTraceResult, grid bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  messages=%d collectives=%d violations=%d total=%.1f s\n",
		r.Res.Messages, r.Res.Collectives, r.Res.Violations, r.Res.Report.TotalTime())
	lsKey, wbKey := pattern.KeyLateSender, pattern.KeyWaitBarrier
	if grid {
		lsKey, wbKey = pattern.KeyGridLS, pattern.KeyGridWB
	}
	fmt.Fprintf(&b, "  %-28s %5.1f %% of total time\n", r.Res.Report.Metrics[r.Res.Report.MetricIndex(lsKey)].Name, r.Pct[lsKey])
	fmt.Fprintf(&b, "  %-28s %5.1f %% of total time\n\n", r.Res.Report.Metrics[r.Res.Report.MetricIndex(wbKey)].Name, r.Pct[wbKey])
	b.WriteString(cube.RenderFindings(r.Res.Report.Findings(4, 0.5)))
	b.WriteString("\n")
	b.WriteString(r.Res.Report.RenderFigure(lsKey))
	b.WriteString("\n")
	b.WriteString(r.Res.Report.RenderFigure(wbKey))
	return b.String()
}

// algebra computes the cross-experiment difference (figure6 − figure7)
// with the cube algebra, the comparative analysis §6 proposes.
func algebra(ctx context.Context, seed int64) (*cube.Report, error) {
	a, err := figure6(ctx, seed)
	if err != nil {
		return nil, err
	}
	b, err := figure7(ctx, seed)
	if err != nil {
		return nil, err
	}
	return cube.Diff(a.Res.Report, b.Res.Report), nil
}
