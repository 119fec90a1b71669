package main

import (
	"context"
	"fmt"
	"testing"

	"metascope/internal/apps/clockbench"
	"metascope/internal/pattern"
	"metascope/internal/vclock"
)

// Seed-robustness: the qualitative findings asserted against seed 42
// elsewhere must hold for arbitrary seeds — they are structural, not
// calibration luck. These tests use reduced workloads to stay fast.

func TestTable2OrderingAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{7, 1001, 424242} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res, err := table2(context.Background(), seed, clockbench.Quick())
			if err != nil {
				t.Fatal(err)
			}
			v1 := res.Violations[vclock.FlatSingle]
			v2 := res.Violations[vclock.FlatInterp]
			v3 := res.Violations[vclock.Hierarchical]
			if v3 != 0 {
				t.Errorf("hierarchical violations %d", v3)
			}
			if v1 <= v2 {
				t.Errorf("flat1 (%d) not worse than flat2 (%d)", v1, v2)
			}
			if v2 == 0 {
				t.Errorf("flat2 found no violations (workload too easy?)")
			}
		})
	}
}

func TestFigure6PlacementAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{7, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r, err := figure6(context.Background(), seed)
			if err != nil {
				t.Fatal(err)
			}
			rep := r.Res.Report
			// The structural findings: grid LS in cgiteration on
			// FH-BRS; grid WB dominated by Partrace's coupling barrier.
			gls := rep.MetricIndex(pattern.KeyGridLS)
			cg := rep.CallByPath([]string{"main", "cgiteration"})
			if cg < 0 {
				t.Fatal("cgiteration missing")
			}
			inCG := rep.MetricCallInclusive(gls, cg)
			if total := rep.MetricTotal(gls); inCG < 0.8*total {
				t.Errorf("grid LS in cgiteration only %.1f of %.1f s", inCG, total)
			}
			onBRS := rep.MetahostValue(gls, cg, "FH-BRS")
			if onBRS < 0.9*inCG {
				t.Errorf("grid LS not concentrated on FH-BRS (%.1f of %.1f s)", onBRS, inCG)
			}
			gwb := rep.MetricIndex(pattern.KeyGridWB)
			read := rep.CallByPath([]string{"main", "ReadVelFieldFromTrace"})
			if read < 0 {
				t.Fatal("ReadVelFieldFromTrace missing")
			}
			if inRead := rep.MetricCallInclusive(gwb, read); inRead < rep.MetricTotal(gwb)/2 {
				t.Errorf("grid WB not dominated by the coupling barrier")
			}
			if r.Res.Violations != 0 {
				t.Errorf("hierarchical violations %d", r.Res.Violations)
			}
		})
	}
}

func TestHeterogeneousVsHomogeneousAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{7, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r6, err := figure6(context.Background(), seed)
			if err != nil {
				t.Fatal(err)
			}
			r7, err := figure7(context.Background(), seed)
			if err != nil {
				t.Fatal(err)
			}
			if r7.Res.Report.TotalTime() >= r6.Res.Report.TotalTime() {
				t.Errorf("homogeneous run not faster")
			}
			if r7.Pct[pattern.KeyGridLS]+r7.Pct[pattern.KeyGridWB] != 0 {
				t.Errorf("grid patterns on a single metahost")
			}
			if r7.Pct[pattern.KeyWaitBarrier] > r6.Pct[pattern.KeyWaitBarrier]/2 {
				t.Errorf("barrier wait did not decrease: %.1f%% vs %.1f%%",
					r7.Pct[pattern.KeyWaitBarrier], r6.Pct[pattern.KeyWaitBarrier])
			}
		})
	}
}
