// MetaTrace study (§5 of the paper): run the coupled multi-physics
// application on the heterogeneous three-metahost VIOLA configuration
// (Table 3, Experiment 1) and on the homogeneous IBM system
// (Experiment 2), analyze both with the hierarchical time
// synchronization, and compare them with the cube algebra.
//
//	go run ./examples/metatrace
package main

import (
	"fmt"

	"metascope"
	"metascope/internal/apps/metatrace"
	"metascope/internal/cube"
	"metascope/internal/measure"
	"metascope/internal/obs"
	"metascope/internal/pattern"
	"metascope/internal/replay"
	"metascope/internal/topology"
)

func runExperiment(name string, topo *topology.Metacomputer, place *topology.Placement) *replay.Result {
	e := metascope.NewExperiment(name, topo, place, 42)
	if err := e.Build(); err != nil {
		obs.Fatal("metatrace failed", "err", err)
	}
	params, err := metatrace.Setup(e.World(), metatrace.Default(place.N()/2))
	if err != nil {
		obs.Fatal("metatrace failed", "err", err)
	}
	if err := e.Run(func(m *measure.M) { metatrace.Body(m, params) }); err != nil {
		obs.Fatal("metatrace failed", "err", err)
	}
	res, err := e.Analyze(metascope.Hierarchical)
	if err != nil {
		obs.Fatal("metatrace failed", "err", err)
	}
	return res
}

func pct(r *replay.Result, key string) float64 {
	return r.Report.MetricPercent(r.Report.MetricIndex(key))
}

func main() {
	viola := metascope.VIOLA()
	exp1 := runExperiment("metatrace-exp1", viola, metascope.ViolaExperiment1Placement(viola))
	ibm := metascope.IBMPower()
	exp2 := runExperiment("metatrace-exp2", ibm, metascope.IBMExperiment2Placement(ibm))

	fmt.Println("=== Experiment 1: three metahosts (XD1 + FH-BRS + CAESAR) ===")
	fmt.Printf("total time %.0f s; Grid Late Sender %.1f%%; Grid Wait at Barrier %.1f%%\n",
		exp1.Report.TotalTime(), pct(exp1, pattern.KeyGridLS), pct(exp1, pattern.KeyGridWB))
	fmt.Println("(paper: 9.3% and 23.1%)")
	fmt.Println()
	fmt.Print(exp1.Report.RenderFigure(pattern.KeyGridLS))
	fmt.Println()
	fmt.Print(exp1.Report.RenderFigure(pattern.KeyGridWB))

	fmt.Println()
	fmt.Println("=== Experiment 2: one metahost (IBM AIX POWER) ===")
	fmt.Printf("total time %.0f s; Late Sender %.1f%%; Wait at Barrier %.1f%%\n",
		exp2.Report.TotalTime(), pct(exp2, pattern.KeyLateSender), pct(exp2, pattern.KeyWaitBarrier))
	fmt.Println()
	fmt.Print(exp2.Report.RenderFigure(pattern.KeyLateSender))

	fmt.Println()
	fmt.Println("=== Cross-experiment difference (exp1 − exp2, cube algebra) ===")
	diff := cube.Diff(exp1.Report, exp2.Report)
	for _, key := range []string{
		pattern.KeyTime, pattern.KeyMPI, pattern.KeyLateSender, pattern.KeyWaitBarrier,
	} {
		m := diff.MetricIndex(key)
		fmt.Printf("  %-28s %+10.1f s\n", diff.Metrics[m].Name, diff.MetricTotal(m))
	}
	fmt.Println("\npositive values: more severe on the metacomputer — the load imbalance")
	fmt.Println("induced by heterogeneous hardware, as §5 concludes.")
}
