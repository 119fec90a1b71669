// Load-balance what-if study: the paper ends by noting that for
// MetaTrace "a dynamic load balancing scheme might be advisable" but
// that a single experiment cannot separate hardware heterogeneity from
// application imbalance. A simulator can: this example sweeps the
// CAESAR cluster's relative speed and a static work-partitioning
// factor, showing how the Grid Late Sender and Grid Wait at Barrier
// shares respond — the experiment an analyst would run before touching
// the application.
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"

	"metascope"
	"metascope/internal/apps/metatrace"
	"metascope/internal/measure"
	"metascope/internal/obs"
	"metascope/internal/pattern"
	"metascope/internal/topology"
)

// run executes MetaTrace on VIOLA with CAESAR's Trace-kernel speed set
// to caesarSpeed and Partrace's per-step work scaled by partScale.
func run(caesarSpeed, partScale float64) (gridLS, gridWB float64) {
	topo := metascope.VIOLA()
	topo.Metahosts[0].Speed[topology.KernelTraceCG] = caesarSpeed
	place := metascope.ViolaExperiment1Placement(topo)
	e := metascope.NewExperiment("whatif", topo, place, 42)
	if err := e.Build(); err != nil {
		obs.Fatal("loadbalance failed", "err", err)
	}
	params := metatrace.Default(place.N() / 2)
	params.Steps = 4 // a short run is enough for shares
	params.PartWork *= partScale
	params, err := metatrace.Setup(e.World(), params)
	if err != nil {
		obs.Fatal("loadbalance failed", "err", err)
	}
	if err := e.Run(func(m *measure.M) { metatrace.Body(m, params) }); err != nil {
		obs.Fatal("loadbalance failed", "err", err)
	}
	res, err := e.Analyze(metascope.Hierarchical)
	if err != nil {
		obs.Fatal("loadbalance failed", "err", err)
	}
	r := res.Report
	return r.MetricPercent(r.MetricIndex(pattern.KeyGridLS)),
		r.MetricPercent(r.MetricIndex(pattern.KeyGridWB))
}

func main() {
	fmt.Println("What-if 1: faster CAESAR hardware (paper: CAESAR runs Trace ~2x")
	fmt.Println("slower than FH-BRS; the z-boundary between them is where the Grid")
	fmt.Println("Late Sender lives).")
	fmt.Printf("%12s %16s %20s\n", "CAESAR speed", "Grid Late Sender", "Grid Wait at Barrier")
	for _, speed := range []float64{1.0, 1.3, 1.6, 2.0} {
		ls, wb := run(speed, 1.0)
		fmt.Printf("%12.1f %15.1f%% %19.1f%%\n", speed, ls, wb)
	}
	fmt.Println()
	fmt.Println("Matching FH-BRS's speed (2.0) removes the intra-Trace imbalance and")
	fmt.Println("with it most of the Grid Late Sender; the barrier wait shrinks too")
	fmt.Println("because Trace as a whole gets faster relative to Partrace.")
	fmt.Println()

	fmt.Println("What-if 2: rebalancing the submodels (scale Partrace's work to close")
	fmt.Println("the gap at the coupling barrier).")
	fmt.Printf("%12s %16s %20s\n", "Partrace x", "Grid Late Sender", "Grid Wait at Barrier")
	for _, scale := range []float64{1.0, 1.4, 1.8, 1.9} {
		ls, wb := run(1.0, scale)
		fmt.Printf("%12.1f %15.1f%% %19.1f%%\n", scale, ls, wb)
	}
	fmt.Println()
	fmt.Println("Giving Partrace more work per coupling step soaks up the time it")
	fmt.Println("spends waiting in ReadVelFieldFromTrace — the simulator quantifies")
	fmt.Println("how much rebalancing the hardware difference really buys.")
}
