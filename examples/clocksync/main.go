// Clock-synchronization study (§3–§5 of the paper): run the
// short-message benchmark on VIOLA, then re-analyze the same traces
// under the three time-stamp synchronization schemes of Table 2 and
// report clock-condition violations plus the measured synchronization
// errors behind Figure 3.
//
//	go run ./examples/clocksync
package main

import (
	"fmt"

	"metascope"
	"metascope/internal/apps/clockbench"
	"metascope/internal/experiments"
	"metascope/internal/measure"
	"metascope/internal/obs"
)

func main() {
	topo := metascope.VIOLA()
	place := metascope.ViolaExperiment1Placement(topo)

	// One measured run…
	e := metascope.NewExperiment("clocksync", topo, place, 42)
	if err := e.Build(); err != nil {
		obs.Fatal("clocksync failed", "err", err)
	}
	params := clockbench.Params{Rounds: 400, Bytes: 64, Gap: 0.1}
	if err := e.Run(func(m *measure.M) { clockbench.Body(m, params) }); err != nil {
		obs.Fatal("clocksync failed", "err", err)
	}
	fmt.Printf("ran the clock benchmark: %d messages over %.0f s of virtual time\n\n",
		params.Messages(place.N()), e.Engine().Now())

	// …analyzed three ways. The traces carry both the flat and the
	// hierarchical offset measurements, so the comparison needs no
	// re-execution.
	all, err := e.AnalyzeAll()
	if err != nil {
		obs.Fatal("clocksync failed", "err", err)
	}
	fmt.Println("clock condition violations (paper's Table 2: 7560 / 2179 / 0):")
	for _, s := range []metascope.Scheme{metascope.FlatSingle, metascope.FlatInterp, metascope.Hierarchical} {
		fmt.Printf("  %-28s %6d\n", s.String(), all[s].Violations)
	}
	fmt.Println()

	// Ground-truth synchronization errors (possible only in a
	// simulator): how far apart do two corrected clocks read the same
	// instant? Compare with the internal network latency — the bound
	// the clock condition needs (§4).
	rows, internalLat, err := experiments.Figure3(43, params)
	if err != nil {
		obs.Fatal("clocksync failed", "err", err)
	}
	fmt.Print(experiments.FormatFigure3(rows, internalLat))
	fmt.Println()
	fmt.Println("The flat schemes derive intra-metahost offsets from measurements across")
	fmt.Println("the 988 us external link, so their error dwarfs the 21.5 us internal")
	fmt.Println("latency and the clock condition breaks on internal messages. The")
	fmt.Println("hierarchical scheme keeps intra-metahost errors at internal accuracy.")
}
