package metascope_test

// Scalability of the parallel replay analysis (§4: the parallel trace
// algorithm "is not only more scalable, but also avoids costly copying
// of trace data"): measurement + analysis at growing process counts on
// the VIOLA topology. The analyzer steps every rank under one scheduler
// of GOMAXPROCS runners, so analysis time should grow roughly with per-rank trace length, not
// with the product of ranks × events the way a merged sequential scan
// would.

import (
	"fmt"
	"testing"

	"metascope"
	"metascope/internal/apps/clockbench"
	"metascope/internal/measure"
	"metascope/internal/replay"
	"metascope/internal/topology"
	"metascope/internal/vclock"
)

// scaledPlacement places n ranks on VIOLA, filling FZJ, then CAESAR,
// then FH-BRS (two per node where possible).
func scaledPlacement(topo *topology.Metacomputer, n int) (*topology.Placement, error) {
	p := topology.NewPlacement(topo)
	remaining := n
	fill := func(mh, nodes, perNode int) error {
		if remaining <= 0 {
			return nil
		}
		want := remaining / perNode
		if want > nodes {
			want = nodes
		}
		if want > 0 {
			if _, _, err := p.Place(mh, 0, want, perNode); err != nil {
				return err
			}
			remaining -= want * perNode
		}
		return nil
	}
	if err := fill(2, 60, 2); err != nil {
		return nil, err
	}
	if err := fill(0, 32, 2); err != nil {
		return nil, err
	}
	if err := fill(1, 6, 4); err != nil {
		return nil, err
	}
	if remaining != 0 {
		return nil, fmt.Errorf("cannot place %d ranks on VIOLA (%d left)", n, remaining)
	}
	return p, nil
}

func BenchmarkScalabilityAnalysis(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			topo := metascope.VIOLA()
			place, err := scaledPlacement(topo, n)
			if err != nil {
				b.Fatal(err)
			}
			e := metascope.NewExperiment("scale", topo, place, 42)
			if err := e.Build(); err != nil {
				b.Fatal(err)
			}
			params := clockbench.Params{Rounds: 100, Bytes: 64, Gap: 0.05}
			if err := e.Run(func(m *measure.M) { clockbench.Body(m, params) }); err != nil {
				b.Fatal(err)
			}
			traces, err := e.Traces()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var msgs int
			for i := 0; i < b.N; i++ {
				res, err := replay.Analyze(traces, replay.Config{Scheme: vclock.Hierarchical})
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Messages
			}
			b.ReportMetric(float64(msgs), "messages")
			b.ReportMetric(float64(msgs)/float64(n), "messages/rank")
		})
	}
}
