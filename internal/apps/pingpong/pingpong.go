// Package pingpong measures one-way message latencies between process
// pairs of a metacomputer — the micro-benchmark behind Table 1, which
// reports the mean and standard deviation of the internal and external
// network latencies of the VIOLA testbed.
package pingpong

import (
	"fmt"

	"metascope/internal/mmpi"
	"metascope/internal/sim"
	"metascope/internal/stats"
	"metascope/internal/topology"
)

// Pair names two world ranks whose connecting link is measured.
type Pair struct {
	Label string
	A, B  int
}

// Result is the latency measurement for one pair.
type Result struct {
	Label   string
	Class   topology.LinkClass
	Samples int
	Mean    float64 // seconds, one-way (RTT/2)
	StdDev  float64
}

// tag base for the benchmark's messages; each pair uses its own tag so
// concurrent pairs cannot interfere.
const tagBase = 7000

// Measure runs `rounds` ping-pong exchanges of `bytes`-sized messages
// for every pair concurrently and returns one-way latency statistics
// (RTT/2, the standard way latency tables such as Table 1 are
// produced). Ranks not participating in any pair exit immediately.
func Measure(eng *sim.Engine, place *topology.Placement, pairs []Pair, rounds, bytes int) ([]Result, error) {
	if rounds < 2 {
		return nil, fmt.Errorf("pingpong: need at least 2 rounds, got %d", rounds)
	}
	w := mmpi.NewWorld(eng, place)
	samples := make([][]float64, len(pairs))
	// A rank may participate in several pairs (rank 0 of FZJ appears in
	// both the external and the internal measurement of Table 1), so
	// every process walks the pair list in the same global order and
	// plays its role where it is involved. Distinct tags per pair keep
	// unrelated exchanges apart.
	err := w.Run(func(p *mmpi.Proc) {
		c := p.World()
		for pi, pair := range pairs {
			tag := tagBase + pi
			switch p.Rank() {
			case pair.A:
				for r := 0; r < rounds; r++ {
					t0 := p.Now()
					c.Send(pair.B, tag, bytes)
					c.Recv(pair.B, tag)
					samples[pi] = append(samples[pi], (p.Now()-t0)/2)
				}
			case pair.B:
				for r := 0; r < rounds; r++ {
					c.Recv(pair.A, tag)
					c.Send(pair.A, tag, bytes)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(pairs))
	for i, p := range pairs {
		// Drop the first (warm-up) sample, as latency benchmarks do.
		s := samples[i][1:]
		out[i] = Result{
			Label:   p.Label,
			Class:   topology.Classify(place.Loc(p.A), place.Loc(p.B)),
			Samples: len(s),
			Mean:    stats.Mean(s),
			StdDev:  stats.StdDev(s),
		}
	}
	return out, nil
}

// Table1Pairs builds the three measurements of Table 1 on the VIOLA
// placement of Experiment 1: the external FZJ–FH-BRS link, the FZJ
// (XD1) internal network, and the FH-BRS internal network.
func Table1Pairs(place *topology.Placement) ([]Pair, error) {
	mc := place.Metacomputer()
	byName := func(name string) int {
		for _, m := range mc.Metahosts {
			if m.Name == name {
				return m.ID
			}
		}
		return -1
	}
	fzj, fhbrs := byName("FZJ"), byName("FH-BRS")
	if fzj < 0 || fhbrs < 0 {
		return nil, fmt.Errorf("pingpong: placement is not on the VIOLA topology")
	}
	firstTwoNodes := func(mh int) (int, int, error) {
		ranks := place.RanksOn(mh)
		if len(ranks) == 0 {
			return 0, 0, fmt.Errorf("pingpong: no ranks on metahost %d", mh)
		}
		first := ranks[0]
		for _, r := range ranks[1:] {
			if place.Loc(r).Node != place.Loc(first).Node {
				return first, r, nil
			}
		}
		return 0, 0, fmt.Errorf("pingpong: metahost %d has ranks on a single node only", mh)
	}
	fzjA, fzjB, err := firstTwoNodes(fzj)
	if err != nil {
		return nil, err
	}
	brsA, brsB, err := firstTwoNodes(fhbrs)
	if err != nil {
		return nil, err
	}
	return []Pair{
		{Label: "FZJ - FH-BRS (external network)", A: fzjA, B: brsA},
		{Label: "FZJ (internal network)", A: fzjA, B: fzjB},
		{Label: "FH-BRS (internal network)", A: brsA, B: brsB},
	}, nil
}
