package replay

import (
	"math"
	"math/rand"
	"testing"

	"metascope/internal/obs"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// scanCollective is the per-participant scan the gather summary stands
// in for: the largest enter, starting from the participant's own, and
// the smallest enter of a member other than root, each with the member
// that holds it, found by walking every enter in member order.
func scanCollective(enters []float64, commRank int, root int32) (maxE float64, maxI int, minE float64, minI int, haveOther bool) {
	maxE, maxI = enters[commRank], commRank
	for i, e := range enters {
		if e > maxE {
			maxE, maxI = e, i
		}
		if int32(i) != root && (!haveOther || e < minE) {
			minE, minI, haveOther = e, i, true
		}
	}
	return
}

// TestGatherSummaryMatchesScan: for every participant and every root —
// rootless, in range — the summary the completing member computes once
// gives what each participant's scan of all enters gave, bit for bit,
// on ties and NaN enters too.
func TestGatherSummaryMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := []float64{0, 1, 1, 2, 3, 3, -1, math.NaN(), math.Inf(1), math.Inf(-1)}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := range 4000 {
		n := 1 + rng.Intn(6)
		g := &collGather{enters: make([]float64, n)}
		for i := range g.enters {
			g.enters[i] = pool[rng.Intn(len(pool))]
			if trial%3 == 0 {
				g.enters[i] = pool[rng.Intn(5)] // ties, no NaN
			}
		}
		g.summarize()
		for root := int32(-1); root < int32(n); root++ {
			for me := range n {
				wantMax, wantMaxI, wantMin, wantMinI, wantOther := scanCollective(g.enters, me, root)
				last := g.lastFrom(me)
				other, ok := g.minOther(root)
				if !same(g.enters[last], wantMax) || last != wantMaxI || ok != wantOther ||
					ok && (!same(g.enters[other], wantMin) || other != wantMinI) {
					t.Fatalf("enters %v, member %d, root %d: summary gives max at %d, min at %d (%v); scan (%g, %d) (%g, %d, %v)",
						g.enters, me, root, last, other, ok, wantMax, wantMaxI, wantMin, wantMinI, wantOther)
				}
			}
		}
	}
}

// collWorld is a four-rank world over two metahosts whose ranks run
// rounds collective rounds: a barrier and a reduce rooted at rank 1 on
// the world, an allreduce and a broadcast rooted at its first member on
// communicator 1 = {0, 2}, each entered at a time that varies by rank
// and round, so every instance scores waits.
func collWorld(rounds int) []*trace.Trace {
	world := []int32{0, 1, 2, 3}
	sub := []int32{0, 2}
	comms := []trace.CommDef{{ID: 0, Ranks: world}, {ID: 1, Ranks: sub}}
	out := make([]*trace.Trace, len(world))
	for r := range out {
		evs := []trace.Event{enter(0, 0)}
		at := 0.0
		coll := func(region trace.RegionID, comm int32, op trace.CollOp, root int32) {
			at += 1e-3 * float64(1+(r+int(region))%3)
			evs = append(evs, enter(at, region))
			at += 1e-3
			evs = append(evs, trace.Event{Kind: trace.KindCollExit, Time: at, Comm: comm, Coll: op, Root: root, Bytes: 8}, exit(at, region))
		}
		for range rounds {
			coll(3, 0, trace.CollBarrier, -1)
			coll(5, 0, trace.CollReduce, 1)
			if r%2 == 0 {
				coll(4, 1, trace.CollAllreduce, -1)
				coll(6, 1, trace.CollBcast, 0)
			}
		}
		evs = append(evs, exit(at+1e-3, 0))
		t := synth(r, r/2, evs, comms...)
		t.Loc.Node = r
		out[r] = t
	}
	return out
}

// TestCollectiveAllocsFlatInInstances: a collective instance allocates
// nothing of its own. Each communicator's two gathers serve every
// instance, so a world that runs four times the collective instances —
// on the world and on a sub-communicator, rooted and not — allocates the
// same object count up to what its longer ledger pages and phase list
// take. One gather made per instance adds two objects for each.
func TestCollectiveAllocsFlatInInstances(t *testing.T) {
	const rounds = 25 // 100 collective instances; 4× the rounds run 400
	allocs := func(rounds int) float64 {
		traces := collWorld(rounds)
		return testing.AllocsPerRun(3, func() {
			if _, err := Analyze(traces, Config{Scheme: vclock.FlatSingle, Title: "coll", Obs: obs.NewRecorder()}); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(rounds), allocs(4*rounds)
	t.Logf("%d rounds: %.0f allocations; %d rounds: %.0f", rounds, few, 4*rounds, many)
	if many-few > 64 {
		t.Errorf("4x the collective instances allocate %.0f objects more (%.0f → %.0f): collectives allocate per instance", many-few, few, many)
	}
}
