package replay

import (
	"math"
	"math/rand"
	"testing"
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
