//go:build !race

package phase

import (
	"math/rand"
	"testing"
)

// TestDetectAllocsIndependentOfCandidates: what Detect allocates depends
// on the ops, ranks and atoms it is given, not on how many candidate
// partitions it tries before one is accepted. Two runs of 16 ranks × 400
// ops on the same 400 atoms: in the first every op is the same region,
// so the finest partition is accepted; in the second each pair of atoms
// holds the same two regions in a drawn order, so only the 201st
// threshold — the one that merges every pair — yields a periodic
// partition. The bytes are process-wide, so the test measures where no
// other goroutine allocates: built without the race detector, and run
// by name in script/check.sh.
func TestDetectAllocsIndependentOfCandidates(t *testing.T) {
	const ranks, pairs = 16, 200
	rng := rand.New(rand.NewSource(7))
	inner := rng.Perm(pairs) // distinct silences inside the pairs, the longest one mid-run
	for i, g := range inner {
		if g == pairs-1 {
			inner[i], inner[pairs/2] = inner[pairs/2], inner[i]
		}
	}
	firstRows, lateRows := make([][]Op, ranks), make([][]Op, ranks)
	now := 0.0
	for i := 0; i < pairs; i++ {
		a, b := sigA, sigB
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		second := now + 2 + float64(inner[i])/pairs
		for r := 0; r < ranks; r++ {
			firstRows[r] = append(firstRows[r], op(now, now+1, sigA), op(second, second+1, sigA))
			lateRows[r] = append(lateRows[r], op(now, now+1, a), op(second, second+1, b))
		}
		now = second + 10
	}
	first, late := onePage(firstRows), onePage(lateRows)
	if s := Detect(first); s.Phases() != 2*pairs || s.Period != 1 {
		t.Fatalf("uniform run: %d phases, period %d; want the finest partition, %d phases", s.Phases(), s.Period, 2*pairs)
	}
	if s := Detect(late); s.Phases() != pairs || s.Period != 1 {
		t.Fatalf("paired run: %d phases, period %d; want the pairs merged, %d phases", s.Phases(), s.Period, pairs)
	}
	one := allocatedBytes(func() { Detect(first) })
	many := allocatedBytes(func() { Detect(late) })
	t.Logf("accepted at threshold 1: %d bytes; at threshold %d: %d bytes", one, pairs+1, many)
	if ratio := float64(many) / float64(one); ratio > 1.05 || ratio < 1/1.05 {
		t.Errorf("Detect allocated %d bytes accepting its first candidate and %d accepting its %dth: the search is not allocation-flat",
			one, many, pairs+1)
	}
}
