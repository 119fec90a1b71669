package phase

import (
	"runtime"
	"testing"
)

// uniformSeg is a segmentation of n one-second phases with distinct
// signatures.
func uniformSeg(n int) *Segmentation {
	s := &Segmentation{Period: 1}
	for i := range n {
		s.Bounds = append(s.Bounds, float64(i))
		s.Sigs = append(s.Sigs, uint64(i)*0x9e3779b97f4a7c15)
		s.Kinds = append(s.Kinds, uint64(i))
		s.Counts = append(s.Counts, 4)
	}
	s.Bounds = append(s.Bounds, float64(n))
	return s
}

// TestSnapshotAllocsFlatInPhases: every phase's rows share one backing
// array and its signatures one string, so what Snapshot allocates does
// not grow with the phase count — here, from 200 to 800 phases, each
// with three cells.
func TestSnapshotAllocsFlatInPhases(t *testing.T) {
	objects := func(n int) uint64 {
		best := ^uint64(0)
		for range 3 {
			acc := NewAccumulator(uniformSeg(n), 4)
			for i := range n {
				acc.Add("mpi.late_sender", 0, float64(i)+0.5, 1)
				acc.Add("mpi.late_sender.grid", 1, float64(i)+0.5, 2)
				acc.Add("mpi.wait_barrier", 0, float64(i)+0.5, 3)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p := acc.Snapshot("t")
			runtime.ReadMemStats(&after)
			if len(p.Phases) != n || len(p.Phases[n-1].Rows) != 3 || p.Phases[n-1].Sig != sigString(uint64(n-1)*0x9e3779b97f4a7c15) {
				t.Fatalf("%d phases: snapshot %d phases, last %+v", n, len(p.Phases), p.Phases[n-1])
			}
			if n := after.Mallocs - before.Mallocs; n < best {
				best = n
			}
		}
		return best
	}
	if small, large := objects(200), objects(800); large > small {
		t.Errorf("Snapshot allocated %d objects over 200 phases and %d over 800", small, large)
	}
}
