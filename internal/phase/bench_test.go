package phase

import (
	"math/rand"
	"testing"
)

// raggedLogs is the shape of a halo exchange: ranks × phases, each phase
// a send and a receive back to back on every rank, and every fourth rank
// a border rank that joins only every other phase. Ranks start their
// phases slightly apart, so each phase's atom is the union of all ranks.
func raggedLogs(ranks, phases int) []Log {
	rows := make([][]Op, ranks)
	for r := range rows {
		for i := 0; i < phases; i++ {
			if r%4 == 0 && i%2 == 1 {
				continue
			}
			t0 := float64(i)*4 + float64(r%7)/16
			rows[r] = append(rows[r], op(t0, t0+0.5, sigA), op(t0+0.5, t0+1, sigB))
		}
	}
	return onePage(rows)
}

// silencedLogs is the shape of a longer iterative run: ranks × phases of
// three steps, where one phase in eight, drawn, has a silence of its own
// length inside it on every rank. Each such silence is a threshold the
// search tries, and refutes, before the one between phases.
func silencedLogs(ranks, phases int) []Log {
	rng := rand.New(rand.NewSource(5))
	rows := make([][]Op, ranks)
	now := 0.0
	for i := 0; i < phases; i++ {
		hole := 0.0
		if rng.Intn(8) == 0 {
			hole = 0.1 + float64(rng.Intn(1000))/1000
		}
		for r := range rows {
			t0 := now + float64(r%3)/64
			rows[r] = append(rows[r], op(t0, t0+1, sigA), op(t0+1, t0+2, sigB),
				op(t0+2+hole, t0+3+hole, sigC))
		}
		now += 8
	}
	return onePage(rows)
}

// BenchmarkDetect runs the phase search on two synthetic op-log shapes:
// 192 ragged ranks × 256 phases, accepted at the first threshold, and 32
// ranks × 1000 phases whose sporadic in-phase silences make it refute
// about a hundred thresholds first.
func BenchmarkDetect(b *testing.B) {
	for _, c := range []struct {
		name   string
		logs   []Log
		phases int
	}{
		{"ragged-192x256", raggedLogs(192, 256), 256},
		{"silenced-32x1000", silencedLogs(32, 1000), 1000},
	} {
		b.Run(c.name, func(b *testing.B) {
			if s := Detect(c.logs); s.Phases() != c.phases {
				b.Fatalf("%d phases, want %d", s.Phases(), c.phases)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Detect(c.logs)
			}
		})
	}
}
