// Package clockbench implements the synchronization-validation
// workload of §5: a benchmark "specifically designed to exchange a
// large number of short messages between varying pairs of processes",
// producing send/receive event pairs that are chronologically close —
// the hardest case for time-stamp synchronization and the input of
// Table 2's clock-condition-violation counts.
package clockbench

import (
	"metascope/internal/measure"
)

// Params configures the benchmark.
type Params struct {
	// Rounds is the number of exchange rounds; each round every
	// process sends one message and receives one message.
	Rounds int
	// Bytes is the (small) message size.
	Bytes int
	// Gap is the mean per-round compute pause in seconds; it stretches
	// the run so clock drift accumulates (the effect the FlatSingle
	// scheme cannot compensate). Individual pauses are jittered ±50 %.
	Gap float64
}

// Default returns the parameters used for the Table 2 reproduction:
// 1200 rounds of 64-byte messages (38400 messages on 32 processes)
// spread over roughly two minutes of virtual time — long enough for
// clock drift to overwhelm the single-offset scheme.
func Default() Params {
	return Params{Rounds: 1200, Bytes: 64, Gap: 0.1}
}

// Quick returns a scaled-down variant for fast tests.
func Quick() Params {
	return Params{Rounds: 150, Bytes: 64, Gap: 0.1}
}

const tag = 4100

// Body is the per-process benchmark, run under measurement. In round
// r every process i exchanges with partners at distance s = (r mod
// n−1) + 1 around the ring: it sends to (i+s) mod n and receives from
// (i−s) mod n, so over n−1 rounds every ordered process pair
// communicates — "varying pairs" in the paper's words.
func Body(m *measure.M, p Params) {
	c := m.World()
	n := c.Size()
	rank := c.Rank()
	eng := m.Proc().Engine()

	m.Enter("main")
	m.Enter("exchange")
	for r := 0; r < p.Rounds; r++ {
		s := 1
		if n > 1 {
			s = r%(n-1) + 1
		}
		dst := (rank + s) % n
		src := (rank - s + n) % n
		// Jittered think time desynchronizes the processes slightly, so
		// matching sends and receives stay chronologically close but
		// not artificially simultaneous.
		if p.Gap > 0 {
			m.Elapse(eng.Uniform("clockbench:gap", 0.5*p.Gap, 1.5*p.Gap))
		}
		c.Sendrecv(dst, tag, p.Bytes, src, tag)
	}
	m.Exit()
	m.Exit()
}
