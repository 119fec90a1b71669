//go:build !race

package mmpi

import "testing"

// TestBlockingWaitsAllocateNoDiagnostics: a process blocked in Recv or
// Barrier hands the engine a wait reason that is rendered only for a
// deadlock report, so a cycle allocates exactly what the message or the
// collective itself needs, and formatting a reason would show as one
// object more. The measuring rank always waits first, so each window
// holds one whole cycle. The race detector instruments allocation, so
// the test is built without it; script/check.sh runs it by name.
func TestBlockingWaitsAllocateNoDiagnostics(t *testing.T) {
	const runs = 100
	for _, tc := range []struct {
		name string
		n    int
		body func(p *Proc, measure func(f func()))
		want float64
	}{
		// The receive's Request and recvReq; the send's Request and
		// message. The engine queues the message for its delivery and each
		// Request for its completion, so no event allocates. The posted
		// queue keeps its capacity when the receive is matched.
		{"recv", 2, func(p *Proc, measure func(func())) {
			c := p.World()
			if p.Rank() == 0 {
				for range runs + 2 { // one cycle to warm up, AllocsPerRun's own, then runs
					p.Elapse(1) // the receive is posted first and blocks
					c.Send(1, 3, 8)
				}
				return
			}
			c.Recv(0, 3)
			measure(func() { c.Recv(0, 3) })
		}, 4},
		// The same objects when the message arrives before its receive is
		// posted: it waits in the pending queue, which keeps its capacity.
		{"recv-after-arrival", 2, func(p *Proc, measure func(func())) {
			c := p.World()
			if p.Rank() == 0 {
				for range runs + 2 {
					c.Send(1, 3, 8)
					p.Elapse(1)
				}
				return
			}
			p.Elapse(0.5) // half a cycle behind the sender
			c.Recv(0, 3)
			measure(func() {
				p.Elapse(1)
				c.Recv(0, 3)
			})
		}, 4},
		// The collective's state and its four per-member slices; the
		// dissemination's entry copy and one row per round (two at 4).
		{"barrier", 4, func(p *Proc, measure func(func())) {
			c := p.World()
			if p.Rank() != 0 {
				for range runs + 2 {
					p.Elapse(1) // rank 0 enters first and blocks
					c.Barrier()
				}
				return
			}
			c.Barrier()
			measure(c.Barrier)
		}, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, _ := newTestWorld(1, tc.n)
			allocs := -1.0
			err := w.Run(func(p *Proc) {
				tc.body(p, func(f func()) { allocs = testing.AllocsPerRun(runs, f) })
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs != tc.want {
				t.Fatalf("a blocking %s cycle allocates %v objects, want %v", tc.name, allocs, tc.want)
			}
		})
	}
}
