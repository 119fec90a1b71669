package pattern

import (
	"strings"
	"testing"
	"testing/quick"
)

// The golden tests below encode the timing diagrams of Figure 4: for
// the Late Sender pattern a receive posted at 10 blocks until a send
// entered at 14 completes at 15; for Wait at N×N each participant's
// waiting time is the gap to the latest entrant.

func TestLateSenderFigure4a(t *testing.T) {
	// Process B posts MPI_Recv at t=10; process A enters MPI_Send at
	// t=14; the receive completes at t=15. Waiting time: 4.
	if got := LateSenderWait(14, 10, 15); got != 4 {
		t.Errorf("LateSenderWait = %g, want 4", got)
	}
	// Send already under way when the receive is posted: no waiting.
	if got := LateSenderWait(9, 10, 15); got != 0 {
		t.Errorf("early send yields %g, want 0", got)
	}
	// Waiting can never exceed the receive duration.
	if got := LateSenderWait(99, 10, 15); got != 5 {
		t.Errorf("clamped wait = %g, want 5", got)
	}
}

func TestLateReceiverMirrorsLateSender(t *testing.T) {
	// Rendezvous send entered at 10 blocks until the receive posted at
	// 13; the send completes at 14. Waiting time: 3.
	if got := LateReceiverWait(13, 10, 14); got != 3 {
		t.Errorf("LateReceiverWait = %g, want 3", got)
	}
	if got := LateReceiverWait(9, 10, 14); got != 0 {
		t.Errorf("early receive yields %g", got)
	}
	if got := LateReceiverWait(99, 10, 14); got != 4 {
		t.Errorf("clamped wait = %g, want 4", got)
	}
}

func TestWaitAtNxNFigure4b(t *testing.T) {
	// Enters at 10, 12, 16; exits at 17, 17, 17. The inherent
	// synchronization means waiting = 16 − enter for the early ones.
	enters := []float64{10, 12, 16}
	maxEnter := 16.0
	wants := []float64{6, 4, 0}
	for i, e := range enters {
		if got := WaitAtNxNWait(maxEnter, e, 17); got != wants[i] {
			t.Errorf("participant %d: wait %g, want %g", i, got, wants[i])
		}
	}
	// Degenerate: operation shorter than the nominal wait.
	if got := WaitAtNxNWait(16, 10, 12); got != 2 {
		t.Errorf("clamped N x N wait = %g, want 2", got)
	}
}

func TestWaitAtBarrierMatchesNxN(t *testing.T) {
	if WaitAtBarrierWait(16, 10, 17) != WaitAtNxNWait(16, 10, 17) {
		t.Errorf("barrier variant diverges from N x N")
	}
}

func TestBarrierCompletion(t *testing.T) {
	// Last entrant at 16; a process staying inside until 18 spends 2
	// in completion.
	if got := BarrierCompletionWait(16, 10, 18); got != 2 {
		t.Errorf("completion = %g, want 2", got)
	}
	if got := BarrierCompletionWait(16, 10, 15); got != 0 {
		t.Errorf("exit before last entrant must yield 0, got %g", got)
	}
	// Cannot exceed own duration.
	if got := BarrierCompletionWait(16, 15.5, 18); got != 2 {
		t.Errorf("completion %g", got)
	}
}

func TestEarlyReduce(t *testing.T) {
	// Root enters at 5; the earliest non-root at 9: the root idles 4.
	if got := EarlyReduceWait(9, 5, 12); got != 4 {
		t.Errorf("EarlyReduceWait = %g, want 4", got)
	}
	if got := EarlyReduceWait(4, 5, 12); got != 0 {
		t.Errorf("late root yields %g", got)
	}
}

func TestLateBroadcast(t *testing.T) {
	// Non-root enters at 3; root at 7: waits 4.
	if got := LateBroadcastWait(7, 3, 9); got != 4 {
		t.Errorf("LateBroadcastWait = %g, want 4", got)
	}
	if got := LateBroadcastWait(2, 3, 9); got != 0 {
		t.Errorf("early root yields %g", got)
	}
}

func TestWrongOrderCandidate(t *testing.T) {
	// Receiver waited (ls>0) for a message sent at 10 while another
	// message sent at 8 (before the recv posted at 9) is consumed later.
	if !WrongOrderCandidate(1.0, 10, 8, 9) {
		t.Errorf("wrong order not detected")
	}
	// The other message was sent after the matched one: fine.
	if WrongOrderCandidate(1.0, 10, 11, 9) {
		t.Errorf("false positive: later other send")
	}
	// The other message was sent after the receive was posted: the
	// receiver could not have consumed it first without waiting anyway.
	if WrongOrderCandidate(1.0, 10, 9.5, 9) {
		t.Errorf("false positive: other send after recv post")
	}
	// No waiting, no pattern.
	if WrongOrderCandidate(0, 10, 8, 9) {
		t.Errorf("false positive without waiting")
	}
}

// Property: all waits are non-negative and bounded by the operation
// duration, for arbitrary inputs.
func TestWaitsBoundedProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		// Build enter/done with done ≥ enter.
		enter, done := b, b+abs(c)
		dur := done - enter
		for _, w := range []float64{
			LateSenderWait(a, enter, done),
			LateReceiverWait(a, enter, done),
			WaitAtNxNWait(a, enter, done),
			BarrierCompletionWait(a, enter, done),
			EarlyReduceWait(a, enter, done),
			LateBroadcastWait(a, enter, done),
		} {
			if w < 0 || w > dur+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	if x != x { // NaN
		return 0
	}
	return x
}

func TestPatternStringsAndGridding(t *testing.T) {
	if LateSender.String() != "Late Sender" || GridWaitNxN.String() != "Grid Wait at N x N" {
		t.Errorf("pattern names wrong")
	}
	if ID(99).String() != "Unknown Pattern" {
		t.Errorf("unknown id")
	}
	gridded := map[ID]ID{
		LateSender:    GridLateSender,
		LateReceiver:  GridLateReceiver,
		EarlyReduce:   GridEarlyReduce,
		LateBroadcast: GridLateBroadcast,
		WaitNxN:       GridWaitNxN,
		WaitBarrier:   GridWaitBarrier,
	}
	for base, grid := range gridded {
		if base.Gridded() != grid {
			t.Errorf("%v.Gridded() = %v", base, base.Gridded())
		}
		if grid.Gridded() != grid {
			t.Errorf("%v.Gridded() = %v, want the grid pattern itself", grid, grid.Gridded())
		}
	}
	// Patterns without grid versions map to themselves.
	if WrongOrder.Gridded() != WrongOrder || BarrierCompletion.Gridded() != BarrierCompletion ||
		NxNCompletion.Gridded() != NxNCompletion {
		t.Errorf("non-grid patterns must be fixed points of Gridded")
	}
}

func TestEveryPatternHasMetricKey(t *testing.T) {
	keys := map[string]bool{}
	for p := ID(0); p < NumPatterns; p++ {
		k := p.MetricKey()
		if k == "" {
			t.Errorf("pattern %v has no metric key", p)
		}
		if keys[k] {
			t.Errorf("duplicate metric key %q", k)
		}
		keys[k] = true
	}
	if ID(99).MetricKey() != "" {
		t.Errorf("invalid pattern got a key")
	}
}

func TestMetricTreeStructure(t *testing.T) {
	tree := MetricTree()
	if len(tree) != 4 {
		t.Fatalf("want 4 roots (Time, Visits, Bytes Sent, Bytes Received), got %d", len(tree))
	}
	// Collect all keys and check that every pattern key is reachable
	// and grid patterns hang beneath their base pattern.
	parents := map[string]string{}
	var walk func(d MetricDef, parent string)
	walk = func(d MetricDef, parent string) {
		if d.Key == "" || d.Name == "" {
			t.Errorf("metric with empty key/name: %+v", d)
		}
		parents[d.Key] = parent
		for _, ch := range d.Children {
			walk(ch, d.Key)
		}
	}
	for _, root := range tree {
		walk(root, "")
	}
	for p := ID(0); p < NumPatterns; p++ {
		if _, ok := parents[p.MetricKey()]; !ok {
			t.Errorf("pattern %v missing from metric tree", p)
		}
	}
	// The paper's structural requirement: grid hierarchy mirrors the
	// non-grid hierarchy, i.e. each grid metric is a child of its base.
	for base, grid := range map[ID]ID{
		LateSender: GridLateSender, LateReceiver: GridLateReceiver,
		EarlyReduce: GridEarlyReduce, LateBroadcast: GridLateBroadcast,
		WaitNxN: GridWaitNxN, WaitBarrier: GridWaitBarrier,
	} {
		if parents[grid.MetricKey()] != base.MetricKey() {
			t.Errorf("%v is not a child of %v (parent %q)", grid, base, parents[grid.MetricKey()])
		}
	}
	// Wrong Order specializes Late Sender.
	if parents[KeyWrongOrder] != KeyLateSender {
		t.Errorf("Messages in Wrong Order not beneath Late Sender")
	}
	// Time hierarchy spine.
	for child, parent := range map[string]string{
		KeyExecution: KeyTime, KeyMPI: KeyExecution,
		KeyComm: KeyMPI, KeyP2P: KeyComm, KeyColl: KeyComm, KeySync: KeyMPI,
	} {
		if parents[child] != parent {
			t.Errorf("metric %q has parent %q, want %q", child, parents[child], parent)
		}
	}
	// Units: time metrics in seconds, visits a count, bytes in bytes.
	var checkUnits func(d MetricDef)
	checkUnits = func(d MetricDef) {
		want := "sec"
		switch d.Key {
		case KeyVisits:
			want = "occ"
		case KeyBytesSent, KeyBytesRecv:
			want = "bytes"
		}
		if d.Unit != want {
			t.Errorf("metric %q unit %q", d.Key, d.Unit)
		}
		for _, ch := range d.Children {
			checkUnits(ch)
		}
	}
	for _, root := range tree {
		checkUnits(root)
	}
}

func TestGridKeysContainGridSuffix(t *testing.T) {
	for p := ID(0); p < NumPatterns; p++ {
		grid := p.Gridded()
		if grid == p {
			continue // a grid pattern, or one without a grid version
		}
		if !strings.HasSuffix(grid.MetricKey(), ".grid") || strings.HasSuffix(p.MetricKey(), ".grid") {
			t.Errorf("%v (key %q) and its grid version %v (key %q): only the grid key may end in .grid",
				p, p.MetricKey(), grid, grid.MetricKey())
		}
	}
}
