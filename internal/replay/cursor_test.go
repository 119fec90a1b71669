package replay

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"metascope/internal/trace"
)

// logEvents returns n distinguishable events in time order.
func logEvents(n int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{Kind: trace.KindSend, Time: float64(i), Peer: int32(i % 5), Bytes: int64(i)}
	}
	return evs
}

// publishRun writes the next k events into room the log reserved for up
// to max and publishes them, the way Live.FeedChunk does with the chunk
// decoder in between.
func publishRun(t *testing.T, lg *rankLog, want []trace.Event, at, max, k int) {
	t.Helper()
	room := lg.reserve(max)
	if len(room) < k {
		t.Fatalf("at event %d: reserved room for %d events, need %d", at, len(room), k)
	}
	copy(room, want[at:at+k])
	if err := lg.publish(room[:k]); err != nil {
		t.Fatalf("at event %d: publish: %v", at, err)
	}
}

// TestRankLogBlockHandoff: a live rank log fed whole blocks (a v2
// stream: full blocks, then a short last one) or a few events at a time
// into its tail block (a v1 stream) shows the sweep the same event
// sequence, never moves an event it has published, and gives every
// block back once the sweep has passed it.
func TestRankLogBlockHandoff(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, stride := range []int{1, 7, 4095, 4096, 5000} {
		n := 2*stride + stride/2 + 1 // two full blocks and a short one
		if stride == 1 {
			n = 40
		}
		want := logEvents(n)
		for _, mode := range []string{"whole-blocks", "tail-extended-in-place"} {
			t.Run(fmt.Sprintf("%s/stride=%d", mode, stride), func(t *testing.T) {
				lg := newRankLog()
				lg.stride = stride
				sc := newSweepCursor(lg)
				seen := make([]*trace.Event, 0, n)
				sweep := func() {
					// Everything published is visible, nothing more.
					lg.mu.Lock()
					visible := lg.n
					lg.mu.Unlock()
					for i := len(seen); i < visible; i++ {
						if !sc.at(i) {
							t.Fatalf("event %d published but not visible", i)
						}
						seen = append(seen, sc.ev(i))
					}
				}
				for at := 0; at < n; {
					owed := n - at
					k := min(stride, owed) // v2: the block's own event count
					max := k
					if mode == "tail-extended-in-place" {
						// v1: the stream owes `owed` events and this chunk
						// holds a few of them.
						max = owed
						k = 1 + rng.Intn(min(owed, stride/3+1))
						k = min(k, stride-at%stride)
					}
					publishRun(t, lg, want, at, max, k)
					at += k
					sweep()
				}
				lg.close()
				if sc.at(n) {
					t.Fatal("closed log admits an event past its end")
				}
				if first, last, ok := lg.bounds(); !ok || first != 0 || last != float64(n-1) {
					t.Fatalf("bounds = (%g, %g, %v), want (0, %d, true)", first, last, ok, n-1)
				}
				if res, peak := lg.residentEvents(); res != n || peak != n {
					t.Fatalf("resident %d, peak %d before any release, want %d", res, peak, n)
				}
				for k, blk := range lg.blocks {
					if k < len(lg.blocks)-1 && len(blk) != stride {
						t.Fatalf("block %d holds %d events, want the stride %d", k, len(blk), stride)
					}
				}
				// Published events never moved and read back identically
				// through a second cursor.
				sc2 := newSweepCursor(lg)
				for i := range want {
					if *seen[i] != want[i] {
						t.Fatalf("event %d changed after publication: %+v", i, *seen[i])
					}
					if got := sc2.ev(i); got != seen[i] {
						t.Fatalf("event %d moved: first seen at %p, now at %p", i, seen[i], got)
					}
					sc2.release(i)
				}
				lg.releaseBefore(len(lg.blocks) * stride)
				if res, _ := lg.residentEvents(); res != 0 {
					t.Fatalf("%d events resident after the sweep released everything", res)
				}
			})
		}
	}
}

// TestRankLogRejectsShortInnerBlock: fixed-stride indexing cannot place
// a block that follows a short one; the live log refuses it with the
// lazy log's words instead of mis-indexing the sweep.
func TestRankLogRejectsShortInnerBlock(t *testing.T) {
	want := logEvents(20)
	lg := newRankLog()
	lg.stride = 8
	publishRun(t, lg, want, 0, 8, 8)
	publishRun(t, lg, want, 8, 5, 5) // a whole v2 block of five: no room left in it
	room := lg.reserve(7)
	copy(room, want[13:])
	err := lg.publish(room)
	if err == nil || !strings.Contains(err.Error(), "block 1 holds 5 events, want 8") {
		t.Fatalf("err = %v, want the short-block error", err)
	}
	if res, _ := lg.residentEvents(); res != 13 {
		t.Fatalf("rejected block changed residency to %d", res)
	}
}
