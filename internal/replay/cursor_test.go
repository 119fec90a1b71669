package replay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"metascope/internal/trace"
)

// logEvents returns n (even) distinguishable events in time order that
// validate as a trace: main entered, a run of leaf-region visits, main
// exited.
func logEvents(n int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{Kind: trace.KindEnter + trace.EventKind(i%2), Time: float64(i), Region: trace.RegionID(1 + (i-1)/2%7)}
	}
	evs[0] = enter(0, 0)
	evs[n-1] = exit(float64(n-1), 0)
	return evs
}

// v2Image renders events (Enter/Exit only, as logEvents makes them) as a
// v2 image of rank 0 that declares block size bs and holds blocks of the
// given event counts. The package's encoder cannot do that: it writes
// 4096-event blocks, all full but the last.
func v2Image(t *testing.T, events []trace.Event, bs int, counts ...int) []byte {
	t.Helper()
	var head bytes.Buffer
	if err := synth(0, 0, nil).EncodeV2(&head); err != nil {
		t.Fatal(err)
	}
	// An empty image ends with its event count (0, one byte) and the
	// encoder's block size (4096, two bytes).
	img := head.Bytes()[:head.Len()-3]
	img = binary.AppendUvarint(img, uint64(len(events)))
	img = binary.AppendUvarint(img, uint64(bs))
	zigzag := func(b []byte, d int64) []byte { return binary.AppendUvarint(b, uint64((d<<1)^(d>>63))) }
	for _, n := range counts {
		blk := events[:n]
		events = events[n:]
		var thi, reg []byte
		var tprev, rprev int64
		for _, ev := range blk {
			hi := int64(math.Float64bits(ev.Time) >> 32)
			thi, tprev = zigzag(thi, hi-tprev), hi
			reg, rprev = zigzag(reg, int64(ev.Region)-rprev), int64(ev.Region)
		}
		p := binary.AppendUvarint(nil, uint64(n))
		for _, col := range [8][]byte{thi, reg} { // the other six columns stay empty
			p = binary.AppendUvarint(p, uint64(len(col)))
		}
		for _, ev := range blk {
			p = append(p, byte(ev.Kind))
		}
		for _, ev := range blk {
			p = binary.LittleEndian.AppendUint32(p, uint32(math.Float64bits(ev.Time)))
		}
		p = append(append(p, thi...), reg...)
		img = append(binary.AppendUvarint(img, uint64(len(p))), p...)
	}
	return img
}

// blockCounts splits n events into full blocks of bs and a short last.
func blockCounts(n, bs int) []int {
	var counts []int
	for ; n > 0; n -= min(n, bs) {
		counts = append(counts, min(n, bs))
	}
	return counts
}

// pulledLog opens img header-only and wraps it in a pulled rank log.
func pulledLog(t *testing.T, img []byte) *rankLog {
	t.Helper()
	r, err := trace.NewBlockReader(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	return newPulledRankLog(r)
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

// TestRankLogBlockHandoff drives all three feeders over the same events:
// pushed whole blocks (a v2 stream: full blocks, then a short last one),
// pushed a few events at a time into the tail block (a v1 stream),
// preloaded, and pulled out of a v2 image. Whoever feeds, the sweep sees
// the same event sequence and time bounds, no published event ever
// moves, every block comes back once the sweep has passed it, and — all
// but the preloaded log, which is one block — at most one block beyond
// the sweep's own is ever resident.
func TestRankLogBlockHandoff(t *testing.T) {
	for _, stride := range []int{1, 7, 4095, 4096, 5000} {
		n := 2*stride + stride/2 + 1 // two full blocks and a short one
		if stride == 1 {
			n = 40
		}
		n += n % 2
		want := logEvents(n)
		for _, mode := range []string{"whole-blocks", "tail-extended-in-place", "preloaded", "pulled"} {
			t.Run(fmt.Sprintf("%s/stride=%d", mode, stride), func(t *testing.T) {
				// open returns a fresh log and, for the pushed modes, the
				// step that publishes the next run and closes the log after
				// the last.
				open := func() (*rankLog, func()) {
					switch mode {
					case "preloaded":
						return newPreloadedRankLog(want), nil
					case "pulled":
						return pulledLog(t, v2Image(t, want, stride, blockCounts(n, stride)...)), nil
					}
					lg := newRankLog()
					lg.stride = stride
					rng := rand.New(rand.NewSource(5))
					at := 0
					return lg, func() {
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
						if at += k; at == n {
							lg.close()
						}
					}
				}
				// sweep reads the log to its end, stepping a pushed feeder
				// whenever the cursor has used up what is published.
				sweep := func(lg *rankLog, step func(), release bool) []*trace.Event {
					sc := newSweepCursor(lg)
					seen := make([]*trace.Event, 0, n)
					for i := 0; ; i++ {
						if step != nil && i < n && lg.published() == i {
							step()
						}
						if !sc.at(i) {
							if sc.err != nil || sc.aborted {
								t.Fatalf("log ended at event %d: %v", i, sc.err)
							}
							return seen
						}
						if release {
							sc.release(i)
						}
						seen = append(seen, sc.ev(i))
					}
				}

				lg, step := open()
				seen := sweep(lg, step, false)
				if len(seen) != n {
					t.Fatalf("swept %d events, want %d", len(seen), n)
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
				lg.releaseBefore(len(lg.blocks) * lg.stride)
				if res, _ := lg.residentEvents(); res != 0 {
					t.Fatalf("%d events resident after the sweep released everything", res)
				}

				// A sweep that releases behind itself bounds the window.
				lg, step = open()
				if got := len(sweep(lg, step, true)); got != n {
					t.Fatalf("releasing sweep saw %d events, want %d", got, n)
				}
				if _, peak := lg.residentEvents(); mode != "preloaded" && peak > 2*stride {
					t.Fatalf("peak residency %d events, want at most two blocks of %d", peak, stride)
				}
			})
		}
	}
}

// TestRankLogRejectsShortInnerBlock: fixed-stride indexing cannot place
// a block that follows a short one; the log refuses it instead of
// mis-indexing the sweep.
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

// TestPulledRankLogRejectsCorruptImages: faults past the header are
// invisible when the image is opened; the pulled feeder reports them
// when the sweep reaches the block, in the words the lazy log always
// used, and the log ends there.
func TestPulledRankLogRejectsCorruptImages(t *testing.T) {
	want := logEvents(20)
	good := v2Image(t, want, 8, 8, 8, 4)
	for _, tc := range []struct {
		name string
		img  []byte
		err  string
		seen int // events the sweep reads before the log fails
	}{
		// The short block itself is a block like any other; the one
		// after it is what cannot be placed.
		{"short inner block", v2Image(t, want, 8, 8, 5, 7),
			"trace A:rank0@0/0/0: block 1 holds 5 events, want 8", 13},
		{"truncated last block", good[:len(good)-3],
			"trace: block payload length 47 exceeds remaining input (44 bytes)", 16},
		{"trailing bytes", append(good[:len(good):len(good)], 0, 0),
			"trace A:rank0@0/0/0: 2 trailing byte(s) after 20 declared events", 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := newSweepCursor(pulledLog(t, tc.img))
			i := 0
			for ; sc.at(i); i++ {
				if ev := sc.ev(i); *ev != want[i] {
					t.Fatalf("event %d decoded as %+v, want %+v", i, *ev, want[i])
				}
			}
			if sc.err == nil || sc.err.Error() != tc.err {
				t.Fatalf("err = %v, want %q", sc.err, tc.err)
			}
			if i != tc.seen {
				t.Fatalf("sweep read %d events before the failure, want %d", i, tc.seen)
			}
		})
	}
}
