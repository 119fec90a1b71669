package trace_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"metascope/internal/replay"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// exchangeTraces builds a three-rank, two-metahost run of n rounds: rank
// 0 sends late to rank 1, rank 2 sends to rank 0, and all three meet in
// a barrier rank 1 reaches last — enough rounds to span many blocks.
func exchangeTraces(n int) []*trace.Trace {
	regions := []trace.Region{
		{ID: 0, Name: "main", Kind: trace.RegionUser},
		{ID: 1, Name: "MPI_Send", Kind: trace.RegionMPIP2P},
		{ID: 2, Name: "MPI_Recv", Kind: trace.RegionMPIP2P},
		{ID: 3, Name: "MPI_Barrier", Kind: trace.RegionMPIColl},
	}
	world := []trace.CommDef{{ID: 0, Ranks: []int32{0, 1, 2}}}
	enter := func(t float64, r trace.RegionID) trace.Event {
		return trace.Event{Kind: trace.KindEnter, Time: t, Region: r}
	}
	exit := func(t float64, r trace.RegionID) trace.Event {
		return trace.Event{Kind: trace.KindExit, Time: t, Region: r}
	}
	msg := func(k trace.EventKind, t float64, peer int32, tag int) trace.Event {
		return trace.Event{Kind: k, Time: t, Peer: peer, Tag: int32(tag % 9), Bytes: 256}
	}
	barrier := func(evs []trace.Event, in, out float64) []trace.Event {
		return append(evs, enter(in, 3),
			trace.Event{Kind: trace.KindCollExit, Time: out, Coll: trace.CollBarrier, Root: -1}, exit(out, 3))
	}
	evs := [3][]trace.Event{{enter(0, 0)}, {enter(0, 0)}, {enter(0, 0)}}
	for i := 0; i < n; i++ {
		t := 1 + float64(i)
		evs[0] = append(evs[0], enter(t+0.30, 1), msg(trace.KindSend, t+0.30, 1, i), exit(t+0.35, 1),
			enter(t+0.40, 2), msg(trace.KindRecv, t+0.50, 2, i), exit(t+0.50, 2))
		evs[1] = append(evs[1], enter(t+0.10, 2), msg(trace.KindRecv, t+0.45, 0, i), exit(t+0.45, 2))
		evs[2] = append(evs[2], enter(t+0.20, 1), msg(trace.KindSend, t+0.20, 0, i), exit(t+0.25, 1))
		evs[0] = barrier(evs[0], t+0.60, t+0.80)
		evs[1] = barrier(evs[1], t+0.75, t+0.80)
		evs[2] = barrier(evs[2], t+0.55, t+0.80)
	}
	traces := make([]*trace.Trace, 3)
	for r := range traces {
		mh := r % 2
		traces[r] = &trace.Trace{
			Loc:     trace.Location{Rank: r, Metahost: mh, MetahostName: []string{"A", "B"}[mh], Node: r},
			Sync:    trace.SyncData{SharedNodeClock: true},
			Regions: regions,
			Comms:   world,
			Events:  append(evs[r], exit(float64(n)+2, 0)),
		}
	}
	return traces
}

func renderAll(t *testing.T, res *replay.Result) [3][]byte {
	t.Helper()
	var cube, prof, phases bytes.Buffer
	if err := res.Report.Write(&cube); err != nil {
		t.Fatal(err)
	}
	if err := res.Profile.WriteJSON(&prof); err != nil {
		t.Fatal(err)
	}
	if err := res.Phases.WriteJSON(&phases); err != nil {
		t.Fatal(err)
	}
	return [3][]byte{cube.Bytes(), prof.Bytes(), phases.Bytes()}
}

// TestLiveHandoffNonDefaultStrides drives the live engine end to end
// with v2 streams whose block size is not the encoder's default — the
// rank log takes its stride from the stream — under chunkings that cut
// blocks anywhere, and requires the cube, profile and phase artifacts
// to be byte-identical to the post-mortem analysis of the same traces.
func TestLiveHandoffNonDefaultStrides(t *testing.T) {
	traces := exchangeTraces(600) // 5 400 events on rank 0: two blocks at the largest stride
	cfg := replay.Config{Scheme: vclock.FlatSingle, Title: "stride handoff"}
	post, err := replay.Analyze(exchangeTraces(600), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, post)
	if post.Messages != 1200 {
		t.Fatalf("post-mortem baseline replayed %d messages, want 1200", post.Messages)
	}
	rng := rand.New(rand.NewSource(29))
	for _, bs := range []int{1, 7, 4095, 5000} {
		for _, chunk := range []int{1 << 20, 64 << 10, 613} {
			if bs == 1 && chunk != 1<<20 {
				continue // 13 000 one-event blocks once are coverage; three times are time
			}
			t.Run(fmt.Sprintf("bs=%d/chunk=%d", bs, chunk), func(t *testing.T) {
				blobs := make([][]byte, len(traces))
				for r, tr := range traces {
					var buf bytes.Buffer
					if err := tr.EncodeV2BlockSize(&buf, bs+r); err != nil { // a different stride per rank
						t.Fatal(err)
					}
					blobs[r] = buf.Bytes()
				}
				l, err := replay.NewLive(replay.LiveConfig{Config: cfg, Ranks: len(blobs), EmitEvery: time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				offs := make([]int, len(blobs))
				for live := len(blobs); live > 0; {
					r := rng.Intn(len(blobs))
					if offs[r] == len(blobs[r]) {
						continue
					}
					end := min(offs[r]+1+rng.Intn(chunk), len(blobs[r]))
					if err := l.FeedChunk(r, blobs[r][offs[r]:end]); err != nil {
						t.Fatalf("feed rank %d at %d: %v", r, offs[r], err)
					}
					if offs[r] = end; end == len(blobs[r]) {
						live--
					}
				}
				res, err := l.Finalize(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				got := renderAll(t, res)
				for i, name := range []string{"cube", "profile", "phase"} {
					if !bytes.Equal(got[i], want[i]) {
						t.Errorf("%s artifact differs from the post-mortem analysis (%d vs %d bytes)",
							name, len(got[i]), len(want[i]))
					}
				}
				if st := l.Status(); st.EventsIngested != int64(len(traces[0].Events)+len(traces[1].Events)+len(traces[2].Events)) {
					t.Errorf("status reports %d events ingested", st.EventsIngested)
				}
			})
		}
	}
}

// TestLiveRejectsShortInnerBlock: a v2 stream that starts another block
// after a short one decodes, but a fixed-stride log cannot index it;
// the live engine fails the feed that carried the second block, as the
// lazy loader fails the sweep that reaches it.
func TestLiveRejectsShortInnerBlock(t *testing.T) {
	tr := exchangeTraces(4)[1] // 26 events, all rounds alike
	const bs = 8
	encode := func(events []trace.Event) []byte {
		var buf bytes.Buffer
		part := *tr
		part.Events = events
		if err := part.EncodeV2BlockSize(&buf, bs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Header with the full count, then a five-event block, then the rest
	// in full blocks: the images of the two parts with their own counts
	// (one byte each) cut off.
	head := encode(nil)
	header := len(head) - 2
	data := append(append([]byte(nil), head[:header]...), byte(len(tr.Events)), bs)
	data = append(data, encode(tr.Events[:5])[header+2:]...)
	data = append(data, encode(tr.Events[5:])[header+2:]...)
	if got, err := trace.DecodeBytes(data); err != nil || len(got.Events) != len(tr.Events) {
		t.Fatalf("test setup: spliced image decodes to %v, %v", got, err)
	}

	l, err := replay.NewLive(replay.LiveConfig{Config: replay.Config{Scheme: vclock.FlatSingle}, Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	err = l.FeedChunk(1, data)
	if want := "block 0 holds 5 events, want 8"; err == nil || !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if st := l.Status(); st.State != "failed" {
		t.Fatalf("after the rejected chunk: state %q, want failed", st.State)
	}
}
