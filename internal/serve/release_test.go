package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"runtime"
	"testing"

	"metascope/internal/trace"
)

// pairTraces builds a run of `ranks` processes on two metahosts: every
// round each even rank sends late to its odd neighbour and all ranks
// meet in a barrier — six events per rank and round, so a few thousand
// rounds give every rank several event blocks.
func pairTraces(ranks, rounds int) []*trace.Trace {
	world := trace.CommDef{ID: 0}
	for r := 0; r < ranks; r++ {
		world.Ranks = append(world.Ranks, int32(r))
	}
	traces := make([]*trace.Trace, ranks)
	for r := range traces {
		mh := r % 2
		evs := []trace.Event{{Kind: trace.KindEnter, Time: 0, Region: 0}}
		for i := 0; i < rounds; i++ {
			t := 1 + float64(i)
			if r%2 == 0 {
				evs = append(evs,
					trace.Event{Kind: trace.KindEnter, Time: t + 0.3, Region: 1},
					trace.Event{Kind: trace.KindSend, Time: t + 0.3, Peer: int32(r + 1), Tag: int32(i % 5), Bytes: 512},
					trace.Event{Kind: trace.KindExit, Time: t + 0.35, Region: 1})
			} else {
				evs = append(evs,
					trace.Event{Kind: trace.KindEnter, Time: t + 0.1, Region: 2},
					trace.Event{Kind: trace.KindRecv, Time: t + 0.4, Peer: int32(r - 1), Tag: int32(i % 5), Bytes: 512},
					trace.Event{Kind: trace.KindExit, Time: t + 0.4, Region: 2})
			}
			in := t + 0.5 + 0.01*float64(r)
			evs = append(evs,
				trace.Event{Kind: trace.KindEnter, Time: in, Region: 3},
				trace.Event{Kind: trace.KindCollExit, Time: t + 0.8, Coll: trace.CollBarrier, Root: -1},
				trace.Event{Kind: trace.KindExit, Time: t + 0.8, Region: 3})
		}
		traces[r] = &trace.Trace{
			Loc:     trace.Location{Rank: r, Metahost: mh, MetahostName: []string{"ALPHA", "BETA"}[mh], Node: r},
			Sync:    trace.SyncData{SharedNodeClock: true},
			Regions: sessRegions,
			Comms:   []trace.CommDef{world},
			Events:  append(evs, trace.Event{Kind: trace.KindExit, Time: float64(rounds) + 2, Region: 0}),
		}
	}
	return traces
}

// settledHeap is the live heap after a full collection.
func settledHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestFinishedSessionsReleaseEngine: a finished session stays listed —
// its result, status and event log remain fetchable — but it must not
// keep the analysis engine: rank logs, decoder buffers, the analyzer's
// per-rank sample logs and post-pass records. Rounds of create → feed →
// finalize → delete may grow the post-GC heap by the kept artifacts
// only, and the status document reports the same ingest counters after
// the release as before it. The windows are coarse so that the kept
// event log is small and the result (1.4 MiB here) is what a round
// costs; a session that kept its ranks' upload buffers would add
// 16 × ~100 KiB to that.
func TestFinishedSessionsReleaseEngine(t *testing.T) {
	traces := pairTraces(16, 2500)
	blobs := make([][]byte, len(traces))
	var events, size int64
	for r, tr := range traces {
		var buf bytes.Buffer
		if err := tr.EncodeV2(&buf); err != nil {
			t.Fatal(err)
		}
		blobs[r] = buf.Bytes()
		events += int64(len(tr.Events))
		size += int64(buf.Len())
	}
	_, ts := newTestServer(t, Options{Workers: 1})
	status := func(id string) SessionStatus {
		code, body := getBody(t, ts.URL+"/v1/sessions/"+id)
		var st SessionStatus
		if err := json.Unmarshal(body, &st); code != http.StatusOK || err != nil {
			t.Fatalf("GET session %s: HTTP %d, %v", id, code, err)
		}
		st.AgeSeconds, st.Events = 0, 0 // the clock and the stream move on
		st.State, st.RankDetail = "", nil
		return st
	}
	round := func() {
		st := openSession(t, ts.URL, "?ranks=16&scheme=flat1&window=100s")
		uploadSession(t, ts.URL, st.ID, traces, blobs, 64<<10)
		before := status(st.ID)
		if before.EventsIngested != events || before.BytesIngested != size || before.RanksFinished != len(traces) {
			t.Fatalf("uploaded session reports %d events, %d bytes, %d ranks finished; want %d, %d, %d",
				before.EventsIngested, before.BytesIngested, before.RanksFinished, events, size, len(traces))
		}
		if fin := finalizeSession(t, ts.URL, st.ID); fin.State != "done" {
			t.Fatalf("session ended %s: %s", fin.State, fin.Error)
		}
		if code, cube := getBody(t, ts.URL+"/v1/experiments/"+st.ID+"/result"); code != http.StatusOK || len(cube) == 0 {
			t.Fatalf("result of the finished session: HTTP %d, %d bytes", code, len(cube))
		}
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+st.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if after := status(st.ID); !reflect.DeepEqual(after, before) {
			t.Fatalf("status changed across the release:\nbefore %+v\nafter  %+v", before, after)
		}
	}
	round() // connections, pools and lazily built tables settle
	const rounds = 4
	base := settledHeap()
	for i := 0; i < rounds; i++ {
		round()
	}
	perRound := (settledHeap() - base) / rounds
	runtime.KeepAlive(round) // or the last measurement credits the rounds with the dead test input
	t.Logf("post-GC heap grows %d KiB per finished session (%d events, %d KiB of trace)", perRound>>10, events, size>>10)
	if perRound > 2<<20 {
		t.Errorf("every finished session keeps %d KiB on the heap, want < 2 MiB: the engine was not released", perRound>>10)
	}
}

// TestFinishedJobReleasesArchive: a finished job stays listed with its
// result, but not with the decoded upload it was computed from. Rounds
// of submit → done may grow the post-GC heap by the result only — which
// for this archive (one detected phase per round) is about two thirds
// of the upload, so growth of a whole upload per job means result plus
// archive.
func TestFinishedJobReleasesArchive(t *testing.T) {
	traces, blobs := pairArchive(t, 16, 2500)
	bundle := pairBundle(t, traces, blobs)
	var upload int64
	for _, b := range blobs {
		upload += int64(len(b))
	}
	s, ts := newTestServer(t, Options{Workers: 1, CacheEntries: -1})
	round := func() {
		st, _ := submitZip(t, ts.URL, bundle, "?scheme=flat1")
		if fin := awaitJob(t, ts.URL, st.ID); fin.State != StateDone {
			t.Fatalf("job ended %s: %s", fin.State, fin.Error)
		}
		s.mu.Lock()
		held := s.analyses[st.ID].(*job).mounts
		s.mu.Unlock()
		if held != nil {
			t.Fatalf("finished job %s still holds its mounts", st.ID)
		}
	}
	round() // connections, pools and lazily built tables settle
	const rounds = 4
	base := settledHeap()
	for i := 0; i < rounds; i++ {
		round()
	}
	perRound := (settledHeap() - base) / rounds
	t.Logf("post-GC heap grows %d KiB per finished job (%d KiB of decoded upload)", perRound>>10, upload>>10)
	if perRound > upload {
		t.Errorf("every finished job keeps %d KiB on the heap against a %d KiB upload: the archive was not released", perRound>>10, upload>>10)
	}
}
