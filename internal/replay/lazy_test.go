package replay

import (
	"bytes"
	"context"
	"testing"
	"time"

	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// bigPingPong builds a 2-rank message storm large enough to span many
// v2 blocks per rank (6 events per message, default block = 4096
// events), with every receive posted early so the analysis deposits
// Late Sender mass throughout.
func bigPingPong(nmsg int) []*trace.Trace {
	ev0 := []trace.Event{enter(0, 0)}
	ev1 := []trace.Event{enter(0, 0)}
	tt := 1.0
	for i := 0; i < nmsg; i++ {
		ev1 = append(ev1, enter(tt, 2))
		ev0 = append(ev0, enter(tt+0.3, 1), send(tt+0.3, 1, int32(i%7), 128), exit(tt+0.4, 1))
		ev1 = append(ev1, recv(tt+0.5, 0, int32(i%7), 128), exit(tt+0.5, 2))
		tt += 1.0
	}
	ev0 = append(ev0, exit(tt+1, 0))
	ev1 = append(ev1, exit(tt+1, 0))
	return []*trace.Trace{synth(0, 0, ev0), synth(1, 0, ev1)}
}

// encodeV2Bytes renders a trace in the v2 columnar encoding.
func encodeV2Bytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.EncodeFormat(&buf, trace.FormatV2); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lazyArchiveOf re-encodes the traces as v2 images — in blocks of bs
// events, or the encoder's own when bs is 0 — and opens them header-only,
// the way LoadArchiveLazy does from disk.
func lazyArchiveOf(t *testing.T, traces []*trace.Trace, bs int) *LazyArchive {
	t.Helper()
	ar := &LazyArchive{
		Traces:  make([]*trace.Trace, len(traces)),
		readers: make([]*trace.BlockReader, len(traces)),
	}
	for i, tr := range traces {
		img := encodeV2Bytes(t, tr)
		if bs > 0 {
			img = v2Blocks(t, tr, bs, blockCounts(len(tr.Events), bs)...)
		}
		r, err := trace.NewBlockReader(img, nil)
		if err != nil {
			t.Fatal(err)
		}
		ar.Traces[i] = r.Trace()
		ar.readers[i] = r
	}
	return ar
}

// TestLazyRankLogBoundedSweep drives a sweep cursor over a lazy
// multi-block rank log with frontier releases and checks that (a) every
// event decodes identically to the materialized trace, (b) the peak
// resident window stays far below the trace size, and (c) swept blocks
// are actually freed — to the next decode while the image owes blocks, so
// that the whole sweep runs in the two or three block allocations of its
// window, and to the collector once the log has closed.
func TestLazyRankLogBoundedSweep(t *testing.T) {
	tr := bigPingPong(4000)[1] // 4000*3+2 events, several 4096-event blocks
	r, err := trace.NewBlockReader(encodeV2Bytes(t, tr), nil)
	if err != nil {
		t.Fatal(err)
	}
	lg := newPulledRankLog(r)
	sc := newSweepCursor(lg)
	// One pointer into each backing array the sweep has read from: held,
	// it keeps the array alive, so a fresh allocation cannot pass for a
	// reused one by landing on a collected block's address.
	arrays := make(map[*trace.Event]bool)
	for i := 0; i < len(tr.Events); i++ {
		if !sc.at(i) {
			t.Fatalf("event %d: %v", i, sc.err)
		}
		sc.release(i)
		ev := sc.ev(i)
		if *ev != tr.Events[i] {
			t.Fatalf("event %d decoded as %+v, want %+v", i, *ev, tr.Events[i])
		}
		if i%lg.stride == 0 {
			arrays[ev] = true
		}
	}
	if nblocks := (len(tr.Events) + lg.stride - 1) / lg.stride; nblocks < 3 || len(arrays) > 3 {
		t.Errorf("the sweep read %d blocks out of %d backing arrays, want at most 3: released blocks are not reused",
			nblocks, len(arrays))
	}
	if !lg.closed || len(lg.free) != 0 {
		t.Errorf("closed = %v with %d blocks parked: a closed log has no decode left to park blocks for", lg.closed, len(lg.free))
	}
	resident, peak := lg.residentEvents()
	if n := len(tr.Events); peak >= n {
		t.Errorf("peak resident %d events, trace has %d: nothing was released", peak, n)
	}
	if peak > 3*lg.stride {
		t.Errorf("peak resident %d events exceeds 3 blocks (%d)", peak, 3*lg.stride)
	}
	if resident > 2*lg.stride {
		t.Errorf("%d events still resident after full sweep", resident)
	}
	for k := 0; k < (len(tr.Events)-1)/lg.stride-1; k++ {
		if lg.blocks[k] != nil {
			t.Errorf("block %d not freed after the sweep passed it", k)
		}
	}
	if first, last, ok := lg.bounds(); !ok || first != tr.Events[0].Time || last != tr.Events[len(tr.Events)-1].Time {
		t.Errorf("bounds = (%g, %g, %v), want (%g, %g, true)",
			first, last, ok, tr.Events[0].Time, tr.Events[len(tr.Events)-1].Time)
	}
}

// TestAnalyzeLazyMatchesMaterialized: a full analysis through the lazy
// block cursor must render byte-identical artifacts to the materialized
// path on a many-block workload — also, on a shorter one, in blocks of
// one, two and three events, where every Send's look-ahead for its region's exit pulls the
// next block into one the sweep has just released while the Send itself
// is still being read: an event pointer that outlived its block shows as
// a differing artifact.
func TestAnalyzeLazyMatchesMaterialized(t *testing.T) {
	cfg := Config{Scheme: vclock.FlatSingle, Title: "lazy-big"}
	for _, c := range []struct{ nmsg, bs int }{{3000, 0}, {300, 1}, {300, 2}, {300, 3}} {
		traces := bigPingPong(c.nmsg)
		wantRes, err := Analyze(traces, cfg)
		want := outcomeOf(wantRes, err)
		if want.err != nil {
			t.Fatal(want.err)
		}
		gotRes, err := AnalyzeLazy(lazyArchiveOf(t, traces, c.bs), cfg)
		got := outcomeOf(gotRes, err)
		if got.err != nil {
			t.Fatal(got.err)
		}
		if !bytes.Equal(want.report, got.report) {
			t.Errorf("block size %d: lazy analysis report differs from materialized", c.bs)
		}
		if wantRes.Messages != gotRes.Messages {
			t.Errorf("block size %d: messages %d vs %d", c.bs, gotRes.Messages, wantRes.Messages)
		}
		if !bytes.Equal(want.prof, got.prof) || !bytes.Equal(want.phases, got.phases) {
			t.Errorf("block size %d: lazy profile or phase artifact differs from materialized", c.bs)
		}
	}
}

// TestAnalyzeLazyCorruptBlockSurfacesError: corruption past the header
// is invisible at load time (header-only parse) and must surface as an
// analysis error, not a panic or silent truncation.
func TestAnalyzeLazyCorruptBlockSurfacesError(t *testing.T) {
	traces := bigPingPong(3000)
	img := encodeV2Bytes(t, traces[1])
	img = img[:len(img)-200] // tear a little off the final block: too small for the open-time size check
	r, err := trace.NewBlockReader(img, nil)
	if err != nil {
		t.Fatalf("header-only open should succeed on a torn tail: %v", err)
	}
	ar := lazyArchiveOf(t, traces, 0)
	ar.Traces[1] = r.Trace()
	ar.readers[1] = r
	if _, err := AnalyzeLazy(ar, Config{Scheme: vclock.FlatSingle, Title: "lazy-corrupt"}); err == nil {
		t.Fatal("analysis of a torn v2 image succeeded")
	}
	// The same torn image must also fail a post-mortem decode.
	if _, err := trace.DecodeBytes(img); err == nil {
		t.Fatal("post-mortem decode of the torn image succeeded")
	}
}

// TestLiveBoundedResident: a feeder that throttles on a rank log's
// resident events against its own budget must complete with a peak
// resident window far below the full event count — the out-of-core
// guarantee for archives larger than RAM.
func TestLiveBoundedResident(t *testing.T) {
	traces := bigPingPong(4000)
	blobs := make([][]byte, len(traces))
	for i, tr := range traces {
		blobs[i] = encodeV2Bytes(t, tr)
	}
	const budget = 6000 // events per rank; each rank holds ~12k
	l, err := NewLive(LiveConfig{
		Config:    Config{Scheme: vclock.FlatSingle, Title: "live-bounded"},
		Ranks:     len(traces),
		WindowSec: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	offs := make([]int, len(blobs))
	for {
		progressed := false
		for r := range blobs {
			if offs[r] >= len(blobs[r]) {
				continue
			}
			if res, _ := l.ranks[r].log.residentEvents(); res > budget {
				continue // throttle: let the sweep drain this rank first
			}
			end := offs[r] + 4096
			if end > len(blobs[r]) {
				end = len(blobs[r])
			}
			if err := l.FeedChunk(r, blobs[r][offs[r]:end]); err != nil {
				t.Fatalf("feed rank %d: %v", r, err)
			}
			offs[r] = end
			progressed = true
		}
		done := true
		for r := range blobs {
			if offs[r] < len(blobs[r]) {
				done = false
			}
		}
		if done {
			break
		}
		if !progressed {
			time.Sleep(time.Millisecond) // all ranks over budget: wait for the sweep
		}
	}
	res, err := l.Finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := 4000; res.Messages != want {
		t.Errorf("analyzed %d messages, fed %d", res.Messages, want)
	}
	peakSum := 0
	for r := range blobs {
		_, peak := l.ranks[r].log.residentEvents()
		if peak >= len(traces[r].Events) {
			t.Errorf("rank %d peak resident %d >= full trace %d: window never released",
				r, peak, len(traces[r].Events))
		}
		peakSum += peak
	}
	st := l.Status()
	if st.MaxResidentEvents != peakSum {
		t.Errorf("status MaxResidentEvents %d, sum of rank peaks %d", st.MaxResidentEvents, peakSum)
	}
}
