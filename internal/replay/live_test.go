package replay

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"metascope/internal/obs"
	"metascope/internal/pattern"
	"metascope/internal/phase"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// liveTraces builds a 3-rank, 2-metahost experiment exercising every
// streamed severity source: a cross-metahost Late Sender (rank 0 on A
// sends late to rank 1 on B), a rendezvous Late Receiver (rank 2's
// large send blocks on rank 0's late receive), message volume on both
// sides of the metahost boundary, and a barrier rank 1 enters late.
func liveTraces() []*trace.Trace {
	world := trace.CommDef{ID: 0, Ranks: []int32{0, 1, 2}}
	big := int64(1 << 20) // over the eager limit: rendezvous path
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(4, 1), send(4, 1, 7, 100), exit(4.5, 1),
		enter(6, 2), recv(8, 2, 9, big), exit(8, 2),
		enter(8.5, 3), collExit(9.5, trace.CollBarrier, -1), exit(9.5, 3),
		exit(12, 0),
	}, world)
	t1 := synth(1, 1, []trace.Event{
		enter(0, 0),
		enter(1, 2), recv(5, 0, 7, 100), exit(5, 2),
		enter(9, 3), collExit(9.5, trace.CollBarrier, -1), exit(9.5, 3),
		exit(12, 0),
	}, world)
	t2 := synth(2, 1, []trace.Event{
		enter(0, 0),
		enter(2, 1), send(2, 0, 9, big), exit(8, 1),
		enter(8.5, 3), collExit(9.5, trace.CollBarrier, -1), exit(9.5, 3),
		exit(12, 0),
	}, world)
	return []*trace.Trace{t0, t1, t2}
}

// fanoutTraces builds the one input where a profile series is fed from
// several ranks' sample logs, the place the ledger's read order shows:
// rank 0 on metahost A sends a rendezvous message (over the eager limit)
// to rank 1 on A and to ranks 2 and 3 on B in every round, and each
// receiver posts its receive late by a different, drifting amount. The
// sender's late_receiver series is fed from rank 1's log and its
// late_receiver.grid series from the logs of ranks 2 and 3. The long
// idle tail widens the profile's buckets until each holds the waits of
// several rounds — reading the logs in another rank order changes the
// profile's bytes.
func fanoutTraces() []*trace.Trace {
	world := trace.CommDef{ID: 0, Ranks: []int32{0, 1, 2, 3}}
	const big = 1 << 20
	evs := make([][]trace.Event, 4)
	for r := range evs {
		evs[r] = []trace.Event{enter(0, 0)}
	}
	end := 0.0
	for i := 0; i < 12; i++ {
		t := 1 + 5.7*float64(i)
		for k, late := range []float64{0.3, 0.7, 1.1} {
			peer := int32(k + 1)
			posted := t + late + 0.0371*float64(i*(k+1))
			done := posted + 0.1
			evs[0] = append(evs[0], enter(t, 1), send(t, peer, 5, big), exit(done, 1))
			evs[peer] = append(evs[peer], enter(posted, 2), recv(done, 0, 5, big), exit(done, 2))
			t = done + 0.1
		}
		end = t
	}
	traces := make([]*trace.Trace, 4)
	for r := range traces {
		traces[r] = synth(r, r/2, append(evs[r], exit(16*end, 0)), world)
	}
	return traces
}

func encodeTraces(t *testing.T, traces []*trace.Trace) [][]byte {
	t.Helper()
	out := make([][]byte, len(traces))
	for i, tr := range traces {
		var buf bytes.Buffer
		if err := tr.EncodeV2(&buf); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// artifacts renders the result's report and profile to bytes — the
// byte-determinism unit of comparison.
func artifacts(t *testing.T, res *Result) (report, prof []byte) {
	t.Helper()
	var rb, pb bytes.Buffer
	if err := res.Report.Write(&rb); err != nil {
		t.Fatal(err)
	}
	if err := res.Profile.WriteJSON(&pb); err != nil {
		t.Fatal(err)
	}
	return rb.Bytes(), pb.Bytes()
}

// runLive streams the encoded traces through a live session using the
// given chunking plan and returns the result plus the event stream.
// plan yields (rank, chunk) pairs; per-rank order must be preserved.
type feedStep struct {
	rank  int
	chunk []byte
}

func runLive(t *testing.T, cfg Config, n int, plan []feedStep) (*Result, []StreamEvent) {
	t.Helper()
	setEmitEvery(t, time.Millisecond) // drains mid-run, between the feeds
	l, err := NewLive(LiveConfig{
		Config:    cfg,
		Ranks:     n,
		WindowSec: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range plan {
		if err := l.FeedChunk(st.rank, st.chunk); err != nil {
			t.Fatalf("feed rank %d: %v", st.rank, err)
		}
	}
	res, err := l.Finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := l.Events(0)
	return res, got
}

// awaitEvent waits until l's stream history holds an event ok accepts,
// and fails the test with msg if none arrives in 10 s.
func awaitEvent(t *testing.T, l *Live, ok func(StreamEvent) bool, msg string) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for seen := uint64(0); ; {
		evs, _, changed := l.Events(seen)
		for _, ev := range evs {
			if ok(ev) {
				return
			}
			seen = ev.Seq
		}
		select {
		case <-changed:
		case <-timeout:
			t.Fatal(msg + " in 10 s")
		}
	}
}

// TestLiveStreamHistory: a session keeps the stream it emits. Driven to
// done and to cancellation with no periodic drain, so that only the
// calls below emit: the change channel Events hands out closes on each
// emit and at EndStream, the history numbers its events from 1 without
// gaps, opens with the open state and ends with the final one, Events(k)
// is exactly the suffix after k, and Status reports each state on the way.
func TestLiveStreamHistory(t *testing.T) {
	setEmitEvery(t, time.Hour)
	blobs := encodeTraces(t, liveTraces())
	for _, ending := range []string{"done", "cancelled"} {
		t.Run(ending, func(t *testing.T) {
			l, err := NewLive(LiveConfig{Config: Config{Scheme: vclock.FlatSingle}, Ranks: len(blobs)})
			if err != nil {
				t.Fatal(err)
			}
			// changes runs act, which must emit or end the stream: the change
			// channel handed out before it is open until then, and closed after.
			changes := func(what string, act func()) {
				t.Helper()
				_, _, changed := l.Events(0)
				select {
				case <-changed:
					t.Fatalf("%s: the change channel closed early", what)
				default:
				}
				act()
				select {
				case <-changed:
				default:
					t.Fatalf("%s: the change channel is still open", what)
				}
			}
			state := func(want string) {
				t.Helper()
				if got := l.Status().State; got != want {
					t.Fatalf("status %q, want %q", got, want)
				}
			}
			state("open")
			last := len(blobs) - 1
			for r, b := range blobs[:last] {
				if err := l.FeedChunk(r, b); err != nil {
					t.Fatal(err)
				}
			}
			changes("the last header", func() {
				if err := l.FeedChunk(last, blobs[last]); err != nil {
					t.Fatal(err)
				}
			})
			state("running")
			if ending == "done" {
				changes("finalize", func() {
					if _, err := l.Finalize(context.Background()); err != nil {
						t.Fatal(err)
					}
				})
			} else {
				changes("abort", func() { l.Abort(context.Canceled) })
				if _, err := l.Finalize(context.Background()); err == nil {
					t.Fatal("an aborted session finalized")
				}
			}
			state(ending)

			evs, ended, _ := l.Events(0)
			if ended {
				t.Fatal("the stream ended before EndStream")
			}
			for i, ev := range evs {
				if ev.Seq != uint64(i+1) {
					t.Fatalf("event %d has sequence number %d", i, ev.Seq)
				}
			}
			if first := evs[0].State; first == nil || first.State != "open" {
				t.Fatalf("first event %+v, want the open state", evs[0])
			}
			if fin := evs[len(evs)-1].State; fin == nil || fin.State != ending {
				t.Fatalf("last event %+v, want the %s state", evs[len(evs)-1], ending)
			}
			changes("EndStream", l.EndStream)
			l.EndStream() // idempotent
			for k := 0; k <= len(evs)+1; k++ {
				got, ended, _ := l.Events(uint64(k))
				if want := evs[min(k, len(evs)):]; !reflect.DeepEqual(got, want) || !ended {
					t.Fatalf("Events(%d) = %d events (ended %v), want the %d after it", k, len(got), ended, len(want))
				}
			}
		})
	}
}

// chunkPlan slices each rank's bytes into size-byte chunks and
// interleaves ranks round-robin.
func chunkPlan(blobs [][]byte, size int) []feedStep {
	var plan []feedStep
	offs := make([]int, len(blobs))
	for {
		progressed := false
		for r, b := range blobs {
			if offs[r] >= len(b) {
				continue
			}
			end := offs[r] + size
			if end > len(b) {
				end = len(b)
			}
			plan = append(plan, feedStep{r, b[offs[r]:end]})
			offs[r] = end
			progressed = true
		}
		if !progressed {
			return plan
		}
	}
}

func TestLiveMatchesPostMortem(t *testing.T) {
	liveMatchesPostMortem(t, liveTraces)
	t.Run("fanout", func(t *testing.T) { liveMatchesPostMortem(t, fanoutTraces) })
}

func liveMatchesPostMortem(t *testing.T, mk func() []*trace.Trace) {
	cfg := Config{Scheme: vclock.FlatSingle, Title: "live determinism"}
	blobs := encodeTraces(t, mk())
	post, err := Analyze(mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantReport, wantProf := artifacts(t, post)
	// The sender-side family is scored by the receivers and streamed
	// under the base pattern, whichever variant the ledger records.
	lr := pattern.LateReceiver.MetricKey()
	wantLR := 0.0
	for rank := range blobs {
		wantLR += post.Report.RankMetricTotal(lr, rank)
	}

	plans := map[string][]feedStep{"round-robin-small": chunkPlan(blobs, 17)}
	for r, b := range blobs {
		plans["whole-files"] = append(plans["whole-files"], feedStep{r, b})
		plans["reverse-ranks"] = append([]feedStep{{r, b}}, plans["reverse-ranks"]...)
	}
	// Seeded random chunk sizes with random rank interleaving.
	rng := rand.New(rand.NewSource(11))
	var random []feedStep
	offs := make([]int, len(blobs))
	for {
		live := make([]int, 0, len(blobs))
		for r := range blobs {
			if offs[r] < len(blobs[r]) {
				live = append(live, r)
			}
		}
		if len(live) == 0 {
			break
		}
		r := live[rng.Intn(len(live))]
		end := offs[r] + 1 + rng.Intn(40)
		if end > len(blobs[r]) {
			end = len(blobs[r])
		}
		random = append(random, feedStep{r, blobs[r][offs[r]:end]})
		offs[r] = end
	}
	plans["random"] = random

	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			res, events := runLive(t, cfg, len(blobs), plan)
			gotReport, gotProf := artifacts(t, res)
			if !bytes.Equal(gotReport, wantReport) {
				t.Errorf("report bytes differ from post-mortem (%d vs %d bytes)", len(gotReport), len(wantReport))
			}
			if !bytes.Equal(gotProf, wantProf) {
				t.Errorf("profile bytes differ from post-mortem (%d vs %d bytes)", len(gotProf), len(wantProf))
			}
			if res.Messages != post.Messages || res.Collectives != post.Collectives || res.Violations != post.Violations {
				t.Errorf("counts differ: live %d/%d/%d post %d/%d/%d",
					res.Messages, res.Collectives, res.Violations,
					post.Messages, post.Collectives, post.Violations)
			}
			gotLR := 0.0
			for _, ev := range events {
				if ev.Window == nil {
					continue
				}
				for _, d := range ev.Window.Deltas {
					if d.Metric == lr {
						gotLR += d.Value
					}
				}
			}
			if wantLR <= 0 || math.Abs(gotLR-wantLR) > 1e-9*wantLR {
				t.Errorf("streamed Late Receiver mass %g, cube family total %g", gotLR, wantLR)
			}
		})
	}
}

// TestLiveReportsReplayCounters: a finalized live session reports what
// it replayed exactly as the post-mortem analysis of the same archive
// does — the same amounts on the five replay counters and one
// observation per rank on the traffic histograms — so a server that only
// serves sessions does not show zero replay traffic.
func TestLiveReportsReplayCounters(t *testing.T) {
	blobs := encodeTraces(t, liveTraces())
	postRec, liveRec := obs.NewRecorder(), obs.NewRecorder()
	cfg := Config{Scheme: vclock.FlatSingle, Title: "live counters", Repair: true}
	cfg.Obs = postRec
	if _, err := Analyze(liveTraces(), cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Obs = liveRec
	runLive(t, cfg, len(blobs), chunkPlan(blobs, 29))

	post, live := newReplayMetrics(postRec), newReplayMetrics(liveRec)
	for _, c := range []struct {
		name       string
		post, live *obs.Series
		nonZero    bool
	}{
		{"events", post.events, live.events, true},
		{"messages", post.messages, live.messages, true},
		{"collectives", post.collectives, live.collectives, true},
		{"violations", post.violations, live.violations, false},
		{"repairs", post.repairs, live.repairs, false},
	} {
		if c.live.Value() != c.post.Value() || (c.nonZero && c.live.Value() == 0) {
			t.Errorf("metascope_replay_%s_total: live session added %g, post-mortem analysis %g",
				c.name, c.live.Value(), c.post.Value())
		}
	}
	if got, want := live.rankBytes.Count(), post.rankBytes.Count(); got != want || got != uint64(len(blobs)) {
		t.Errorf("rank-bytes histogram: live observed %d ranks, post-mortem %d, want %d", got, want, len(blobs))
	}
	if got, want := live.rankExternal.Count(), post.rankExternal.Count(); got != want {
		t.Errorf("external-bytes histogram: live observed %d ranks, post-mortem %d", got, want)
	}
}

// deltaKey names one streamed series: a metric family on one metahost.
type deltaKey struct {
	Metric   string
	Metahost int
}

func TestLiveStreamDeltasSumToCube(t *testing.T) {
	cfg := Config{Scheme: vclock.FlatSingle, Title: "live deltas"}
	traces := liveTraces()
	blobs := encodeTraces(t, traces)
	res, events := runLive(t, cfg, len(blobs), chunkPlan(blobs, 23))

	// Cumulative window deltas must equal the summary totals exactly
	// (both are sums of the same deposits)...
	sums := map[deltaKey]float64{}
	var summary *SummaryEvent
	for _, ev := range events {
		if ev.Window != nil {
			for _, d := range ev.Window.Deltas {
				sums[deltaKey{d.Metric, d.Metahost}] += d.Value
			}
		}
		if ev.Summary != nil {
			summary = ev.Summary
		}
	}
	if summary == nil {
		t.Fatal("no summary event emitted")
	}
	if len(summary.Totals) == 0 {
		t.Fatal("summary has no totals")
	}
	for _, tot := range summary.Totals {
		got := sums[deltaKey{tot.Metric, tot.Metahost}]
		if math.Abs(got-tot.Value) > 1e-9*math.Max(1, math.Abs(tot.Value)) {
			t.Errorf("%s@mh%d: window deltas sum %g, summary %g", tot.Metric, tot.Metahost, got, tot.Value)
		}
	}

	// ...and wait-state family totals must match the cube's
	// subtree-inclusive totals summed over the metahost's ranks.
	mhOf := map[int]int{}
	for _, tr := range traces {
		mhOf[tr.Loc.Rank] = tr.Loc.Metahost
	}
	for _, fam := range []pattern.ID{pattern.LateSender, pattern.LateReceiver, pattern.WaitBarrier, pattern.BarrierCompletion} {
		key := fam.MetricKey()
		cubeByMH := map[int]float64{}
		for rank, mh := range mhOf {
			cubeByMH[mh] += res.Report.RankMetricTotal(key, rank)
		}
		for mh, want := range cubeByMH {
			got := sums[deltaKey{key, mh}]
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Errorf("%s@mh%d: streamed %g, cube subtree %g", key, mh, got, want)
			}
		}
	}
	if sums[deltaKey{pattern.LateSender.MetricKey(), 1}] <= 0 {
		t.Error("expected positive late-sender mass at metahost 1")
	}
	if sums[deltaKey{pattern.LateReceiver.MetricKey(), 1}] <= 0 {
		t.Error("expected positive late-receiver mass at metahost 1")
	}
}

func TestLiveStreamEventShape(t *testing.T) {
	cfg := Config{Scheme: vclock.FlatSingle, Title: "live shape"}
	blobs := encodeTraces(t, liveTraces())
	_, events := runLive(t, cfg, len(blobs), chunkPlan(blobs, 64))

	var lastSeq uint64
	var states []string
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("sequence not strictly increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		set := 0
		for _, p := range []bool{ev.Window != nil, ev.Frontier != nil, ev.State != nil, ev.Summary != nil} {
			if p {
				set++
			}
		}
		if set != 1 {
			t.Fatalf("event %d has %d payloads", ev.Seq, set)
		}
		if ev.State != nil {
			states = append(states, ev.State.State)
		}
	}
	want := []string{"open", "running", "done"}
	if strings.Join(states, ",") != strings.Join(want, ",") {
		t.Fatalf("state transitions %v, want %v", states, want)
	}
	if events[len(events)-1].State == nil || events[len(events)-1].State.State != "done" {
		t.Fatal("stream must end with the done state event")
	}
}

func TestLiveRejectsBadStreams(t *testing.T) {
	cfg := Config{Scheme: vclock.FlatSingle}
	blobs := encodeTraces(t, liveTraces())

	t.Run("corrupt chunk fails session", func(t *testing.T) {
		l, err := NewLive(LiveConfig{Config: cfg, Ranks: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.FeedChunk(0, []byte("XSCP garbage")); err == nil {
			t.Fatal("corrupt magic accepted")
		}
		// The failure is sticky for the whole session.
		if err := l.FeedChunk(1, blobs[1]); err == nil {
			t.Fatal("feed after session failure accepted")
		}
		if st := l.Status(); st.State != "failed" {
			t.Fatalf("state %q, want failed", st.State)
		}
	})

	t.Run("rank mismatch", func(t *testing.T) {
		l, err := NewLive(LiveConfig{Config: cfg, Ranks: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.FeedChunk(0, blobs[1]); err == nil || !strings.Contains(err.Error(), "carries trace of rank") {
			t.Fatalf("err = %v, want rank-mismatch", err)
		}
	})

	t.Run("finalize before headers", func(t *testing.T) {
		l, err := NewLive(LiveConfig{Config: cfg, Ranks: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.FeedChunk(0, blobs[0][:8]); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Finalize(context.Background()); err == nil {
			t.Fatal("finalize with incomplete streams succeeded")
		}
	})

	t.Run("out of range", func(t *testing.T) {
		l, err := NewLive(LiveConfig{Config: cfg, Ranks: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.FeedChunk(3, blobs[0]); err == nil {
			t.Fatal("rank 3 accepted in world of 3")
		}
		if err := l.FinishRank(-1); err == nil {
			t.Fatal("finish of rank -1 accepted")
		}
	})
}

func TestLiveAbort(t *testing.T) {
	cfg := Config{Scheme: vclock.FlatSingle}
	blobs := encodeTraces(t, liveTraces())
	l, err := NewLive(LiveConfig{Config: cfg, Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Start the analysis (all headers in) but leave the streams open:
	// the workers are blocked on their cursors.
	for r, b := range blobs {
		if err := l.FeedChunk(r, b[:len(b)-4]); err != nil {
			t.Fatal(err)
		}
	}
	l.Abort(context.Canceled)
	if _, err := l.Finalize(context.Background()); err == nil {
		t.Fatal("finalize of aborted session succeeded")
	}
	if st := l.Status(); st.State != "cancelled" {
		t.Fatalf("state %q, want cancelled", st.State)
	}
}

// TestSinkFamilyTable: the id table the window sink keys its deposits by
// names, for every ledger metric, the family FamilyOf gives its key.
func TestSinkFamilyTable(t *testing.T) {
	for m := metricID(0); m < numMetrics; m++ {
		if got, want := sinkFamilies[sinkFamily[m]].key(), phase.FamilyOf(m.key()); got != want {
			t.Errorf("metric %s streams under %s, want %s", m.key(), got, want)
		}
	}
}

// TestFinishedLiveDropsWindowState: a finished session keeps the counters
// and header locations its status reports, and nothing that grows with
// the windows its run touched — not the set of windows closed, not the
// sink's rows and totals, not the interner — whether it ended done,
// failed on a truncated stream or aborted. The same upload under 1 ms
// windows (tens of thousands of them) and under 100 s windows leaves the
// same heap reachable from the finalized Live.
func TestFinishedLiveDropsWindowState(t *testing.T) {
	traces := exchangeTraces(8)
	images := make([][]byte, len(traces))
	for r, tr := range traces {
		images[r] = v2Blocks(t, tr, 8, blockCounts(len(tr.Events), 8)...)
	}
	settled := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// retained runs one session to its ending and returns the heap only
	// the finalized Live keeps reachable, and the windows it closed.
	retained := func(t *testing.T, window float64, ending string) (heap, closed int64) {
		setEmitEvery(t, time.Millisecond) // the wait below is on a mid-run frontier event
		l, err := NewLive(LiveConfig{
			Config: Config{Scheme: vclock.FlatSingle, Obs: obs.NewRecorder()}, Ranks: len(images),
			WindowSec: window,
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, img := range images {
			if ending != "done" {
				img = img[:len(img)-4] // the last block never completes
			}
			if err := l.FeedChunk(r, img); err != nil {
				t.Fatal(err)
			}
		}
		if ending != "done" {
			// Let the sweep reach the end of what arrived and the scheduler
			// close the windows behind it.
			swept := func(ev StreamEvent) bool {
				f := ev.Frontier
				return f != nil && f.ProgressValid && f.Progress > 60
			}
			awaitEvent(t, l, swept, "the frontier did not pass 60 s of the run")
		}
		if ending == "aborted" {
			l.Abort(context.Canceled)
		}
		_, err = l.Finalize(context.Background())
		if (err == nil) != (ending == "done") {
			t.Fatalf("finalize: %v", err)
		}
		if st := l.Status(); (st.State == "done") != (ending == "done") || st.Headers != len(images) {
			t.Fatalf("status after finalize: %+v", st)
		}
		if _, ok := l.RankLocation(1); !ok {
			t.Fatal("the finished session forgot a rank's location")
		}
		var windows int64
		events, _, _ := l.Events(0)
		for _, ev := range events {
			if ev.Window != nil && ev.Window.Closed {
				windows++
			}
		}
		// The stream history holds an event per window by design: it is
		// what a reader replays. Everything else must not grow with them.
		l.emitMu.Lock()
		l.events = nil
		l.emitMu.Unlock()
		events = nil
		with := settled()
		runtime.KeepAlive(l)
		l = nil
		return with - settled(), windows
	}
	for _, ending := range []string{"done", "failed", "aborted"} {
		t.Run(ending, func(t *testing.T) {
			coarse, few := retained(t, 100, ending)
			fine, many := retained(t, 1e-3, ending)
			t.Logf("finalized Live retains %d bytes after %d closed windows, %d bytes after %d", coarse, few, fine, many)
			if many < 100*max(few, 1) {
				t.Fatalf("the fine session closed %d windows, the coarse one %d: nothing to compare", many, few)
			}
			if fine > coarse+32<<10 {
				t.Errorf("a finalized session of %d windows retains %d bytes, one of %d windows %d: window state outlives Finalize",
					many, fine, few, coarse)
			}
		})
	}
}

// TestDepositWindowCapPlusOne: one deposit may span maxDepositWindows
// windows and not one more.
func TestDepositWindowCapPlusOne(t *testing.T) {
	for _, n := range []int{maxDepositWindows, maxDepositWindows + 1} {
		s := newStreamSink(0, 1, []int{0}, []int{0}, nil)
		// [0.5, n-0.5) touches windows 0 through n-1.
		err := s.depositLocked(&lastRow{}, 0, metricID(pattern.LateSender), 0, 0.5, float64(n-1), 1)
		if refused := err != nil; refused != (n > maxDepositWindows) {
			t.Errorf("a deposit over %d windows: %v", n, err)
		}
	}
}

// TestLiveDepositWindowCap: a wait interval that would touch more than
// maxDepositWindows windows is refused instead of costing a row per
// window — a nanosecond window under ordinary wait states here — and
// the refusal ends the session like any other fatal stream error. The
// post-mortem analysis of the same bytes has no windows and succeeds.
func TestLiveDepositWindowCap(t *testing.T) {
	cfg := Config{Scheme: vclock.FlatSingle}
	blobs := encodeTraces(t, liveTraces())
	setEmitEvery(t, time.Hour) // no drain empties the sink before it is read below
	l, err := NewLive(LiveConfig{Config: cfg, Ranks: 3, WindowSec: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for r, b := range blobs {
		// The replay may refuse the session while later ranks upload.
		if err := l.FeedChunk(r, b); err != nil && !strings.Contains(err.Error(), "stream windows") {
			t.Fatal(err)
		}
	}
	isFailed := func(ev StreamEvent) bool { return ev.State != nil && ev.State.State == "failed" }
	awaitEvent(t, l, isFailed, "the session did not fail")
	// Windows in the sink once the session failed; Finalize drops the sink.
	l.sink.mu.Lock()
	held := len(l.sink.cur)
	l.sink.mu.Unlock()
	_, err = l.Finalize(context.Background())
	var failed []string
	events, _, _ := l.Events(0)
	for _, ev := range events {
		if isFailed(ev) {
			failed = append(failed, ev.State.Error)
		}
	}
	// Whichever worker scores its first wait first: rank 1's Late Sender
	// [1, 4) or the Late Receiver rank 0 detects for rank 2, [2, 6).
	want := regexp.MustCompile(`^replay: rank [01]: wait interval \[[12], [46]\) spans [34]00000000\d stream windows of 1e-09 s \(limit 65536\)$`)
	if err == nil || !want.MatchString(err.Error()) {
		t.Fatalf("finalize: err = %v\nwant %v", err, want)
	}
	if st := l.Status(); st.State != "failed" {
		t.Errorf("state %q, want failed", st.State)
	}
	if len(failed) != 1 || failed[0] != err.Error() {
		t.Errorf("failed state events %q, want one carrying %q", failed, err)
	}
	if held > 3*maxDepositWindows {
		t.Errorf("sink holds %d windows after the refusal", held)
	}
	if _, err := Analyze(liveTraces(), cfg); err != nil {
		t.Errorf("post-mortem analysis of the same traces: %v", err)
	}
}
