package replay

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metascope/internal/obs"
	"metascope/internal/pattern"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// settle waits until every runner of l's replay is idle or gone: every
// rank has parked or finished, and nothing is queued. A feeder's wake is
// accounted before FeedChunk returns, so after a feed this is the point
// where the sweeps have done all that the bytes allow.
func settle(t *testing.T, l *Live) *analyzer {
	t.Helper()
	l.mu.Lock()
	a := l.a
	l.mu.Unlock()
	if a == nil {
		t.Fatal("the replay has not started")
	}
	s := a.sched
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		quiet := int(s.idle.Load()) == len(s.shards) || s.left == 0
		s.mu.Unlock()
		if quiet {
			return a
		}
		if time.Now().After(deadline) {
			t.Fatal("the replay did not settle in 10 s")
		}
	}
}

// sweptTime is the corrected time of the last event rank r's sweep has
// swept, −Inf before the first: what its publication must say once it
// has settled.
func sweptTime(a *analyzer, tr *trace.Trace, r int) float64 {
	if i := a.steppers[r].i; i > 0 {
		return a.corr[r].Apply(tr.Events[i-1].Time)
	}
	return math.Inf(-1)
}

// TestLiveFrontierLowerBound: with one rank's chunks held back, the
// frontier is not valid until that rank has swept an event; after that it
// never decreases and never exceeds the held rank's published time, which
// is the corrected time of the last event that rank swept once it has
// settled — a lower bound that does not run ahead. Finalize still closes
// every window, and the sweep-lag gauge is never negative.
func TestLiveFrontierLowerBound(t *testing.T) {
	traces := exchangeTraces(8)
	const held = 2 // rank 0 receives its rendezvous message
	images := make([][]byte, len(traces))
	for r, tr := range traces {
		images[r] = v2Blocks(t, tr, 8, blockCounts(len(tr.Events), 8)...)
	}
	header := v2Blocks(t, traces[held], 8)
	if !bytes.HasPrefix(images[held], header) {
		t.Fatal("the held image does not start with its header")
	}

	rec := obs.NewRecorder()
	sweepLag := newStreamMetrics(rec).sweepLag
	var mu sync.Mutex
	var events []StreamEvent
	setEmitEvery(t, time.Hour) // the drain loop never ticks: the test drains, between feeds
	l, err := NewLive(LiveConfig{
		Config: Config{Scheme: vclock.FlatSingle, Obs: rec}, Ranks: len(traces),
		WindowSec: 2,
		OnEvent: func(ev StreamEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	lastFrontier := func() *FrontierEvent {
		mu.Lock()
		defer mu.Unlock()
		for k := len(events) - 1; k >= 0; k-- {
			if f := events[k].Frontier; f != nil {
				return f
			}
		}
		t.Fatal("no frontier event")
		return nil
	}

	for r, img := range images {
		if r == held {
			img = header
		}
		if err := l.FeedChunk(r, img); err != nil {
			t.Fatal(err)
		}
	}
	prev, valid := math.Inf(-1), false
	check := func(stage string) {
		t.Helper()
		a := settle(t, l)
		l.drainAndEmit(false)
		f := lastFrontier()
		published := math.Float64frombits(a.progress[held].Load())
		if want := sweptTime(a, traces[held], held); a.steppers[held].i < len(traces[held].Events) && published != want {
			t.Fatalf("%s: rank %d published %g, its last swept event is at %g", stage, held, published, want)
		}
		if math.IsInf(published, -1) && f.ProgressValid {
			t.Fatalf("%s: frontier valid at %g before rank %d swept an event", stage, f.Progress, held)
		}
		if f.ProgressValid {
			if f.Progress < prev {
				t.Fatalf("%s: frontier went back from %g to %g", stage, prev, f.Progress)
			}
			if f.Progress > published {
				t.Fatalf("%s: frontier %g ahead of rank %d's published %g", stage, f.Progress, held, published)
			}
			prev, valid = f.Progress, true
		}
		if v := sweepLag.Value(); !(v >= 0) || math.IsInf(v, 0) {
			t.Fatalf("%s: metascope_stream_sweep_lag_seconds = %g", stage, v)
		}
	}
	check("header only")
	if valid {
		t.Fatal("the frontier was valid while a rank had no events")
	}
	for off := len(header); off < len(images[held]); off += 7 {
		if err := l.FeedChunk(held, images[held][off:min(off+7, len(images[held]))]); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("fed to byte %d", off))
	}
	if !valid {
		t.Fatal("the frontier never became valid")
	}
	if _, err := l.Finalize(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A window is closed by a window event that says so, or by the last
	// frontier's closed_through.
	touched, closed := map[int64]bool{}, map[int64]bool{}
	for _, ev := range events {
		if w := ev.Window; w != nil {
			touched[w.Index] = true
			closed[w.Index] = closed[w.Index] || w.Closed
		}
	}
	if len(touched) == 0 {
		t.Fatal("no window received mass")
	}
	through := lastFrontier().ClosedThrough
	for w := range touched {
		if !closed[w] && w > through {
			t.Errorf("window %d was never closed (closed through %d)", w, through)
		}
	}
}

// TestLiveIdleStreamStill: once the sweeps have settled on a rank whose
// upload stopped after its header, the drain loop has nothing new to say,
// and many drain periods pass without a stream event — an idle session's
// event log does not grow with wall time.
func TestLiveIdleStreamStill(t *testing.T) {
	traces := exchangeTraces(8)
	const held = 2
	var events atomic.Int64
	setEmitEvery(t, time.Millisecond)
	l, err := NewLive(LiveConfig{
		Config: Config{Scheme: vclock.FlatSingle}, Ranks: len(traces),
		OnEvent: func(StreamEvent) { events.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, tr := range traces {
		img := v2Blocks(t, tr, 8, blockCounts(len(tr.Events), 8)...)
		if r == held {
			img = v2Blocks(t, tr, 8)
		}
		if err := l.FeedChunk(r, img); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, l)
	time.Sleep(20 * time.Millisecond) // a drain reports the settled frontier
	before := events.Load()
	time.Sleep(50 * time.Millisecond)
	if idle := events.Load() - before; idle != 0 {
		t.Errorf("an idle session emitted %d events in 50 drain periods, want 0", idle)
	}
	l.Abort(context.Canceled)
	if _, err := l.Finalize(context.Background()); err == nil {
		t.Fatal("an aborted session finalized")
	}
}

// TestLiveEagerSendSweepsPastUnfedExit: rank 0's MPI_Send is the last
// event of its first block, and the Exit of the call the first event of a
// block not yet fed. An eager send's exit is never read, so the rank
// sweeps past the Send on the bytes it has; a rendezvous send's exit is the
// Late Receiver test's, so the rank parks on its log at the Send until the
// block arrives. Either way the result is the post-mortem one.
func TestLiveEagerSendSweepsPastUnfedExit(t *testing.T) {
	world := trace.CommDef{ID: 0, Ranks: []int32{0, 1}}
	const payload = 4096
	mk := func() []*trace.Trace {
		return []*trace.Trace{
			synth(0, 0, []trace.Event{
				enter(0, 0), enter(1, 1), send(1.5, 1, 5, payload), // block 0
				exit(4, 1), exit(10, 0), // block 1
			}, world),
			synth(1, 0, []trace.Event{
				enter(0, 0), enter(3, 2), recv(4, 0, 5, payload), exit(4, 2), exit(10, 0),
			}, world),
		}
	}
	for _, c := range []struct {
		name  string
		limit int
		next  int     // rank 0's next event once it settled on the first block
		swept float64 // the corrected time it published
	}{
		{"eager", payload, 3, 1.5},
		{"rendezvous", payload - 1, 2, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Scheme: vclock.FlatSingle, Title: "eager look-ahead", EagerLimit: c.limit}
			traces := mk()
			sender := v2Blocks(t, traces[0], 3, 3, 2)
			first := v2Blocks(t, traces[0], 3, 3)
			if !bytes.HasPrefix(sender, first) {
				t.Fatal("the sender's image does not start with its first block")
			}
			l, err := NewLive(LiveConfig{Config: cfg, Ranks: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, feed := range []struct {
				rank int
				b    []byte
			}{{1, v2Blocks(t, traces[1], 5, 5)}, {0, first}} {
				if err := l.FeedChunk(feed.rank, feed.b); err != nil {
					t.Fatal(err)
				}
			}
			a := settle(t, l)
			if got := a.steppers[0].i; got != c.next {
				t.Errorf("rank 0 settled before event %d, want %d", got, c.next)
			}
			if got := math.Float64frombits(a.progress[0].Load()); got != c.swept {
				t.Errorf("rank 0 published %g, want %g", got, c.swept)
			}
			if err := l.FeedChunk(0, sender[len(first):]); err != nil {
				t.Fatal(err)
			}
			live, err := l.Finalize(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			post, err := Analyze(mk(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			key := pattern.LateReceiver.MetricKey()
			got, want := live.Report.RankMetricTotal(key, 0), post.Report.RankMetricTotal(key, 0)
			if got != want || (want > 0) != (c.limit < payload) {
				t.Errorf("Late Receiver of rank 0: live %g, post-mortem %g", got, want)
			}
			gotReport, gotProf := artifacts(t, live)
			wantReport, wantProf := artifacts(t, post)
			if !bytes.Equal(gotReport, wantReport) || !bytes.Equal(gotProf, wantProf) {
				t.Error("live artifacts differ from the post-mortem ones")
			}
		})
	}
}
