package replay

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"metascope/internal/obs"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// The cancellation contract: AnalyzeContext must return promptly once
// its context is cancelled, even in the middle of a long event sweep, and
// the error must wrap the context's error. A replay that is stuck — a
// receiver waiting for a message that never comes, a collective waiting
// for a member that never joins — cannot arise from a healthy archive
// (the traced application completed); it needs no context at all, the
// scheduler reports it as a deadlock the moment it happens.

// cancelDeadline bounds "promptly" generously enough for -race CI.
const cancelDeadline = 5 * time.Second

// analyzeCancelled analyses ar in a goroutine, cancels the context once
// the replay runs, and requires a context-wrapped error within
// cancelDeadline, no goroutine left behind and the abort counted once, as
// cancelled.
func analyzeCancelled(t *testing.T, ar *LazyArchive) {
	t.Helper()
	rec, logged := abortRecorder()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := analyzeCtx(ctx, ar, Config{Scheme: vclock.FlatSingle, Title: "cancel", Obs: rec})
		done <- err
	}()
	for active := newReplayMetrics(rec).workersActive; active.Value() == 0; {
		time.Sleep(50 * time.Microsecond)
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled analysis returned no error")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error does not wrap context.Canceled: %v", err)
		}
	case <-time.After(cancelDeadline):
		t.Fatal("cancelled analysis did not return (replay stuck)")
	}
	// Every analysis goroutine (runners, the context's AfterFunc) must
	// have unwound.
	waitNoLeak(t, before)
	wantOneAbort(t, rec, logged, "cancelled")
}

// lockedLog collects a logger's lines; the abort's line may be written
// from another goroutine than the test's.
type lockedLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// abortRecorder returns a recorder of its own and the lines it logs.
func abortRecorder() (*obs.Recorder, *lockedLog) {
	rec, logged := obs.NewRecorder(), &lockedLog{}
	rec.Log = obs.NewLogger(logged)
	return rec, logged
}

// wantOneAbort requires that the analysis behind rec was aborted exactly
// once, for cause: one metascope_replay_aborts_total bump of that label
// and none of the others, and one "replay aborted" warning. The winner of
// the abort counts it after it published the cause, so the count may land
// a moment after the analysis returned.
func wantOneAbort(t *testing.T, rec *obs.Recorder, logged *lockedLog, cause string) {
	t.Helper()
	aborts := newReplayMetrics(rec).aborts
	for deadline := time.Now().Add(cancelDeadline); !strings.Contains(logged.String(), `msg="replay aborted"`) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	for _, c := range []string{"cancelled", "failed", "deadlock"} {
		want := 0.0
		if c == cause {
			want = 1
		}
		if got := aborts.With(c).Value(); got != want {
			t.Errorf("metascope_replay_aborts_total{cause=%q} = %g, want %g", c, got, want)
		}
	}
	if out := logged.String(); strings.Count(out, `msg="replay aborted"`) != 1 ||
		!strings.Contains(out, `level=warn msg="replay aborted" cause=`+cause+" ") {
		t.Errorf("logged %q, want one warning with cause=%s", logged.String(), cause)
	}
}

// waitNoLeak asserts the goroutine count returns to the baseline,
// allowing the runtime a moment to retire finished goroutines.
func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestReplayDeadlockNamesBlockedRanks: an archive in which some rank waits
// for what no other rank will ever provide — a receive whose send does
// not exist, a barrier one member never joins, two ranks each receiving
// before they send to the other — cannot come from an application that
// completed. The scheduler sees it the moment nothing is ready, nothing
// is being stepped and no rank waits on a log a feeder may still fill:
// the analysis fails at once, without a context to time it out, with one
// error that names each blocked rank and what it waits for, and leaves
// no goroutine behind.
func TestReplayDeadlockNamesBlockedRanks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		traces []*trace.Trace
		want   string
	}{
		{"orphan receive", []*trace.Trace{
			synth(0, 0, []trace.Event{enter(0, 0), exit(10, 0)}),
			synth(1, 0, []trace.Event{
				enter(0, 0),
				enter(1, 2), recv(5, 0, 7, 100), exit(5, 2),
				exit(10, 0),
			}),
		}, "replay: deadlock, no rank can proceed: rank 1 waits for a message from rank 0 (communicator 0, tag 7)"},
		{"barrier missing a member", []*trace.Trace{
			synth(0, 0, []trace.Event{
				enter(0, 0),
				enter(1, 3), collExit(2, trace.CollBarrier, -1), exit(2, 3),
				exit(10, 0),
			}),
			synth(1, 0, []trace.Event{enter(0, 0), exit(10, 0)}),
		}, "replay: deadlock, no rank can proceed: rank 0 waits in collective 0 of communicator 0, which 1 of its 2 members have reached"},
		{"two-rank receive cycle", []*trace.Trace{
			synth(0, 0, []trace.Event{
				enter(0, 0),
				enter(1, 2), recv(2, 1, 3, 8), exit(2, 2),
				enter(3, 1), send(3, 1, 4, 8), exit(3, 1),
				exit(10, 0),
			}),
			synth(1, 0, []trace.Event{
				enter(0, 0),
				enter(1, 2), recv(2, 0, 4, 8), exit(2, 2),
				enter(3, 1), send(3, 0, 3, 8), exit(3, 1),
				exit(10, 0),
			}),
		}, "replay: deadlock, no rank can proceed: rank 0 waits for a message from rank 1 (communicator 0, tag 3); " +
			"rank 1 waits for a message from rank 0 (communicator 0, tag 4)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, logged := abortRecorder()
			before := runtime.NumGoroutine()
			done := make(chan error, 1)
			go func() {
				_, err := Analyze(tc.traces, Config{Scheme: vclock.FlatSingle, Title: "deadlock", Obs: rec})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || err.Error() != tc.want {
					t.Fatalf("err = %v\nwant %s", err, tc.want)
				}
			case <-time.After(cancelDeadline):
				t.Fatal("deadlocked analysis did not return")
			}
			waitNoLeak(t, before)
			wantOneAbort(t, rec, logged, "deadlock")
		})
	}
}

// TestAnalyzeContextPreCancelled: a context cancelled before the call
// must abort before any phase runs.
func TestAnalyzeContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := synth(0, 0, []trace.Event{enter(0, 0), exit(1, 0)})
	t1 := synth(1, 0, []trace.Event{enter(0, 0), exit(1, 0)})
	_, err := AnalyzeContext(ctx, []*trace.Trace{t0, t1}, Config{Scheme: vclock.FlatSingle})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestAnalyzeContextSweepPoll cancels while both ranks are mid-sweep in
// a long event stream with no blocking operations at all — only the
// step's poll, at its start and every 1024 events, can stop them: over
// preloaded logs, and over pulled ones, whose sweep decodes as it goes.
// The cancel lands once a runner is active, and the stream must be long
// enough that the sweep is still running then; 2^20 events of pure
// enter/exit churn take far longer than the test's poll interval.
func TestAnalyzeContextSweepPoll(t *testing.T) {
	const pairs = 1 << 19
	mk := func(rank int) *trace.Trace {
		events := make([]trace.Event, 0, 2*pairs+2)
		events = append(events, enter(0, 0))
		tt := 1.0
		for i := 0; i < pairs; i++ {
			events = append(events, enter(tt, 7), exit(tt+0.5, 7))
			tt++
		}
		events = append(events, exit(tt+1, 0))
		return synth(rank, 0, events)
	}
	traces := []*trace.Trace{mk(0), mk(1)}
	t.Run("preloaded", func(t *testing.T) {
		analyzeCancelled(t, &LazyArchive{Traces: traces})
	})
	t.Run("pulled", func(t *testing.T) {
		analyzeCancelled(t, lazyArchiveOf(t, traces, 0))
	})
}

// TestAnalyzeContextCompletesUncancelled: a context that is never
// cancelled must not disturb a healthy analysis, and the watcher
// goroutine must exit with it.
func TestAnalyzeContextCompletesUncancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(4, 1), send(4, 1, 7, 100), exit(4.5, 1),
		exit(10, 0),
	})
	t1 := synth(1, 0, []trace.Event{
		enter(0, 0),
		enter(1, 2), recv(5, 0, 7, 100), exit(5, 2),
		exit(10, 0),
	})
	res, err := AnalyzeContext(ctx, []*trace.Trace{t0, t1}, Config{Scheme: vclock.FlatSingle})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 1 {
		t.Fatalf("messages = %d, want 1", res.Messages)
	}
	waitNoLeak(t, before)
}

// TestLoadArchiveCtxCancelled: a cancelled context stops the decode
// pool; the error wraps the context error.
func TestLoadArchiveCtxCancelled(t *testing.T) {
	mounts, _, dir := loadFixture(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := load(ctx, mounts, []int{0}, dir, nil, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled load: err = %v, want context.Canceled", err)
	}
}
