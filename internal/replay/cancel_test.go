package replay

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// The cancellation contract: AnalyzeContext must return promptly once
// its context is cancelled, no matter where the replay is stuck — a
// receiver waiting for a message that never comes, a collective waiting
// for a member that never joins, or a long event sweep — and the error
// must wrap the context's error. These situations cannot arise from a
// healthy archive (the traced application completed), but a service
// analyzing untrusted uploads needs a hard abort path.

// cancelDeadline bounds "promptly" generously enough for -race CI.
const cancelDeadline = 5 * time.Second

// analyzeCancelled runs AnalyzeContext in a goroutine, cancels the
// context after delay, and requires a context-wrapped error within
// cancelDeadline.
func analyzeCancelled(t *testing.T, traces []*trace.Trace, delay time.Duration) {
	t.Helper()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := AnalyzeContext(ctx, traces, Config{Scheme: vclock.FlatSingle, Title: "cancel"})
		done <- err
	}()
	time.AfterFunc(delay, cancel)
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
	// Every analysis goroutine (workers, watcher) must have unwound.
	waitNoLeak(t, before)
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

// TestAnalyzeContextCancelUnblocksReceive plants a receive whose
// matching send does not exist: rank 1 blocks in the mailbox forever.
// Cancellation must wake it.
func TestAnalyzeContextCancelUnblocksReceive(t *testing.T) {
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0), exit(10, 0),
	})
	t1 := synth(1, 0, []trace.Event{
		enter(0, 0),
		enter(1, 2), recv(5, 0, 7, 100), exit(5, 2),
		exit(10, 0),
	})
	analyzeCancelled(t, []*trace.Trace{t0, t1}, 50*time.Millisecond)
}

// TestAnalyzeContextCancelUnblocksCollective plants a barrier one rank
// never joins: rank 0 blocks in the gather. Cancellation must wake it.
func TestAnalyzeContextCancelUnblocksCollective(t *testing.T) {
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(1, 3), collExit(2, trace.CollBarrier, -1), exit(2, 3),
		exit(10, 0),
	})
	t1 := synth(1, 0, []trace.Event{
		enter(0, 0), exit(10, 0),
	})
	analyzeCancelled(t, []*trace.Trace{t0, t1}, 50*time.Millisecond)
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
// periodic poll can stop them. The stream must be long enough that the
// sweep is still running when the cancel lands; 2^20 events of pure
// enter/exit churn take well over the 1 ms cancel delay even on a fast
// machine, and the test only requires *prompt return*, so a sweep that
// finishes first would still pass the deadline but is made vanishingly
// unlikely by the volume.
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
	analyzeCancelled(t, []*trace.Trace{mk(0), mk(1)}, time.Millisecond)
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
