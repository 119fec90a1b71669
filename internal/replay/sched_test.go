package replay

import (
	"context"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"metascope/internal/obs"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// ringTraces builds an n-rank ring exchange: in every round each rank
// sends to its right neighbour and then receives from its left one.
func ringTraces(n, rounds int) []*trace.Trace {
	world := trace.CommDef{ID: 0, Ranks: make([]int32, n)}
	for r := range world.Ranks {
		world.Ranks[r] = int32(r)
	}
	traces := make([]*trace.Trace, n)
	for r := range traces {
		evs := []trace.Event{enter(0, 0)}
		for k := 0; k < rounds; k++ {
			t := 1 + float64(k)
			evs = append(evs,
				enter(t, 1), send(t, int32((r+1)%n), int32(k), 64), exit(t+0.1, 1),
				enter(t+0.2, 2), recv(t+0.3, int32((r+n-1)%n), int32(k), 64), exit(t+0.3, 2))
		}
		traces[r] = synth(r, r%3, append(evs, exit(float64(rounds)+2, 0)), world)
	}
	return traces
}

// skewTraces builds an n-rank world whose first half does all the work:
// in every round each busy rank sweeps work region visits, then sends to
// its right neighbour among the busy ranks and receives from its left
// one. The other half only enters and leaves main.
func skewTraces(n, work, rounds int) []*trace.Trace {
	world := trace.CommDef{ID: 0, Ranks: make([]int32, n)}
	for r := range world.Ranks {
		world.Ranks[r] = int32(r)
	}
	busy := n / 2
	traces := make([]*trace.Trace, n)
	for r := range traces {
		evs := []trace.Event{enter(0, 0)}
		t := 1.0
		for k := 0; r < busy && k < rounds; k++ {
			for j := 0; j < work; j++ {
				evs = append(evs, enter(t, 0), exit(t+1e-6, 0))
				t += 2e-6
			}
			evs = append(evs,
				enter(t, 1), send(t, int32((r+1)%busy), int32(k), 64), exit(t+1e-6, 1),
				enter(t+2e-6, 2), recv(t+3e-6, int32((r+busy-1)%busy), int32(k), 64), exit(t+3e-6, 2))
			t += 1e-3
		}
		traces[r] = synth(r, r%3, append(evs, exit(t+1, 0)), world)
	}
	return traces
}

// TestReplayStealsAcrossShards: a runner is not bound to its block of
// ranks. When the first block carries all the work, the second block's
// runner steals from it — the report the same as a one-runner replay's.
// Whether it gets to before the first runner is done depends on the
// machine, so a few tries are allowed.
func TestReplayStealsAcrossShards(t *testing.T) {
	traces := skewTraces(8, 200, 8)
	cfg := Config{Scheme: vclock.FlatSingle, Title: "synthetic"} // analyze's
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cubeOf := func(res *Result) string {
		var b strings.Builder
		if err := res.Report.Write(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := cubeOf(analyze(t, traces))
	runtime.GOMAXPROCS(2)
	steals := regexp.MustCompile(`msg="replay scheduled" runners=2 .* steals=(\d+) `)
	for try := 0; try < 20; try++ {
		var logged strings.Builder
		cfg.Obs = obs.NewRecorder()
		cfg.Obs.Log = obs.NewLogger(&logged)
		cfg.Obs.Log.SetLevel(obs.LevelDebug)
		res, err := Analyze(traces, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := cubeOf(res); got != want {
			t.Fatalf("two runners reported\n%.300s\none runner\n%.300s", got, want)
		}
		m := steals.FindStringSubmatch(logged.String())
		if m == nil {
			t.Fatalf("no two-runner \"replay scheduled\" line in:\n%s", logged.String())
		}
		if m[1] != "0" {
			return
		}
	}
	t.Error("the idle runner never took a rank from the busy block")
}

// TestReplayGoroutinesBounded: the replay costs runners, not ranks. A
// 1024-rank ring exchange analysed at GOMAXPROCS 2 never runs more than
// the baseline plus its runners plus two goroutines — one goroutine per
// rank read at least 1024.
func TestReplayGoroutinesBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n, rounds = 1024, 8
	traces := ringTraces(n, rounds)

	stop, peak := make(chan struct{}), make(chan [2]int)
	go func() {
		most, samples := 0, 0
		for {
			select {
			case <-stop:
				peak <- [2]int{most, samples}
				return
			default:
			}
			most, samples = max(most, runtime.NumGoroutine()), samples+1
			time.Sleep(50 * time.Microsecond)
		}
	}()
	baseline := runtime.NumGoroutine() // the sampler included
	res, err := Analyze(traces, Config{Scheme: vclock.FlatSingle, Title: "ring"})
	close(stop)
	got := <-peak
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != n*rounds {
		t.Fatalf("matched %d messages, want %d", res.Messages, n*rounds)
	}
	const runners = 2
	t.Logf("%d goroutines at most over %d samples, baseline %d", got[0], got[1], baseline)
	if got[0] > baseline+runners+2 {
		t.Errorf("the replay of %d ranks ran %d goroutines, baseline %d: want at most %d",
			n, got[0], baseline, baseline+runners+2)
	}
}

// TestAnalyzeKeepsCallerLabels: the calling goroutine runs the first
// runner, and every step there sets its rank's pprof labels — layered on
// the caller's context — so the goroutine must leave AnalyzeContext with
// the caller's labels again, not with the last rank's.
func TestAnalyzeKeepsCallerLabels(t *testing.T) {
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("caller", "kept"))
	pprof.SetGoroutineLabels(ctx)
	defer pprof.SetGoroutineLabels(context.Background())
	if _, err := AnalyzeContext(ctx, exchangeTraces(4), Config{Scheme: vclock.FlatSingle, Title: "labels"}); err != nil {
		t.Fatal(err)
	}
	var prof strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&prof, 1); err != nil {
		t.Fatal(err)
	}
	for _, g := range strings.Split(prof.String(), "\n\n") {
		if strings.Contains(g, "TestAnalyzeKeepsCallerLabels") {
			if !strings.Contains(g, `# labels: {"caller":"kept"}`+"\n") {
				t.Fatalf("the caller's goroutine left the analysis with other labels:\n%s", g)
			}
			return
		}
	}
	t.Fatalf("no goroutine runs this test in the profile:\n%s", prof.String())
}

// TestLiveFinalizeUnwindsParkedLogs: ranks whose streams stop short park
// on their logs, and that is no deadlock — a feeder may still fill them,
// so the session keeps running, and metascope_replay_ranks_waiting_upload
// says how many wait. A Finalize whose context is already cancelled
// closes the streams, fails the session and still unwinds every rank and
// every runner, and no rank waits any more.
func TestLiveFinalizeUnwindsParkedLogs(t *testing.T) {
	traces := exchangeTraces(8)
	before := runtime.NumGoroutine()
	rec := obs.NewRecorder()
	waiting := newReplayMetrics(rec).waitingUpload
	l, err := NewLive(LiveConfig{Config: Config{Scheme: vclock.FlatSingle, Obs: rec}, Ranks: len(traces), EmitEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for r, tr := range traces {
		img := v2Blocks(t, tr, 8, blockCounts(len(tr.Events), 8)...)
		if err := l.FeedChunk(r, img[:len(img)-4]); err != nil { // the last block never completes
			t.Fatal(err)
		}
	}
	s := l.a.sched
	for deadline := time.Now().Add(cancelDeadline); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		settled := int(s.idle.Load()) == len(s.shards) && s.logParked > 0
		s.mu.Unlock()
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the sweeps never settled on their logs")
		}
	}
	if st := l.Status(); st.State != "running" {
		t.Fatalf("ranks parked on their logs left the session %q (%v), want running", st.State, l.sessionErr())
	}
	if v := waiting.Value(); v <= 0 {
		t.Errorf("metascope_replay_ranks_waiting_upload = %g with the sweeps parked on their logs, want > 0", v)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := l.Finalize(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("finalize: err = %v, want the truncated stream's failure", err)
		}
	case <-time.After(cancelDeadline):
		t.Fatal("finalize did not return")
	}
	if st := l.Status(); st.State != "failed" {
		t.Errorf("state %q, want failed", st.State)
	}
	if v := waiting.Value(); v != 0 {
		t.Errorf("metascope_replay_ranks_waiting_upload = %g after Finalize, want 0", v)
	}
	waitNoLeak(t, before)
}
