package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"metascope/internal/replay"
)

// events builds the canned stream a fake server replays: the event
// shapes mirror what replay.Live emits for a tiny two-rank session.
func cannedEvents() []replay.StreamEvent {
	return []replay.StreamEvent{
		{Seq: 1, Type: "state", State: &replay.StateEvent{State: "open"}},
		{Seq: 2, Type: "state", State: &replay.StateEvent{State: "running"}},
		{Seq: 3, Type: "window", Window: &replay.WindowEvent{
			Index: 0, Start: 0, End: 2, Closed: true,
			Deltas: []replay.WindowDelta{{Metric: "mpi.point_to_point.late_sender", Metahost: 1, Value: 1.5}},
		}},
		{Seq: 4, Type: "frontier", Frontier: &replay.FrontierEvent{
			Progress: 4.25, ProgressValid: true, Ingest: 4, IngestValid: true, ClosedThrough: 0,
			Slowest: []replay.RankLag{
				{Rank: 1, Metahost: "BETA", Events: 8, Swept: 6, Bytes: 384, Ingested: 4, HasTime: true, Finished: true},
				{Rank: 0, Metahost: "ALPHA", Events: 10, Swept: 10, Bytes: 512, Ingested: 4.5, HasTime: true},
			},
		}},
		{Seq: 5, Type: "window", Window: &replay.WindowEvent{
			Index: 1, Start: 2, End: 4, Closed: true,
			Deltas: []replay.WindowDelta{
				{Metric: "mpi.point_to_point.late_sender", Metahost: 1, Value: 0.5},
				{Metric: "mpi.synchronization.wait_barrier", Metahost: 0, Value: 0.25},
			},
		}},
		{Seq: 6, Type: "summary", Summary: &replay.SummaryEvent{
			Totals: []replay.WindowDelta{
				{Metric: "mpi.point_to_point.late_sender", Metahost: 1, Value: 2},
				{Metric: "mpi.synchronization.wait_barrier", Metahost: 0, Value: 0.25},
			},
			WindowsClosed: 2, Messages: 3, Collectives: 2,
		}},
		{Seq: 7, Type: "state", State: &replay.StateEvent{State: "done"}},
	}
}

func writeSSE(w http.ResponseWriter, ev replay.StreamEvent) {
	b, _ := json.Marshal(ev)
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, b)
	w.(http.Flusher).Flush()
}

func TestApplyDropsReplayedEvents(t *testing.T) {
	st := newWatchState("exp-1")
	evs := cannedEvents()
	for _, ev := range evs {
		st.apply(ev)
	}
	// Replay the whole stream again, as a reconnect with a stale resume
	// position would: nothing may double-count.
	for _, ev := range evs {
		st.apply(ev)
	}
	if st.state != "done" {
		t.Fatalf("state = %q, want done", st.state)
	}
	ls := st.sums[sevKey{"mpi.point_to_point.late_sender", 1}]
	if ls != 2 {
		t.Fatalf("late_sender sum = %v after replay, want 2", ls)
	}
	if st.windows != 2 {
		t.Fatalf("windows = %d, want 2", st.windows)
	}
	if st.summary == nil || st.summary.WindowsClosed != 2 {
		t.Fatalf("summary not retained: %+v", st.summary)
	}
}

func TestRenderLayout(t *testing.T) {
	st := newWatchState("exp-1")
	for _, ev := range cannedEvents() {
		st.apply(ev)
	}
	st.reconnects = 1
	frame := render(st)
	for _, want := range []string{
		"metascope watch exp-1 — done",
		"reconnects 1",
		"frontier 4.250 s",
		"closed through window 0",
		"slowest ranks",
		"ALPHA",
		"BETA",
		"mpi.point_to_point.late_sender",
		"2.000000",
		"summary: 2 windows closed · 3 messages · 2 collectives · 0 violations",
	} {
		if !strings.Contains(frame, want) {
			t.Fatalf("rendered frame missing %q:\n%s", want, frame)
		}
	}
}

func TestRenderEmptyState(t *testing.T) {
	frame := render(newWatchState("exp-9"))
	if !strings.Contains(frame, "metascope watch exp-9 — connecting") {
		t.Fatalf("empty-state frame unexpected:\n%s", frame)
	}
}

// TestWatchSSEResume drops the first connection mid-stream and checks
// the client resumes with Last-Event-ID without losing or
// double-counting events.
func TestWatchSSEResume(t *testing.T) {
	evs := cannedEvents()
	var conns atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments/exp-1/stream", func(w http.ResponseWriter, r *http.Request) {
		n := conns.Add(1)
		after := uint64(0)
		if v := r.Header.Get("Last-Event-ID"); v != "" {
			fmt.Sscanf(v, "%d", &after)
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "retry: 10\n\n")
		if n == 1 {
			if after != 0 {
				t.Errorf("first connection sent Last-Event-ID %d", after)
			}
			for _, ev := range evs[:3] {
				writeSSE(w, ev)
			}
			return // drop mid-stream
		}
		if after != 3 {
			t.Errorf("resume Last-Event-ID = %d, want 3", after)
		}
		// Overlap one event to prove the client dedups replays.
		for _, ev := range evs[2:] {
			writeSSE(w, ev)
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var out bytes.Buffer
	o := watchOptions{server: srv.URL, interval: time.Millisecond, plain: true}
	if err := watch(context.Background(), o, []string{"exp-1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := conns.Load(); got != 2 {
		t.Fatalf("connections = %d, want 2", got)
	}
	final := out.String()
	if !strings.Contains(final, "metascope watch exp-1 — done") {
		t.Fatalf("final frame not done:\n%s", final)
	}
	if !strings.Contains(final, "reconnects 1") {
		t.Fatalf("reconnect not surfaced:\n%s", final)
	}
	if !strings.Contains(final, "2.000000") {
		t.Fatalf("late_sender total wrong (overlap double-counted?):\n%s", final)
	}
}

// TestWatchFailedSession checks a failed session becomes a non-zero
// exit.
func TestWatchFailedSession(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments/exp-2/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		writeSSE(w, replay.StreamEvent{Seq: 1, Type: "state", State: &replay.StateEvent{State: "open"}})
		writeSSE(w, replay.StreamEvent{Seq: 2, Type: "state",
			State: &replay.StateEvent{State: "failed", Error: "rank 1 never finished"}})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var out bytes.Buffer
	o := watchOptions{server: srv.URL, interval: time.Millisecond, plain: true}
	err := watch(context.Background(), o, []string{"exp-2"}, &out)
	if err == nil || !strings.Contains(err.Error(), "rank 1 never finished") {
		t.Fatalf("run err = %v, want failure with cause", err)
	}
}

// TestWatchHTTPError checks a 404 surfaces rather than retrying
// forever.
func TestWatchHTTPError(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	var out bytes.Buffer
	o := watchOptions{server: srv.URL, interval: time.Millisecond, plain: true}
	err := watch(context.Background(), o, []string{"nope"}, &out)
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("run err = %v, want 404", err)
	}
}

func TestUsageError(t *testing.T) {
	if err := watch(context.Background(), watchOptions{}, nil, &bytes.Buffer{}); err == nil {
		t.Fatal("run with no args succeeded")
	}
}
