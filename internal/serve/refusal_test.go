package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"metascope/internal/obs"
	"metascope/internal/replay"
)

// records is a slog.Handler that keeps every record it is handed, so a
// test reads a log line's level, message and attributes as values.
type records struct {
	mu sync.Mutex
	rs []slog.Record
}

func (h *records) Enabled(context.Context, slog.Level) bool { return true }
func (h *records) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *records) WithGroup(string) slog.Handler            { return h }

func (h *records) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	h.rs = append(h.rs, r.Clone())
	h.mu.Unlock()
	return nil
}

// withMsg returns the records logged with message msg so far.
func (h *records) withMsg(msg string) []slog.Record {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []slog.Record
	for _, r := range h.rs {
		if r.Message == msg {
			out = append(out, r)
		}
	}
	return out
}

// attrs returns a record's attributes by key.
func attrs(r slog.Record) map[string]slog.Value {
	m := map[string]slog.Value{}
	r.Attrs(func(a slog.Attr) bool {
		m[a.Key] = a.Value
		return true
	})
	return m
}

// familyValues returns the values of one metric family's series, keyed
// by the value of label.
func familyValues(rec *obs.Recorder, name, label string) map[string]float64 {
	out := map[string]float64{}
	for _, fam := range rec.Reg.Snapshot() {
		if fam.Name == name {
			for _, ser := range fam.Series {
				out[ser.Labels[label]] += ser.Value
			}
		}
	}
	return out
}

// TestRefusals is the table of every refusal the job, session and chunk
// routes make before a request becomes work: each one answers its
// status, moves metascope_serve_rejected_total once under its reason, and
// logs one warn record "request refused" carrying that reason and
// status.
func TestRefusals(t *testing.T) {
	traces, blobs := pairArchive(t, 2, 10)
	bundle := pairBundle(t, traces, blobs)
	big := bytes.Repeat([]byte("A"), 4096)
	var overBundle bytes.Buffer
	newZipWith(t, &overBundle, map[string][]byte{"mh0/epik_big/trace.0.mscp": big})

	// do serves one request on the handler, which answers synchronously.
	type doFunc func(method, target string, body []byte) *httptest.ResponseRecorder
	req := func(method, target string, body []byte) *http.Request {
		return httptest.NewRequest(method, target, bytes.NewReader(body))
	}
	open := func(t *testing.T, do doFunc, query string) string {
		w := do(http.MethodPost, "/v1/sessions"+query, nil)
		var st SessionStatus
		if w.Code != http.StatusCreated || json.Unmarshal(w.Body.Bytes(), &st) != nil {
			t.Fatalf("open session: HTTP %d %s", w.Code, w.Body)
		}
		return st.ID
	}
	chunk := func(id string, mh, rank any, query string) string {
		return fmt.Sprintf("/v1/sessions/%s/ranks/%v/%v?%s", id, mh, rank, query)
	}
	mh0 := traces[0].Loc.Metahost
	drain := func(t *testing.T, s *Server) {
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name   string
		opts   Options
		reason string
		status int
		// refused sets the server up and returns the request it refuses.
		refused func(t *testing.T, s *Server, do doFunc) *http.Request
	}{
		{"job/draining", Options{}, "draining", http.StatusServiceUnavailable, func(t *testing.T, s *Server, do doFunc) *http.Request {
			drain(t, s)
			return req(http.MethodPost, "/v1/jobs", bundle)
		}},
		{"job/bad scheme", Options{}, "bad_request", http.StatusBadRequest, func(t *testing.T, s *Server, do doFunc) *http.Request {
			return req(http.MethodPost, "/v1/jobs?scheme=nope", bundle)
		}},
		{"job/empty body", Options{}, "bad_request", http.StatusBadRequest, func(t *testing.T, s *Server, do doFunc) *http.Request {
			return req(http.MethodPost, "/v1/jobs", nil)
		}},
		{"job/not a zip", Options{}, "bad_request", http.StatusBadRequest, func(t *testing.T, s *Server, do doFunc) *http.Request {
			return req(http.MethodPost, "/v1/jobs", []byte("not a zip bundle"))
		}},
		{"job/path outside root", Options{Root: t.TempDir()}, "bad_request", http.StatusBadRequest, func(t *testing.T, s *Server, do doFunc) *http.Request {
			return req(http.MethodPost, "/v1/jobs?path=../run1", nil)
		}},
		{"job/body too large", Options{MaxUploadBytes: 1024}, "too_large", http.StatusRequestEntityTooLarge, func(t *testing.T, s *Server, do doFunc) *http.Request {
			return req(http.MethodPost, "/v1/jobs", big)
		}},
		{"job/bundle too large", Options{MaxUploadBytes: 1024}, "too_large", http.StatusRequestEntityTooLarge, func(t *testing.T, s *Server, do doFunc) *http.Request {
			return req(http.MethodPost, "/v1/jobs", overBundle.Bytes())
		}},
		{"job/queue full", Options{Workers: 1, QueueDepth: 1}, "queue_full", http.StatusTooManyRequests, func(t *testing.T, s *Server, do doFunc) *http.Request {
			s.runJob = func(ctx context.Context, j *job) (*replay.Result, error) {
				<-ctx.Done()
				return nil, context.Cause(ctx)
			}
			var first JobStatus
			w := do(http.MethodPost, "/v1/jobs", bundle)
			must(t, json.Unmarshal(w.Body.Bytes(), &first))
			waitState(t, s, first.ID, StateRunning)
			if w := do(http.MethodPost, "/v1/jobs", bundle); w.Code != http.StatusAccepted {
				t.Fatalf("second job: HTTP %d %s", w.Code, w.Body)
			}
			return req(http.MethodPost, "/v1/jobs", bundle)
		}},

		{"session/bad ranks", Options{}, "bad_request", http.StatusBadRequest, func(t *testing.T, s *Server, do doFunc) *http.Request {
			return req(http.MethodPost, "/v1/sessions?ranks=0", nil)
		}},
		{"session/bad window", Options{}, "bad_request", http.StatusBadRequest, func(t *testing.T, s *Server, do doFunc) *http.Request {
			return req(http.MethodPost, "/v1/sessions?ranks=2&window=-1s", nil)
		}},
		{"session/full", Options{MaxSessions: 1}, "sessions_full", http.StatusTooManyRequests, func(t *testing.T, s *Server, do doFunc) *http.Request {
			open(t, do, "?ranks=2")
			return req(http.MethodPost, "/v1/sessions?ranks=2", nil)
		}},
		{"session/draining", Options{}, "draining", http.StatusServiceUnavailable, func(t *testing.T, s *Server, do doFunc) *http.Request {
			drain(t, s)
			return req(http.MethodPost, "/v1/sessions?ranks=2", nil)
		}},

		{"chunk/bad metahost", Options{}, "bad_request", http.StatusBadRequest, func(t *testing.T, s *Server, do doFunc) *http.Request {
			return req(http.MethodPut, chunk(open(t, do, "?ranks=2"), "x", 0, "seq=0"), blobs[0])
		}},
		{"chunk/bad rank", Options{}, "bad_request", http.StatusBadRequest, func(t *testing.T, s *Server, do doFunc) *http.Request {
			return req(http.MethodPut, chunk(open(t, do, "?ranks=2"), mh0, 2, "seq=0"), blobs[0])
		}},
		{"chunk/bad seq", Options{}, "bad_request", http.StatusBadRequest, func(t *testing.T, s *Server, do doFunc) *http.Request {
			return req(http.MethodPut, chunk(open(t, do, "?ranks=2"), mh0, 0, "seq=-1"), blobs[0])
		}},
		{"chunk/unreadable body", Options{}, "bad_request", http.StatusBadRequest, func(t *testing.T, s *Server, do doFunc) *http.Request {
			r := req(http.MethodPut, chunk(open(t, do, "?ranks=2"), mh0, 0, "seq=0"), blobs[0][:10])
			r.ContentLength = 20
			return r
		}},
		{"chunk/body too large", Options{MaxUploadBytes: 1024}, "too_large", http.StatusRequestEntityTooLarge, func(t *testing.T, s *Server, do doFunc) *http.Request {
			return req(http.MethodPut, chunk(open(t, do, "?ranks=2"), mh0, 0, "seq=0"), big)
		}},
		{"chunk/session not open", Options{}, "conflict", http.StatusConflict, func(t *testing.T, s *Server, do doFunc) *http.Request {
			id := open(t, do, "?ranks=2")
			if w := do(http.MethodDelete, "/v1/sessions/"+id, nil); w.Code != http.StatusOK {
				t.Fatalf("delete: HTTP %d %s", w.Code, w.Body)
			}
			return req(http.MethodPut, chunk(id, mh0, 0, "seq=0"), blobs[0])
		}},
		{"chunk/sequence gap", Options{}, "conflict", http.StatusConflict, func(t *testing.T, s *Server, do doFunc) *http.Request {
			return req(http.MethodPut, chunk(open(t, do, "?ranks=2"), mh0, 0, "seq=3"), blobs[0])
		}},
		{"chunk/rank finished", Options{}, "conflict", http.StatusConflict, func(t *testing.T, s *Server, do doFunc) *http.Request {
			id := open(t, do, "?ranks=2")
			if w := do(http.MethodPut, chunk(id, mh0, 0, "seq=0&last=1"), blobs[0]); w.Code != http.StatusOK {
				t.Fatalf("rank 0: HTTP %d %s", w.Code, w.Body)
			}
			return req(http.MethodPut, chunk(id, mh0, 0, "seq=1"), blobs[0])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			logged := &records{}
			rec := obs.NewRecorder()
			rec.Log = &obs.Logger{Logger: slog.New(logged)}
			tc.opts.Obs, tc.opts.CacheEntries = rec, -1
			s := New(tc.opts)
			t.Cleanup(func() {
				s.mu.Lock()
				for _, f := range slices.Clone(s.order) { // settling may evict
					s.stop(f, errCancelled)
				}
				s.mu.Unlock()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				s.Drain(ctx) // a draining case has drained already
			})
			do := func(method, target string, body []byte) *httptest.ResponseRecorder {
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, req(method, target, body))
				return w
			}
			r := tc.refused(t, s, do)

			before := len(logged.withMsg("request refused"))
			counted := familyValues(rec, "metascope_serve_rejected_total", "reason")
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, r)
			if w.Code != tc.status {
				t.Fatalf("HTTP %d %s, want %d", w.Code, w.Body, tc.status)
			}
			var je jsonError
			if err := json.Unmarshal(w.Body.Bytes(), &je); err != nil || je.Status != tc.status || je.Error == "" {
				t.Errorf("body %s is not the structured error", w.Body)
			}

			moved := familyValues(rec, "metascope_serve_rejected_total", "reason")
			for reason, v := range moved {
				want := counted[reason]
				if reason == tc.reason {
					want++
				}
				if v != want {
					t.Errorf("rejected_total{reason=%q} moved %g → %g, want %g", reason, counted[reason], v, want)
				}
			}
			lines := logged.withMsg("request refused")[before:]
			if len(lines) != 1 {
				t.Fatalf("%d refusal records, want 1", len(lines))
			}
			got := attrs(lines[0])
			if lines[0].Level != slog.LevelWarn || got["reason"].String() != tc.reason ||
				got["status"].Int64() != int64(tc.status) || got["error"].String() != je.Error {
				t.Errorf("refusal record %v %v, want warn reason=%s status=%d error=%q", lines[0].Level, got, tc.reason, tc.status, je.Error)
			}
		})
	}
}

// TestSessionDeleteMidReplayIsCancelled: a DELETE that lands while the
// replay runs — every header in, rank 0's stream unfinished, so the
// sweeps wait on its log — ends the session cancelled in all three
// places an operator looks: the replay's abort counter, the last state
// of the event stream, and the session status.
func TestSessionDeleteMidReplayIsCancelled(t *testing.T) {
	rec := obs.NewRecorder()
	_, ts := newTestServer(t, Options{Workers: 1, Obs: rec})
	traces, blobs := pairArchive(t, 4, 200)
	id := openSession(t, ts.URL, fmt.Sprintf("?ranks=%d", len(blobs))).ID
	for r := len(blobs) - 1; r >= 0; r-- {
		data, last := blobs[r], true
		if r == 0 {
			data, last = data[:len(data)/2], false
		}
		if code, body := putChunk(t, ts.URL, id, traces[r].Loc.Metahost, r, 0, data, last); code != http.StatusOK {
			t.Fatalf("rank %d: HTTP %d %v", r, code, body)
		}
	}
	aborts := familyValues(rec, "metascope_replay_aborts_total", "cause")

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	must(t, err)
	var st SessionStatus
	must(t, json.NewDecoder(resp.Body).Decode(&st))
	resp.Body.Close()
	if st.State != string(StateCancelled) {
		t.Errorf("status state %q (%s), want cancelled", st.State, st.Error)
	}

	after := familyValues(rec, "metascope_replay_aborts_total", "cause")
	if d := after["cancelled"] - aborts["cancelled"]; d != 1 {
		t.Errorf("metascope_replay_aborts_total{cause=\"cancelled\"} moved by %g, want 1", d)
	}
	if d := after["failed"] - aborts["failed"]; d != 0 {
		t.Errorf("metascope_replay_aborts_total{cause=\"failed\"} moved by %g, want 0", d)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events, ended := readSSE(ctx, t, ts.URL+"/v1/experiments/"+id+"/stream", 0, 0)
	if !ended {
		t.Fatal("the stream of a settled session did not end")
	}
	last := ""
	for _, ev := range events {
		var se replay.StreamEvent
		if ev.typ == "state" && json.Unmarshal(ev.data, &se) == nil && se.State != nil {
			last = se.State.State
		}
	}
	if last != "cancelled" {
		t.Errorf("last stream state %q, want cancelled", last)
	}
}
