package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"metascope/internal/obs"
	"metascope/internal/replay"
)

// The store is the result cache: it keeps the newest CacheEntries
// finished analyses of either feeder, answers a resubmission from a kept
// done job, and answers 410 Gone for an id it has evicted.

// idRoutes is every route that resolves an analysis by id; %[1]s is the
// id.
var idRoutes = []struct{ method, path string }{
	{http.MethodGet, "/v1/jobs/%[1]s"},
	{http.MethodDelete, "/v1/jobs/%[1]s"},
	{http.MethodGet, "/v1/jobs/%[1]s/result"},
	{http.MethodGet, "/v1/jobs/%[1]s/profile"},
	{http.MethodGet, "/v1/jobs/%[1]s/trace"},
	{http.MethodGet, "/v1/diff?a=%[1]s&b=%[1]s"},
	{http.MethodGet, "/v1/sessions/%[1]s"},
	{http.MethodDelete, "/v1/sessions/%[1]s"},
	{http.MethodPut, "/v1/sessions/%[1]s/ranks/0/0?seq=0"},
	{http.MethodPost, "/v1/sessions/%[1]s/finalize"},
	{http.MethodGet, "/v1/experiments/%[1]s/stream"},
	{http.MethodGet, "/v1/experiments/%[1]s/result"},
	{http.MethodGet, "/v1/experiments/%[1]s/profile"},
}

// TestStoreEviction is the eviction table. For either feeder, three
// finished analyses against a bound of two: the oldest registered is
// evicted and answers 410 on every id route, the two newer ones stay, an
// id never issued answers 404, and the eviction moves its feeder's
// counter once and logs one debug line.
func TestStoreEviction(t *testing.T) {
	b := oracleBundles(t)[0]
	for _, feeder := range []string{"job", "session"} {
		t.Run(feeder, func(t *testing.T) {
			rec := obs.NewRecorder()
			logged := &logLines{}
			rec.Log = obs.NewLogger(logged)
			rec.Log.SetLevel(obs.LevelDebug)
			s, ts := newTestServer(t, Options{Workers: 1, CacheEntries: 2, Obs: rec})
			finish := map[string]func() string{
				// A byte-identical resubmission is a finished analysis of its
				// own, reusing the kept result.
				"job": func() string {
					st, _ := submitZip(t, ts.URL, b.zip, "")
					return awaitJob(t, ts.URL, st.ID).ID
				},
				"session": func() string {
					st := openSession(t, ts.URL, "?ranks=2")
					deleteID(t, ts.URL+"/v1/sessions/"+st.ID)
					return st.ID
				},
			}[feeder]
			ids := []string{finish(), finish(), finish()}
			status := map[string]string{"job": "/v1/jobs/", "session": "/v1/sessions/"}[feeder]
			for _, id := range ids[1:] {
				if code, body := getBody(t, ts.URL+status+id); code != http.StatusOK {
					t.Errorf("kept %s: HTTP %d %s", id, code, body)
				}
			}
			never := map[string]string{"job": "job-99", "session": "exp-99"}[feeder]
			for _, r := range idRoutes {
				for id, want := range map[string]int{ids[0]: http.StatusGone, never: http.StatusNotFound} {
					req, _ := http.NewRequest(r.method, ts.URL+fmt.Sprintf(r.path, id), nil)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					if resp.StatusCode != want {
						t.Errorf("%s %s: HTTP %d, want %d", r.method, fmt.Sprintf(r.path, id), resp.StatusCode, want)
					}
					decodeErr(t, resp)
				}
			}
			for _, kind := range []string{"job", "session"} {
				want := map[string]float64{feeder: 1}[kind]
				if v := s.m.evicted.With(kind).Value(); v != want {
					t.Errorf("evicted_total{feeder=%q} = %v, want %v", kind, v, want)
				}
			}
			if lines := logged.matching(`msg="analysis evicted"`); len(lines) != 1 || !strings.Contains(lines[0], "id="+ids[0]) {
				t.Errorf("eviction logged as %q, want one line naming %s", lines, ids[0])
			}
			if v := s.m.cacheEntries.Value(); v != 2 {
				t.Errorf("cache entries = %v, want 2", v)
			}
		})
	}
}

// TestLRUIdenticalKeyCollapses: the store's key is the digest of the
// archive bytes and the scheme. Resubmissions of byte-identical bytes
// under one scheme collapse onto one run and one result, and the newest
// of them is what the key resolves to; the same bytes under another
// scheme are a key of their own and run again.
func TestLRUIdenticalKeyCollapses(t *testing.T) {
	b := oracleBundles(t)[0]
	s, ts := newTestServer(t, Options{Workers: 1, CacheEntries: 8})
	var runs atomic.Int32
	s.runJob = func(ctx context.Context, j *job) (*replay.Result, error) {
		runs.Add(1)
		return &replay.Result{}, nil
	}
	var ids []string
	for i := 0; i < 3; i++ {
		st, _ := submitZip(t, ts.URL, b.zip, "?scheme=hier")
		ids = append(ids, awaitJob(t, ts.URL, st.ID).ID)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("identical submissions ran %d times, want 1", n)
	}
	s.mu.Lock()
	first := s.analyses[ids[0]].(*job)
	for _, id := range ids[1:] {
		if j := s.analyses[id].(*job); j.cacheKey != first.cacheKey || j.result != first.result {
			t.Errorf("%s: key %q result %p, want %q and the first run's %p", id, j.cacheKey, j.result, first.cacheKey, first.result)
		}
	}
	newest := s.reusable(first.cacheKey)
	s.mu.Unlock()
	if newest == nil || newest.id != ids[2] {
		t.Fatalf("key resolves to %v, want the newest resubmission %s", newest, ids[2])
	}
	st, resp := submitZip(t, ts.URL, b.zip, "?scheme=flat2")
	if resp.StatusCode != http.StatusAccepted || st.Cached {
		t.Fatalf("other scheme: HTTP %d, cached=%v; want 202 and a run", resp.StatusCode, st.Cached)
	}
	awaitJob(t, ts.URL, st.ID)
	if n := runs.Load(); n != 2 {
		t.Fatalf("after a second scheme: %d runs, want 2", n)
	}
}

// TestStoreNeverEvictsUnfinished: over its bound, the store evicts only
// finished analyses. An open session, a running job and a queued job stay
// however many newer analyses finish around them.
func TestStoreNeverEvictsUnfinished(t *testing.T) {
	b := oracleBundles(t)[0]
	s, ts := blockedServer(t, Options{Workers: 1, CacheEntries: 1})
	open := openSession(t, ts.URL, "?ranks=2")
	running, _ := submitZip(t, ts.URL, b.zip, "")
	waitState(t, s, running.ID, StateRunning)
	queued, _ := submitZip(t, ts.URL, b.zip, "?scheme=flat2")
	const finished = 4
	for i := 0; i < finished; i++ {
		deleteID(t, ts.URL+"/v1/sessions/"+openSession(t, ts.URL, "?ranks=2").ID)
	}
	for id, want := range map[string]State{open.ID: stateOpen, running.ID: StateRunning, queued.ID: StateQueued} {
		waitState(t, s, id, want)
	}
	if v := s.m.evicted.With("session").Value(); v != finished-1 {
		t.Errorf("evicted_total{feeder=session} = %v, want %d", v, finished-1)
	}
	s.mu.Lock()
	held := len(s.order)
	s.mu.Unlock()
	if held != 4 {
		t.Errorf("store holds %d analyses, want the 3 unfinished and 1 finished", held)
	}
}

// TestStoreReuseOff: a negative CacheEntries answers no submission from
// a kept job — a byte-identical resubmission runs again — but the store
// still keeps the default number of finished analyses, so each client
// fetches its own result.
func TestStoreReuseOff(t *testing.T) {
	b := oracleBundles(t)[1]
	s, ts := newTestServer(t, Options{Workers: 1, CacheEntries: -1})
	for i := 0; i < 2; i++ {
		st, resp := submitZip(t, ts.URL, b.zip, "")
		if resp.StatusCode != http.StatusAccepted || st.Cached {
			t.Fatalf("submission %d: HTTP %d, cached=%v; want 202 and a run", i, resp.StatusCode, st.Cached)
		}
		checkJobOracle(t, ts.URL, awaitJob(t, ts.URL, st.ID), b)
	}
	if v := s.m.cacheHits.Value(); v != 0 {
		t.Errorf("cache hits = %v with reuse off", v)
	}
	if got := s.keep; got != 128 {
		t.Errorf("reuse off keeps %d finished analyses, want the default 128", got)
	}
}

// TestStoreHeapFlat: the store's bound is a memory bound. After ten times
// CacheEntries jobs, each with a result of its own, the post-GC heap holds
// at most CacheEntries + 2 results more than before them, plus slack.
func TestStoreHeapFlat(t *testing.T) {
	const keep, resultBytes, slack = 4, 1 << 20, 2 << 20
	bundles := oracleBundles(t)
	s, ts := newTestServer(t, Options{Workers: 1, CacheEntries: keep})
	// Every run allocates a result of known size; the ballast stands in
	// for the cube, profile and phases of a real one.
	s.runJob = func(ctx context.Context, j *job) (*replay.Result, error) {
		return &replay.Result{ReplayBytes: make([]int64, resultBytes/8)}, nil
	}
	// Four archives under three schemes cycle through twelve cache keys,
	// more than the store keeps, so every submission runs.
	schemes := []string{"flat1", "flat2", "hier"}
	run := func(i int) {
		query := "?scheme=" + schemes[i/len(bundles)%len(schemes)]
		st, resp := submitZip(t, ts.URL, bundles[i%len(bundles)].zip, query)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d, want 202 (a run, not a reuse)", i, resp.StatusCode)
		}
		if fin := awaitJob(t, ts.URL, st.ID); fin.State != StateDone {
			t.Fatalf("job %d ended %s: %s", i, fin.State, fin.Error)
		}
	}
	run(0) // connections, pools and lazily built tables settle
	base := settledHeap()
	for i := 1; i <= 10*keep; i++ {
		run(i)
	}
	grown := settledHeap() - base
	t.Logf("post-GC heap grew %d KiB over %d jobs of a %d KiB result each", grown>>10, 10*keep, resultBytes>>10)
	if limit := int64((keep+2)*resultBytes + slack); grown > limit {
		t.Errorf("post-GC heap grew %d KiB, over %d KiB: the store keeps more than CacheEntries = %d results",
			grown>>10, limit>>10, keep)
	}
}
