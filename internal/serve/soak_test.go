package serve

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metascope/internal/conformance"
	"metascope/internal/cube"
)

// The soak: sustained mixed traffic — good archives, hostile uploads,
// cancellations, cache hits — against one server for seconds (short
// mode) or minutes (`make soak` sets METASCOPE_SOAK_SECONDS), under
// the race detector, verifying oracle-exact results throughout and a
// goroutine-clean shutdown at the end.

// soakDuration returns how long to hammer the server: ~1.5 s by
// default so the tier-1 gate stays fast, METASCOPE_SOAK_SECONDS for a
// real soak.
func soakDuration(t *testing.T) time.Duration {
	t.Helper()
	if v := os.Getenv("METASCOPE_SOAK_SECONDS"); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil || secs < 1 {
			t.Fatalf("METASCOPE_SOAK_SECONDS=%q: want a positive integer", v)
		}
		return time.Duration(secs) * time.Second
	}
	return 1500 * time.Millisecond
}

func TestServeSoak(t *testing.T) {
	if testing.Short() && os.Getenv("METASCOPE_SOAK_SECONDS") == "" {
		t.Skip("soak skipped in -short mode")
	}
	bundles := oracleBundles(t)
	// Hostile uploads: not a zip, and zips whose directory lies about an
	// entry's size or checksum.
	hostile := [][]byte{[]byte("not a zip at all")}
	for _, lie := range lyingBundles(t) {
		hostile = append(hostile, lie.body)
	}

	before := runtime.NumGoroutine()
	// The store is deliberately smaller than the working set (4 bundles
	// × 2 schemes = 8 keys) so the soak exercises eviction churn and
	// keeps real replays flowing instead of devolving into cache hits. It
	// keeps 4 finished analyses in all, so a client's own job may be
	// evicted by the others' before it reads the result: 410, counted.
	s := New(Options{
		Workers:      4,
		QueueDepth:   32,
		CacheEntries: 4,
		Obs:          testRecorder(),
	})
	ts := httptestStart(t, s)

	var (
		done      atomic.Bool
		submitted atomic.Int64
		verified  atomic.Int64
		cacheHits atomic.Int64
		shed      atomic.Int64
		cancels   atomic.Int64
		badOK     atomic.Int64
		evicted   atomic.Int64
	)
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c + 1)))
			for i := 0; !done.Load(); i++ {
				switch {
				case i%7 == 3:
					// Hostile upload: must be a clean 400.
					_, resp := submitZip(t, ts.URL, hostile[rng.Intn(len(hostile))], "")
					resp.Body.Close()
					if resp.StatusCode != http.StatusBadRequest {
						t.Errorf("bad upload: status %d, want 400", resp.StatusCode)
						return
					}
					badOK.Add(1)
				default:
					b := bundles[rng.Intn(len(bundles))]
					query := "" // default scheme: hierarchical
					if rng.Intn(2) == 0 {
						query = "?scheme=flat2" // also oracle-exact
					}
					st, resp := submitZip(t, ts.URL, b.zip, query)
					switch resp.StatusCode {
					case http.StatusTooManyRequests:
						shed.Add(1)
						time.Sleep(5 * time.Millisecond)
						continue
					case http.StatusOK:
						cacheHits.Add(1)
					case http.StatusAccepted:
					default:
						t.Errorf("submit: unexpected status %d", resp.StatusCode)
						return
					}
					submitted.Add(1)
					if i%11 == 5 && resp.StatusCode == http.StatusAccepted {
						// Cancel some in-flight work; any terminal state is
						// legal (the job may have finished first).
						req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
						cr, err := http.DefaultClient.Do(req)
						if err != nil {
							t.Errorf("cancel: %v", err)
							return
						}
						cr.Body.Close()
						cancels.Add(1)
						continue
					}
					final, code := pollJob(t, ts.URL, st.ID)
					var body []byte
					if code == http.StatusOK {
						if final.State != StateDone {
							t.Errorf("job %s (%s): state %s, err %q", st.ID, b.s.Name, final.State, final.Error)
							return
						}
						code, body = getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
					}
					switch code {
					case http.StatusGone:
						evicted.Add(1)
						continue
					case http.StatusOK:
					default:
						t.Errorf("job %s (%s): HTTP %d", st.ID, b.s.Name, code)
						return
					}
					rep, err := cube.Read(bytes.NewReader(body))
					if err != nil {
						t.Errorf("job %s (%s): cube does not parse: %v", st.ID, b.s.Name, err)
						return
					}
					for _, mm := range conformance.CheckOracle(rep, b.s, b.scale, conformance.ExactTol) {
						t.Errorf("job %s (%s): %v", st.ID, b.s.Name, mm)
					}
					verified.Add(1)
				}
			}
		}(c)
	}

	time.Sleep(soakDuration(t))
	done.Store(true)
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	t.Logf("soak: %d submitted, %d verified exact, %d evicted first (410), %d cache hits, %d shed (429), %d cancels, %d hostile rejected",
		submitted.Load(), verified.Load(), evicted.Load(), cacheHits.Load(), shed.Load(), cancels.Load(), badOK.Load())
	if verified.Load() == 0 {
		t.Fatal("soak verified no jobs at all")
	}
	// Drained, every analysis is finished, so the store holds at most
	// CacheEntries records.
	s.mu.Lock()
	kept := len(s.order)
	s.mu.Unlock()
	if kept > 4 {
		t.Fatalf("store keeps %d analyses after the soak, want at most CacheEntries = 4", kept)
	}

	// Shutdown must be goroutine-clean: close the HTTP side, retire
	// idle client connections, and require the count back at baseline.
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak after soak: %d before, %d after", before, after)
	}
}
