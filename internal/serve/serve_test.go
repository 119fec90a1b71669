package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"metascope/internal/conformance"
	"metascope/internal/cube"
	"metascope/internal/obs"
	"metascope/internal/pattern"
	"metascope/internal/replay"
)

// The end-to-end contract: the service must hand back, over HTTP and
// under heavy submission concurrency, exactly the severities the
// analytic oracle predicts for each archive — and never mix up two
// jobs' results. The suite therefore drives the real pipeline through
// httptest servers with the conformance scenarios as ground truth.

// bundle is one pre-measured scenario ready for submission: the zip
// body plus everything needed to verify the analysis that comes back.
type bundle struct {
	s     conformance.Scenario
	zip   []byte
	scale float64
}

// bundleCache memoizes measured scenarios: running the simulated
// experiment dominates test time, while verifying many submissions of
// the same archive is cheap.
var bundleCache sync.Map

// makeBundle measures the scenario (once per name/seed) and returns
// its upload bundle.
func makeBundle(t testing.TB, s conformance.Scenario, seed int64) *bundle {
	t.Helper()
	key := fmt.Sprintf("%s/%d", s.Name, seed)
	if v, ok := bundleCache.Load(key); ok {
		return v.(*bundle)
	}
	e, err := s.NewExperiment(seed)
	if err != nil {
		t.Fatalf("building %s: %v", s.Name, err)
	}
	if err := e.Run(s.Body); err != nil {
		t.Fatalf("measuring %s: %v", s.Name, err)
	}
	var buf bytes.Buffer
	if err := EncodeZip(&buf, e.Mounts(), e.Place.MetahostsUsed(), e.ArchiveDir); err != nil {
		t.Fatalf("encoding %s: %v", s.Name, err)
	}
	b := &bundle{s: s, zip: buf.Bytes(), scale: conformance.MasterScale(e)}
	bundleCache.Store(key, b)
	return b
}

// oracleBundles returns a small scenario mix covering p2p and
// collective patterns in intra and grid variants.
func oracleBundles(t testing.TB) []*bundle {
	t.Helper()
	scenarios := []conformance.Scenario{
		{Name: "serve-ls-grid", Base: pattern.LateSender, Grid: true,
			Delays: []float64{0.137, 0}, Align: 1.0, Bytes: 2048},
		{Name: "serve-lr-intra", Base: pattern.LateReceiver,
			Delays: []float64{0, 0.211}, Align: 1.0, Bytes: 192 << 10},
		{Name: "serve-barrier-grid", Base: pattern.WaitBarrier, Grid: true,
			Delays: []float64{0.05, 0.17, 0.08, 0.26}, Align: 1.0},
		{Name: "serve-bcast-intra", Base: pattern.LateBroadcast,
			Delays: []float64{0.23, 0, 0, 0}, Align: 1.0},
	}
	out := make([]*bundle, len(scenarios))
	for i, s := range scenarios {
		out[i] = makeBundle(t, s, 1)
	}
	return out
}

// newTestServer starts a server over httptest and tears both down at
// cleanup, verifying the drain completes.
func newTestServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Obs == nil {
		opts.Obs = obs.NewRecorder()
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

// submitZip posts an upload bundle and decodes the response.
func submitZip(t testing.TB, base string, zip []byte, query string) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs"+query, "application/zip", bytes.NewReader(zip))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return st, resp
}

// awaitJob long-polls a job to its terminal state.
func awaitJob(t testing.TB, base, id string) JobStatus {
	t.Helper()
	st, code := pollJob(t, base, id)
	if code != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, code)
	}
	return st
}

// pollJob long-polls a job until it is terminal or its status route
// answers anything but 200, and returns the last status and HTTP code.
func pollJob(t testing.TB, base, id string) (JobStatus, int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=5s")
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return JobStatus{}, resp.StatusCode
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding status %s: %v", id, err)
		}
		if st.State.terminal() {
			return st, http.StatusOK
		}
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}, 0
}

// waitState polls a job's server-side state until it reaches want.
func waitState(t testing.TB, s *Server, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		var got State
		if f := s.analyses[id]; f != nil {
			got = f.record().state
		}
		s.mu.Unlock()
		if got == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
}

// fetchReport retrieves and parses a finished job's cube report.
func fetchReport(t testing.TB, base, id string) *cube.Report {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("result %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("result %s: status %d: %s", id, resp.StatusCode, body)
	}
	rep, err := cube.Read(resp.Body)
	if err != nil {
		t.Fatalf("parsing cube of %s: %v", id, err)
	}
	return rep
}

// checkJobOracle asserts a finished job carries exactly the planted
// severities of its bundle — the cross-job-bleed detector: any mixup
// between concurrent jobs shifts a severity by a planted delay, far
// outside ExactTol.
func checkJobOracle(t testing.TB, base string, st JobStatus, b *bundle) {
	t.Helper()
	if st.State != StateDone {
		t.Errorf("job %s (%s): state %s, err %q", st.ID, b.s.Name, st.State, st.Error)
		return
	}
	rep := fetchReport(t, base, st.ID)
	for _, mm := range conformance.CheckOracle(rep, b.s, b.scale, conformance.ExactTol) {
		t.Errorf("job %s (%s): %v", st.ID, b.s.Name, mm)
	}
}

// TestServeOracleConcurrent is the tentpole: 32 goroutines submit a
// mix of archives at once (caching disabled so every submission runs
// the full pipeline) and every single response must carry its own
// scenario's exact closed-form severities.
func TestServeOracleConcurrent(t *testing.T) {
	bundles := oracleBundles(t)
	_, ts := newTestServer(t, Options{
		Workers:      4,
		QueueDepth:   64,
		CacheEntries: -1,
	})

	const submitters = 32
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		b := bundles[g%len(bundles)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, resp := submitZip(t, ts.URL, b.zip, "")
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("%s: submit status %d, want 202", b.s.Name, resp.StatusCode)
				return
			}
			if resp.Header.Get("Location") != "/v1/jobs/"+st.ID {
				t.Errorf("%s: Location %q does not match job %s", b.s.Name, resp.Header.Get("Location"), st.ID)
			}
			checkJobOracle(t, ts.URL, awaitJob(t, ts.URL, st.ID), b)
		}()
	}
	wg.Wait()
}

// TestServeSchemesDiffer submits the same archive under two schemes:
// both must verify against the oracle, and reuse must keep them apart
// (same digest, different cache key) — the second scheme runs an
// analysis of its own although the first one's job is kept and done.
func TestServeSchemesDiffer(t *testing.T) {
	b := oracleBundles(t)[0]
	s, ts := newTestServer(t, Options{Workers: 2})

	stHier, _ := submitZip(t, ts.URL, b.zip, "?scheme=hier")
	checkJobOracle(t, ts.URL, awaitJob(t, ts.URL, stHier.ID), b)
	stFlat, resp := submitZip(t, ts.URL, b.zip, "?scheme=flat2")
	if resp.StatusCode != http.StatusAccepted || stFlat.Cached {
		t.Fatalf("same bytes under another scheme: HTTP %d, cached=%v; want 202 and a run of its own",
			resp.StatusCode, stFlat.Cached)
	}
	if stHier.Digest != stFlat.Digest {
		t.Fatalf("same bytes, different digests: %s vs %s", stHier.Digest, stFlat.Digest)
	}
	checkJobOracle(t, ts.URL, awaitJob(t, ts.URL, stFlat.ID), b)
	if n := s.m.cacheEntries.Value(); n != 2 {
		t.Fatalf("cache entries = %v, want 2 (one per scheme)", n)
	}
}

// TestServeCacheCollapsesResubmission: the second upload of
// byte-identical content must complete instantly from the kept job (200,
// cached flag, no new queue slot) with the identical report — the one
// result the first job computed.
func TestServeCacheCollapsesResubmission(t *testing.T) {
	b := oracleBundles(t)[1]
	s, ts := newTestServer(t, Options{Workers: 2})

	st1, resp1 := submitZip(t, ts.URL, b.zip, "")
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", resp1.StatusCode)
	}
	st1 = awaitJob(t, ts.URL, st1.ID)
	checkJobOracle(t, ts.URL, st1, b)

	st2, resp2 := submitZip(t, ts.URL, b.zip, "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached submit: status %d, want 200", resp2.StatusCode)
	}
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("cached submit: state %s cached=%v, want done/true", st2.State, st2.Cached)
	}
	if st2.Digest != st1.Digest {
		t.Fatalf("digest changed across resubmission: %s vs %s", st2.Digest, st1.Digest)
	}
	checkJobOracle(t, ts.URL, st2, b)
	_, cube1 := getBody(t, ts.URL+"/v1/jobs/"+st1.ID+"/result")
	_, cube2 := getBody(t, ts.URL+"/v1/jobs/"+st2.ID+"/result")
	if !bytes.Equal(cube1, cube2) {
		t.Fatal("the resubmission's cube differs from the first job's")
	}
	s.mu.Lock()
	shared := s.analyses[st1.ID].record().result == s.analyses[st2.ID].record().result
	s.mu.Unlock()
	if !shared {
		t.Fatal("the resubmission holds a result of its own, not the kept job's")
	}

	if hits := s.m.cacheHits.Value(); hits != 1 {
		t.Fatalf("cache hits = %v, want 1", hits)
	}
	if n := s.m.outcomes.With("cache").Value(); n != 1 {
		t.Fatalf("outcome cache = %v, want 1", n)
	}
}

// TestServeBurstBackpressure fills a tiny queue while the single
// worker is gated, bursts far past capacity, and requires (a) 429 +
// Retry-After for the overflow and (b) exact oracle severities for
// every accepted job once the gate opens — backpressure must shed
// load without corrupting the work it accepted.
func TestServeBurstBackpressure(t *testing.T) {
	b := oracleBundles(t)[0]
	s, ts := newTestServer(t, Options{
		Workers:      1,
		QueueDepth:   2,
		CacheEntries: -1,
	})
	gate := make(chan struct{})
	real := s.runJob
	s.runJob = func(ctx context.Context, j *job) (*replay.Result, error) {
		<-gate
		return real(ctx, j)
	}

	// Pin the gated worker on the first job before bursting so queue
	// occupancy is deterministic: 1 running + QueueDepth queued.
	first, resp := submitZip(t, ts.URL, b.zip, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	waitState(t, s, first.ID, StateRunning)

	const burst = 12
	accepted := []string{first.ID}
	rejected := 0
	for i := 0; i < burst; i++ {
		st, resp := submitZip(t, ts.URL, b.zip, "")
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted = append(accepted, st.ID)
		case http.StatusTooManyRequests:
			rejected++
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After header")
			}
		default:
			t.Fatalf("burst submit %d: unexpected status %d", i, resp.StatusCode)
		}
	}
	// 1 running + 2 queued fit; everything beyond must have been shed.
	if len(accepted) != 3 || rejected != burst-2 {
		t.Fatalf("accepted %d, rejected %d; want 3 and %d", len(accepted), rejected, burst-2)
	}

	close(gate)
	for _, id := range accepted {
		checkJobOracle(t, ts.URL, awaitJob(t, ts.URL, id), b)
	}
	if v := s.m.rejected.With("queue_full").Value(); int(v) != rejected {
		t.Fatalf("queue_full rejections metric = %v, want %d", v, rejected)
	}
}

// TestServeDiff runs two different archives and checks the diff
// endpoint returns a parseable cube whose planted metric reflects
// b − a.
func TestServeDiff(t *testing.T) {
	bundles := oracleBundles(t)
	ba, bb := bundles[0], bundles[2]
	_, ts := newTestServer(t, Options{Workers: 2})

	stA, _ := submitZip(t, ts.URL, ba.zip, "")
	stB, _ := submitZip(t, ts.URL, bb.zip, "")
	awaitJob(t, ts.URL, stA.ID)
	awaitJob(t, ts.URL, stB.ID)

	resp, err := http.Get(fmt.Sprintf("%s/v1/diff?a=%s&b=%s", ts.URL, stA.ID, stB.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff: status %d", resp.StatusCode)
	}
	if _, err := cube.Read(resp.Body); err != nil {
		t.Fatalf("diff cube does not parse: %v", err)
	}
}

// TestServeProfile fetches the time-resolved profile of a finished job
// and checks it is well-formed JSON with at least the planted series.
func TestServeProfile(t *testing.T) {
	b := oracleBundles(t)[2]
	_, ts := newTestServer(t, Options{Workers: 1})
	st, _ := submitZip(t, ts.URL, b.zip, "")
	awaitJob(t, ts.URL, st.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile: status %d", resp.StatusCode)
	}
	var doc struct {
		Series []struct {
			Metric string `json:"metric"`
		} `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("profile JSON: %v", err)
	}
	if len(doc.Series) == 0 {
		t.Fatal("profile carries no series")
	}
}

// TestServeMetricsEndpoint checks the Prometheus exposition carries
// the serve metric schema after traffic.
func TestServeMetricsEndpoint(t *testing.T) {
	b := oracleBundles(t)[0]
	_, ts := newTestServer(t, Options{Workers: 1})
	st, _ := submitZip(t, ts.URL, b.zip, "")
	awaitJob(t, ts.URL, st.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"metascope_serve_jobs_submitted_total",
		"metascope_serve_jobs_total",
		"metascope_serve_queue_depth",
		"metascope_serve_job_seconds",
		"metascope_serve_cache_hit_ratio",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics exposition lacks %s", want)
		}
	}
}
