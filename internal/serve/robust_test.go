package serve

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	stdhttptest "net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"metascope/internal/archive"
	"metascope/internal/conformance"
	"metascope/internal/cube"
	"metascope/internal/obs"
	"metascope/internal/replay"
	"metascope/internal/trace"
)

// The robustness contract: whatever a client throws at the service —
// hostile uploads, corrupt archives, bursts past capacity, jobs that
// hang or panic, cancellations mid-flight — every request must come
// back as a structured JSON error with the right status, the worker
// pool must keep serving, and the process must never go down.

// blockedServer builds a server whose runJob parks on the job context
// until it is cancelled — the stand-in for an analysis that takes
// forever.
func blockedServer(t testing.TB, opts Options) (*Server, *stdhttptest.Server) {
	t.Helper()
	s, ts := newTestServer(t, opts)
	s.runJob = func(ctx context.Context, j *job) (*replay.Result, error) {
		<-ctx.Done()
		return nil, context.Cause(ctx)
	}
	// Cleanups run LIFO: release every stuck job before newTestServer's
	// drain waits on the pool.
	t.Cleanup(func() {
		s.mu.Lock()
		for _, f := range slices.Clone(s.order) { // settling may evict
			s.stop(f, errCancelled)
		}
		s.mu.Unlock()
	})
	return s, ts
}

// testRecorder returns a quiet recorder for tests that build servers
// by hand.
func testRecorder() *obs.Recorder { return obs.NewRecorder() }

// httptestStart serves a hand-built server over httptest; only the
// HTTP side is torn down at cleanup (the test drains explicitly).
func httptestStart(t testing.TB, s *Server) *stdhttptest.Server {
	t.Helper()
	ts := stdhttptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// decodeErr parses a structured error response.
func decodeErr(t testing.TB, resp *http.Response) jsonError {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("error response Content-Type = %q, want application/json", ct)
	}
	var je jsonError
	if err := json.NewDecoder(resp.Body).Decode(&je); err != nil {
		t.Fatalf("error body is not the structured JSON shape: %v", err)
	}
	if je.Status != resp.StatusCode {
		t.Errorf("body status %d disagrees with HTTP status %d", je.Status, resp.StatusCode)
	}
	if je.Error == "" {
		t.Error("structured error carries no message")
	}
	return je
}

// rawEntry is one bundle entry whose directory record says what the
// test wants it to say: data is deflated as it is, and size and crc are
// written to the directory unchecked (zip.Writer.CreateRaw).
type rawEntry struct {
	name string
	data []byte
	size uint64 // declared inflated size
	crc  uint32 // declared CRC-32
}

// honest declares what data really is.
func honest(name string, data []byte) rawEntry {
	return rawEntry{name: name, data: data, size: uint64(len(data)), crc: crc32.ChecksumIEEE(data)}
}

// rawZip writes the entries with their directory records as given.
func rawZip(t testing.TB, entries ...rawEntry) []byte {
	t.Helper()
	var buf, deflated bytes.Buffer
	zw := zip.NewWriter(&buf)
	fw, err := flate.NewWriter(nil, flate.BestSpeed)
	must(t, err)
	for _, e := range entries {
		deflated.Reset()
		fw.Reset(&deflated)
		_, err = fw.Write(e.data)
		must(t, err)
		must(t, fw.Close())
		w, err := zw.CreateRaw(&zip.FileHeader{
			Name: e.name, Method: zip.Deflate, CRC32: e.crc,
			CompressedSize64: uint64(deflated.Len()), UncompressedSize64: e.size,
		})
		must(t, err)
		_, err = w.Write(deflated.Bytes())
		must(t, err)
	}
	must(t, zw.Close())
	return buf.Bytes()
}

// lyingEntry is the one entry name every lying bundle is built around.
const lyingEntry = "mh0/epik_lie/trace.1.mscp"

// lyingBundle is an upload whose zip directory lies about lyingEntry;
// the entry before it is honest.
type lyingBundle struct {
	name string
	body []byte
	// unallocated: the directory alone gives the lie away, so the decoder
	// must refuse before it has inflated (or allocated for) any entry.
	unallocated bool
}

// lyingBundles are the lies a directory can tell about an entry's size
// and checksum. The directory sizes the decoder's allocation, so each
// must end in a refusal that names the entry — before its inflate or at
// the end of it — and never in a file of the wrong length.
func lyingBundles(t testing.TB) []lyingBundle {
	t.Helper()
	first := honest("mh0/epik_lie/trace.0.mscp", bytes.Repeat([]byte("ab"), 2048))
	data := bytes.Repeat([]byte("trace bytes "), 1024)
	lie := func(mutate func(*rawEntry)) []byte {
		e := honest(lyingEntry, data)
		mutate(&e)
		return rawZip(t, first, e)
	}
	return []lyingBundle{
		{name: "declares fewer than it inflates to", body: lie(func(e *rawEntry) { e.size -= 100 })},
		{name: "declares more than it holds", body: lie(func(e *rawEntry) { e.size += 100 })},
		{name: "wrong crc", body: lie(func(e *rawEntry) { e.crc ^= 1 })},
		// 64 MB out of a few dozen compressed bytes: inside the budget, and
		// more than deflate can yield.
		{name: "declares beyond deflate's ceiling", body: lie(func(e *rawEntry) { e.size = 64 << 20 }), unallocated: true},
	}
}

// allocatedBy returns the bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRobustBadUploads drives the submission endpoint with malformed
// bodies and URLs; every case must be a clean 4xx JSON error, and one
// about a bundle entry must name it. A bundle whose every file is sound
// but whose ranks cannot all be replayed — a receive without its send —
// is taken, and its job fails at once, not at the end of its time budget:
// the replay names the deadlock, and the result answers 422.
func TestRobustBadUploads(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	traversal := func(entry string) []byte {
		var buf bytes.Buffer
		return newZipWith(t, &buf, map[string][]byte{entry: []byte("x")})
	}
	type badUpload struct {
		name        string
		query       string
		body        []byte
		status      int    // 0 = 400
		names       string // what the error must mention
		unallocated bool   // as lyingBundle's
		job         bool   // taken: the job fails, and its result answers status
	}
	cases := []badUpload{
		{name: "empty body"},
		{name: "not a zip", body: []byte("these are not the bytes you are looking for")},
		{name: "bad scheme", query: "?scheme=vibes", body: validZip(t)},
		{name: "path without root", query: "?path=run1"},
		{name: "loose file", body: traversal("loose.mscp"), names: "loose.mscp"},
		{name: "two components", body: traversal("mh0/trace.0.mscp")},
		{name: "four components", body: traversal("mh0/epik_a/sub/trace.0.mscp")},
		{name: "dotdot", body: traversal("mh0/epik_a/../trace.0.mscp")},
		{name: "absolute", body: traversal("/mh0/epik_a/trace.0.mscp")},
		{name: "backslash", body: traversal(`mh0\epik_a\trace.0.mscp`)},
		{name: "not an experiment dir", body: traversal("mh0/results/trace.0.mscp")},
		{name: "no trace files", body: traversal("mh0/epik_a/readme.txt")},
	}
	for _, lie := range lyingBundles(t) {
		cases = append(cases, badUpload{name: lie.name, body: lie.body, names: lyingEntry, unallocated: lie.unallocated})
	}
	// The declaration alone exceeds what the first entry left of the budget.
	over := honest(lyingEntry, []byte("short"))
	over.size = DefaultMaxUploadBytes
	cases = append(cases, badUpload{name: "declares beyond the remaining budget",
		body:   rawZip(t, honest("mh0/epik_lie/trace.0.mscp", []byte("x")), over),
		status: http.StatusRequestEntityTooLarge, names: lyingEntry, unallocated: true})
	// One entry more than the decoder takes; nothing is inflated.
	many := make([]rawEntry, maxZipFiles+1)
	for i := range many {
		many[i] = honest(fmt.Sprintf("mh0/epik_many/trace.%d.mscp", i), nil)
	}
	cases = append(cases, badUpload{name: "65537 entries", body: rawZip(t, many...), names: "65537 entries"})
	// Rank 0 never sends what rank 1 receives; it waits at the barrier.
	orphan := pairTraces(2, 1)
	orphan[0].Events = slices.DeleteFunc(orphan[0].Events, func(ev trace.Event) bool { return ev.Kind == trace.KindSend })
	blobs := make([][]byte, len(orphan))
	for r, tr := range orphan {
		var buf bytes.Buffer
		must(t, tr.EncodeV2(&buf))
		blobs[r] = buf.Bytes()
	}
	cases = append(cases, badUpload{name: "orphan receive", body: pairBundle(t, orphan, blobs), job: true,
		status: http.StatusUnprocessableEntity, names: "deadlock"})

	jobs := 0
	for _, tc := range cases {
		if tc.job {
			jobs++
		}
		t.Run(tc.name, func(t *testing.T) {
			if tc.job {
				start := time.Now()
				st, resp := submitZip(t, ts.URL, tc.body, tc.query)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit: status %d, want 202", resp.StatusCode)
				}
				final := awaitJob(t, ts.URL, st.ID)
				if final.State != StateFailed || !strings.Contains(final.Error, tc.names) {
					t.Fatalf("job ended %s (%s), want failed naming %q", final.State, final.Error, tc.names)
				}
				if code, body := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); code != tc.status {
					t.Errorf("result: HTTP %d (%s), want %d", code, body, tc.status)
				}
				if d := time.Since(start); d > 10*time.Second {
					t.Errorf("the job took %v to fail", d)
				}
				return
			}
			resp, err := http.Post(ts.URL+"/v1/jobs"+tc.query, "application/zip", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			je := decodeErr(t, resp)
			if tc.status == 0 {
				tc.status = http.StatusBadRequest
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, je.Error, tc.status)
			}
			if !strings.Contains(je.Error, tc.names) {
				t.Errorf("error %q does not mention %q", je.Error, tc.names)
			}
			if tc.unallocated {
				var err error
				grew := allocatedBy(func() { _, _, _, err = DecodeZip(tc.body, s.opts.MaxUploadBytes) })
				if err == nil || grew > 64<<10 {
					t.Errorf("decoder allocated %d bytes (error %v): want a refusal under 64 KB, before any inflate", grew, err)
				}
			}
		})
	}
	// Whatever was refused, no analysis was ever registered.
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.order); n != jobs {
		t.Errorf("%d analyses registered by %d taken uploads", n, jobs)
	}
}

// newZipWith writes a zip holding the given entries.
func newZipWith(t testing.TB, buf *bytes.Buffer, entries map[string][]byte) []byte {
	t.Helper()
	zw := zip.NewWriter(buf)
	for name, data := range entries {
		f, err := zw.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// validZip returns a well-formed oracle bundle for cases where only
// the query string is at fault.
func validZip(t testing.TB) []byte { return oracleBundles(t)[0].zip }

// TestRobustFaultCorpus submits damaged archives — truncated traces,
// bit flips, garbage, missing ranks — through the real pipeline. Every
// job must reach the failed state with a 4xx/5xx structured error on
// the result endpoint; the server must keep answering and finish a
// healthy job afterwards.
func TestRobustFaultCorpus(t *testing.T) {
	faults := []struct {
		name   string
		mutate func(t *testing.T, f *conformance.Fixture)
	}{
		{"truncated trace", func(t *testing.T, f *conformance.Fixture) {
			must(t, f.MutateRaw(0, func(b []byte) []byte { return b[:len(b)/2] }))
		}},
		{"garbage trace", func(t *testing.T, f *conformance.Fixture) {
			must(t, f.WriteRaw(1, []byte("mscp?this is not a trace")))
		}},
		{"empty trace", func(t *testing.T, f *conformance.Fixture) {
			must(t, f.WriteRaw(0, nil))
		}},
		{"missing rank", func(t *testing.T, f *conformance.Fixture) {
			must(t, f.RemoveTrace(1))
		}},
		{"unbalanced regions", func(t *testing.T, f *conformance.Fixture) {
			must(t, f.MutateTrace(0, func(tr *trace.Trace) {
				if len(tr.Events) > 2 {
					tr.Events = tr.Events[:len(tr.Events)-1]
				}
			}))
		}},
	}

	_, ts := newTestServer(t, Options{Workers: 2})
	for i, fc := range faults {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			f, err := conformance.NewFixture(int64(100 + i))
			if err != nil {
				t.Fatal(err)
			}
			fc.mutate(t, f)
			var buf bytes.Buffer
			if err := EncodeZip(&buf, f.Exp.Mounts(), f.Exp.Place.MetahostsUsed(), f.Dir); err != nil {
				t.Fatalf("encoding mutated fixture: %v", err)
			}
			st, resp := submitZip(t, ts.URL, buf.Bytes(), "")
			if resp.StatusCode == http.StatusBadRequest {
				return // rejected at decode time: equally acceptable, equally structured
			}
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: status %d", resp.StatusCode)
			}
			final := awaitJob(t, ts.URL, st.ID)
			if final.State != StateFailed {
				t.Fatalf("damaged archive reached state %s, want failed", final.State)
			}
			if final.Error == "" {
				t.Fatal("failed job carries no error message")
			}
			rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
			if err != nil {
				t.Fatal(err)
			}
			je := decodeErr(t, rr)
			if rr.StatusCode < 400 {
				t.Fatalf("failed job's result endpoint answered %d (%s)", rr.StatusCode, je.Error)
			}
		})
	}

	// The pool must have survived the whole corpus.
	b := oracleBundles(t)[0]
	st, _ := submitZip(t, ts.URL, b.zip, "")
	checkJobOracle(t, ts.URL, awaitJob(t, ts.URL, st.ID), b)
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestRobustPanicIsolation: a panicking analysis fails only its own
// job (500, outcome "panic"); the worker keeps serving.
func TestRobustPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, CacheEntries: -1})
	real := s.runJob
	boom := true
	s.runJob = func(ctx context.Context, j *job) (*replay.Result, error) {
		if boom {
			boom = false
			panic("analyzer tripped over the archive")
		}
		return real(ctx, j)
	}

	b := oracleBundles(t)[0]
	st, _ := submitZip(t, ts.URL, b.zip, "")
	final := awaitJob(t, ts.URL, st.ID)
	if final.State != StateFailed {
		t.Fatalf("panicked job state %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "panicked") {
		t.Fatalf("panicked job error %q does not say so", final.Error)
	}
	rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	decodeErr(t, rr)
	if rr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked job result status %d, want 500", rr.StatusCode)
	}

	// The same worker must complete the next job.
	st2, _ := submitZip(t, ts.URL, b.zip, "")
	checkJobOracle(t, ts.URL, awaitJob(t, ts.URL, st2.ID), b)
	if v := s.m.outcomes.With("panic").Value(); v != 1 {
		t.Fatalf("panic outcome metric = %v, want 1", v)
	}
}

// TestRobustJobTimeout: a job exceeding its budget fails with a
// structured timeout (504) instead of hanging, and the slot frees.
func TestRobustJobTimeout(t *testing.T) {
	s, ts := blockedServer(t, Options{Workers: 1, JobTimeout: 50 * time.Millisecond, CacheEntries: -1})
	b := oracleBundles(t)[0]

	st, _ := submitZip(t, ts.URL, b.zip, "")
	final := awaitJob(t, ts.URL, st.ID)
	if final.State != StateFailed {
		t.Fatalf("timed-out job state %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "time budget") {
		t.Fatalf("timeout error %q does not name the budget", final.Error)
	}
	rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	decodeErr(t, rr)
	if rr.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timeout result status %d, want 504", rr.StatusCode)
	}

	// The slot freed: the next (equally stuck) job must get to run.
	st2, _ := submitZip(t, ts.URL, b.zip, "")
	waitState(t, s, st2.ID, StateRunning)
}

// TestRobustCancelRunning: DELETE on a running job interrupts it,
// marks it cancelled, and frees the worker slot.
func TestRobustCancelRunning(t *testing.T) {
	s, ts := blockedServer(t, Options{Workers: 1, CacheEntries: -1})
	b := oracleBundles(t)[0]

	st, _ := submitZip(t, ts.URL, b.zip, "")
	waitState(t, s, st.ID, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := awaitJob(t, ts.URL, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("cancelled job state %s, want cancelled", final.State)
	}

	// Slot freed: a second job starts running.
	st2, _ := submitZip(t, ts.URL, b.zip, "")
	waitState(t, s, st2.ID, StateRunning)

	// Cancelling again is idempotent.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second cancel: status %d", resp2.StatusCode)
	}
}

// TestRobustCancelQueued: cancelling a job still in the queue releases
// it immediately; the worker later skips the corpse.
func TestRobustCancelQueued(t *testing.T) {
	s, ts := blockedServer(t, Options{Workers: 1, QueueDepth: 4, CacheEntries: -1})
	b := oracleBundles(t)[0]

	run, _ := submitZip(t, ts.URL, b.zip, "")
	waitState(t, s, run.ID, StateRunning)
	queued, _ := submitZip(t, ts.URL, b.zip, "")

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != StateCancelled {
		t.Fatalf("queued job state after cancel = %s, want cancelled (immediately)", st.State)
	}
}

// TestRobustResultConflict: the result of a queued/running job answers
// 409; unknown jobs answer 404 everywhere.
func TestRobustResultConflict(t *testing.T) {
	s, ts := blockedServer(t, Options{Workers: 1, CacheEntries: -1})
	b := oracleBundles(t)[0]
	st, _ := submitZip(t, ts.URL, b.zip, "")
	waitState(t, s, st.ID, StateRunning)

	rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	decodeErr(t, rr)
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("running job result status %d, want 409", rr.StatusCode)
	}

	for _, path := range []string{"/v1/jobs/job-999", "/v1/jobs/job-999/result", "/v1/jobs/job-999/profile", "/v1/diff?a=job-999&b=job-999"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		decodeErr(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestRobustPathSubmission materializes an archive under a root
// directory and submits it by name; escapes of the root must be 400.
func TestRobustPathSubmission(t *testing.T) {
	b := oracleBundles(t)[0]
	root := t.TempDir()
	if err := extractZipTree(filepath.Join(root, "run1"), b.zip); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{Workers: 1, Root: root})
	st, resp := submitZip(t, ts.URL, nil, "?path=run1")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("path submit: status %d", resp.StatusCode)
	}
	if st.Source != "path" {
		t.Fatalf("source = %q, want path", st.Source)
	}
	checkJobOracle(t, ts.URL, awaitJob(t, ts.URL, st.ID), b)

	for _, p := range []string{"../run1", "/etc", "..", "nosuchdir"} {
		resp, err := http.Post(ts.URL+"/v1/jobs?path="+p, "application/zip", nil)
		if err != nil {
			t.Fatal(err)
		}
		decodeErr(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("path %q: status %d, want 400", p, resp.StatusCode)
		}
	}
}

// extractZipTree unpacks an upload bundle to disk in the metascope run layout
// MountTree expects.
func extractZipTree(dst string, data []byte) error {
	mounts, metahosts, dir, err := DecodeZip(data, int64(len(data))*100+1024)
	if err != nil {
		return err
	}
	seen := map[archive.FS]bool{}
	top := 0
	for _, mh := range metahosts {
		fs := mounts.For(mh)
		if seen[fs] {
			continue
		}
		seen[fs] = true
		names, err := fs.List(dir)
		if err != nil {
			return err
		}
		sub := filepath.Join(dst, fmt.Sprintf("mh%d", top), dir)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		for _, name := range names {
			content, err := archive.ReadFile(fs, dir+"/"+name)
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(sub, name), content, 0o644); err != nil {
				return err
			}
		}
		top++
	}
	return nil
}

// TestRobustUploadBudget: an upload over MaxUploadBytes — the body as it
// arrives, or the bundle by what its directory declares, on the job route
// and on the chunk route — is refused with 413 before analysis, counted
// under reason="too_large", and logged once with the declared and the
// allowed bytes.
func TestRobustUploadBudget(t *testing.T) {
	rec := obs.NewRecorder()
	logged := &logLines{}
	rec.Log = obs.NewLogger(logged)
	s, ts := newTestServer(t, Options{Workers: 1, MaxUploadBytes: 1024, Obs: rec})
	sess := openSession(t, ts.URL, "?ranks=1")

	big := bytes.Repeat([]byte("A"), 64<<10)
	var bundle bytes.Buffer
	newZipWith(t, &bundle, map[string][]byte{"mh0/epik_big/trace.0.mscp": big}) // ~100 bytes deflated
	post := func(body []byte) (*http.Response, error) {
		return http.Post(ts.URL+"/v1/jobs", "application/zip", bytes.NewReader(body))
	}
	put := func(body []byte) (*http.Response, error) {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/sessions/"+sess.ID+"/ranks/0/0?seq=0", bytes.NewReader(body))
		must(t, err)
		return http.DefaultClient.Do(req)
	}
	// Each declares the same 64 KB: as Content-Length, or in the directory.
	want := fmt.Sprintf("declared_bytes=%d allowed_bytes=1024", len(big))
	for i, tc := range []struct {
		name string
		send func([]byte) (*http.Response, error)
		body []byte
	}{
		{"job body", post, big},
		{"job bundle", post, bundle.Bytes()},
		{"chunk body", put, big},
	} {
		resp, err := tc.send(tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		decodeErr(t, resp)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", tc.name, resp.StatusCode)
		}
		if v := s.m.rejected.With("too_large").Value(); v != float64(i+1) {
			t.Errorf("%s: rejected_total{reason=\"too_large\"} = %g, want %d", tc.name, v, i+1)
		}
		lines := logged.matching("upload over the size limit")
		if len(lines) != i+1 || !strings.Contains(lines[i], "level=warn") || !strings.Contains(lines[i], want) {
			t.Errorf("%s: logged %q, want one more warning carrying %q", tc.name, lines, want)
		}
	}
	if v := s.m.rejected.With("bad_request").Value(); v != 0 {
		t.Errorf("oversized uploads also counted as %g bad requests", v)
	}
}

// TestRobustDrain: a draining server rejects new work with 503,
// reports draining on /healthz, finishes what it accepted, and a
// too-slow job is cancelled when the drain deadline expires.
func TestRobustDrain(t *testing.T) {
	b := oracleBundles(t)[0]

	t.Run("finishes accepted work", func(t *testing.T) {
		// Not via newTestServer: this test drains explicitly.
		s := New(Options{Workers: 1, Obs: testRecorder()})
		ts := httptestStart(t, s)
		st, _ := submitZip(t, ts.URL, b.zip, "")
		if err := s.Drain(context.Background()); err != nil {
			t.Fatalf("drain: %v", err)
		}
		final := awaitJob(t, ts.URL, st.ID)
		checkJobOracle(t, ts.URL, final, b)

		_, resp := submitZip(t, ts.URL, b.zip, "")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("submit while drained: status %d, want 503", resp.StatusCode)
		}
		hr, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h Health
		if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
			t.Fatalf("healthz after drain: status %d %q, want 503 draining", hr.StatusCode, h.Status)
		}
	})

	t.Run("deadline cancels stuck jobs", func(t *testing.T) {
		s := New(Options{Workers: 1, CacheEntries: -1, Obs: testRecorder()})
		s.runJob = func(ctx context.Context, j *job) (*replay.Result, error) {
			<-ctx.Done()
			return nil, context.Cause(ctx)
		}
		ts := httptestStart(t, s)
		st, _ := submitZip(t, ts.URL, b.zip, "")
		waitState(t, s, st.ID, StateRunning)

		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if err := s.Drain(ctx); err != context.DeadlineExceeded {
			t.Fatalf("drain past deadline returned %v, want DeadlineExceeded", err)
		}
		final := awaitJob(t, ts.URL, st.ID)
		if final.State != StateCancelled {
			t.Fatalf("stuck job after forced drain: %s, want cancelled", final.State)
		}
	})
}

// TestRobustStatusLongPollTimeout: a bounded ?wait on a stuck job
// returns (with the non-terminal state) instead of hanging.
func TestRobustStatusLongPollTimeout(t *testing.T) {
	s, ts := blockedServer(t, Options{Workers: 1, CacheEntries: -1})
	b := oracleBundles(t)[0]
	st, _ := submitZip(t, ts.URL, b.zip, "")
	waitState(t, s, st.ID, StateRunning)

	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "?wait=100ms")
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != StateRunning {
		t.Fatalf("state %s, want running", got.State)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bounded wait took %v", elapsed)
	}
}

// TestRobustJobList checks the listing endpoint reports every
// submission in order.
func TestRobustJobList(t *testing.T) {
	b := oracleBundles(t)[0]
	_, ts := newTestServer(t, Options{Workers: 2, CacheEntries: -1})
	var ids []string
	for i := 0; i < 3; i++ {
		st, _ := submitZip(t, ts.URL, b.zip, "")
		ids = append(ids, st.ID)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != len(ids) {
		t.Fatalf("list has %d jobs, want %d", len(list), len(ids))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Fatalf("list[%d] = %s, want %s (submission order)", i, st.ID, ids[i])
		}
	}
	for _, id := range ids {
		awaitJob(t, ts.URL, id)
	}
}

// pairArchive encodes pairTraces as the per-rank chunk streams a session
// takes; pairBundle zips such streams into the upload a job takes.
func pairArchive(t testing.TB, ranks, rounds int) (traces []*trace.Trace, blobs [][]byte) {
	t.Helper()
	traces = pairTraces(ranks, rounds)
	for _, tr := range traces {
		var buf bytes.Buffer
		must(t, tr.EncodeV2(&buf))
		blobs = append(blobs, buf.Bytes())
	}
	return traces, blobs
}

func pairBundle(t testing.TB, traces []*trace.Trace, blobs [][]byte) []byte {
	t.Helper()
	entries := make(map[string][]byte)
	for r, b := range blobs {
		entries[fmt.Sprintf("mh%d/%s", traces[r].Loc.Metahost, archive.TraceFile("epik_pair", r))] = b
	}
	return newZipWith(t, new(bytes.Buffer), entries)
}

// deleteID issues DELETE on a job or session path.
func deleteID(t testing.TB, url string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestRobustEndings is the one table of how an analysis can end, for
// both feeders: whichever way it goes, the record reaches the terminal
// state, the result endpoint answers the classified status, a failure
// carries a message, and exactly one outcome label of the feeder's own
// counter family moves, once. done is closed by the same transition —
// a second close would panic the server under test.
func TestRobustEndings(t *testing.T) {
	traces, blobs := pairArchive(t, 8, 2000)
	bundle := pairBundle(t, traces, blobs)
	managed := func(t *testing.T, opts Options) (*Server, string) {
		s, ts := newTestServer(t, opts)
		return s, ts.URL
	}
	blocked := func(t *testing.T, opts Options) (*Server, string) {
		s, ts := blockedServer(t, opts)
		return s, ts.URL
	}
	// drained builds a server the case drains itself.
	drained := func(t *testing.T, opts Options) (*Server, string) {
		opts.Obs = testRecorder()
		s := New(opts)
		return s, httptestStart(t, s).URL
	}
	submit := func(t *testing.T, url string, zip []byte) string {
		st, resp := submitZip(t, url, zip, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		return st.ID
	}
	open := func(t *testing.T, url string) string {
		return openSession(t, url, fmt.Sprintf("?ranks=%d&scheme=hier", len(blobs))).ID
	}
	// backlog uploads every rank whole, rank 0 — and with it the last
	// header the replay waits for — last: the analysis starts with the
	// archive's full length still to sweep, tens of milliseconds that a
	// finalize requested next is certainly still inside.
	backlog := func(t *testing.T, url, id string) {
		for r := len(blobs) - 1; r >= 0; r-- {
			if code, body := putChunk(t, url, id, traces[r].Loc.Metahost, r, 0, blobs[r], true); code != http.StatusOK {
				t.Fatalf("rank %d: HTTP %d %v", r, code, body)
			}
		}
	}
	finalize := func(t *testing.T, url, id string) {
		resp, err := http.Post(url+"/v1/sessions/"+id+"/finalize", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name    string
		feeder  string // "job" or "session"
		start   func(*testing.T, Options) (*Server, string)
		opts    Options
		drive   func(t *testing.T, s *Server, url string) string // returns the id of the analysis under test
		state   State
		status  int
		outcome string
	}{
		{"done", "job", managed, Options{}, func(t *testing.T, s *Server, url string) string {
			return submit(t, url, bundle)
		}, StateDone, http.StatusOK, "done"},
		{"done", "session", managed, Options{}, func(t *testing.T, s *Server, url string) string {
			id := open(t, url)
			uploadSession(t, url, id, traces, blobs, 64<<10)
			finalize(t, url, id)
			return id
		}, StateDone, http.StatusOK, "done"},

		{"cancelled before running", "job", blocked, Options{Workers: 1}, func(t *testing.T, s *Server, url string) string {
			waitState(t, s, submit(t, url, bundle), StateRunning)
			id := submit(t, url, bundle)
			deleteID(t, url+"/v1/jobs/"+id)
			return id
		}, StateCancelled, http.StatusConflict, "cancelled_queued"},
		{"cancelled while open", "session", managed, Options{}, func(t *testing.T, s *Server, url string) string {
			id := open(t, url)
			deleteID(t, url+"/v1/sessions/"+id)
			return id
		}, StateCancelled, http.StatusConflict, "cancelled"},

		{"cancelled while running", "job", blocked, Options{}, func(t *testing.T, s *Server, url string) string {
			id := submit(t, url, bundle)
			waitState(t, s, id, StateRunning)
			deleteID(t, url+"/v1/jobs/"+id)
			return id
		}, StateCancelled, http.StatusConflict, "cancelled"},
		{"cancelled while finalizing", "session", managed, Options{}, func(t *testing.T, s *Server, url string) string {
			id := open(t, url)
			backlog(t, url, id)
			finalize(t, url, id)
			deleteID(t, url+"/v1/sessions/"+id)
			return id
		}, StateCancelled, http.StatusConflict, "cancelled"},

		{"time budget", "job", blocked, Options{JobTimeout: 20 * time.Millisecond}, func(t *testing.T, s *Server, url string) string {
			return submit(t, url, bundle)
		}, StateFailed, http.StatusGatewayTimeout, "timeout"},
		// A budget of 1 ns has run out before any Finalize returns, whether
		// the abort or the end of the replay comes first.
		{"time budget", "session", managed, Options{JobTimeout: time.Nanosecond}, func(t *testing.T, s *Server, url string) string {
			id := open(t, url)
			backlog(t, url, id)
			finalize(t, url, id)
			return id
		}, StateFailed, http.StatusGatewayTimeout, "timeout"},
		{"idle timeout", "session", managed, Options{SessionIdleTimeout: 20 * time.Millisecond}, func(t *testing.T, s *Server, url string) string {
			return open(t, url)
		}, StateFailed, http.StatusGatewayTimeout, "timeout"},

		{"corrupt input", "job", managed, Options{}, func(t *testing.T, s *Server, url string) string {
			torn := append([][]byte{blobs[0][:len(blobs[0])/2]}, blobs[1:]...)
			return submit(t, url, pairBundle(t, traces, torn))
		}, StateFailed, http.StatusUnprocessableEntity, "failed"},
		{"corrupt input", "session", managed, Options{}, func(t *testing.T, s *Server, url string) string {
			id := open(t, url)
			if code, _ := putChunk(t, url, id, 0, 0, 0, []byte("mscp?this is not a trace"), false); code != http.StatusUnprocessableEntity {
				t.Fatalf("garbage chunk: HTTP %d, want 422", code)
			}
			return id
		}, StateFailed, http.StatusUnprocessableEntity, "failed"},
		{"panic", "job", managed, Options{}, func(t *testing.T, s *Server, url string) string {
			s.runJob = func(context.Context, *job) (*replay.Result, error) { panic("analyzer tripped over the archive") }
			return submit(t, url, bundle)
		}, StateFailed, http.StatusInternalServerError, "panic"},

		{"drain deadline", "job", drained, Options{}, func(t *testing.T, s *Server, url string) string {
			s.runJob = func(ctx context.Context, j *job) (*replay.Result, error) {
				<-ctx.Done()
				return nil, context.Cause(ctx)
			}
			id := submit(t, url, bundle)
			waitState(t, s, id, StateRunning)
			if err := s.Drain(expired); err != context.Canceled {
				t.Fatalf("drain past its deadline returned %v", err)
			}
			return id
		}, StateCancelled, http.StatusConflict, "cancelled"},
		{"drain deadline", "session", drained, Options{}, func(t *testing.T, s *Server, url string) string {
			id := open(t, url)
			backlog(t, url, id)
			finalize(t, url, id)
			if err := s.Drain(expired); err != context.Canceled {
				t.Fatalf("drain past its deadline returned %v", err)
			}
			return id
		}, StateCancelled, http.StatusConflict, "cancelled"},
	}
	for _, tc := range cases {
		t.Run(tc.feeder+"/"+tc.name, func(t *testing.T) {
			tc.opts.CacheEntries = -1
			s, url := tc.start(t, tc.opts)
			id := tc.drive(t, s, url)
			s.mu.Lock()
			done := s.analyses[id].record().done
			s.mu.Unlock()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("%s never settled", id)
			}

			path := map[string]string{"job": "/v1/jobs/", "session": "/v1/sessions/"}[tc.feeder]
			_, body := getBody(t, url+path+id)
			var st struct {
				State State  `json:"state"`
				Error string `json:"error"`
			}
			must(t, json.Unmarshal(body, &st))
			if st.State != tc.state {
				t.Errorf("state %q (%s), want %q", st.State, st.Error, tc.state)
			}
			if (st.Error == "") != (tc.state == StateDone) {
				t.Errorf("state %s with error %q", st.State, st.Error)
			}
			// Both result routes are one handler over one store.
			for _, route := range []string{"/v1/jobs/", "/v1/experiments/"} {
				if code, body := getBody(t, url+route+id+"/result"); code != tc.status {
					t.Errorf("GET %s%s/result: HTTP %d (%s), want %d", route, id, code, body, tc.status)
				}
			}
			moved := map[string]float64{}
			for _, fam := range s.rec.Reg.Snapshot() {
				if fam.Name == "metascope_serve_jobs_total" || fam.Name == "metascope_serve_sessions_total" {
					for _, ser := range fam.Series {
						if ser.Value != 0 {
							moved[fam.Name+"/"+ser.Labels["outcome"]] = ser.Value
						}
					}
				}
			}
			want := map[string]string{"job": "metascope_serve_jobs_total/", "session": "metascope_serve_sessions_total/"}[tc.feeder] + tc.outcome
			if len(moved) != 1 || moved[want] != 1 {
				t.Errorf("outcome counters moved %v, want exactly %s once", moved, want)
			}
		})
	}

	// The same archive through both feeders is the same analysis: the
	// diff of a job against a session is zero in every cell.
	t.Run("job and session agree", func(t *testing.T) {
		_, url := managed(t, Options{})
		jobID := submit(t, url, bundle)
		sessID := open(t, url)
		uploadSession(t, url, sessID, traces, blobs, 64<<10)
		if fin := finalizeSession(t, url, sessID); fin.State != "done" {
			t.Fatalf("session ended %s: %s", fin.State, fin.Error)
		}
		awaitJob(t, url, jobID)
		code, body := getBody(t, fmt.Sprintf("%s/v1/diff?a=%s&b=%s", url, jobID, sessID))
		if code != http.StatusOK {
			t.Fatalf("diff: HTTP %d %s", code, body)
		}
		diff, err := cube.Read(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("diff cube does not parse: %v", err)
		}
		if len(diff.Metrics) == 0 {
			t.Fatal("diff carries no metrics")
		}
		for m := range diff.Metrics {
			if v := diff.MetricTotal(m); v != 0 {
				t.Errorf("%s: job and session differ by %g", diff.Metrics[m].Key, v)
			}
		}
	})
}
