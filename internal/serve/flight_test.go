package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"metascope/internal/obs"
)

// TestFlightTraceEndpoint runs a real job on a flight-enabled server
// and pulls its per-job Chrome trace: the recording must contain the
// job's replay-worker lanes and its lifecycle instants, and nothing
// from other jobs.
func TestFlightTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Flight: true})
	b := oracleBundles(t)[0]

	st, resp := submitZip(t, ts.URL, b.zip, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	st = awaitJob(t, ts.URL, st.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}

	names := traceEventNames(t, ts.URL, st.ID)
	for _, want := range []string{"replay-worker", "mailbox-take", "job-state"} {
		if names[want] == 0 {
			t.Errorf("job trace holds no %q events; got %v", want, names)
		}
	}
}

// traceEventNames fetches an analysis's Chrome trace and counts its
// events by name.
func traceEventNames(t testing.TB, base, id string) map[string]int {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace of %s: status %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace Content-Type %q", ct)
	}
	var events []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	names := make(map[string]int)
	for _, e := range events {
		if n, ok := e["name"].(string); ok {
			names[n]++
		}
	}
	return names
}

// TestFlightTraceSession: a session's replay is recorded under its
// serial like a job's, and the trace route takes any analysis id.
func TestFlightTraceSession(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Flight: true})
	traces := sessionTraces()
	st := openSession(t, ts.URL, "?ranks=3&scheme=flat1")
	uploadSession(t, ts.URL, st.ID, traces, encodeAll(t, traces), 101)
	if fin := finalizeSession(t, ts.URL, st.ID); fin.State != "done" {
		t.Fatalf("session ended %s (%s)", fin.State, fin.Error)
	}
	names := traceEventNames(t, ts.URL, st.ID)
	for _, want := range []string{"replay-worker", "job-state"} {
		if names[want] == 0 {
			t.Errorf("session trace holds no %q events; got %v", want, names)
		}
	}
}

// TestFlightTraceDisabled answers 409 when the recorder is off, so a
// client can tell "no recording" from "no such job".
func TestFlightTraceDisabled(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	b := oracleBundles(t)[0]
	st, _ := submitZip(t, ts.URL, b.zip, "")
	awaitJob(t, ts.URL, st.ID)

	tr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	if tr.StatusCode != http.StatusConflict {
		t.Fatalf("trace on flight-disabled server: status %d, want 409", tr.StatusCode)
	}
}

// TestMetricsContentType pins the Prometheus exposition content type
// exactly: the 0.0.4 text format takes no charset parameter.
func TestMetricsContentType(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("metrics Content-Type %q, want %q", ct, "text/plain; version=0.0.4")
	}
}

// TestHealthzVitals checks the enriched healthz document: process
// vitals, the flight census, and the Retry-After estimator's state.
func TestHealthzVitals(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Flight: true})
	b := oracleBundles(t)[0]
	st, _ := submitZip(t, ts.URL, b.zip, "")
	awaitJob(t, ts.URL, st.ID)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Goroutines <= 0 || h.HeapAllocBytes == 0 || h.UptimeSeconds <= 0 {
		t.Fatalf("missing process vitals: %+v", h)
	}
	if !h.Flight.Enabled || h.Flight.Events == 0 {
		t.Fatalf("flight census empty after a traced job: %+v", h.Flight)
	}
	if h.EWMAJobSeconds <= 0 {
		t.Fatalf("EWMA job seconds not fed by finished job: %+v", h)
	}
}

// TestDebugObsEndpoint sanity-checks the /debug/obs document: phases,
// metric families, and the flight stats block.
func TestDebugObsEndpoint(t *testing.T) {
	rec := obs.NewRecorder()
	_, ts := newTestServer(t, Options{Workers: 1, Flight: true, Obs: rec})
	b := oracleBundles(t)[0]
	st, _ := submitZip(t, ts.URL, b.zip, "")
	awaitJob(t, ts.URL, st.ID)

	resp, err := http.Get(ts.URL + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
		Flight struct {
			Enabled bool `json:"enabled"`
			Writers int  `json:"writers"`
		} `json:"flight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Flight.Enabled || doc.Flight.Writers == 0 {
		t.Fatalf("debug snapshot flight block empty: %+v", doc.Flight)
	}
	if len(doc.Metrics) == 0 {
		t.Fatal("debug snapshot carries no metric families")
	}
}
