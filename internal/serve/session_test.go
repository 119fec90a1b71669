package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"metascope/internal/obs"
	"metascope/internal/replay"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// Live-session contract: the chunk protocol must be idempotent under
// retries and strict about gaps, the finalized result must be
// byte-identical to the post-mortem analysis of the same bytes, and
// the SSE stream must survive client disconnects without losing or
// duplicating events.

var sessRegions = []trace.Region{
	{ID: 0, Name: "main", Kind: trace.RegionUser},
	{ID: 1, Name: "MPI_Send", Kind: trace.RegionMPIP2P},
	{ID: 2, Name: "MPI_Recv", Kind: trace.RegionMPIP2P},
	{ID: 3, Name: "MPI_Barrier", Kind: trace.RegionMPIColl},
}

// sessionTraces builds a 3-rank, 2-metahost experiment with a grid
// Late Sender, a rendezvous Late Receiver, and a barrier.
func sessionTraces() []*trace.Trace {
	world := trace.CommDef{ID: 0, Ranks: []int32{0, 1, 2}}
	mk := func(rank, mh int, events []trace.Event) *trace.Trace {
		return &trace.Trace{
			Loc: trace.Location{
				Rank: rank, Metahost: mh,
				MetahostName: []string{"ALPHA", "BETA"}[mh], Node: rank,
			},
			Sync:    trace.SyncData{SharedNodeClock: true},
			Regions: sessRegions,
			Comms:   []trace.CommDef{world},
			Events:  events,
		}
	}
	ev := func(kind trace.EventKind, t float64, set func(*trace.Event)) trace.Event {
		e := trace.Event{Kind: kind, Time: t}
		set(&e)
		return e
	}
	enter := func(t float64, r trace.RegionID) trace.Event {
		return ev(trace.KindEnter, t, func(e *trace.Event) { e.Region = r })
	}
	exit := func(t float64, r trace.RegionID) trace.Event {
		return ev(trace.KindExit, t, func(e *trace.Event) { e.Region = r })
	}
	send := func(t float64, peer int32, tag int32, n int64) trace.Event {
		return ev(trace.KindSend, t, func(e *trace.Event) { e.Peer, e.Tag, e.Bytes = peer, tag, n })
	}
	recv := func(t float64, peer int32, tag int32, n int64) trace.Event {
		return ev(trace.KindRecv, t, func(e *trace.Event) { e.Peer, e.Tag, e.Bytes = peer, tag, n })
	}
	barrier := func(enterT, doneT float64) []trace.Event {
		return []trace.Event{
			enter(enterT, 3),
			ev(trace.KindCollExit, doneT, func(e *trace.Event) { e.Coll, e.Root = trace.CollBarrier, -1 }),
			exit(doneT, 3),
		}
	}
	big := int64(1 << 20)
	t0 := append([]trace.Event{
		enter(0, 0),
		enter(4, 1), send(4, 1, 7, 100), exit(4.5, 1),
		enter(6, 2), recv(8, 2, 9, big), exit(8, 2),
	}, append(barrier(8.5, 9.5), exit(12, 0))...)
	t1 := append([]trace.Event{
		enter(0, 0),
		enter(1, 2), recv(5, 0, 7, 100), exit(5, 2),
	}, append(barrier(9, 9.5), exit(12, 0))...)
	t2 := append([]trace.Event{
		enter(0, 0),
		enter(2, 1), send(2, 0, 9, big), exit(8, 1),
	}, append(barrier(8.5, 9.5), exit(12, 0))...)
	return []*trace.Trace{mk(0, 0, t0), mk(1, 1, t1), mk(2, 1, t2)}
}

func encodeAll(t testing.TB, traces []*trace.Trace) [][]byte {
	t.Helper()
	out := make([][]byte, len(traces))
	for i, tr := range traces {
		var buf bytes.Buffer
		if err := tr.EncodeV2(&buf); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// openSession creates a session and returns its status document.
func openSession(t testing.TB, base, query string) SessionStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions"+query, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("create session: %d %s", resp.StatusCode, body)
	}
	var st SessionStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// putChunk uploads one chunk and returns the HTTP status plus the
// decoded body.
func putChunk(t testing.TB, base, id string, mh, rank int, seq int64, data []byte, last bool) (int, map[string]any) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/sessions/%s/ranks/%d/%d?seq=%d", base, id, mh, rank, seq)
	if last {
		url += "&last=1"
	}
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body
}

// uploadSession streams every trace in `size`-byte chunks round-robin
// and marks each rank's last chunk.
func uploadSession(t testing.TB, base, id string, traces []*trace.Trace, blobs [][]byte, size int) {
	t.Helper()
	offs := make([]int, len(blobs))
	seqs := make([]int64, len(blobs))
	for {
		progressed := false
		for r, b := range blobs {
			if offs[r] >= len(b) {
				continue
			}
			end := offs[r] + size
			if end > len(b) {
				end = len(b)
			}
			code, body := putChunk(t, base, id, traces[r].Loc.Metahost, r, seqs[r], b[offs[r]:end], end == len(b))
			if code != http.StatusOK {
				t.Fatalf("chunk rank %d seq %d: HTTP %d %v", r, seqs[r], code, body)
			}
			offs[r] = end
			seqs[r]++
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// finalizeSession requests finalization and waits for the terminal
// state.
func finalizeSession(t testing.TB, base, id string) SessionStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions/"+id+"/finalize?wait=30s", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st SessionStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getBody(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	traces := sessionTraces()
	blobs := encodeAll(t, traces)

	title := "session lifecycle"
	st := openSession(t, ts.URL, "?ranks=3&scheme=flat1&title="+strings.ReplaceAll(title, " ", "+"))
	if st.State != "open" || st.Ranks != 3 {
		t.Fatalf("created session: %+v", st)
	}
	uploadSession(t, ts.URL, st.ID, traces, blobs, 57)
	final := finalizeSession(t, ts.URL, st.ID)
	if final.State != "done" {
		t.Fatalf("finalized state %q (err %q), want done", final.State, final.Error)
	}

	// The streamed result must be byte-identical to the post-mortem
	// analysis of the same traces under the same title.
	post, err := replay.Analyze(sessionTraces(), replay.Config{Scheme: vclock.FlatSingle, Title: title})
	if err != nil {
		t.Fatal(err)
	}
	var wantReport, wantProf bytes.Buffer
	post.Report.Write(&wantReport)
	post.Profile.WriteJSON(&wantProf)
	code, gotReport := getBody(t, ts.URL+"/v1/experiments/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if !bytes.Equal(gotReport, wantReport.Bytes()) {
		t.Errorf("streamed report differs from post-mortem (%d vs %d bytes)", len(gotReport), wantReport.Len())
	}
	code, gotProf := getBody(t, ts.URL+"/v1/experiments/"+st.ID+"/profile")
	if code != http.StatusOK {
		t.Fatalf("profile: HTTP %d", code)
	}
	if !bytes.Equal(gotProf, wantProf.Bytes()) {
		t.Errorf("streamed profile differs from post-mortem (%d vs %d bytes)", len(gotProf), wantProf.Len())
	}

	// The session shows up in the list and in healthz's census.
	code, list := getBody(t, ts.URL+"/v1/sessions")
	if code != http.StatusOK || !strings.Contains(string(list), st.ID) {
		t.Errorf("session list (HTTP %d) missing %s: %s", code, st.ID, list)
	}
	code, hz := getBody(t, ts.URL+"/healthz")
	var health Health
	if err := json.Unmarshal(hz, &health); err != nil {
		t.Fatalf("healthz (HTTP %d): %v", code, err)
	}
	if health.Sessions["done"] != 1 || health.LiveSessions != 0 {
		t.Errorf("healthz census %v live %d, want done:1 live:0", health.Sessions, health.LiveSessions)
	}
}

func TestSessionChunkProtocol(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	traces := sessionTraces()
	blobs := encodeAll(t, traces)
	st := openSession(t, ts.URL, "?ranks=3&scheme=flat1")

	half := len(blobs[0]) / 2
	code, body := putChunk(t, ts.URL, st.ID, 0, 0, 0, blobs[0][:half], false)
	if code != http.StatusOK || body["applied"] != true {
		t.Fatalf("first chunk: %d %v", code, body)
	}
	// Retrying the same sequence number is acknowledged, not re-applied.
	code, body = putChunk(t, ts.URL, st.ID, 0, 0, 0, blobs[0][:half], false)
	if code != http.StatusOK || body["applied"] != false {
		t.Fatalf("duplicate chunk: %d %v", code, body)
	}
	// A gap is rejected so the uploader resends in order.
	if code, _ = putChunk(t, ts.URL, st.ID, 0, 0, 5, blobs[0][half:], false); code != http.StatusConflict {
		t.Fatalf("gap chunk: HTTP %d, want 409", code)
	}
	code, _ = putChunk(t, ts.URL, st.ID, 0, 0, 1, blobs[0][half:], true)
	if code != http.StatusOK {
		t.Fatalf("closing chunk: HTTP %d", code)
	}
	// Chunks after the rank's last are rejected.
	if code, _ = putChunk(t, ts.URL, st.ID, 0, 0, 2, []byte("x"), false); code != http.StatusConflict {
		t.Fatalf("chunk after last: HTTP %d, want 409", code)
	}
	// Out-of-range rank and malformed seq are clean 400s.
	if code, _ = putChunk(t, ts.URL, st.ID, 0, 9, 0, []byte("x"), false); code != http.StatusBadRequest {
		t.Fatalf("rank 9: HTTP %d, want 400", code)
	}
	resp, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/sessions/"+st.ID+"/ranks/0/1", bytes.NewReader([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := http.DefaultClient.Do(resp)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing seq: HTTP %d, want 400", r2.StatusCode)
	}
	// Unknown session is 404.
	if code, _ = putChunk(t, ts.URL, "exp-999", 0, 0, 0, []byte("x"), false); code != http.StatusNotFound {
		t.Fatalf("unknown session: HTTP %d, want 404", code)
	}
	// Tear the half-open session down.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+st.ID, nil)
	if r3, err := http.DefaultClient.Do(req); err == nil {
		r3.Body.Close()
	}
}

func TestSessionMetahostMismatch(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	traces := sessionTraces()
	blobs := encodeAll(t, traces)
	st := openSession(t, ts.URL, "?ranks=3&scheme=flat1")

	// Rank 1 lives on metahost 1; uploading it under metahost 0 must
	// fail the session — misplaced ranks would corrupt every grid
	// attribution silently.
	code, body := putChunk(t, ts.URL, st.ID, 0, 1, 0, blobs[1], true)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched metahost: HTTP %d %v, want 422", code, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, b := getBody(t, ts.URL+"/v1/sessions/"+st.ID)
		var got SessionStatus
		json.Unmarshal(b, &got)
		if got.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session state %q, want failed", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Further chunks bounce off the failed session.
	if code, _ := putChunk(t, ts.URL, st.ID, 1, 2, 0, blobs[2], false); code != http.StatusConflict {
		t.Fatalf("chunk into failed session: HTTP %d, want 409", code)
	}
	// And the result endpoint reports the failure, classified like a
	// job's: bad input is 422.
	if code, _ := getBody(t, ts.URL+"/v1/experiments/"+st.ID+"/result"); code != http.StatusUnprocessableEntity {
		t.Fatalf("result of failed session: HTTP %d, want 422", code)
	}
}

// TestSessionRefusesV1Stream: a live session takes format v2 only. The
// PUT that carries a v1 version byte is answered 422 with what to do
// instead, the session fails, and the operator's log says why in one
// line.
func TestSessionRefusesV1Stream(t *testing.T) {
	rec := obs.NewRecorder()
	logged := &logLines{}
	rec.Log = obs.NewLogger(logged)
	s, ts := newTestServer(t, Options{Workers: 1, Obs: rec})
	var v1 bytes.Buffer
	if err := sessionTraces()[0].Encode(&v1); err != nil {
		t.Fatal(err)
	}
	st := openSession(t, ts.URL, "?ranks=3&scheme=flat1")
	const want = "rank 0 chunk rejected: trace: live streams are format v2; convert the archive with metascope trace -convert -format v2 (post-mortem analysis reads v1)"
	// Five bytes are enough: magic and version.
	code, body := putChunk(t, ts.URL, st.ID, 0, 0, 0, v1.Bytes()[:5], false)
	if code != http.StatusUnprocessableEntity || body["error"] != want {
		t.Fatalf("v1 chunk: HTTP %d %v, want 422 %q", code, body, want)
	}
	waitState(t, s, st.ID, StateFailed)
	var fin SessionStatus
	if _, b := getBody(t, ts.URL+"/v1/sessions/"+st.ID); json.Unmarshal(b, &fin) != nil || fin.Error != trace.ErrV1Stream.Error() {
		t.Fatalf("failed session reports %q, want %q", fin.Error, trace.ErrV1Stream)
	}
	if code, _ := getBody(t, ts.URL+"/v1/experiments/"+st.ID+"/result"); code != http.StatusUnprocessableEntity {
		t.Fatalf("result of the refused session: HTTP %d, want 422", code)
	}
	// The reaper logs after it settled the session.
	var lines []string
	for deadline := time.Now().Add(10 * time.Second); len(lines) == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		lines = logged.matching("live streams are format v2")
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "level=warn") || !strings.Contains(lines[0], "id="+st.ID) {
		t.Fatalf("refusal logged as %q, want one warning naming the session", lines)
	}
}

// TestSessionNanosecondWindow: ?window=1ns is a legal request, and an
// ordinary wait state spans billions of such windows. The engine refuses
// the deposit instead of keeping a map per window: the session fails,
// its result answers 422, the failed outcome moves once and the
// operator's log says why in one line.
func TestSessionNanosecondWindow(t *testing.T) {
	rec := obs.NewRecorder()
	logged := &logLines{}
	rec.Log = obs.NewLogger(logged)
	s, ts := newTestServer(t, Options{Workers: 1, Obs: rec})
	traces := sessionTraces()
	st := openSession(t, ts.URL, "?ranks=3&scheme=flat1&window=1ns")
	refused := false
	for r, b := range encodeAll(t, traces) {
		// The replay starts with the last header and may refuse the
		// session while the later ranks still upload.
		code, body := putChunk(t, ts.URL, st.ID, traces[r].Loc.Metahost, r, 0, b, true)
		if refused = code == http.StatusUnprocessableEntity; refused {
			break
		}
		if code != http.StatusOK {
			t.Fatalf("chunk rank %d: HTTP %d %v", r, code, body)
		}
	}
	if !refused {
		finalizeSession(t, ts.URL, st.ID)
	}
	waitState(t, s, st.ID, StateFailed)
	var fin SessionStatus
	if _, b := getBody(t, ts.URL+"/v1/sessions/"+st.ID); json.Unmarshal(b, &fin) != nil ||
		!strings.Contains(fin.Error, "stream windows of 1e-09 s (limit 65536)") {
		t.Fatalf("failed session reports %q, want the window limit", fin.Error)
	}
	if code, _ := getBody(t, ts.URL+"/v1/experiments/"+st.ID+"/result"); code != http.StatusUnprocessableEntity {
		t.Fatalf("result of the refused session: HTTP %d, want 422", code)
	}
	var lines []string
	for deadline := time.Now().Add(10 * time.Second); len(lines) == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		lines = logged.matching("live session ended")
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "level=warn") || !strings.Contains(lines[0], "stream windows") {
		t.Fatalf("refusal logged as %q, want one warning carrying the window limit", lines)
	}
	for _, fam := range rec.Reg.Snapshot() {
		if fam.Name != "metascope_serve_sessions_total" {
			continue
		}
		for _, ser := range fam.Series {
			if want := map[string]float64{"failed": 1}[ser.Labels["outcome"]]; ser.Value != want {
				t.Errorf("sessions_total{outcome=%q} = %g, want %g", ser.Labels["outcome"], ser.Value, want)
			}
		}
	}
}

// logLines collects a logger's output; the logger makes one Write per
// line.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) Write(p []byte) (int, error) {
	l.mu.Lock()
	l.lines = append(l.lines, string(p))
	l.mu.Unlock()
	return len(p), nil
}

func (l *logLines) matching(substr string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return out
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id   uint64
	typ  string
	data []byte
}

// readSSE connects to the stream (resuming after lastID) and reads
// frames until the server ends the stream, ctx is cancelled, or
// stopAfter frames arrived (0 = unlimited). It reports whether the
// stream ended normally.
func readSSE(ctx context.Context, t testing.TB, url string, lastID uint64, stopAfter int) ([]sseEvent, bool) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.data != nil {
				events = append(events, cur)
				if stopAfter > 0 && len(events) >= stopAfter {
					return events, false
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.ParseUint(line[4:], 10, 64)
		case strings.HasPrefix(line, "event: "):
			cur.typ = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(line[6:])
		}
	}
	return events, sc.Err() == nil && ctx.Err() == nil
}

// TestSessionSSEResume kills a streaming client mid-session, resumes
// with Last-Event-ID, and verifies that ids increase strictly across both
// reads and that their union is what a fresh read from 0 gets after the
// end: a frontier the next one superseded leaves a gap in the ids, and
// nothing else is missed or repeated. It also checks that abandoned
// stream handlers do not leak goroutines.
func TestSessionSSEResume(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	traces := sessionTraces()
	blobs := encodeAll(t, traces)
	st := openSession(t, ts.URL, "?ranks=3&scheme=flat1")
	streamURL := ts.URL + "/v1/experiments/" + st.ID + "/stream"

	// Phase 1: a live client reads the first few events while the
	// session is still ingesting, then drops the connection.
	uploadSession(t, ts.URL, st.ID, traces, blobs, 101)
	ctx1, cancel1 := context.WithCancel(context.Background())
	first, _ := readSSE(ctx1, t, streamURL, 0, 2)
	cancel1()
	if len(first) == 0 {
		t.Fatal("no events before the disconnect")
	}
	lastSeen := first[len(first)-1].id

	final := finalizeSession(t, ts.URL, st.ID)
	if final.State != "done" {
		t.Fatalf("state %q (err %q)", final.State, final.Error)
	}

	// Phase 2: reconnect with Last-Event-ID and read to the end.
	rest, ended := readSSE(context.Background(), t, streamURL, lastSeen, 0)
	if !ended {
		t.Fatal("resumed stream did not end cleanly")
	}
	all := append(append([]sseEvent(nil), first...), rest...)
	for i := 1; i < len(all); i++ {
		if all[i].id <= all[i-1].id {
			t.Fatalf("event %d has id %d after %d: duplicated events across the resume", i, all[i].id, all[i-1].id)
		}
	}
	fresh, ended := readSSE(context.Background(), t, streamURL, 0, 0)
	if !ended || !reflect.DeepEqual(all, fresh) {
		t.Fatalf("the two reads hold %d events, a fresh read after the end %d (ended %v): missed events across the resume",
			len(all), len(fresh), ended)
	}
	if all[len(all)-1].typ != "state" {
		t.Errorf("stream ended with %q, want the terminal state event", all[len(all)-1].typ)
	}

	// Window deltas summed across both connections equal the summary
	// totals: nothing was lost at the disconnect boundary.
	sums := map[string]float64{}
	var totals []replay.WindowDelta
	for _, ev := range all {
		var se replay.StreamEvent
		if err := json.Unmarshal(ev.data, &se); err != nil {
			t.Fatalf("event %d: %v", ev.id, err)
		}
		if se.Window != nil {
			for _, d := range se.Window.Deltas {
				sums[fmt.Sprintf("%s|%d", d.Metric, d.Metahost)] += d.Value
			}
		}
		if se.Summary != nil {
			totals = se.Summary.Totals
		}
	}
	if len(totals) == 0 {
		t.Fatal("no summary totals")
	}
	for _, tot := range totals {
		got := sums[fmt.Sprintf("%s|%d", tot.Metric, tot.Metahost)]
		if math.Abs(got-tot.Value) > 1e-9*math.Max(1, math.Abs(tot.Value)) {
			t.Errorf("%s@%d: streamed %g, summary %g", tot.Metric, tot.Metahost, got, tot.Value)
		}
	}

	// Abandoned streams must not leak their handler goroutines. A finished
	// session's stream ends by itself, so the clients watch an open one.
	streamURL = ts.URL + "/v1/experiments/" + openSession(t, ts.URL, "?ranks=1").ID + "/stream"
	base := runtime.NumGoroutine()
	var cancels []context.CancelFunc
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		go func() {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, streamURL, nil)
			if err != nil {
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body) // park until the context dies
		}()
	}
	time.Sleep(50 * time.Millisecond)
	for _, cancel := range cancels {
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d (baseline %d): abandoned streams leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSessionDeleteAndLimits(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxSessions: 1})
	st := openSession(t, ts.URL, "?ranks=2&scheme=flat1")

	// The session cap rejects a second open session with 429.
	resp, err := http.Post(ts.URL+"/v1/sessions?ranks=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second session: HTTP %d, want 429", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+st.ID, nil)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var got SessionStatus
	json.NewDecoder(r2.Body).Decode(&got)
	r2.Body.Close()
	if got.State != "cancelled" {
		t.Fatalf("deleted session state %q, want cancelled", got.State)
	}
	// Deletion is idempotent.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+st.ID, nil)
	r3, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("second delete: HTTP %d", r3.StatusCode)
	}
	if v := s.m.sessionOutcomes.With("cancelled").Value(); v != 1 {
		t.Errorf("cancelled outcome count %v, want 1", v)
	}
	// With the slot free, a new session opens.
	openSession(t, ts.URL, "?ranks=2")
}

// TestSessionWorldSizeBound: a session allocates per-rank state when it
// opens, before any byte arrives, so ?ranks= is bounded like the rank
// files of a bundle: past maxZipFiles it is a counted 400 and nothing is
// registered.
func TestSessionWorldSizeBound(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Post(fmt.Sprintf("%s/v1/sessions?ranks=%d", ts.URL, maxZipFiles+1), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ranks=%d: HTTP %d, want 400", maxZipFiles+1, resp.StatusCode)
	}
	decodeErr(t, resp)
	if v := s.m.rejected.With("bad_request").Value(); v != 1 {
		t.Errorf("rejected{reason=bad_request} = %v, want 1", v)
	}
	s.mu.Lock()
	held := len(s.order)
	s.mu.Unlock()
	if held != 0 {
		t.Errorf("store holds %d analyses after the refusal, want 0", held)
	}
}

// TestSessionLimitConcurrentCreates: MaxSessions is enforced, not
// advisory — creates racing for the last slot get it exactly once,
// because counting the open sessions and registering the new one is one
// critical section.
func TestSessionLimitConcurrentCreates(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxSessions: 1})
	const creates, rounds = 16, 64
	for round := 1; round <= rounds; round++ {
		type reply struct {
			code int
			loc  string
		}
		replies := make(chan reply, creates)
		start := make(chan struct{})
		for i := 0; i < creates; i++ {
			go func() {
				<-start
				resp, err := http.Post(ts.URL+"/v1/sessions?ranks=2", "", nil)
				if err != nil {
					replies <- reply{}
					return
				}
				resp.Body.Close()
				replies <- reply{resp.StatusCode, resp.Header.Get("Location")}
			}()
		}
		close(start)
		got := map[int]int{}
		var opened []string
		for i := 0; i < creates; i++ {
			r := <-replies
			got[r.code]++
			if r.loc != "" {
				opened = append(opened, r.loc)
			}
		}
		for _, loc := range opened { // free the slot for the next round
			deleteID(t, ts.URL+loc)
		}
		if got[http.StatusCreated] != 1 || got[http.StatusTooManyRequests] != creates-1 {
			t.Fatalf("round %d: %d concurrent creates against MaxSessions=1 answered %v, want one 201 and %d 429",
				round, creates, got, creates-1)
		}
		if v := s.m.rejected.With("sessions_full").Value(); v != float64(round*(creates-1)) {
			t.Fatalf("round %d: rejected{reason=sessions_full} = %v, want %d", round, v, round*(creates-1))
		}
	}
}

// TestSessionDeleteAfterDone: a finished session is immutable. DELETE
// reports it as-is; the state, the event count and the replayed stream
// are what they were — no failed event appended after done.
func TestSessionDeleteAfterDone(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	traces := sessionTraces()
	st := openSession(t, ts.URL, "?ranks=3&scheme=flat1")
	uploadSession(t, ts.URL, st.ID, traces, encodeAll(t, traces), 101)
	before := finalizeSession(t, ts.URL, st.ID)
	if before.State != "done" {
		t.Fatalf("state %q (err %q)", before.State, before.Error)
	}
	// The replay of a finished stream ends with its last event; reading
	// stops there rather than waiting out the keepalive period.
	streamURL := ts.URL + "/v1/experiments/" + st.ID + "/stream"
	streamBefore, _ := readSSE(context.Background(), t, streamURL, 0, int(before.Events))

	deleteID(t, ts.URL+"/v1/sessions/"+st.ID)

	_, body := getBody(t, ts.URL+"/v1/sessions/"+st.ID)
	var after SessionStatus
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.State != "done" || after.Error != "" || after.Events != before.Events {
		t.Errorf("DELETE after done left state %q, error %q, %d events; want done, none, %d",
			after.State, after.Error, after.Events, before.Events)
	}
	// One more event than before would arrive at once if there were one.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	streamAfter, _ := readSSE(ctx, t, streamURL, 0, len(streamBefore)+1)
	if len(streamAfter) != len(streamBefore) || streamAfter[len(streamAfter)-1].typ != "state" ||
		!bytes.Equal(streamAfter[len(streamAfter)-1].data, streamBefore[len(streamBefore)-1].data) {
		t.Errorf("stream replay changed across the DELETE: %d events before, %d after", len(streamBefore), len(streamAfter))
	}
	if code, _ := getBody(t, ts.URL+"/v1/experiments/"+st.ID+"/result"); code != http.StatusOK {
		t.Errorf("result after DELETE: HTTP %d", code)
	}
}

func TestSessionIdleTimeout(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, SessionIdleTimeout: 30 * time.Millisecond})
	st := openSession(t, ts.URL, "?ranks=2&scheme=flat1")
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, b := getBody(t, ts.URL+"/v1/sessions/"+st.ID)
		var got SessionStatus
		json.Unmarshal(b, &got)
		if got.State == "failed" {
			if !strings.Contains(got.Error, "idle") {
				t.Fatalf("failure %q does not mention the idle timeout", got.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session state %q, want failed (idle timeout)", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := s.m.sessionOutcomes.With("timeout").Value(); v != 1 {
		t.Errorf("timeout outcome count %v, want 1", v)
	}
}

// TestQueuedCancelOutcome pins the satellite contract: deleting a job
// that never left the queue is counted under the distinct
// cancelled_queued outcome, not under cancelled.
func TestQueuedCancelOutcome(t *testing.T) {
	s, ts := blockedServer(t, Options{Workers: 1, QueueDepth: 4})
	b := oracleBundles(t)[0]

	// First job occupies the only worker; the second stays queued.
	running, _ := submitZip(t, ts.URL, b.zip, "")
	queued, _ := submitZip(t, ts.URL, b.zip, "?scheme=flat2")
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != StateCancelled {
		t.Fatalf("queued job after delete: %s, want cancelled", st.State)
	}
	if v := s.m.outcomes.With("cancelled_queued").Value(); v != 1 {
		t.Errorf("cancelled_queued count %v, want 1", v)
	}
	if v := s.m.outcomes.With("cancelled").Value(); v != 0 {
		t.Errorf("cancelled count %v, want 0 (the job never ran)", v)
	}
	_ = running
}
