package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestChunkBodyRead covers the ways a chunk body can arrive: with a
// declared length (read in one sized piece), with chunked transfer
// encoding (read to EOF), and with a declared length the body does not
// keep — which the HTTP server never lets through, so the handler is
// called directly.
func TestChunkBodyRead(t *testing.T) {
	traces := sessionTraces()
	blobs := encodeAll(t, traces)
	s, ts := newTestServer(t, Options{Workers: 1, MaxUploadBytes: 1 << 20})
	st := openSession(t, ts.URL, "?ranks=3&scheme=flat1")
	url := func(rank int, seq int64) string {
		return fmt.Sprintf("/v1/sessions/%s/ranks/%d/%d?seq=%d", st.ID, traces[rank].Loc.Metahost, rank, seq)
	}

	// The acknowledgement document keeps its five fields.
	half := len(blobs[0]) / 2
	code, ack := putChunk(t, ts.URL, st.ID, traces[0].Loc.Metahost, 0, 0, blobs[0][:half], false)
	want := map[string]any{"applied": true, "bytes": float64(half), "finished": false, "next_seq": 1.0, "rank": 0.0}
	if code != http.StatusOK || fmt.Sprint(ack) != fmt.Sprint(want) {
		t.Fatalf("sized PUT: HTTP %d %v, want %v", code, ack, want)
	}

	// Unknown length: the client falls back to chunked transfer encoding.
	req, err := http.NewRequest(http.MethodPut, ts.URL+url(0, 1)+"&last=1", io.MultiReader(bytes.NewReader(blobs[0][half:])))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ack = nil
	json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ack["finished"] != true || ack["bytes"] != float64(len(blobs[0])) {
		t.Fatalf("chunked-encoding PUT: HTTP %d %v", resp.StatusCode, ack)
	}

	// A body that disagrees with its declared length is refused before
	// it reaches the engine, and the rank's sequence does not advance.
	direct := func(rank int, body []byte, declared int64) (int, string) {
		r := httptest.NewRequest(http.MethodPut, url(rank, 0), bytes.NewReader(body))
		r.ContentLength = declared
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		return w.Code, w.Body.String()
	}
	if code, msg := direct(1, blobs[1], int64(len(blobs[1])-3)); code != http.StatusBadRequest || !strings.Contains(msg, "longer than its declared Content-Length") {
		t.Fatalf("over-long body: HTTP %d %s", code, msg)
	}
	if code, msg := direct(1, blobs[1][:10], 20); code != http.StatusBadRequest || !strings.Contains(msg, "10 of 20 declared bytes") {
		t.Fatalf("short body: HTTP %d %s", code, msg)
	}
	if code, ack := putChunk(t, ts.URL, st.ID, traces[1].Loc.Metahost, 1, 0, make([]byte, 1<<20+1), false); code != http.StatusRequestEntityTooLarge ||
		!strings.Contains(fmt.Sprint(ack["error"]), "request body too large") {
		t.Fatalf("body over the upload limit: HTTP %d %v", code, ack)
	}
	if code, ack := putChunk(t, ts.URL, st.ID, traces[1].Loc.Metahost, 1, 0, blobs[1], true); code != http.StatusOK || ack["applied"] != true {
		t.Fatalf("rank 1 seq 0 after the refused bodies: HTTP %d %v", code, ack)
	}
}
