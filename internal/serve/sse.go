package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// resumePoint parses the consumer's resume position: the SSE
// Last-Event-ID header (set by every browser EventSource on
// reconnect), overridden by an explicit ?after= query parameter.
func resumePoint(r *http.Request) uint64 {
	after := uint64(0)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			after = n
		}
	}
	if v := r.URL.Query().Get("after"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			after = n
		}
	}
	return after
}

// handleStream serves a session's event stream as Server-Sent Events:
// one frame per engine event with the sequence number as the event id,
// resuming after Last-Event-ID. The engine keeps the stream's history
// (replay.Live.Events); an event is marshaled when its frame is written.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sess := lookupAs[*session](s, w, r, "session")
	if sess == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusInternalServerError, "connection cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// Reconnect hint for EventSource clients: retry after 1 s; the
	// stream history makes the resume lossless.
	fmt.Fprintf(w, "retry: 1000\n\n")
	fl.Flush()

	after := resumePoint(r)
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		evs, ended, changed := sess.live.Events(after)
		for i := range evs {
			ev := &evs[i]
			// Marshal failures are impossible for StreamEvent's field
			// types; a defensive fallback frames the error.
			data, err := json.Marshal(ev)
			if err != nil {
				data = []byte(fmt.Sprintf(`{"seq":%d,"type":"error","error":%q}`, ev.Seq, err.Error()))
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
			after = ev.Seq
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		if ended { // evs was the rest of the stream: nothing follows
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		case <-heartbeat.C:
			// Comment frame: keeps intermediaries from timing the
			// connection out while the analysis frontier is quiet.
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		}
	}
}
