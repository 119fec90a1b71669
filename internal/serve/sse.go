package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"metascope/internal/replay"
)

// eventLog is the append-only, replayable event history of one live
// session. Every StreamEvent the engine emits is marshaled once and
// retained, so a consumer can join at any point, resume after a
// disconnect from an arbitrary sequence number (SSE Last-Event-ID),
// and never observe a gap or a duplicate — sequence numbers are
// contiguous from 1.
//
// Broadcasting uses the closed-channel idiom: waiters select on the
// current `changed` channel, and every append closes it and installs a
// fresh one, waking all of them at once without tracking subscribers.
type eventLog struct {
	mu      sync.Mutex
	events  []loggedEvent
	changed chan struct{}
	done    bool
}

type loggedEvent struct {
	seq  uint64
	typ  string
	data json.RawMessage
}

func newEventLog() *eventLog {
	return &eventLog{changed: make(chan struct{})}
}

// append records one engine event. Marshal failures are impossible for
// StreamEvent's field types; a defensive fallback records the error.
func (el *eventLog) append(ev replay.StreamEvent) {
	b, err := json.Marshal(ev)
	if err != nil {
		b = []byte(fmt.Sprintf(`{"seq":%d,"type":"error","error":%q}`, ev.Seq, err.Error()))
	}
	el.mu.Lock()
	el.events = append(el.events, loggedEvent{seq: ev.Seq, typ: ev.Type, data: b})
	close(el.changed)
	el.changed = make(chan struct{})
	el.mu.Unlock()
}

// markDone declares the stream complete: no further events will be
// appended, and waiting consumers should finish their replay and hang
// up.
func (el *eventLog) markDone() {
	el.mu.Lock()
	if !el.done {
		el.done = true
		close(el.changed)
		el.changed = make(chan struct{})
	}
	el.mu.Unlock()
}

// after returns the events with sequence number > n, the done flag,
// and the channel that closes on the next change.
func (el *eventLog) after(n uint64) ([]loggedEvent, bool, <-chan struct{}) {
	el.mu.Lock()
	defer el.mu.Unlock()
	// Sequence numbers are contiguous from 1, so the slice offset is
	// min(n, len).
	i := int(n)
	if i > len(el.events) {
		i = len(el.events)
	}
	return el.events[i:], el.done, el.changed
}

func (el *eventLog) len() uint64 {
	el.mu.Lock()
	defer el.mu.Unlock()
	return uint64(len(el.events))
}

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
// resuming after Last-Event-ID.
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
	// event log makes the resume lossless.
	fmt.Fprintf(w, "retry: 1000\n\n")
	fl.Flush()

	after := resumePoint(r)
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		evs, done, changed := sess.log.after(after)
		for _, ev := range evs {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.seq, ev.typ, ev.data)
			after = ev.seq
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		if done { // evs was the rest of the log: nothing follows
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
