package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteChrome renders a snapshot in Chrome's trace_event JSON format
// (chrome://tracing, Perfetto) — the same viewer metascope timeline targets
// for application traces, so a flight recording of the analyzer sits
// next to the timeline of the application it analyzed.
//
// Rows are grouped by job (pid) and actor (tid): replay workers show
// up as one thread per rank, service actors under their negative ids.
// Span/block/gather begin-end pairs become duration events; sends,
// queue transitions, cache probes, and job-state changes become
// instants. In the style of metascope timeline's profile counter tracks, the
// export also derives "C" counter rows from the event stream itself —
// the number of actors blocked in a mailbox wait and the number of
// queued jobs over time — so the wait intensity is visible as an area
// chart above the event rows that explain it.
//
// Output is deterministic for a given snapshot: events are already
// merge-sorted, and every JSON object is emitted with sorted keys.
func WriteChrome(w io.Writer, snap *Snapshot) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	emit := func(v interface{}) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}
	type ev = map[string]interface{}

	// Metadata rows: name every (job, actor) pair that carries events.
	type row struct{ job, actor int32 }
	seen := make(map[row]bool)
	var rows []row
	for _, e := range snap.Events {
		r := row{e.Job, e.Actor}
		if !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	for _, r := range rows { // first-appearance order: deterministic
		if err := emit(ev{
			"ph": "M", "name": "thread_name", "pid": r.job, "tid": r.actor,
			"args": ev{"name": actorName(r.actor)},
		}); err != nil {
			return err
		}
	}

	us := func(when int64) float64 { return float64(when) / 1e3 }
	blocked := 0 // actors currently inside a BlockBegin..BlockEnd pair
	queued := 0  // jobs enqueued and not yet dequeued
	depth := make(map[row]int)
	for _, e := range snap.Events {
		ts := us(e.When)
		switch e.Kind {
		case SpanBegin, BlockBegin, GatherBegin:
			depth[row{e.Job, e.Actor}]++
			if err := emit(ev{"ph": "B", "name": snap.Name(e.Name), "pid": e.Job, "tid": e.Actor, "ts": ts}); err != nil {
				return err
			}
		case SpanEnd, BlockEnd, GatherEnd:
			// A wrapped ring may have lost the matching begin; emitting
			// the stray end would corrupt the viewer's nesting.
			if depth[row{e.Job, e.Actor}] == 0 {
				break
			}
			depth[row{e.Job, e.Actor}]--
			if err := emit(ev{"ph": "E", "pid": e.Job, "tid": e.Actor, "ts": ts}); err != nil {
				return err
			}
		default:
			if err := emit(ev{
				"ph": "i", "name": snap.Name(e.Name), "s": "t",
				"pid": e.Job, "tid": e.Actor, "ts": ts,
				"args": ev{"kind": e.Kind.String(), "a": e.A, "b": e.B},
			}); err != nil {
				return err
			}
		}
		counter := func(name string, v int, pid int32) error {
			return emit(ev{"ph": "C", "name": name, "pid": pid, "ts": ts, "args": ev{"value": v}})
		}
		switch e.Kind {
		case BlockBegin:
			blocked++
			if err := counter("blocked actors", blocked, e.Job); err != nil {
				return err
			}
		case BlockEnd:
			if blocked > 0 { // a wrapped ring may have lost the begin
				blocked--
			}
			if err := counter("blocked actors", blocked, e.Job); err != nil {
				return err
			}
		case Enqueue:
			queued++
			if err := counter("queued jobs", queued, e.Job); err != nil {
				return err
			}
		case Dequeue:
			if queued > 0 {
				queued--
			}
			if err := counter("queued jobs", queued, e.Job); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// actorName renders an actor id for display: replay ranks are
// non-negative; the well-known negative ids name pipeline actors.
func actorName(actor int32) string {
	switch {
	case actor >= 0:
		return fmt.Sprintf("rank %d", actor)
	case actor == PostPassActor:
		return "post-pass"
	case actor == ServeActor:
		return "serve"
	case actor == WindowActor:
		return "window-scheduler"
	case actor == ProcessActor:
		return "process"
	default:
		return fmt.Sprintf("actor %d", actor)
	}
}

// Well-known negative actor ids. Replay workers use their rank
// (>= 0); everything else in the pipeline draws from this space.
const (
	// PostPassActor tags the sequential wrong-order/report post-pass
	// that runs after the parallel sweep.
	PostPassActor int32 = -1
	// ServeActor tags service-level events (admission, queue, cache,
	// job states) of internal/serve.
	ServeActor int32 = -2
	// WindowActor tags the live-session window scheduler: its periodic
	// sink drains and the windows it closes.
	WindowActor int32 = -3
)
