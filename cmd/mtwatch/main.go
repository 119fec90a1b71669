// mtwatch is the terminal dashboard for a live analysis session: it
// follows the SSE stream a running mtserved publishes for an
// experiment and renders session state, the replay frontier, per-rank
// ingest lag, and the cumulative wait-state severities as they
// accumulate window by window.
//
//	mtwatch -server http://localhost:8921 exp-1
//
// The client resumes after a dropped connection with the SSE
// Last-Event-ID header, so a flaky network never loses or duplicates a
// window event. -plain disables the screen-clearing redraw and appends
// one dashboard frame per update instead, which suits logs and pipes.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"metascope/internal/obs"
	"metascope/internal/replay"
)

// sevKey identifies one cell of the cumulative severity table.
type sevKey struct {
	metric   string
	metahost int
}

// watchState is everything the dashboard knows, folded from the event
// stream. apply is idempotent per sequence number, so replays after a
// reconnect cannot double-count window deltas.
type watchState struct {
	id         string
	state      string
	errMsg     string
	lastSeq    uint64
	frontier   *replay.FrontierEvent
	sums       map[sevKey]float64
	windows    int
	summary    *replay.SummaryEvent
	reconnects int
}

func newWatchState(id string) *watchState {
	return &watchState{id: id, state: "connecting", sums: make(map[sevKey]float64)}
}

// apply folds one engine event into the dashboard state. Events at or
// below the last applied sequence number are replays and are dropped.
func (st *watchState) apply(ev replay.StreamEvent) {
	if ev.Seq <= st.lastSeq {
		return
	}
	st.lastSeq = ev.Seq
	switch {
	case ev.State != nil:
		st.state = ev.State.State
		st.errMsg = ev.State.Error
	case ev.Frontier != nil:
		st.frontier = ev.Frontier
	case ev.Window != nil:
		st.windows++
		for _, d := range ev.Window.Deltas {
			st.sums[sevKey{d.Metric, d.Metahost}] += d.Value
		}
	case ev.Summary != nil:
		st.summary = ev.Summary
	}
}

func (st *watchState) terminal() bool {
	return st.state == "done" || st.state == "failed" || st.state == "cancelled"
}

// render produces one full dashboard frame as text. It is a pure
// function of the state so the layout is directly testable.
func render(st *watchState) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mtwatch %s — %s", st.id, st.state)
	if st.errMsg != "" {
		fmt.Fprintf(&b, ": %s", st.errMsg)
	}
	fmt.Fprintf(&b, "   (events %d", st.lastSeq)
	if st.reconnects > 0 {
		fmt.Fprintf(&b, ", reconnects %d", st.reconnects)
	}
	b.WriteString(")\n")
	if f := st.frontier; f != nil {
		b.WriteString("frontier ")
		if f.ProgressValid {
			fmt.Fprintf(&b, "%.3f s", f.Progress)
		} else {
			b.WriteString("–")
		}
		b.WriteString(" · ingested through ")
		if f.IngestValid {
			fmt.Fprintf(&b, "%.3f s", f.Ingest)
		} else {
			b.WriteString("–")
		}
		b.WriteString(" · closed through window ")
		if f.ClosedThrough > -(1 << 62) {
			fmt.Fprintf(&b, "%d", f.ClosedThrough)
		} else {
			b.WriteString("–")
		}
		b.WriteString("\n\n")
		fmt.Fprintf(&b, "%5s  %-12s %10s %12s %12s  %s\n", "rank", "metahost", "events", "bytes", "ingested(s)", "done")
		for _, rk := range f.Ranks {
			ing := "–"
			if rk.HasTime {
				ing = fmt.Sprintf("%.3f", rk.Ingested)
			}
			done := ""
			if rk.Finished {
				done = "yes"
			}
			fmt.Fprintf(&b, "%5d  %-12s %10d %12d %12s  %s\n", rk.Rank, rk.Metahost, rk.Events, rk.Bytes, ing, done)
		}
	}
	if len(st.sums) > 0 {
		fmt.Fprintf(&b, "\nseverity by metric × metahost (cumulative, %d window events)\n", st.windows)
		keys := make([]sevKey, 0, len(st.sums))
		for k := range st.sums {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].metric != keys[j].metric {
				return keys[i].metric < keys[j].metric
			}
			return keys[i].metahost < keys[j].metahost
		})
		fmt.Fprintf(&b, "%-55s %8s %14s\n", "metric", "mh", "seconds")
		for _, k := range keys {
			fmt.Fprintf(&b, "%-55s %8d %14.6f\n", k.metric, k.metahost, st.sums[k])
		}
	}
	if s := st.summary; s != nil {
		fmt.Fprintf(&b, "\nsummary: %d windows closed · %d messages · %d collectives · %d violations\n",
			s.WindowsClosed, s.Messages, s.Collectives, s.Violations)
	}
	return b.String()
}

// options carries the parsed flags so run stays independent of the
// global flag set.
type options struct {
	server   string
	interval time.Duration
	plain    bool
}

// watcher drives one dashboard: it consumes the stream, folds events,
// and redraws at most once per interval (plus once at every state
// change and once at the end).
type watcher struct {
	rec      *obs.Recorder
	client   *http.Client
	base     string
	st       *watchState
	out      io.Writer
	plain    bool
	interval time.Duration
	lastDraw time.Time
}

func (w *watcher) draw(force bool) {
	if !force && time.Since(w.lastDraw) < w.interval {
		return
	}
	w.lastDraw = time.Now()
	frame := render(w.st)
	if w.plain {
		fmt.Fprintf(w.out, "%s\n", frame)
		return
	}
	// Home + clear-to-end redraw keeps the terminal from flickering the
	// way a full clear would.
	fmt.Fprintf(w.out, "\x1b[H\x1b[2J%s", frame)
}

func (w *watcher) url(tail string) string {
	return strings.TrimSuffix(w.base, "/") + "/v1/experiments/" + w.st.id + tail
}

// streamOnce holds one SSE connection until the server finishes the
// stream, the connection drops, or the context ends. It reports
// whether the stream completed (done frame seen and drained).
func (w *watcher) streamOnce(ctx context.Context) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url("/stream"), nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if w.st.lastSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(w.st.lastSeq, 10))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, fmt.Errorf("GET %s: %s: %s", req.URL, resp.Status, bytes.TrimSpace(body))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var typ string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) > 0 {
				w.handleFrame(typ, data)
			}
			typ, data = "", nil
		case strings.HasPrefix(line, ":"): // comment / keepalive
		case strings.HasPrefix(line, "event:"):
			typ = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		}
		// id: and retry: fields are redundant here — the sequence
		// number rides inside the event payload.
	}
	if len(data) > 0 {
		w.handleFrame(typ, data)
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil && !w.st.terminal() {
		return false, err
	}
	// A clean EOF with a terminal state means the server drained the
	// log and hung up; anything else is a drop worth a reconnect.
	return w.st.terminal(), nil
}

func (w *watcher) handleFrame(typ string, data []byte) {
	var ev replay.StreamEvent
	if err := json.Unmarshal(data, &ev); err != nil {
		obs.OrDefault(w.rec).Log.Warn("mtwatch: bad event frame", "type", typ, "err", err)
		return
	}
	stateChanged := ev.State != nil
	w.st.apply(ev)
	w.draw(stateChanged)
}

func run(rec *obs.Recorder, o options, args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: mtwatch [-server URL] experiment-id")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := &watcher{
		rec:      rec,
		client:   &http.Client{},
		base:     o.server,
		st:       newWatchState(args[0]),
		out:      out,
		plain:    o.plain,
		interval: o.interval,
	}
	var err error
	for {
		var done bool
		done, err = w.streamOnce(ctx)
		if done || err != nil || ctx.Err() != nil {
			break
		}
		// Dropped mid-stream: resume from lastSeq after a beat, the
		// same dance an EventSource does on its retry timer.
		w.st.reconnects++
		obs.OrDefault(rec).Log.Info("mtwatch: stream dropped, resuming",
			"after", w.st.lastSeq, "reconnects", w.st.reconnects)
		select {
		case <-ctx.Done():
		case <-time.After(time.Second):
		}
	}
	if ctx.Err() != nil && err == nil {
		err = nil // interrupted by the user: leave the last frame up
	} else if errors.Is(err, context.Canceled) {
		err = nil
	}
	w.draw(true)
	if err == nil && w.st.state == "failed" {
		err = fmt.Errorf("session %s failed: %s", w.st.id, w.st.errMsg)
	}
	return err
}

func main() {
	cli := obs.RegisterCLIFlags("mtwatch", flag.CommandLine, nil)
	server := flag.String("server", "http://localhost:8921", "mtserved base URL")
	interval := flag.Duration("interval", 500*time.Millisecond, "minimum time between dashboard redraws")
	plain := flag.Bool("plain", false, "append frames instead of redrawing the screen (for logs and pipes)")
	flag.Parse()
	cli.Start()

	o := options{server: *server, interval: *interval, plain: *plain}
	err := run(cli.Recorder(), o, flag.Args(), os.Stdout)
	if ferr := cli.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		obs.Fatal("mtwatch failed", "err", err)
	}
}
