package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"metascope/internal/replay"
	"metascope/internal/vclock"
)

// Live analysis sessions: instead of uploading a finished archive as
// one bundle (POST /v1/jobs), a client opens a session, streams each
// rank's trace file in ordered chunks while the experiment is still
// running, and finalizes explicitly. The analysis replays incrementally
// as bytes land (internal/replay.Live) and publishes window-close,
// frontier, and lifecycle events that GET /v1/experiments/{id}/stream
// serves as SSE; the finalized result is byte-identical to the
// post-mortem analysis of the same bytes.
//
// Chunk protocol: PUT /v1/sessions/{id}/ranks/{mh}/{rank}?seq=N with
// the chunk as the body. Sequence numbers start at 0 per rank and make
// retries idempotent: a replayed chunk (seq below the next expected) is
// acknowledged without re-applying; a gap (seq above) is rejected with
// 409 so the uploader backs off and resends in order. ?last=1 marks the
// rank's final chunk. The {mh} coordinate is cross-checked against the
// decoded trace header — a mismatch fails the whole session, because a
// misplaced rank would silently corrupt the metahost attribution of
// every grid pattern.

var (
	errSessionIdle    = errors.New("session idle timeout expired")
	errSessionDeleted = errors.New("session deleted by client")
)

// session is one live analysis session.
type session struct {
	id      string
	serial  int32
	scheme  vclock.Scheme
	window  float64
	created time.Time

	live *replay.Live
	log  *eventLog

	ranks []*sessRank

	mu        sync.Mutex
	state     string // open | finalizing | done | failed | cancelled
	errMsg    string
	cancelled bool
	timedOut  bool
	result    *replay.Result
	finished  time.Time
	idle      *time.Timer

	reap sync.Once     // guards the single Finalize call
	done chan struct{} // closed when the session reaches a terminal state
}

// sessRank is the per-rank upload state. Its mutex serializes the
// chunk protocol for one rank; different ranks upload concurrently.
type sessRank struct {
	mu        sync.Mutex
	nextSeq   int64
	chunks    int64
	bytes     int64
	finished  bool
	mhChecked bool
}

func (sess *session) terminal() bool {
	switch sess.state {
	case "done", "failed", "cancelled":
		return true
	}
	return false
}

// SessionStatus is the session JSON document.
type SessionStatus struct {
	ID         string  `json:"id"`
	State      string  `json:"state"`
	Error      string  `json:"error,omitempty"`
	Scheme     string  `json:"scheme"`
	Ranks      int     `json:"ranks"`
	WindowSec  float64 `json:"window_sec"`
	AgeSeconds float64 `json:"age_seconds"`

	HeadersComplete int    `json:"headers_complete"`
	RanksFinished   int    `json:"ranks_finished"`
	BytesIngested   int64  `json:"bytes_ingested"`
	EventsIngested  int64  `json:"events_ingested"`
	Events          uint64 `json:"events"` // stream events published so far

	RankDetail []RankUploadStatus `json:"rank_detail,omitempty"`
}

// RankUploadStatus is one rank's chunk-protocol position.
type RankUploadStatus struct {
	Rank     int   `json:"rank"`
	NextSeq  int64 `json:"next_seq"`
	Chunks   int64 `json:"chunks"`
	Bytes    int64 `json:"bytes"`
	Finished bool  `json:"finished"`
}

// status renders the session document. detail=true includes the
// per-rank upload table (single-session GET; the list stays compact).
func (sess *session) status(detail bool) SessionStatus {
	ls := sess.live.Status()
	sess.mu.Lock()
	st := SessionStatus{
		ID: sess.id, State: sess.state, Error: sess.errMsg,
		Scheme: sess.scheme.String(), Ranks: ls.Ranks, WindowSec: sess.window,
		AgeSeconds:      time.Since(sess.created).Seconds(),
		HeadersComplete: ls.Headers, RanksFinished: ls.RanksFinished,
		BytesIngested: ls.BytesIngested, EventsIngested: ls.EventsIngested,
		Events: sess.log.len(),
	}
	sess.mu.Unlock()
	if detail {
		for i, sr := range sess.ranks {
			sr.mu.Lock()
			st.RankDetail = append(st.RankDetail, RankUploadStatus{
				Rank: i, NextSeq: sr.nextSeq, Chunks: sr.chunks,
				Bytes: sr.bytes, Finished: sr.finished,
			})
			sr.mu.Unlock()
		}
	}
	return st
}

// handleSessionCreate opens a session:
// POST /v1/sessions?ranks=N[&scheme=...][&window=DUR][&title=...]
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	open := 0
	for _, sess := range s.sessions {
		sess.mu.Lock()
		if !sess.terminal() {
			open++
		}
		sess.mu.Unlock()
	}
	s.mu.Unlock()
	if draining {
		s.m.rejected.With("draining").Inc()
		s.fail(w, http.StatusServiceUnavailable, "server is draining; not accepting sessions")
		return
	}
	if open >= s.opts.MaxSessions {
		s.m.rejected.With("sessions_full").Inc()
		s.fail(w, http.StatusTooManyRequests, "%d live sessions already open (limit %d)", open, s.opts.MaxSessions)
		return
	}

	ranks, err := strconv.Atoi(r.URL.Query().Get("ranks"))
	if err != nil || ranks <= 0 {
		s.m.rejected.With("bad_request").Inc()
		s.fail(w, http.StatusBadRequest, "pass ?ranks=N (positive world size), got %q", r.URL.Query().Get("ranks"))
		return
	}
	scheme := s.opts.Scheme
	if v := r.URL.Query().Get("scheme"); v != "" {
		parsed, perr := vclock.ParseScheme(v)
		if perr != nil {
			s.m.rejected.With("bad_request").Inc()
			s.fail(w, http.StatusBadRequest, "%v", perr)
			return
		}
		scheme = parsed
	}
	window := s.opts.WindowSec
	if v := r.URL.Query().Get("window"); v != "" {
		d, derr := time.ParseDuration(v)
		if derr != nil || d <= 0 {
			s.m.rejected.With("bad_request").Inc()
			s.fail(w, http.StatusBadRequest, "bad ?window=%q: want a positive duration", v)
			return
		}
		window = d.Seconds()
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.m.rejected.With("draining").Inc()
		s.fail(w, http.StatusServiceUnavailable, "server is draining; not accepting sessions")
		return
	}
	s.nextID++
	sess := &session{
		id:      "exp-" + strconv.FormatInt(s.nextID, 10),
		serial:  int32(s.nextID),
		scheme:  scheme,
		window:  window,
		created: time.Now(),
		state:   "open",
		log:     newEventLog(),
		ranks:   make([]*sessRank, ranks),
		done:    make(chan struct{}),
	}
	for i := range sess.ranks {
		sess.ranks[i] = &sessRank{}
	}
	title := r.URL.Query().Get("title")
	if title == "" {
		title = fmt.Sprintf("%s (%d processes, %v)", sess.id, ranks, scheme)
	}
	live, err := replay.NewLive(replay.LiveConfig{
		Config: replay.Config{
			Scheme: scheme, Title: title,
			Obs: s.rec, FlightJob: sess.serial,
		},
		Ranks:     ranks,
		WindowSec: window,
		EmitEvery: s.opts.StreamTick,
		OnEvent:   sess.log.append,
	})
	if err != nil {
		s.mu.Unlock()
		s.m.rejected.With("bad_request").Inc()
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	sess.live = live
	if s.opts.SessionIdleTimeout > 0 {
		sess.idle = time.AfterFunc(s.opts.SessionIdleTimeout, func() { s.expireSession(sess) })
	}
	s.sessions[sess.id] = sess
	s.sessOrder = append(s.sessOrder, sess.id)
	s.mu.Unlock()
	s.m.sessionsOpen.Add(1)
	s.rec.Log.Info("live session opened", "id", sess.id, "ranks", ranks,
		"scheme", scheme.String(), "window_sec", window)
	w.Header().Set("Location", "/v1/sessions/"+sess.id)
	writeJSON(w, http.StatusCreated, sess.status(true))
}

// lookupSession fetches a session by the request's {id} path value.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		s.fail(w, http.StatusNotFound, "no such session %q", id)
		return nil
	}
	return sess
}

// handleSessionList reports every session in creation order.
func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	order := append([]string(nil), s.sessOrder...)
	sessions := make([]*session, 0, len(order))
	for _, id := range order {
		sessions = append(sessions, s.sessions[id])
	}
	s.mu.Unlock()
	out := make([]SessionStatus, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, sess.status(false))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSessionStatus reports one session with per-rank upload detail.
func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	writeJSON(w, http.StatusOK, sess.status(true))
}

// chunkAck is the reply to a chunk PUT: whether these bytes were applied
// (false for a replayed sequence number) and where the rank's upload
// stands.
type chunkAck struct {
	Applied  bool  `json:"applied"`
	Bytes    int64 `json:"bytes"`
	Finished bool  `json:"finished"`
	NextSeq  int64 `json:"next_seq"`
	Rank     int   `json:"rank"`
}

// chunkBufs recycles chunk bodies across PUTs. A buffer that held more
// than chunkBufKeep is left to the collector: one oversized chunk must
// not pin its size in the pool.
var chunkBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const chunkBufKeep = 1 << 20

// readChunk reads one chunk body into buf. A body that declares its
// length is read in one piece — sized up front, but by no more than
// chunkBufKeep before the bytes have actually arrived — and must be
// exactly that long; chunked transfer encoding, and a declared length
// the limit reader is going to refuse anyway, read to EOF.
func (s *Server) readChunk(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	n := r.ContentLength
	if n < 0 || n > s.opts.MaxUploadBytes {
		return io.ReadAll(body)
	}
	buf.Reset()
	// ReadFrom wants MinRead spare bytes to see EOF without growing.
	buf.Grow(int(min(n, chunkBufKeep)) + bytes.MinRead)
	if _, err := buf.ReadFrom(io.LimitReader(body, n+1)); err != nil {
		return nil, err
	}
	if got := int64(buf.Len()); got > n {
		return nil, fmt.Errorf("body is longer than its declared Content-Length %d", n)
	} else if got < n {
		return nil, fmt.Errorf("body ended after %d of %d declared bytes: %w", got, n, io.ErrUnexpectedEOF)
	}
	return buf.Bytes(), nil
}

// handleChunk applies one uploaded chunk:
// PUT /v1/sessions/{id}/ranks/{mh}/{rank}?seq=N[&last=1]
func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	mh, err := strconv.Atoi(r.PathValue("mh"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad metahost %q", r.PathValue("mh"))
		return
	}
	rank, err := strconv.Atoi(r.PathValue("rank"))
	if err != nil || rank < 0 || rank >= len(sess.ranks) {
		s.fail(w, http.StatusBadRequest, "bad rank %q (world size %d)", r.PathValue("rank"), len(sess.ranks))
		return
	}
	seq, err := strconv.ParseInt(r.URL.Query().Get("seq"), 10, 64)
	if err != nil || seq < 0 {
		s.fail(w, http.StatusBadRequest, "pass ?seq=N (chunk sequence number from 0), got %q", r.URL.Query().Get("seq"))
		return
	}
	last := r.URL.Query().Get("last") == "1" || r.URL.Query().Get("last") == "true"
	// The engine copies what it keeps of a chunk, so the buffer goes back
	// to the pool when the handler returns.
	buf := chunkBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Len() <= chunkBufKeep {
			chunkBufs.Put(buf)
		}
	}()
	body, err := s.readChunk(w, r, buf)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "reading chunk: %v", err)
		return
	}

	sr := sess.ranks[rank]
	sr.mu.Lock()
	defer sr.mu.Unlock()

	sess.mu.Lock()
	state := sess.state
	sess.mu.Unlock()
	if state != "open" {
		s.fail(w, http.StatusConflict, "session %s is %s; chunks are only accepted while open", sess.id, state)
		return
	}
	ack := func(applied bool) {
		writeJSON(w, http.StatusOK, chunkAck{
			Applied: applied, Bytes: sr.bytes, Finished: sr.finished,
			NextSeq: sr.nextSeq, Rank: rank,
		})
	}
	switch {
	case seq < sr.nextSeq:
		// Retried chunk: the original application already happened, so
		// acknowledge without feeding the bytes twice.
		ack(false)
		return
	case seq > sr.nextSeq:
		s.fail(w, http.StatusConflict,
			"rank %d chunk gap: got seq %d, expected %d — resend in order", rank, seq, sr.nextSeq)
		return
	}
	if sr.finished {
		s.fail(w, http.StatusConflict, "rank %d stream already finished", rank)
		return
	}
	if err := sess.live.FeedChunk(rank, body); err != nil {
		s.failSession(sess, err)
		s.fail(w, http.StatusUnprocessableEntity, "rank %d chunk rejected: %v", rank, err)
		return
	}
	sr.nextSeq++
	sr.chunks++
	sr.bytes += int64(len(body))
	if !sr.mhChecked {
		if loc, ok := sess.live.RankLocation(rank); ok {
			sr.mhChecked = true
			if loc.Metahost != mh {
				err := fmt.Errorf("rank %d uploaded under metahost %d but its trace header says metahost %d (%s)",
					rank, mh, loc.Metahost, loc.MetahostName)
				s.failSession(sess, err)
				s.fail(w, http.StatusUnprocessableEntity, "%v", err)
				return
			}
		}
	}
	if last {
		if err := sess.live.FinishRank(rank); err != nil {
			s.failSession(sess, err)
			s.fail(w, http.StatusUnprocessableEntity, "rank %d stream invalid at close: %v", rank, err)
			return
		}
		sr.finished = true
	}
	sess.touch(s.opts.SessionIdleTimeout)
	ack(true)
}

// touch resets the idle watchdog.
func (sess *session) touch(d time.Duration) {
	sess.mu.Lock()
	if sess.idle != nil && !sess.terminal() {
		sess.idle.Reset(d)
	}
	sess.mu.Unlock()
}

// handleFinalize closes every rank stream and runs the analysis to
// completion in the background; poll the session (or ?wait=1) for the
// terminal state, then fetch /v1/experiments/{id}/result.
func (s *Server) handleFinalize(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	switch sess.state {
	case "open":
		sess.state = "finalizing"
		if sess.idle != nil {
			sess.idle.Stop()
		}
		sess.mu.Unlock()
		s.reapSession(sess)
	case "finalizing":
		sess.mu.Unlock() // idempotent: the first finalize is running
	default:
		state := sess.state
		sess.mu.Unlock()
		s.fail(w, http.StatusConflict, "session %s is already %s", sess.id, state)
		return
	}
	if v := r.URL.Query().Get("wait"); v != "" {
		waitCtx := r.Context()
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			var cancel context.CancelFunc
			waitCtx, cancel = context.WithTimeout(waitCtx, d)
			defer cancel()
		}
		select {
		case <-sess.done:
		case <-waitCtx.Done():
		}
	}
	writeJSON(w, http.StatusAccepted, sess.status(true))
}

// handleSessionDelete cancels a session. Terminal sessions are
// reported as-is, so deletion is idempotent.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	if !sess.terminal() {
		sess.cancelled = true
		if sess.idle != nil {
			sess.idle.Stop()
		}
	}
	sess.mu.Unlock()
	sess.live.Abort(errSessionDeleted)
	s.reapSession(sess)
	select {
	case <-sess.done:
	case <-r.Context().Done():
	}
	writeJSON(w, http.StatusOK, sess.status(true))
}

// expireSession is the idle watchdog: a session nobody has touched for
// the idle timeout is aborted so abandoned uploads cannot pin worker
// goroutines and rank logs forever.
func (s *Server) expireSession(sess *session) {
	sess.mu.Lock()
	if sess.terminal() || sess.state == "finalizing" {
		sess.mu.Unlock()
		return
	}
	sess.timedOut = true
	sess.mu.Unlock()
	s.rec.Log.Warn("live session idle timeout", "id", sess.id)
	sess.live.Abort(errSessionIdle)
	s.reapSession(sess)
}

// failSession marks the session failed after an ingest error. The
// engine has already aborted; the reaper tears the replay down.
func (s *Server) failSession(sess *session, err error) {
	sess.mu.Lock()
	if !sess.terminal() && sess.state != "finalizing" {
		sess.state = "failed"
		sess.errMsg = err.Error()
	}
	sess.mu.Unlock()
	s.reapSession(sess)
}

// reapSession runs the session's single Finalize call in the
// background and records the terminal state. Every path that ends a
// session (explicit finalize, delete, idle timeout, ingest failure,
// drain) funnels through here; sync.Once makes them race-safe.
func (s *Server) reapSession(sess *session) {
	sess.reap.Do(func() {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			ctx := context.Background()
			var cancel context.CancelFunc
			if s.opts.JobTimeout > 0 {
				ctx, cancel = context.WithTimeoutCause(ctx, s.opts.JobTimeout, errJobTimeout)
				defer cancel()
			}
			res, err := sess.live.Finalize(ctx)
			sess.mu.Lock()
			sess.finished = time.Now()
			if sess.idle != nil {
				sess.idle.Stop()
			}
			outcome := "done"
			switch {
			case sess.cancelled:
				sess.state = "cancelled"
				if sess.errMsg == "" && err != nil {
					sess.errMsg = err.Error()
				}
				outcome = "cancelled"
			case sess.timedOut:
				sess.state = "failed"
				if sess.errMsg == "" && err != nil {
					sess.errMsg = err.Error()
				}
				outcome = "timeout"
			case err != nil:
				sess.state = "failed"
				if sess.errMsg == "" {
					sess.errMsg = err.Error()
				}
				outcome = "failed"
			default:
				sess.state = "done"
				sess.result = res
			}
			id, state, errMsg := sess.id, sess.state, sess.errMsg
			close(sess.done)
			sess.mu.Unlock()
			sess.log.markDone()
			s.m.sessionOutcomes.With(outcome).Inc()
			s.m.sessionsOpen.Add(-1)
			if state == "done" {
				s.rec.Log.Info("live session done", "id", id)
			} else {
				s.rec.Log.Warn("live session ended", "id", id, "state", state, "error", errMsg)
			}
		}()
	})
}

// sessionResult fetches a done session's result or writes the
// appropriate error.
func (s *Server) sessionResult(w http.ResponseWriter, r *http.Request) (*session, *replay.Result) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return nil, nil
	}
	sess.mu.Lock()
	state, errMsg, res := sess.state, sess.errMsg, sess.result
	sess.mu.Unlock()
	switch {
	case state == "done":
		return sess, res
	case state == "failed" || state == "cancelled":
		s.fail(w, http.StatusConflict, "session %s %s: %s", sess.id, state, errMsg)
	default:
		s.fail(w, http.StatusConflict, "session %s is %s; finalize it and retry", sess.id, state)
	}
	return nil, nil
}

// handleExperimentResult serves the finalized cube report.
func (s *Server) handleExperimentResult(w http.ResponseWriter, r *http.Request) {
	_, res := s.sessionResult(w, r)
	if res == nil {
		return
	}
	w.Header().Set("Content-Type", "text/x-mscpcube; charset=utf-8")
	res.Report.Write(w)
}

// handleExperimentProfile serves the finalized wait-state profile.
func (s *Server) handleExperimentProfile(w http.ResponseWriter, r *http.Request) {
	_, res := s.sessionResult(w, r)
	if res == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	res.Profile.WriteJSON(w)
}

// drainSessions aborts every live session during server drain.
func (s *Server) drainSessions() {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.mu.Lock()
		open := !sess.terminal() && sess.state != "finalizing"
		if open {
			sess.cancelled = true
		}
		sess.mu.Unlock()
		if open {
			sess.live.Abort(errDrainAborted)
			s.reapSession(sess)
		}
	}
}

// sessionCensus summarizes sessions for healthz: counts by state and
// the age of the oldest non-terminal session.
func (s *Server) sessionCensus() (byState map[string]int, live int, oldest float64) {
	byState = make(map[string]int)
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	now := time.Now()
	for _, sess := range sessions {
		sess.mu.Lock()
		byState[sess.state]++
		if !sess.terminal() {
			live++
			if age := now.Sub(sess.created).Seconds(); age > oldest {
				oldest = age
			}
		}
		sess.mu.Unlock()
	}
	return byState, live, oldest
}
