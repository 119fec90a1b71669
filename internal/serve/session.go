package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"metascope/internal/replay"
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

// session is one live analysis session: the analysis record plus the
// engine that feeds it — and keeps the stream it publishes — and the
// chunk-protocol table, which alone carries locks of its own.
type session struct {
	analysis
	window float64

	live  *replay.Live
	ranks []sessRank

	cause error // why the session was stopped; nil while it runs its course
	idle  *time.Timer
	reap  sync.Once // guards the single Finalize call
}

// sessRank is the per-rank chunk-protocol state. Its mutex serializes
// the protocol for one rank; different ranks upload concurrently. What a
// rank ingested — events, bytes, time — the engine counts (Live.Rank).
type sessRank struct {
	mu        sync.Mutex
	nextSeq   int64 // chunks accepted so far
	finished  bool
	mhChecked bool
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
	Events          uint64 `json:"events"` // the stream's last sequence number

	RankDetail []RankUploadStatus `json:"rank_detail,omitempty"`
}

// RankUploadStatus is one rank's row of the session's per-rank table:
// the engine's ingest position and the chunk protocol's next sequence
// number.
type RankUploadStatus struct {
	replay.RankLag
	NextSeq int64 `json:"next_seq"`
}

// sessionStatus renders the session document. detail=true includes the
// per-rank table (single-session GET; the list stays compact).
func (s *Server) sessionStatus(sess *session, detail bool) SessionStatus {
	ls := sess.live.Status()
	st := SessionStatus{
		ID: sess.id, Scheme: sess.scheme.String(), Ranks: ls.Ranks, WindowSec: sess.window,
		AgeSeconds:      time.Since(sess.created).Seconds(),
		HeadersComplete: ls.Headers, RanksFinished: ls.RanksFinished,
		BytesIngested: ls.BytesIngested, EventsIngested: ls.EventsIngested,
		Events: ls.LastSeq,
	}
	s.mu.Lock()
	st.State, st.Error = string(sess.state), sess.err
	s.mu.Unlock()
	if detail {
		for i := range sess.ranks {
			sr := &sess.ranks[i]
			sr.mu.Lock()
			st.RankDetail = append(st.RankDetail, RankUploadStatus{RankLag: sess.live.Rank(i), NextSeq: sr.nextSeq})
			sr.mu.Unlock()
		}
	}
	return st
}

// handleSessionCreate opens a session:
// POST /v1/sessions?ranks=N[&scheme=...][&window=DUR][&title=...]
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	scheme, ok := s.admit(w, r)
	if !ok {
		return
	}
	// A session allocates per-rank state before any byte arrives, so the
	// world size is bounded like a bundle's rank files are.
	ranks, err := strconv.Atoi(r.URL.Query().Get("ranks"))
	if err != nil || ranks <= 0 || ranks > maxZipFiles {
		s.reject(w, r, "bad_request", http.StatusBadRequest,
			fmt.Sprintf("pass ?ranks=N (world size 1..%d), got %q", maxZipFiles, r.URL.Query().Get("ranks")))
		return
	}
	window := s.opts.WindowSec
	if v := r.URL.Query().Get("window"); v != "" {
		d, derr := time.ParseDuration(v)
		if derr != nil || d <= 0 {
			s.reject(w, r, "bad_request", http.StatusBadRequest, fmt.Sprintf("bad ?window=%q: want a positive duration", v))
			return
		}
		window = d.Seconds()
	}
	sess := &session{window: window, ranks: make([]sessRank, ranks)}

	// Counting the open sessions and registering the new one is one
	// critical section: MaxSessions holds under concurrent creates.
	s.mu.Lock()
	open := 0
	for _, f := range s.order {
		if _, ok := f.(*session); ok && !f.record().state.terminal() {
			open++
		}
	}
	switch {
	case s.draining:
		s.mu.Unlock()
		s.rejectDraining(w, r)
		return
	case open >= s.opts.MaxSessions:
		s.mu.Unlock()
		s.reject(w, r, "sessions_full", http.StatusTooManyRequests,
			fmt.Sprintf("%d live sessions already open (limit %d)", open, s.opts.MaxSessions))
		return
	}
	s.register(sess, "exp", scheme, stateOpen)
	title := r.URL.Query().Get("title")
	if title == "" {
		title = fmt.Sprintf("%s (%d processes, %v)", sess.id, ranks, scheme)
	}
	// NewLive refuses only a non-positive world size, checked above.
	sess.live, _ = replay.NewLive(replay.LiveConfig{
		Config: replay.Config{
			Scheme: scheme, Title: title,
			Obs: s.rec, FlightJob: sess.serial,
		},
		Ranks:     ranks,
		WindowSec: window,
	})
	if s.opts.SessionIdleTimeout > 0 {
		sess.idle = time.AfterFunc(s.opts.SessionIdleTimeout, func() { s.expire(sess) })
	}
	s.m.sessionsOpen.Add(1)
	s.mu.Unlock()
	s.rec.Log.Info("live session opened", "id", sess.id, "ranks", ranks,
		"scheme", scheme.String(), "window_sec", window)
	w.Header().Set("Location", "/v1/sessions/"+sess.id)
	writeJSON(w, http.StatusCreated, s.sessionStatus(sess, true))
}

// handleSessionList reports every session in creation order.
func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	all := slices.Clone(s.order)
	s.mu.Unlock()
	out := []SessionStatus{}
	for _, f := range all {
		if sess, ok := f.(*session); ok {
			out = append(out, s.sessionStatus(sess, false))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSessionStatus reports one session with per-rank upload detail.
func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	if sess := lookupAs[*session](s, w, r, "session"); sess != nil {
		writeJSON(w, http.StatusOK, s.sessionStatus(sess, true))
	}
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

// readBody is the one body reader, of an uploaded bundle and of a chunk
// alike: it reads the request body into buf, under MaxUploadBytes. A body
// that declares its length is read in one piece — sized up front, but by
// no more than chunkBufKeep before the bytes have actually arrived — and
// must be exactly that long; chunked transfer encoding reads to EOF. A
// declared length over the limit is refused whatever arrives: the body is
// drained through the limit reader, so the client reads an answer and not
// a reset, and no byte of it is kept.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) ([]byte, error) {
	limit := s.opts.MaxUploadBytes
	body := http.MaxBytesReader(w, r.Body, limit)
	n := r.ContentLength
	buf.Reset()
	switch {
	case n > limit:
		if _, err := io.Copy(io.Discard, body); err != nil {
			return nil, err
		}
		return nil, &http.MaxBytesError{Limit: limit}
	case n < 0:
		if _, err := buf.ReadFrom(body); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
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
	sess := lookupAs[*session](s, w, r, "session")
	if sess == nil {
		return
	}
	badRequest := func(format string, args ...any) {
		s.reject(w, r, "bad_request", http.StatusBadRequest, fmt.Sprintf(format, args...))
	}
	conflict := func(format string, args ...any) {
		s.reject(w, r, "conflict", http.StatusConflict, fmt.Sprintf(format, args...))
	}
	mh, err := strconv.Atoi(r.PathValue("mh"))
	if err != nil {
		badRequest("bad metahost %q", r.PathValue("mh"))
		return
	}
	rank, err := strconv.Atoi(r.PathValue("rank"))
	if err != nil || rank < 0 || rank >= len(sess.ranks) {
		badRequest("bad rank %q (world size %d)", r.PathValue("rank"), len(sess.ranks))
		return
	}
	seq, err := strconv.ParseInt(r.URL.Query().Get("seq"), 10, 64)
	if err != nil || seq < 0 {
		badRequest("pass ?seq=N (chunk sequence number from 0), got %q", r.URL.Query().Get("seq"))
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
	body, err := s.readBody(w, r, buf)
	if err != nil {
		if !s.tooLarge(w, r, err) {
			badRequest("reading chunk: %v", err)
		}
		return
	}

	sr := &sess.ranks[rank]
	sr.mu.Lock()
	defer sr.mu.Unlock()

	// A chunk arriving is the sign of life the idle watchdog waits for.
	s.mu.Lock()
	state := sess.state
	if state == stateOpen && sess.idle != nil {
		sess.idle.Reset(s.opts.SessionIdleTimeout)
	}
	s.mu.Unlock()
	if state != stateOpen {
		conflict("session %s is %s; chunks are only accepted while open", sess.id, state)
		return
	}
	// An ingest failure ends the whole session: the engine has aborted
	// (or is about to be), and the reaper tears the replay down.
	ingestFailed := func(err error) {
		s.mu.Lock()
		s.stop(sess, err)
		s.mu.Unlock()
		s.fail(w, http.StatusUnprocessableEntity, "%v", err)
	}
	ack := func(applied bool) {
		writeJSON(w, http.StatusOK, chunkAck{
			Applied: applied, Bytes: sess.live.Rank(rank).Bytes, Finished: sr.finished,
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
		conflict("rank %d chunk gap: got seq %d, expected %d — resend in order", rank, seq, sr.nextSeq)
		return
	}
	if sr.finished {
		conflict("rank %d stream already finished", rank)
		return
	}
	if err := sess.live.FeedChunk(rank, body); err != nil {
		ingestFailed(fmt.Errorf("rank %d chunk rejected: %w", rank, err))
		return
	}
	sr.nextSeq++
	if !sr.mhChecked {
		if loc, ok := sess.live.RankLocation(rank); ok {
			sr.mhChecked = true
			if loc.Metahost != mh {
				ingestFailed(fmt.Errorf("rank %d uploaded under metahost %d but its trace header says metahost %d (%s)",
					rank, mh, loc.Metahost, loc.MetahostName))
				return
			}
		}
	}
	if last {
		if err := sess.live.FinishRank(rank); err != nil {
			ingestFailed(fmt.Errorf("rank %d stream invalid at close: %w", rank, err))
			return
		}
		sr.finished = true
	}
	ack(true)
}

// handleFinalize closes every rank stream and runs the analysis to
// completion in the background; poll the session (or ?wait=1) for the
// terminal state, then fetch /v1/experiments/{id}/result.
func (s *Server) handleFinalize(w http.ResponseWriter, r *http.Request) {
	sess := lookupAs[*session](s, w, r, "session")
	if sess == nil {
		return
	}
	s.mu.Lock()
	if sess.state == stateOpen {
		sess.state = stateFinalizing
		s.reapSession(sess)
	}
	state := sess.state
	s.mu.Unlock()
	if state.terminal() { // finalizing already is fine: the request is idempotent
		s.fail(w, http.StatusConflict, "session %s is already %s", sess.id, state)
		return
	}
	await(r, &sess.analysis)
	writeJSON(w, http.StatusAccepted, s.sessionStatus(sess, true))
}

// handleSessionDelete cancels a session. Terminal sessions are
// reported as-is — result, stream and state untouched — so deletion is
// idempotent.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	sess := lookupAs[*session](s, w, r, "session")
	if sess == nil {
		return
	}
	s.mu.Lock()
	s.stop(sess, errCancelled)
	s.mu.Unlock()
	select {
	case <-sess.done:
	case <-r.Context().Done():
	}
	writeJSON(w, http.StatusOK, s.sessionStatus(sess, true))
}

// expire is the idle watchdog: a session still waiting for chunks that
// nobody has touched for the idle timeout is ended, so abandoned
// uploads cannot pin worker goroutines and rank logs forever.
func (s *Server) expire(sess *session) {
	s.mu.Lock()
	idle := sess.state == stateOpen
	if idle {
		s.stop(sess, errSessionIdle)
	}
	s.mu.Unlock()
	if idle {
		s.rec.Log.Warn("live session idle timeout", "id", sess.id)
	}
}

// reapSession runs the session's single Finalize call in the
// background and settles it with the cause it was stopped for, if any.
// Finalize and every stop land here; sync.Once makes them race-safe.
func (s *Server) reapSession(sess *session) {
	sess.reap.Do(func() {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			ctx, cancel := s.budget(context.Background())
			defer cancel()
			res, err := sess.live.Finalize(ctx)
			// A budget that ran out before Finalize returned is the timeout,
			// also when the replay finished before the abort reached it.
			if dl, ok := ctx.Deadline(); err == nil && ok && !time.Now().Before(dl) {
				res, err = nil, errJobTimeout
			}
			s.mu.Lock()
			s.settle(sess, res, err, sess.cause)
			state, errMsg := sess.state, sess.err
			s.mu.Unlock()
			sess.live.EndStream()
			if state == StateDone {
				s.rec.Log.Info("live session done", "id", sess.id)
			} else {
				s.rec.Log.Warn("live session ended", "id", sess.id, "state", string(state), "error", errMsg)
			}
		}()
	})
}
