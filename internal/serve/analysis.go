package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"metascope/internal/cube"
	"metascope/internal/obs/flight"
	"metascope/internal/replay"
	"metascope/internal/vclock"
)

// State is an analysis's lifecycle position. Transitions are monotone:
// a job goes queued → running, a session open → finalizing, and settle
// ends either as done, failed or cancelled.
type State string

const (
	StateQueued     State = "queued"
	StateRunning    State = "running"
	stateOpen       State = "open"
	stateFinalizing State = "finalizing"
	StateDone       State = "done"
	StateFailed     State = "failed"
	StateCancelled  State = "cancelled"
)

// terminal reports whether an analysis has reached a final state.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Sentinel stop causes and failures, which settle classifies. The two
// cancellations wrap context.Canceled, so the replay counts and streams
// the abort they cause as cancelled, not failed.
var (
	errCancelled    = fmt.Errorf("serve: cancelled by request: %w", context.Canceled)
	errDrainAborted = fmt.Errorf("serve: aborted by server drain: %w", context.Canceled)
	errSessionIdle  = errors.New("serve: session idle timeout expired")
	errJobTimeout   = errors.New("serve: analysis exceeded its time budget")
	errJobPanicked  = errors.New("serve: analysis panicked")
)

// analysis is the one record the service keeps per piece of tracked
// work, whichever feeder produced it: a job (an archive run by the
// worker pool) or a live session (chunks streamed into an incremental
// replay). The head is immutable once registered; the rest is guarded
// by the server's mutex. settle closes done, so waiters never poll.
type analysis struct {
	id      string
	serial  int32 // numeric id; the analysis's flight-recorder attribution
	scheme  vclock.Scheme
	created time.Time
	done    chan struct{}

	state      State
	err        string
	failStatus int // HTTP status the result endpoint reports for a failure
	finished   time.Time
	served     served
}

// served is what the store keeps of a done analysis, what its endpoints
// read: the cube report, which carries the profile, and the counts,
// copied out of its *replay.Result, whose phase profile, corrections and
// communication volumes no endpoint reads.
type served struct {
	report                                     *cube.Report
	messages, collectives, violations, repairs int
}

// servedOf copies what the store keeps out of res, if any.
func servedOf(res *replay.Result) (out served) {
	if res != nil {
		out = served{res.Report, res.Messages, res.Collectives, res.Violations, res.Repairs}
	}
	return out
}

func (a *analysis) record() *analysis { return a }

// feeder is what the store holds: a *job or a *session, each embedding
// its analysis record.
type feeder interface{ record() *analysis }

// register names a new analysis and enters it in the store; ids share
// one counter, so job-N and exp-N never collide. s.mu held.
func (s *Server) register(f feeder, prefix string, scheme vclock.Scheme, state State) {
	s.nextID++
	*f.record() = analysis{
		id:      fmt.Sprintf("%s-%d", prefix, s.nextID),
		serial:  int32(s.nextID),
		scheme:  scheme,
		created: time.Now(),
		done:    make(chan struct{}),
		state:   state,
	}
	s.analyses[f.record().id] = f
	s.order = append(s.order, f)
}

// settle is the one terminal transition, taken exactly once per
// analysis: it classifies the error and the cause the analysis was
// stopped for, if any, into the state, the HTTP status the result
// endpoint reports and the outcome label of the feeder's counter family,
// closes done, drops what only a running analysis needs, and holds the
// store to its bound. A done analysis keeps out. s.mu held.
func (s *Server) settle(f feeder, out served, err, cause error) {
	a := f.record()
	outcome := "done"
	overBudget := errors.Is(err, context.DeadlineExceeded) || errors.Is(err, errJobTimeout)
	switch {
	case err == nil:
		a.state, a.served = StateDone, out
	case errors.Is(cause, context.Canceled):
		outcome = "cancelled"
		if a.state == StateQueued {
			// The job never started: the distinct label separates free
			// cancellations (no work lost) from interrupted analyses.
			outcome = "cancelled_queued"
		}
		a.state = StateCancelled
	case overBudget || cause == errSessionIdle:
		if overBudget {
			err = fmt.Errorf("analysis exceeded its %v time budget: %w", s.opts.JobTimeout, err)
		}
		a.state, a.failStatus, outcome = StateFailed, http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, errJobPanicked):
		a.state, a.failStatus, outcome = StateFailed, http.StatusInternalServerError, "panic"
	default: // corrupt input, ingest or analysis failure
		a.state, a.failStatus, outcome = StateFailed, http.StatusUnprocessableEntity, "failed"
	}
	if err != nil {
		a.err = err.Error()
	}
	a.finished = time.Now()
	close(a.done)
	s.emitJobState(a.serial, a.state)
	switch f := f.(type) {
	case *job:
		if f.cached {
			outcome = "cache"
		}
		f.mounts, f.metahosts = nil, nil // the decoded upload; the result is what stays
		s.m.outcomes.With(outcome).Inc()
	case *session:
		if f.idle != nil {
			f.idle.Stop()
		}
		s.m.sessionOutcomes.With(outcome).Inc()
		s.m.sessionsOpen.Add(-1)
	}
	s.retain()
}

// retain is the store's bound: walking it from its newest end, it keeps
// the first s.keep finished analyses it meets and evicts every older one,
// job or session, done, failed or cancelled alike. Eviction drops the
// record from the store, and with it the result, the profile and a
// session's stream history; a queued, running, open or finalizing analysis
// is never evicted. s.mu held.
func (s *Server) retain() {
	kept, n := 0, len(s.order)
	for i := len(s.order) - 1; i >= 0; i-- {
		f := s.order[i]
		if f.record().state.terminal() {
			if kept == s.keep {
				s.evict(f)
				continue
			}
			kept++
		}
		n--
		s.order[n] = f
	}
	live := copy(s.order, s.order[n:])
	clear(s.order[live:])
	s.order = s.order[:live]
	s.m.cacheEntries.Set(float64(kept))
}

// evict removes one finished analysis from the store. Its id answers 410
// from then on. s.mu held.
func (s *Server) evict(f feeder) {
	a := f.record()
	delete(s.analyses, a.id)
	kind := "session"
	if _, ok := f.(*job); ok {
		kind = "job"
	}
	s.m.evicted.With(kind).Inc()
	s.rec.Log.Debug("analysis evicted", "id", a.id, "state", string(a.state), "keep", s.keep)
}

// reusable returns the newest kept done job that analyzed the archive
// and scheme key names, or nil; with reuse off it is always nil. s.mu
// held.
func (s *Server) reusable(key string) *job {
	if s.opts.CacheEntries < 0 {
		return nil
	}
	for i := len(s.order) - 1; i >= 0; i-- {
		if j, ok := s.order[i].(*job); ok && j.state == StateDone && j.cacheKey == key {
			return j
		}
	}
	return nil
}

// stop asks an analysis to end for cause; on a terminal one it does
// nothing. A queued job settles on the spot (the worker drops it at
// dequeue); a running job's context is cancelled, a session's engine
// aborted, and the unwound analysis settles with the cause. s.mu held.
func (s *Server) stop(f feeder, cause error) {
	if f.record().state.terminal() {
		return
	}
	switch f := f.(type) {
	case *job:
		if f.state == StateQueued {
			s.settle(f, served{}, cause, cause)
		}
		f.cancel(cause)
	case *session:
		if f.cause == nil {
			f.cause = cause
			f.live.Abort(cause)
		}
		s.reapSession(f)
	}
}

// budget bounds ctx by the per-analysis time budget.
func (s *Server) budget(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.opts.JobTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeoutCause(ctx, s.opts.JobTimeout, errJobTimeout)
}

// reject refuses a request before it becomes work: one count of
// metascope_serve_rejected_total under reason, one structured warn line
//
//	level=warn msg="request refused" reason=… status=… method=… path=… error=… [attrs…]
//
// and the status with msg as its JSON error.
func (s *Server) reject(w http.ResponseWriter, r *http.Request, reason string, status int, msg string, attrs ...any) {
	s.m.rejected.With(reason).Inc()
	s.rec.Log.Warn("request refused", append([]any{"reason", reason, "status", status,
		"method", r.Method, "path", r.URL.Path, "error", msg}, attrs...)...)
	s.fail(w, status, "%s", msg)
}

// tooLarge reports whether err refuses an upload for being over
// MaxUploadBytes — the body as it arrived, or the bundle by what its
// directory declares — and if so refuses it with 413, the line carrying
// the declared and the allowed bytes.
func (s *Server) tooLarge(w http.ResponseWriter, r *http.Request, err error) bool {
	var declared, allowed any
	var body *http.MaxBytesError
	var bundle *sizeError
	switch {
	case errors.As(err, &body):
		declared, allowed = r.ContentLength, body.Limit
	case errors.As(err, &bundle):
		declared, allowed = bundle.declared, bundle.allowed
	default:
		return false
	}
	s.reject(w, r, "too_large", http.StatusRequestEntityTooLarge, "upload over the size limit: "+err.Error(),
		"declared_bytes", declared, "allowed_bytes", allowed)
	return true
}

// rejectDraining answers a submission that met a draining server, at
// admit or, when the drain began in between, at registration.
func (s *Server) rejectDraining(w http.ResponseWriter, r *http.Request) {
	s.reject(w, r, "draining", http.StatusServiceUnavailable, "server is draining; not accepting new work")
}

// admit is the intake gate of both feeders: it refuses new work while
// the server drains and resolves ?scheme= (flat1|flat2|hier), which
// defaults to hier.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (vclock.Scheme, bool) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.rejectDraining(w, r)
		return 0, false
	}
	scheme := vclock.Hierarchical
	if v := r.URL.Query().Get("scheme"); v != "" {
		var err error
		if scheme, err = vclock.ParseScheme(v); err != nil {
			s.reject(w, r, "bad_request", http.StatusBadRequest, err.Error())
			return 0, false
		}
	}
	return scheme, true
}

// await honours ?wait=, the long poll: it blocks until the analysis
// settles, the duration passes (wait=DUR) or the request ends (wait=1).
func await(r *http.Request, a *analysis) {
	v := r.URL.Query().Get("wait")
	if v == "" {
		return
	}
	ctx := r.Context()
	if d, err := time.ParseDuration(v); err == nil && d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	select {
	case <-a.done:
	case <-ctx.Done():
	}
}

// lookup resolves an id to its analysis, whichever feeder owns it. An id
// the store does not hold it answers itself and returns nil: 410 when the
// analysis was evicted, 404 when the id was never issued.
func (s *Server) lookup(w http.ResponseWriter, id string) feeder {
	s.mu.Lock()
	f := s.analyses[id]
	gone := f == nil && s.evictedLocked(id)
	s.mu.Unlock()
	switch {
	case gone:
		s.fail(w, http.StatusGone, "%s was evicted: the server keeps the %d newest finished analyses", id, s.keep)
	case f == nil:
		s.fail(w, http.StatusNotFound, "no such analysis %q", id)
	}
	return f
}

// lookupAs resolves the request's {id} path value to the feeder T a
// route serves. Anything else it answers itself and returns nil: as
// lookup does, or 404 for an analysis of the other feeder.
func lookupAs[T feeder](s *Server, w http.ResponseWriter, r *http.Request, kind string) T {
	id := r.PathValue("id")
	f := s.lookup(w, id)
	t, ok := f.(T)
	if f != nil && !ok {
		s.fail(w, http.StatusNotFound, "no such %s %q", kind, id)
	}
	return t
}

// evictedLocked reports whether id names an evicted analysis: it is
// job-N or exp-N in canonical form, the shared counter has issued N, and
// no record under either prefix holds N any more. s.mu held.
func (s *Server) evictedLocked(id string) bool {
	_, num, _ := strings.Cut(id, "-")
	n, err := strconv.ParseInt(num, 10, 64)
	job, exp := "job-"+num, "exp-"+num
	return err == nil && 0 < n && n <= s.nextID && num == strconv.FormatInt(n, 10) &&
		(id == job || id == exp) && s.analyses[job] == nil && s.analyses[exp] == nil
}

// finished resolves an id to what the store keeps of a done analysis.
// Anything else it answers itself and returns false: 404 or 410 as
// lookup does, 409 for one not finished or cancelled, the classified
// status for a failed one.
func (s *Server) finished(w http.ResponseWriter, id string) (served, bool) {
	f := s.lookup(w, id)
	if f == nil {
		return served{}, false
	}
	s.mu.Lock()
	a := *f.record()
	s.mu.Unlock()
	switch {
	case a.state == StateDone:
		return a.served, true
	case a.state == StateFailed:
		s.fail(w, a.failStatus, "%s failed: %s", id, a.err)
	case a.state == StateCancelled:
		s.fail(w, http.StatusConflict, "%s was cancelled: %s", id, a.err)
	default:
		s.fail(w, http.StatusConflict, "%s is %s; retry after it finishes", id, a.state)
	}
	return served{}, false
}

// handleResult serves a finished analysis's cube report as mscpcube
// text (parse it with internal/cube.Read or render it with metascope print).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if out, ok := s.finished(w, r.PathValue("id")); ok {
		w.Header().Set("Content-Type", "text/x-mscpcube; charset=utf-8")
		out.report.Write(w)
	}
}

// handleProfile serves a finished analysis's time-resolved wait-state
// profile as JSON.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if out, ok := s.finished(w, r.PathValue("id")); ok {
		w.Header().Set("Content-Type", "application/json")
		out.report.Profile.WriteJSON(w)
	}
}

// handleDiff serves the metascope diff-style comparison (cube algebra
// difference b − a) of two finished analyses: GET /v1/diff?a=ID&b=ID.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	a, ok := s.finished(w, r.URL.Query().Get("a"))
	if !ok {
		return
	}
	b, ok := s.finished(w, r.URL.Query().Get("b"))
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/x-mscpcube; charset=utf-8")
	cube.Diff(a.report, b.report).Write(w)
}

// handleTrace serves one analysis's flight recording as Chrome trace
// JSON (load it in Perfetto / chrome://tracing): its replay-worker
// lanes plus the service actor's queue, cache and state events.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	f := s.lookup(w, r.PathValue("id"))
	if f == nil {
		return
	}
	if !s.rec.Flight.Enabled() {
		s.fail(w, http.StatusConflict,
			"flight recorder is disabled; start the server with flight recording on")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	flight.WriteChrome(w, s.rec.Flight.Snapshot().FilterJob(f.record().serial))
}
