// Package serve is the HTTP front-end over the analysis pipeline: a
// concurrent analysis service accepting experiment archives (uploaded
// as zip bundles or named by a server-side path), running the full
// sync → replay → cube → profile pipeline through a bounded worker
// pool behind a FIFO queue, and answering a byte-identical resubmission
// (same content digest and scheme) from the result of a kept job.
//
// Live sessions (session.go) feed the same pipeline incrementally; a job
// and a session are one kind of record, an analysis (analysis.go): one
// store, one lock, one terminal transition, one set of result handlers.
// The store is also the result cache: it keeps the newest CacheEntries
// finished analyses, and an evicted id answers 410 Gone.
//
// Robustness is first-class:
//
//   - queue backpressure: a full queue rejects with 429 and a
//     Retry-After estimate instead of buffering without bound;
//   - per-job timeouts and cancellation: every job runs under a
//     context that DELETE /v1/jobs/{id} cancels and the job timeout
//     expires; the replay honors it (replay.AnalyzeArchiveContext), so
//     a cancelled job frees its worker slot promptly;
//   - panic isolation: a corrupt archive that panics the analyzer
//     fails only its own job;
//   - graceful drain: Drain stops intake (503), finishes accepted
//     work, and hard-cancels what is still running when its context
//     expires.
//
// The server reports itself through an obs recorder — queue depth,
// busy workers, cache hit ratio, job latency histograms — exposed on
// GET /metrics in Prometheus text format and on the usual
// -metrics-out path of metascope serve.
package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"metascope/internal/archive"
	"metascope/internal/obs"
	"metascope/internal/obs/flight"
	"metascope/internal/replay"
	"metascope/internal/vclock"
)

// DefaultMaxUploadBytes bounds the decompressed size of one upload.
const DefaultMaxUploadBytes = 256 << 20

// Options configures a Server. The zero value is usable: every field
// has a production default.
type Options struct {
	// Workers is the analysis pool width (default GOMAXPROCS).
	Workers int
	// QueueDepth is the number of accepted-but-not-running jobs the
	// FIFO queue holds before submissions are rejected with 429
	// (default 64).
	QueueDepth int
	// CacheEntries is how many finished analyses — jobs and sessions,
	// done, failed or cancelled — the store keeps; the oldest registered
	// is evicted past it (default 128). A resubmission is answered from a
	// kept done job with the same digest and scheme; a negative value
	// turns that reuse off and keeps the default number.
	CacheEntries int
	// JobTimeout bounds one job's analysis wall time (default 5m;
	// negative disables the timeout).
	JobTimeout time.Duration
	// Root is the directory server-side path submissions resolve
	// under; empty forbids path submissions (upload only).
	Root string
	// MaxUploadBytes bounds the decompressed size of one uploaded
	// bundle (default DefaultMaxUploadBytes).
	MaxUploadBytes int64
	// Scheme is the default synchronization scheme when a submission
	// does not pass one. The zero value selects hierarchical (the
	// pipeline's usual default); a request can always choose another
	// scheme explicitly with ?scheme=.
	Scheme vclock.Scheme
	// Obs receives the service's own telemetry (nil selects
	// obs.Default).
	Obs *obs.Recorder
	// Flight enables the in-process flight recorder at startup, so
	// every job's pipeline is traced and GET /v1/jobs/{id}/trace works
	// without a prior CLI -trace-out. The recorder also records when it
	// was enabled externally (e.g. by obs.CLIConfig).
	Flight bool
	// FlightEvents is the per-actor ring capacity when Flight is set
	// (0 selects flight.DefaultRingEvents).
	FlightEvents int
	// MaxSessions bounds concurrently open live analysis sessions
	// (default 8; each session holds its rank logs and replay workers
	// in memory until finalized).
	MaxSessions int
	// SessionIdleTimeout aborts a live session no chunk has touched for
	// this long (default 10m; negative disables the watchdog).
	SessionIdleTimeout time.Duration
	// WindowSec is the default severity-window width of live sessions
	// in corrected seconds (default 1; a session can override it with
	// ?window=).
	WindowSec float64
}

// Server is the analysis service. Create it with New; it is ready to
// serve as soon as New returns and stops through Drain.
type Server struct {
	opts  Options
	rec   *obs.Recorder
	m     *serveMetrics
	mux   *http.ServeMux
	start time.Time
	keep  int // finished analyses the store holds; a negative CacheEntries turns reuse off, not this

	// fw is the service's flight shard (nil while the recorder is
	// disabled); fn holds the interned event names.
	fw *flight.Writer
	fn serveFlightNames

	// mu guards the store, every analysis record in it, and the fields
	// below; no analysis carries a lock of its own.
	mu       sync.Mutex
	analyses map[string]feeder
	order    []feeder // registration order: the list endpoints, reuse and eviction
	nextID   int64
	queue    chan *job
	draining bool
	ewmaSec  float64 // exponentially weighted job duration, for Retry-After

	wg sync.WaitGroup

	// runJob executes one job's analysis; tests substitute it to make
	// timing deterministic. The default is (*Server).analyze.
	runJob func(ctx context.Context, j *job) (*replay.Result, error)
}

// New creates a server and starts its worker pool.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.JobTimeout == 0 {
		opts.JobTimeout = 5 * time.Minute
	}
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if opts.Scheme == 0 {
		opts.Scheme = vclock.Hierarchical
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = 8
	}
	if opts.SessionIdleTimeout == 0 {
		opts.SessionIdleTimeout = 10 * time.Minute
	}
	if opts.WindowSec <= 0 {
		opts.WindowSec = 1
	}
	s := &Server{
		opts:     opts,
		rec:      obs.OrDefault(opts.Obs),
		keep:     cmp.Or(max(opts.CacheEntries, 0), 128),
		analyses: make(map[string]feeder),
		queue:    make(chan *job, opts.QueueDepth),
		start:    time.Now(),
	}
	s.m = newServeMetrics(s.rec)
	if opts.Flight {
		s.rec.Flight.Enable(opts.FlightEvents)
	}
	// The shard handle is nil when the recorder stayed disabled, which
	// makes every emit below a no-op branch.
	s.fw = s.rec.Flight.Writer(flight.ServeActor)
	s.fn = newServeFlightNames(s.rec.Flight)
	s.runJob = s.analyze
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/profile", s.handleProfile)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/diff", s.handleDiff)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionStatus)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("PUT /v1/sessions/{id}/ranks/{mh}/{rank}", s.handleChunk)
	s.mux.HandleFunc("POST /v1/sessions/{id}/finalize", s.handleFinalize)
	s.mux.HandleFunc("GET /v1/experiments/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/experiments/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/experiments/{id}/profile", s.handleProfile)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/obs", s.handleDebugObs)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.rec.Log.Info("analysis service ready", "workers", opts.Workers,
		"queue_depth", opts.QueueDepth, "cache_entries", s.keep,
		"job_timeout", opts.JobTimeout.String())
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully stops the server: new submissions are rejected with
// 503, accepted jobs (queued and running) are given until ctx expires
// to finish, then hard-cancelled. It returns nil when every worker
// exited before the deadline.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("serve: already draining")
	}
	s.draining = true
	close(s.queue)
	// Open sessions cannot finish on their own (they wait for uploads
	// that will never come once intake is closed), so end them now; their
	// reapers join s.wg and are waited for below.
	for _, f := range s.order {
		if sess, ok := f.(*session); ok && sess.state == stateOpen {
			s.stop(sess, errDrainAborted)
		}
	}
	s.mu.Unlock()
	s.rec.Log.Info("draining: intake closed, waiting for accepted jobs")

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		// A queued job settles inside stop, and settling may evict: walk
		// a copy of the store's order.
		for _, f := range slices.Clone(s.order) {
			s.stop(f, errDrainAborted)
		}
		s.mu.Unlock()
		<-done // analyses unwind promptly: the replay honors cancellation
		return ctx.Err()
	}
}

// jsonError is the structured error body of every non-2xx response.
type jsonError struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, jsonError{Error: fmt.Sprintf(format, args...), Status: status})
}

// handleSubmit accepts a job: an uploaded zip bundle (request body) or
// a server-side path (?path= under Options.Root). Optional query
// parameters: scheme (flat1|flat2|hier), archive (explicit epik_*
// directory name for path submissions). An archive and scheme a kept
// done job has analyzed complete at once, without a queue slot.
//
// The handler's wall time is the obs phase serve-intake, and the three
// steps an upload pays before it is a job its children.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.rec.Phases.Record(time.Since(start), "serve-intake") }()
	step := func(name string, f func()) {
		t0 := time.Now()
		f()
		s.rec.Phases.Record(time.Since(t0), "serve-intake", name)
	}
	scheme, ok := s.admit(w, r)
	if !ok {
		return
	}
	var (
		u      *upload
		source = "upload"
		body   []byte
		digest string
		err    error
	)
	if p := r.URL.Query().Get("path"); p != "" {
		source = "path"
		u = new(upload)
		u.mounts, u.metahosts, u.dir, err = s.mountPath(p, r.URL.Query().Get("archive"))
	} else {
		// The buffer is the handler's own: decodeZip only inflates out of
		// it, so it is garbage once the job exists.
		step("read-body", func() { body, err = s.readBody(w, r, new(bytes.Buffer)) })
		if err == nil && len(body) == 0 {
			err = errors.New("empty request body: upload a zip bundle or pass ?path=")
		}
		if err == nil {
			step("decode-zip", func() { u, err = decodeZip(body, s.opts.MaxUploadBytes) })
		}
	}
	if err == nil {
		step("digest", func() { digest, err = Digest(u.mounts, u.metahosts, u.dir) })
	}
	if err != nil {
		if !s.tooLarge(w, r, err) {
			s.reject(w, r, "bad_request", http.StatusBadRequest, err.Error())
		}
		return
	}
	j := &job{
		source: source, digest: digest,
		mounts: u.mounts, metahosts: u.metahosts, dir: u.dir,
	}
	if s.submit(w, r, scheme, j) {
		s.rec.Log.Debug("job accepted", "id", j.id, "source", source, "digest", digest,
			"body_bytes", len(body), "inflated_bytes", u.inflated, "files", u.files)
	}
}

// mountPath resolves a server-side path submission strictly under the
// configured root.
func (s *Server) mountPath(p, dirOverride string) (*archive.Mounts, []int, string, error) {
	if s.opts.Root == "" {
		return nil, nil, "", errors.New("server-side path submissions are disabled (no -root)")
	}
	clean := filepath.Clean(p)
	if filepath.IsAbs(clean) || clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return nil, nil, "", fmt.Errorf("path %q escapes the serving root", p)
	}
	return archive.MountTree(filepath.Join(s.opts.Root, clean), dirOverride)
}

// submit registers the job and either settles it with the result of a
// kept job that analyzed the same archive under the same scheme, or
// enqueues it; a full queue rejects with 429 and a Retry-After estimate
// derived from observed job latency. It reports whether the job was
// accepted.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, scheme vclock.Scheme, j *job) bool {
	j.cacheKey = j.digest + "|" + scheme.String()
	j.ctx, j.cancel = context.WithCancelCause(context.Background())

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejectDraining(w, r)
		return false
	}
	kept := s.reusable(j.cacheKey)
	hit := kept != nil
	if hit {
		s.m.cacheHits.Inc()
	} else {
		s.m.cacheMisses.Inc()
	}
	s.setCacheRatio()
	// Only submit sends on the queue, and only under the lock: a queue
	// with room here still has it at the send below.
	if !hit && len(s.queue) == cap(s.queue) {
		retry := s.retryAfterLocked()
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		s.reject(w, r, "queue_full", http.StatusTooManyRequests,
			fmt.Sprintf("analysis queue is full (%d waiting); retry in ~%ds", s.opts.QueueDepth, retry))
		return false
	}
	s.register(j, "job", scheme, StateQueued)
	status := http.StatusAccepted
	if hit {
		status = http.StatusOK
		j.cached = true
		s.fw.Emit(flight.CacheHit, j.serial, s.fn.cache, 0, 0)
		s.settle(j, kept.result, nil, nil)
	} else {
		s.queue <- j
		qlen := len(s.queue)
		s.m.queueDepth.Set(float64(qlen))
		s.fw.Emit(flight.CacheMiss, j.serial, s.fn.cache, 0, 0)
		s.fw.Emit(flight.Enqueue, j.serial, s.fn.queue, int64(qlen), 0)
		s.emitJobState(j.serial, StateQueued)
	}
	st := j.statusLocked(time.Now())
	s.mu.Unlock()
	s.m.submitted.With(j.source).Inc()
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, status, st)
	return true
}

// retryAfterLocked estimates (in whole seconds, at least 1) how long
// until a queue slot frees: the queue's drain time at the observed
// per-job latency spread over the worker pool.
func (s *Server) retryAfterLocked() int {
	perJob := s.ewmaSec
	if perJob <= 0 {
		perJob = 1
	}
	est := perJob * float64(len(s.queue)+1) / float64(s.opts.Workers)
	retry := int(math.Ceil(est))
	if retry < 1 {
		retry = 1
	}
	if retry > 600 {
		retry = 600
	}
	return retry
}

// handleStatus reports one job; ?wait= turns the poll into a long poll.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := lookupAs[*job](s, w, r, "job")
	if j == nil {
		return
	}
	await(r, &j.analysis)
	s.mu.Lock()
	st := j.statusLocked(time.Now())
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleList reports every job in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	out := []JobStatus{}
	s.mu.Lock()
	for _, f := range s.order {
		if j, ok := f.(*job); ok {
			out = append(out, j.statusLocked(now))
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// handleCancel cancels a job. Cancelling a queued job releases it
// immediately; cancelling a running job interrupts its analysis (the
// replay unblocks) and frees the worker slot. Terminal jobs are left
// untouched and reported as-is, so cancellation is idempotent.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := lookupAs[*job](s, w, r, "job")
	if j == nil {
		return
	}
	s.mu.Lock()
	s.stop(j, errCancelled)
	st := j.statusLocked(time.Now())
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleMetrics exposes the recorder's registry in Prometheus text
// format 0.0.4. The version parameter is the whole content type: the
// format predates the charset parameter, and strict scrapers reject
// extra parameters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.rec.Reg.WritePrometheus(w)
}

// handleDebugObs serves the recorder's debug snapshot: phase spans,
// metric families, and the flight-recorder census.
func (s *Server) handleDebugObs(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	obs.WriteDebugJSON(w, s.rec)
}

// Health is the healthz JSON document.
type Health struct {
	Status        string        `json:"status"` // "ok" or "draining"
	Workers       int           `json:"workers"`
	QueueDepth    int           `json:"queue_depth"`
	QueueCapacity int           `json:"queue_capacity"`
	CacheEntries  int           `json:"cache_entries"` // finished analyses kept
	Jobs          map[State]int `json:"jobs"`

	// Live-session census: counts by state, the number of sessions not
	// yet terminal, and the age of the oldest such session — the first
	// thing to look at when sessions leak.
	Sessions             map[string]int `json:"sessions"`
	LiveSessions         int            `json:"live_sessions"`
	OldestSessionSeconds float64        `json:"oldest_session_seconds"`

	// Process vitals, so a bare healthz poll doubles as a first-line
	// capacity check without scraping /metrics.
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	// EWMAJobSeconds is the smoothed per-job wall time feeding
	// Retry-After estimates (0 until a job finishes).
	EWMAJobSeconds float64 `json:"ewma_job_seconds"`
	// Flight is the flight-recorder census (enabled, writers, events,
	// drops).
	Flight flight.Stats `json:"flight"`
}

// handleHealthz reports liveness, the queue/job census, and process
// vitals; a draining server answers 503 so load balancers stop routing
// to it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h := Health{
		Workers:        s.opts.Workers,
		QueueCapacity:  s.opts.QueueDepth,
		CacheEntries:   int(s.m.cacheEntries.Value()),
		Jobs:           make(map[State]int),
		Sessions:       make(map[string]int),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		Flight:         s.rec.Flight.Stats(),
	}
	now := time.Now()
	s.mu.Lock()
	h.QueueDepth = len(s.queue)
	for _, f := range s.order {
		a := f.record()
		if _, ok := f.(*job); ok {
			h.Jobs[a.state]++
			continue
		}
		h.Sessions[string(a.state)]++
		if !a.state.terminal() {
			h.LiveSessions++
			h.OldestSessionSeconds = max(h.OldestSessionSeconds, now.Sub(a.created).Seconds())
		}
	}
	h.EWMAJobSeconds = s.ewmaSec
	draining := s.draining
	s.mu.Unlock()
	h.Status = "ok"
	status := http.StatusOK
	if draining {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// serveFlightNames holds the interned flight event names of the
// service actor; interning once at New keeps emits allocation-free.
type serveFlightNames struct {
	queue, cache, state flight.NameID
}

func newServeFlightNames(fl *flight.Recorder) serveFlightNames {
	return serveFlightNames{
		queue: fl.Name("job-queue"),
		cache: fl.Name("result-cache"),
		state: fl.Name("job-state"),
	}
}

// State codes carried in the A argument of JobState flight events; a
// session records only its terminal state.
var flightStateCode = map[State]int64{
	StateQueued:    0,
	StateRunning:   1,
	StateDone:      2,
	StateFailed:    3,
	StateCancelled: 4,
}

// emitJobState records a lifecycle transition on the service
// actor's shard. No-op while the recorder is disabled.
func (s *Server) emitJobState(serial int32, st State) {
	s.fw.Emit(flight.JobState, serial, s.fn.state, flightStateCode[st], 0)
}

// setCacheRatio refreshes the cache hit-ratio gauge.
func (s *Server) setCacheRatio() {
	hits := s.m.cacheHits.Value()
	total := hits + s.m.cacheMisses.Value()
	if total > 0 {
		s.m.cacheRatio.Set(hits / total)
	}
}

// serveMetrics is the pre-registered metric family set, so a snapshot
// of an idle server already carries the full schema.
type serveMetrics struct {
	submitted       *obs.Family // by submission source
	rejected        *obs.Family // refused requests, by reason
	outcomes        *obs.Family // by terminal outcome
	sessionOutcomes *obs.Family // live sessions by terminal outcome
	evicted         *obs.Family // finished analyses evicted, by feeder
	sessionsOpen    *obs.Series

	queueDepth   *obs.Series
	workersBusy  *obs.Series
	jobSeconds   *obs.Series
	waitSeconds  *obs.Series
	cacheHits    *obs.Series
	cacheMisses  *obs.Series
	cacheEntries *obs.Series
	cacheRatio   *obs.Series
}

func newServeMetrics(rec *obs.Recorder) *serveMetrics {
	r := rec.Reg
	m := &serveMetrics{
		submitted: r.Counter("metascope_serve_jobs_submitted_total",
			"analysis jobs accepted, by submission source", "source"),
		rejected: r.Counter("metascope_serve_rejected_total",
			"requests refused (submissions, session opens, chunks), by reason", "reason"),
		outcomes: r.Counter("metascope_serve_jobs_total",
			"jobs reaching a terminal state, by outcome", "outcome"),
		sessionOutcomes: r.Counter("metascope_serve_sessions_total",
			"live sessions reaching a terminal state, by outcome", "outcome"),
		evicted: r.Counter("metascope_serve_evicted_total",
			"finished analyses evicted from the store, by feeder", "feeder"),
		sessionsOpen: r.Gauge("metascope_serve_sessions_open",
			"live analysis sessions currently open").With(),
		queueDepth: r.Gauge("metascope_serve_queue_depth",
			"jobs waiting in the FIFO queue").With(),
		workersBusy: r.Gauge("metascope_serve_workers_busy",
			"pool workers currently running an analysis").With(),
		jobSeconds: r.Histogram("metascope_serve_job_seconds",
			"wall time of one analysis job (running only)", obs.SecondsBuckets).With(),
		waitSeconds: r.Histogram("metascope_serve_wait_seconds",
			"queue wait of one job (submission to start)", obs.SecondsBuckets).With(),
		cacheHits: r.Counter("metascope_serve_cache_hits_total",
			"submissions answered from the result of a kept job").With(),
		cacheMisses: r.Counter("metascope_serve_cache_misses_total",
			"submissions no kept job could answer").With(),
		cacheEntries: r.Gauge("metascope_serve_cache_entries",
			"finished analyses the store keeps").With(),
		cacheRatio: r.Gauge("metascope_serve_cache_hit_ratio",
			"result-cache hits over lookups since start").With(),
	}
	for _, feeder := range []string{"job", "session"} {
		m.evicted.With(feeder)
	}
	return m
}
