package serve

import (
	"context"
	"fmt"
	"time"

	"metascope/internal/archive"
	"metascope/internal/obs/flight"
	"metascope/internal/replay"
)

// job is one submitted archive on its way through the worker pool: the
// analysis record plus what only this feeder needs. Mutable fields are
// guarded by the server's mutex.
type job struct {
	analysis
	source    string // "upload" or "path"
	digest    string
	cacheKey  string
	mounts    *archive.Mounts // nil once settled
	metahosts []int
	dir       string

	ctx    context.Context
	cancel context.CancelCauseFunc

	cached  bool
	started time.Time
}

// JobStatus is the JSON view of a job.
type JobStatus struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Scheme string `json:"scheme"`
	Source string `json:"source"`
	Digest string `json:"digest"`
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`

	WaitSeconds float64 `json:"wait_seconds"`
	RunSeconds  float64 `json:"run_seconds,omitempty"`

	// Analysis statistics, present once the job is done.
	Messages    int `json:"messages,omitempty"`
	Collectives int `json:"collectives,omitempty"`
	Violations  int `json:"violations,omitempty"`
	Repairs     int `json:"repairs,omitempty"`
}

// statusLocked builds the JSON view; the server's mutex must be held.
func (j *job) statusLocked(now time.Time) JobStatus {
	st := JobStatus{
		ID:     j.id,
		State:  j.state,
		Scheme: j.scheme.String(),
		Source: j.source,
		Digest: j.digest,
		Cached: j.cached,
		Error:  j.err,
	}
	switch {
	case j.state == StateQueued:
		st.WaitSeconds = now.Sub(j.created).Seconds()
	case j.started.IsZero(): // cancelled while queued, or served from cache
		st.WaitSeconds = j.finished.Sub(j.created).Seconds()
	default:
		st.WaitSeconds = j.started.Sub(j.created).Seconds()
		if j.state == StateRunning {
			st.RunSeconds = now.Sub(j.started).Seconds()
		} else {
			st.RunSeconds = j.finished.Sub(j.started).Seconds()
		}
	}
	st.Messages, st.Collectives = j.served.messages, j.served.collectives
	st.Violations, st.Repairs = j.served.violations, j.served.repairs
	return st
}

// worker is one pool goroutine: it drains the FIFO queue until the
// queue is closed by Drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runOne(j)
	}
}

// runOne executes a single job with timeout, cancellation, and panic
// isolation.
func (s *Server) runOne(j *job) {
	s.mu.Lock()
	s.m.queueDepth.Set(float64(len(s.queue)))
	if j.state != StateQueued { // cancelled while waiting in the queue
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	s.m.waitSeconds.Observe(j.started.Sub(j.created).Seconds())
	qlen := len(s.queue)
	s.mu.Unlock()
	s.fw.Emit(flight.Dequeue, j.serial, s.fn.queue, int64(qlen), 0)
	s.emitJobState(j.serial, StateRunning)

	s.m.workersBusy.Add(1)
	defer s.m.workersBusy.Add(-1)

	ctx, cancel := s.budget(j.ctx)
	defer cancel()
	res, err := s.execute(ctx, j)
	s.finish(j, res, err)
}

// execute isolates one job: a panicking analysis (a corrupt archive
// tripping an unguarded path) is converted into a job failure instead
// of taking down the server.
func (s *Server) execute(ctx context.Context, j *job) (res *replay.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("%w: %v", errJobPanicked, p)
		}
	}()
	return s.runJob(ctx, j)
}

// analyze is the production job runner: the full sync → replay → cube
// → profile pipeline under the job's context.
func (s *Server) analyze(ctx context.Context, j *job) (*replay.Result, error) {
	return replay.AnalyzeArchiveContext(ctx, j.mounts, j.metahosts, j.dir, replay.Config{
		Scheme:    j.scheme,
		Title:     fmt.Sprintf("%s (%v)", j.dir, j.scheme),
		Obs:       s.rec,
		FlightJob: j.serial,
	})
}

// finish settles a job the pool ran and feeds what its run time is for:
// the Retry-After estimator and the latency histogram.
func (s *Server) finish(j *job, res *replay.Result, err error) {
	s.mu.Lock()
	s.settle(j, servedOf(res), err, context.Cause(j.ctx))
	dur := j.finished.Sub(j.started).Seconds()
	// A light exponential smoothing, so one outlier job does not dominate
	// the queue-drain estimate.
	const ewmaAlpha = 0.3
	if s.ewmaSec == 0 {
		s.ewmaSec = dur
	} else {
		s.ewmaSec = ewmaAlpha*dur + (1-ewmaAlpha)*s.ewmaSec
	}
	state, errMsg := j.state, j.err
	s.mu.Unlock()

	s.m.jobSeconds.Observe(dur)
	s.rec.Log.Debug("job finished", "id", j.id, "state", string(state),
		"seconds", fmt.Sprintf("%.3f", dur), "err", errMsg)
}
