package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"metascope/internal/obs"
	"metascope/internal/serve"
)

// serveVerb is serve, the analysis service: it accepts experiment
// archives over HTTP — uploaded as zip bundles or named by a path under
// -root — runs the full sync → replay → cube → profile pipeline through
// a bounded worker pool, and serves the resulting cube reports, profile
// series, and diff-style comparisons. It keeps the newest -cache
// finished analyses, answers a byte-identical resubmission from a kept
// one, and answers 410 Gone for an id it has evicted:
//
//	metascope serve -addr :8921 -root ./experiments -workers 4
//
//	curl -s --data-binary @run1.zip 'localhost:8921/v1/jobs?scheme=hier'
//	curl -s 'localhost:8921/v1/jobs/job-1?wait=30s'
//	curl -s 'localhost:8921/v1/jobs/job-1/result' > run1.cube
//
// Live analysis sessions stream an experiment's traces rank by rank
// while it is still running (POST /v1/sessions, chunked PUTs, explicit
// finalize); the analysis replays incrementally and publishes
// wait-state windows over SSE on GET /v1/experiments/{id}/stream —
// follow them with metascope watch.
//
// The service sheds load instead of buffering it: a full queue answers
// 429 with a Retry-After estimate. Cancelling ctx (SIGINT/SIGTERM)
// starts a graceful drain — intake closes (503), accepted jobs get
// -drain-timeout to finish, then are cancelled. GET /metrics serves the
// self-telemetry (queue depth, busy workers, cache hit ratio, latency
// histograms) in Prometheus text format; the usual -metrics-out flag
// snapshots the same registry at exit.
func serveVerb(fs *flag.FlagSet) verbFunc {
	addr := fs.String("addr", ":8921", "listen address")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "analysis worker pool width")
	queue := fs.Int("queue", 64, "FIFO queue depth before submissions get 429")
	cacheN := fs.Int("cache", 128, "finished analyses kept, oldest evicted first; resubmissions reuse a kept result (negative: no reuse, 128 kept)")
	jobTimeout := fs.Duration("job-timeout", 5*time.Minute, "per-job analysis time budget (negative disables)")
	root := fs.String("root", "", "directory for ?path= submissions (empty: upload only)")
	maxUpload := fs.Int64("max-upload", serve.DefaultMaxUploadBytes, "decompressed byte budget of one uploaded bundle")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful drain budget after SIGTERM")
	flightOn := fs.Bool("flight", false, "enable the flight recorder; per-job traces on GET /v1/jobs/{id}/trace")
	flightEvents := fs.Int("flight-events", 0, "flight-recorder ring capacity per actor (0: default)")
	maxSessions := fs.Int("max-sessions", 8, "concurrently open live analysis sessions")
	sessionIdle := fs.Duration("session-idle-timeout", 10*time.Minute, "abort a live session untouched for this long (negative disables)")
	window := fs.Duration("window", time.Second, "default live-session severity window width")
	return func(ctx context.Context, _ []string, _ io.Writer) error {
		rec := obs.Default
		srv := serve.New(serve.Options{
			Workers:            *workers,
			QueueDepth:         *queue,
			CacheEntries:       *cacheN,
			JobTimeout:         *jobTimeout,
			Root:               *root,
			MaxUploadBytes:     *maxUpload,
			Flight:             *flightOn,
			FlightEvents:       *flightEvents,
			MaxSessions:        *maxSessions,
			SessionIdleTimeout: *sessionIdle,
			WindowSec:          (*window).Seconds(),
			Obs:                rec,
		})

		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		serveErr := make(chan error, 1)
		go func() { serveErr <- httpSrv.Serve(ln) }()
		rec.Log.Info("metascope serve listening", "addr", ln.Addr().String())

		select {
		case err := <-serveErr:
			return err
		case <-ctx.Done():
		}
		rec.Log.Info("signal received, draining", "timeout", drainTimeout.String())

		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		drainErr := srv.Drain(drainCtx)
		if err := httpSrv.Shutdown(drainCtx); err != nil && drainErr == nil {
			drainErr = err
		}
		if errors.Is(drainErr, context.DeadlineExceeded) {
			rec.Log.Info("drain deadline expired; remaining jobs cancelled")
			drainErr = nil
		}
		return drainErr
	}
}
