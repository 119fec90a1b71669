package replay

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"metascope/internal/obs"
	"metascope/internal/obs/flight"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// This file is the live (streaming) analysis engine: the same parallel
// replay as Analyze, but fed incrementally while the experiment's
// trace archive is still being uploaded rank by rank, chunk by chunk.
//
// The design invariant is byte-determinism with the post-mortem path:
// every rank's stepper sweeps its events in trace order through a
// cursor (parking on the rank's log while bytes are in flight instead of
// indexing a complete slice), every accumulator therefore performs the exact
// same additions in the exact same order, and the profile axis is
// derived only at finalize — so feeding the same archive in any chunk
// sizes and any rank interleaving yields a Result whose cube and
// profile artifacts are byte-identical to Analyze over the whole
// archive. The conformance suite asserts this.
//
// While the replay runs, each rank folds the severities its sweep scored
// into fixed time windows (streamSink) whenever it publishes its
// frontier; a drain goroutine empties the sink periodically and
// publishes window deltas, the low-watermark frontier (the minimum
// published sweep time over all ranks — no event before it can still be
// scored, except for sender-side amendments, which are flagged), and
// per-rank ingest lag as StreamEvents. The serve layer forwards them
// over SSE.

// emitEvery is the drain period of every live session's window stream:
// what the serve layer forwards over SSE at most this often. Only
// export_test.go changes it.
var emitEvery = 250 * time.Millisecond

// LiveConfig configures a live analysis session.
type LiveConfig struct {
	Config
	// Ranks is the world size, declared when the session is created.
	Ranks int
	// WindowSec is the severity-window width in corrected seconds.
	// Zero selects 1 s.
	WindowSec float64
	// OnEvent receives every stream event, in sequence order, from the
	// engine's goroutines. The callback must be fast and must not call
	// back into the Live session.
	OnEvent func(StreamEvent)
}

// StreamEvent is one event of a live session's output stream. Exactly
// one of the payload pointers is set, matching Type.
type StreamEvent struct {
	Seq      uint64         `json:"seq"`
	Type     string         `json:"type"` // "window" | "frontier" | "state" | "summary"
	Window   *WindowEvent   `json:"window,omitempty"`
	Frontier *FrontierEvent `json:"frontier,omitempty"`
	State    *StateEvent    `json:"state,omitempty"`
	Summary  *SummaryEvent  `json:"summary,omitempty"`
}

// WindowDelta is severity mass added to one series within one window.
type WindowDelta struct {
	Metric   string  `json:"metric"`
	Metahost int     `json:"metahost"`
	Value    float64 `json:"value"`
}

// WindowEvent reports new severity mass in one time window.
type WindowEvent struct {
	Index int64   `json:"index"`
	Start float64 `json:"start"` // corrected seconds
	End   float64 `json:"end"`
	// Closed: the progress frontier has passed this window's end, so
	// barring amendments its deltas are final.
	Closed bool `json:"closed"`
	// Amended: this window had already been reported closed and new
	// mass still arrived (sender-side severities are deposited at the
	// send time, which the frontier may have passed). Consumers must
	// add deltas, never overwrite.
	Amended bool          `json:"amended,omitempty"`
	Deltas  []WindowDelta `json:"deltas"`
}

// RankLag is one rank's ingest position.
type RankLag struct {
	Rank     int     `json:"rank"`
	Metahost string  `json:"metahost,omitempty"`
	Events   int64   `json:"events"`
	Bytes    int64   `json:"bytes"`
	Ingested float64 `json:"ingested,omitempty"` // last ingested corrected ts
	HasTime  bool    `json:"has_time"`
	Finished bool    `json:"finished"`
}

// FrontierEvent reports the analysis frontier positions.
type FrontierEvent struct {
	// Progress is the low-watermark replay frontier: the minimum
	// corrected sweep time over all ranks. Valid only when every rank
	// has started and at least one is not yet done.
	Progress      float64 `json:"progress,omitempty"`
	ProgressValid bool    `json:"progress_valid"`
	// Ingest is the minimum last-ingested corrected timestamp over all
	// ranks — how far the slowest upload has reached.
	Ingest      float64 `json:"ingest,omitempty"`
	IngestValid bool    `json:"ingest_valid"`
	// ClosedThrough is the highest window index closed so far (windows
	// 0..ClosedThrough are final barring amendments); math.MinInt64
	// means none.
	ClosedThrough int64     `json:"closed_through"`
	Ranks         []RankLag `json:"ranks,omitempty"`
}

// StateEvent reports a session lifecycle transition.
type StateEvent struct {
	State string `json:"state"` // "open" | "running" | "done" | "failed" | "cancelled"
	Error string `json:"error,omitempty"`
}

// SummaryEvent closes the stream: cumulative per-series totals and the
// final analysis statistics, for consumers that joined late.
type SummaryEvent struct {
	Totals        []WindowDelta `json:"totals"`
	WindowsClosed int64         `json:"windows_closed"`
	Messages      int           `json:"messages"`
	Collectives   int           `json:"collectives"`
	Violations    int           `json:"violations"`
}

// liveRank is the per-rank ingest state of a live session.
type liveRank struct {
	mu sync.Mutex
	// dec is nil once Finalize released the engine. By then the rank is
	// finished or the session has failed, and both are checked first.
	dec      *trace.ChunkDecoder
	log      *rankLog
	corr     vclock.LinearMap
	haveCorr bool // header registered: corr is set and log has dec's reader
	finished bool

	bytes      atomic.Int64
	events     atomic.Int64
	lastIngest atomic.Uint64 // corrected ts bits of the last ingested event
	haveIngest atomic.Bool
}

// Live is one live analysis session. Feed chunks with FeedChunk (any
// rank interleaving; per-rank order is the caller's contract), close
// each rank's stream with FinishRank, then Finalize to obtain the
// Result. FeedChunk may be called concurrently for different ranks.
type Live struct {
	cfg LiveConfig
	rec *obs.Recorder
	m   *streamMetrics
	fw  *flight.Writer
	fn  flight.NameID

	ranks  []*liveRank
	intern *trace.Interner

	emitMu sync.Mutex
	seq    uint64

	mu       sync.Mutex
	state    string
	traces   []*trace.Trace
	headers  int
	started  bool
	abortErr error
	a        *analyzer

	sink      *streamSink
	drainStop chan struct{}
	drainDone chan struct{}

	// Drain-goroutine-only state (the final drain runs after the drain
	// goroutine has stopped, so no lock is needed). touched is the highest
	// window index a drain has emitted, frontier the last frontier event.
	closedThrough, touched int64
	closedSet              map[int64]bool
	frontier               *FrontierEvent
}

// NewLive opens a live analysis session for a world of cfg.Ranks
// processes.
func NewLive(cfg LiveConfig) (*Live, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("replay: live session needs a positive rank count, got %d", cfg.Ranks)
	}
	cfg.Config = cfg.Config.withDefaults(cfg.Ranks)
	if cfg.WindowSec <= 0 {
		cfg.WindowSec = 1
	}
	rec := obs.OrDefault(cfg.Obs)
	l := &Live{
		cfg:           cfg,
		rec:           rec,
		m:             newStreamMetrics(rec),
		ranks:         make([]*liveRank, cfg.Ranks),
		intern:        trace.NewInterner(),
		state:         "open",
		traces:        make([]*trace.Trace, cfg.Ranks),
		drainStop:     make(chan struct{}),
		drainDone:     make(chan struct{}),
		closedThrough: math.MinInt64,
		touched:       math.MinInt64,
		closedSet:     make(map[int64]bool),
	}
	l.fw = rec.Flight.Writer(flight.WindowActor)
	if l.fw != nil {
		l.fn = rec.Flight.Name("window-drain")
	}
	for i := range l.ranks {
		l.ranks[i] = &liveRank{dec: trace.NewChunkDecoder(l.intern), log: newRankLog()}
		l.ranks[i].log.pushed = true
	}
	l.emit(StreamEvent{Type: "state", State: &StateEvent{State: "open"}})
	return l, nil
}

// rankCorrection derives one rank's clock-correction map from its own
// trace header under the given scheme — the per-rank ingredient of
// BuildCorrections, which is what makes incremental synchronization
// over a prefix of the archive exact rather than approximate.
func rankCorrection(t *trace.Trace, scheme vclock.Scheme) (vclock.LinearMap, error) {
	switch scheme {
	case vclock.FlatSingle, vclock.FlatInterp:
		return vclock.FlatCorrection(scheme, t.Sync.FlatStart, t.Sync.FlatEnd)
	case vclock.Hierarchical:
		return vclock.HierarchicalCorrection(vclock.HierarchicalInput{
			Rank:            t.Loc.Rank,
			SlaveStart:      t.Sync.LocalStart,
			SlaveEnd:        t.Sync.LocalEnd,
			MasterStart:     t.Sync.MasterStart,
			MasterEnd:       t.Sync.MasterEnd,
			SharedNodeClock: t.Sync.SharedNodeClock,
		}), nil
	default:
		return vclock.LinearMap{}, fmt.Errorf("replay: unknown synchronization scheme %v", scheme)
	}
}

// sessionErr returns the sticky session failure, if any.
func (l *Live) sessionErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.abortErr
}

// FeedChunk appends bytes to one rank's trace stream. Chunks of one
// rank must arrive in order (the serve layer's sequence numbers
// guarantee it); different ranks may feed concurrently. The caller may
// reuse data once FeedChunk returns. The bytes extend the image the
// rank's log pulls from, and every block they complete is decoded,
// validated and published on the spot — the step a lazy analysis takes
// when its sweep reaches the block — so a corrupt chunk fails here, on
// the call that carried it.
func (l *Live) FeedChunk(rank int, data []byte) error {
	if rank < 0 || rank >= len(l.ranks) {
		return fmt.Errorf("replay: chunk for rank %d outside world of %d", rank, len(l.ranks))
	}
	lr := l.ranks[rank]
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if err := l.sessionErr(); err != nil {
		return err
	}
	if lr.finished {
		return fmt.Errorf("replay: rank %d stream already finished", rank)
	}
	err := lr.dec.Append(data)
	if r := lr.dec.Reader(); err == nil && r != nil && !lr.haveCorr {
		err = l.registerHeader(rank, lr, r)
	}
	if err == nil && lr.haveCorr {
		err = l.ingest(rank, lr, false)
	}
	if err != nil {
		l.fail(err)
		return err
	}
	lr.bytes.Add(int64(len(data)))
	l.m.chunks.Inc()
	l.m.bytes.Add(float64(len(data)))
	return nil
}

// ingest pulls every block the rank's image holds whole by now into its
// log and moves the ingest counters. If that published events — or the
// image is complete, last set, which closes the log — it then wakes the
// rank's sweep, which may be parked on the log: the one way a rank
// leaves parkLog besides an abort. The analyzer is looked up after the
// publish: one started before it is woken, one started after it sees the
// events.
func (l *Live) ingest(rank int, lr *liveRank, last bool) error {
	total := 0
	for {
		n, err := lr.log.pull()
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		total += n
	}
	if total > 0 {
		lr.events.Add(int64(total))
		l.m.events.Add(float64(total))
		_, newest, _ := lr.log.bounds()
		lr.lastIngest.Store(math.Float64bits(lr.corr.Apply(newest)))
		lr.haveIngest.Store(true)
	}
	if total > 0 || last {
		l.mu.Lock()
		a := l.a
		l.mu.Unlock()
		if a != nil {
			a.sched.wake(rank, feeder)
		}
	}
	return nil
}

// registerHeader installs a rank's completed header: its correction map
// is derived, its log gets the reader to pull from — what the lazy
// loader does for a rank of an archive — and when the last header lands
// the analyzer starts sweeping. It runs once per rank.
func (l *Live) registerHeader(rank int, lr *liveRank, r *trace.BlockReader) error {
	t := r.Trace()
	if t.Loc.Rank != rank {
		return fmt.Errorf("replay: stream for rank %d carries trace of rank %d", rank, t.Loc.Rank)
	}
	corr, err := rankCorrection(t, l.cfg.Scheme)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	lr.corr = corr
	lr.haveCorr = true
	lr.log.attach(r) // no sweep has started before this
	l.traces[rank] = t
	l.headers++
	if l.headers == len(l.ranks) {
		return l.startLocked()
	}
	return nil
}

// startLocked launches the parallel replay once every header is in.
// Called with l.mu held.
func (l *Live) startLocked() error {
	corrs := make([]vclock.Correction, len(l.ranks))
	logs := make([]*rankLog, len(l.ranks))
	for i, lr := range l.ranks {
		corrs[i] = vclock.Correction{Rank: i, Map: lr.corr}
		logs[i] = lr.log
	}
	a, err := newAnalyzer(l.traces, logs, corrs, l.cfg.Config)
	if err != nil {
		return err
	}
	// Attach the live plumbing: the window sink, its columns the
	// metahosts the headers name, and the progress frontier, which each
	// rank publishes as −Inf before it runs — a rank that has not yet swept
	// any event holds every window open.
	l.sink = newStreamSink(0, l.cfg.WindowSec, a.metahosts, a.mhCol, l.fail)
	a.sink = l.sink
	a.progress = make([]atomic.Uint64, len(l.ranks))
	for r := range a.steppers {
		a.steppers[r].publish()
	}
	l.a = a
	l.started = true
	l.state = "running"
	// The runners are goroutines: this is a feeder's call. A rank whose
	// stream has not caught up parks on its log, and the feeder wakes it
	// once it published more (ingest).
	a.start(false)
	go l.drainLoop(emitEvery)
	l.emit(StreamEvent{Type: "state", State: &StateEvent{State: "running"}})
	return nil
}

// FinishRank declares one rank's stream complete. Idempotent. A stream
// that ends mid-header or short of its declared event count fails the
// session, exactly as a truncated file fails a post-mortem load.
func (l *Live) FinishRank(rank int) error {
	if rank < 0 || rank >= len(l.ranks) {
		return fmt.Errorf("replay: finish for rank %d outside world of %d", rank, len(l.ranks))
	}
	lr := l.ranks[rank]
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if lr.finished {
		return nil
	}
	if err := l.sessionErr(); err != nil {
		return err
	}
	// The image is complete now: what pull still finds must be whole.
	err := lr.dec.Close()
	if err == nil {
		err = l.ingest(rank, lr, true)
	}
	if err != nil {
		l.fail(err)
		return err
	}
	lr.finished = true // and the log is closed: pull closed it at the declared count
	return nil
}

// fail records the first fatal session error and aborts the running
// analysis so every rank unwinds. The session ends "cancelled" when err
// is a cancellation (errors.Is context.Canceled), "failed" otherwise. A
// session that is done stays done: its stream has ended and is not
// reopened by a late abort.
func (l *Live) fail(err error) {
	state := "failed"
	if errors.Is(err, context.Canceled) {
		state = "cancelled"
	}
	l.mu.Lock()
	first := l.abortErr == nil && l.state != "done"
	if first {
		l.abortErr = err
		l.state = state
		if l.a != nil {
			l.a.abort(err)
		}
	}
	l.mu.Unlock()
	if first {
		l.emit(StreamEvent{Type: "state", State: &StateEvent{State: state, Error: err.Error()}})
	}
}

// RankLocation reports a rank's decoded location once its stream's
// header has arrived — callers use it to cross-check the uploader's
// claimed (metahost, rank) coordinates against the trace itself.
func (l *Live) RankLocation(rank int) (trace.Location, bool) {
	if rank < 0 || rank >= len(l.ranks) {
		return trace.Location{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if t := l.traces[rank]; t != nil {
		return t.Loc, true
	}
	return trace.Location{}, false
}

// Abort cancels the session with the given cause (session timeout,
// client delete, server drain).
func (l *Live) Abort(cause error) {
	if cause == nil {
		cause = context.Canceled
	}
	l.fail(fmt.Errorf("replay: live session aborted: %w", cause))
}

// Finalize closes every rank stream still open, waits for the replay
// to drain, emits the final windows and the summary, and returns the
// analysis Result — byte-identical to Analyze over the same bytes. It
// must be called exactly once; ctx bounds the wait (expiry aborts the
// session).
func (l *Live) Finalize(ctx context.Context) (*Result, error) {
	defer l.release()
	var ferr error
	for rank := range l.ranks {
		if err := l.FinishRank(rank); err != nil && ferr == nil {
			ferr = err
		}
	}
	l.mu.Lock()
	started := l.started
	emitFail := false
	if !started && l.abortErr == nil {
		l.abortErr = fmt.Errorf("replay: live session finalized before all rank headers arrived (%d of %d)",
			l.headers, len(l.ranks))
		l.state = "failed"
		ferr = l.abortErr
		emitFail = true // fail() has not run for this error, so no event yet
	}
	if ferr == nil {
		ferr = l.abortErr
	}
	l.mu.Unlock()
	if !started {
		if emitFail {
			l.emit(StreamEvent{Type: "state", State: &StateEvent{State: "failed", Error: ferr.Error()}})
		}
		return nil, ferr
	}

	// The ranks drain on their own (closed logs), unless the session
	// already failed — then the abort has woken them. ctx expiry turns
	// into an abort so a stuck finalize cannot leak the analyzer.
	stop := context.AfterFunc(ctx, func() { l.Abort(context.Cause(ctx)) })
	<-l.a.sched.done
	stop()
	close(l.drainStop)
	<-l.drainDone

	res, err := l.a.finish()
	// Done or aborted, decided once: an abort that lost this race is
	// ignored by fail, one that won it is the session's error — in its
	// own words, not as the echo "analysis aborted: …" of the rank it
	// unwound.
	l.mu.Lock()
	if l.abortErr != nil {
		err = l.abortErr
	} else if err == nil {
		l.state = "done"
	}
	l.mu.Unlock()
	if err != nil {
		l.fail(err)
		return nil, err
	}
	// Final drain: every remaining window is closed now (all sweeps
	// done), then the stream ends with cumulative totals.
	l.drainAndEmit(true)
	l.emit(StreamEvent{Type: "summary", Summary: &SummaryEvent{
		Totals:        l.sink.totals(),
		WindowsClosed: int64(len(l.closedSet)),
		Messages:      res.Messages,
		Collectives:   res.Collectives,
		Violations:    res.Violations,
	}})
	l.emit(StreamEvent{Type: "state", State: &StateEvent{State: "done"}})
	return res, nil
}

// release drops what only a running analysis needs — the analyzer with
// its per-rank sample and receive logs and call-path maps, the window
// sink and the set of windows closed (an entry per window the run ever
// closed), the string interner, every rank's remaining event blocks and
// every decoder's byte buffer — so a finished session costs its owner
// the counters and header locations Status and RankLocation report, not
// the engine, however it ended and however fine its windows were.
func (l *Live) release() {
	l.mu.Lock()
	l.a = nil
	l.mu.Unlock()
	l.sink, l.closedSet, l.intern, l.frontier = nil, nil, nil, nil
	for _, lr := range l.ranks {
		lr.mu.Lock()
		lr.dec = nil
		lr.log.drop()
		lr.mu.Unlock()
	}
}

// drainLoop periodically drains the sink and publishes window and
// frontier events until Finalize stops it.
func (l *Live) drainLoop(every time.Duration) {
	defer close(l.drainDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-l.drainStop:
			return
		case <-t.C:
			l.drainAndEmit(false)
		}
	}
}

// drainAndEmit drains the sink and emits one batch of window events
// plus a frontier event — unless it drained nothing and the frontier is
// the one it emitted last, so an idle session's stream does not grow with
// wall time. final=true (from Finalize, after the replay drained) closes
// every touched window unconditionally and always emits. The frontier is
// read before the sink is drained: a rank folds its deposits before it
// publishes, so a window the frontier read has passed leaves with every
// deposit its ranks' sweeps made into it — barring sender-side amendments.
func (l *Live) drainAndEmit(final bool) {
	progress, ingest, lags := l.frontierState()
	drained := l.sink.drain()

	// maxClosed: highest window index whose end the progress frontier
	// has passed.
	maxClosed := int64(math.MinInt64)
	if final || math.IsInf(progress, 1) {
		maxClosed = math.MaxInt64
	} else if !math.IsInf(progress, -1) {
		maxClosed = int64(math.Floor(progress/l.cfg.WindowSec)) - 1
	}

	idxs := make([]int64, 0, len(drained))
	for w := range drained {
		idxs = append(idxs, w)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, w := range idxs {
		we := &WindowEvent{
			Index:   w,
			Start:   float64(w) * l.cfg.WindowSec,
			End:     float64(w+1) * l.cfg.WindowSec,
			Closed:  w <= maxClosed,
			Amended: l.closedThrough != math.MinInt64 && w <= l.closedThrough,
			Deltas:  l.sink.deltas(drained[w]),
		}
		l.emit(StreamEvent{Type: "window", Window: we})
		if we.Closed && !l.closedSet[w] {
			l.closedSet[w] = true
			l.m.windowsClosed.Inc()
		}
	}
	if maxClosed != math.MinInt64 && maxClosed != math.MaxInt64 && maxClosed > l.closedThrough {
		l.closedThrough = maxClosed
	}
	if len(idxs) > 0 {
		l.touched = max(l.touched, idxs[len(idxs)-1])
	}
	// Once every sweep is over, every window is final: a window emitted
	// open by an earlier drain and never touched again is closed too.
	if maxClosed == math.MaxInt64 && l.touched > l.closedThrough {
		l.closedThrough = l.touched
	}

	fe := &FrontierEvent{ClosedThrough: l.closedThrough, Ranks: lags}
	if !math.IsInf(progress, 0) && !math.IsNaN(progress) {
		fe.Progress, fe.ProgressValid = progress, true
		l.m.frontier.Set(progress)
	}
	if !math.IsInf(ingest, 0) && !math.IsNaN(ingest) {
		fe.Ingest, fe.IngestValid = ingest, true
	}
	if !final && len(idxs) == 0 && l.frontier != nil && sameFrontier(fe, l.frontier) {
		return
	}
	l.frontier = fe
	l.emit(StreamEvent{Type: "frontier", Frontier: fe})
	if l.fw != nil {
		l.fw.Emit(flight.Mark, l.cfg.FlightJob, l.fn, int64(len(idxs)), l.closedThrough)
	}
}

// sameFrontier reports whether two frontier events say the same thing.
func sameFrontier(a, b *FrontierEvent) bool {
	return a.Progress == b.Progress && a.ProgressValid == b.ProgressValid &&
		a.Ingest == b.Ingest && a.IngestValid == b.IngestValid &&
		a.ClosedThrough == b.ClosedThrough && slices.Equal(a.Ranks, b.Ranks)
}

// frontierState computes the progress and ingest frontiers and the
// per-rank lag vector, and sets the sweep-lag gauge: the largest gap, over
// the ranks still sweeping (published an event's time, not done), between
// a rank's last ingested and last published corrected time.
func (l *Live) frontierState() (progress, ingest float64, lags []RankLag) {
	l.mu.Lock()
	a := l.a
	traces := append([]*trace.Trace(nil), l.traces...)
	l.mu.Unlock()
	progress, ingest = math.Inf(1), math.Inf(1)
	sweepLag := 0.0
	lags = make([]RankLag, len(l.ranks))
	for i, lr := range l.ranks {
		lag := RankLag{
			Rank:   i,
			Events: lr.events.Load(),
			Bytes:  lr.bytes.Load(),
		}
		if t := traces[i]; t != nil {
			lag.Metahost = t.Loc.MetahostName
		}
		if lr.haveIngest.Load() {
			v := math.Float64frombits(lr.lastIngest.Load())
			lag.Ingested, lag.HasTime = v, true
			if v < ingest {
				ingest = v
			}
		} else {
			ingest = math.Inf(-1) // a rank with nothing ingested pins the frontier
		}
		lr.mu.Lock()
		lag.Finished = lr.finished
		lr.mu.Unlock()
		if a != nil {
			p := math.Float64frombits(a.progress[i].Load())
			progress = min(progress, p)
			if lag.HasTime && !math.IsInf(p, 0) {
				sweepLag = max(sweepLag, lag.Ingested-p)
			}
		} else {
			progress = math.Inf(-1)
		}
		lags[i] = lag
	}
	l.m.sweepLag.Set(sweepLag)
	return progress, ingest, lags
}

// emit assigns the next sequence number and delivers the event.
func (l *Live) emit(ev StreamEvent) {
	l.emitMu.Lock()
	l.seq++
	ev.Seq = l.seq
	if l.cfg.OnEvent != nil {
		l.cfg.OnEvent(ev)
	}
	l.emitMu.Unlock()
	l.m.emits.With(ev.Type).Inc()
}

// LiveStatus is a point-in-time view of a session for vitals and the
// session GET endpoint.
type LiveStatus struct {
	State          string `json:"state"`
	Ranks          int    `json:"ranks"`
	Headers        int    `json:"headers"`
	RanksFinished  int    `json:"ranks_finished"`
	BytesIngested  int64  `json:"bytes_ingested"`
	EventsIngested int64  `json:"events_ingested"`
	// ResidentEvents sums the ranks' currently held (ingested, not yet
	// swept-and-released) events; MaxResidentEvents sums their peaks.
	ResidentEvents    int `json:"resident_events"`
	MaxResidentEvents int `json:"max_resident_events"`
}

// Status reports the session's current state.
func (l *Live) Status() LiveStatus {
	l.mu.Lock()
	st := LiveStatus{State: l.state, Ranks: len(l.ranks), Headers: l.headers}
	l.mu.Unlock()
	for _, lr := range l.ranks {
		st.BytesIngested += lr.bytes.Load()
		st.EventsIngested += lr.events.Load()
		res, peak := lr.log.residentEvents()
		st.ResidentEvents += res
		st.MaxResidentEvents += peak
		lr.mu.Lock()
		if lr.finished {
			st.RanksFinished++
		}
		lr.mu.Unlock()
	}
	return st
}

// streamMetrics pre-registers the live-session metric families.
type streamMetrics struct {
	chunks, bytes, events *obs.Series
	windowsClosed         *obs.Series
	frontier, sweepLag    *obs.Series
	emits                 *obs.Family
}

func newStreamMetrics(rec *obs.Recorder) *streamMetrics {
	r := rec.Reg
	return &streamMetrics{
		chunks: r.Counter("metascope_stream_chunks_total",
			"trace chunks ingested by live sessions").With(),
		bytes: r.Counter("metascope_stream_bytes_total",
			"trace bytes ingested by live sessions").With(),
		events: r.Counter("metascope_stream_events_total",
			"trace events decoded by live sessions").With(),
		windowsClosed: r.Counter("metascope_stream_windows_closed_total",
			"severity windows closed by live sessions").With(),
		frontier: r.Gauge("metascope_stream_frontier_seconds",
			"progress frontier (min corrected sweep time) of the last live session").With(),
		sweepLag: r.Gauge("metascope_stream_sweep_lag_seconds",
			"largest gap between a rank's last ingested and last published corrected time, over the ranks still sweeping, of the last live session").With(),
		emits: r.Counter("metascope_stream_emits_total",
			"stream events emitted by live sessions", "type"),
	}
}
