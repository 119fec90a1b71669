// Package replay implements SCALASCA-style parallel trace analysis for
// metacomputing experiments (§3 "Trace analysis", §4 "Parallel trace
// analysis").
//
// Instead of merging local trace files into one global file — which
// would copy large amounts of trace data across (possibly wide-area)
// networks and requires a shared file system — the analyzer assigns
// one analysis process per application process. Each analysis process
// reads only its local trace and re-enacts the application's
// communication: for every recorded message the sender's analysis
// process forwards a small record of its send events to the receiver's
// analysis process, which combines it with its own receive events to
// detect wait states; collective operations exchange their enter/exit
// times among the members of the recorded communicator. The data
// transferred per process is a small constant per event, far less than
// the trace itself.
//
// The analyzer also verifies the clock condition — a receive must not
// appear to happen before its matching send — under the selected
// time-stamp synchronization scheme, reproducing the measurement of
// Table 2.
package replay

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metascope/internal/archive"
	"metascope/internal/cube"
	"metascope/internal/obs"
	"metascope/internal/phase"
	"metascope/internal/profile"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// Config selects how an archive is analyzed.
type Config struct {
	// Scheme is the time-stamp synchronization scheme applied before
	// pattern search (Table 2 compares all three).
	Scheme vclock.Scheme
	// EagerLimit must match the measured run's message-passing layer;
	// messages above it used a rendezvous protocol and are eligible
	// for Late Receiver waits. Zero selects the mmpi default (64 KiB).
	EagerLimit int
	// Title labels the resulting report.
	Title string
	// Repair enables forward timestamp repair (a simplified controlled
	// logical clock, the standard remedy when residual clock-condition
	// violations survive synchronization): whenever a receive would
	// precede its matching send, the receiving process's clock is
	// advanced just past the send time and the shift is carried
	// forward through all its later events, restoring the happened-
	// before order at the cost of locally stretched intervals.
	// Violations are still counted (they equal the number of repairs).
	Repair bool
	// Obs selects the observability recorder the analysis reports its
	// own runtime behavior into (phase spans, replay-traffic
	// histograms, progress gauges, and — when its flight recorder is
	// enabled — event-granular worker timelines); nil selects
	// obs.Default.
	Obs *obs.Recorder
	// FlightJob attributes this analysis's flight events to a service
	// job serial (internal/serve sets it so GET /v1/jobs/{id}/trace can
	// filter one job out of a shared recorder). Zero or negative means
	// "no job": events carry job id -1.
	FlightJob int32
	// ProfileBuckets is the fixed bucket count of the time-resolved
	// severity profile (0 selects profile.DefaultBuckets); an analysis
	// asking for more than profile.MaxBuckets is refused.
	ProfileBuckets int
}

// check refuses a configuration no analysis may run under, before any
// trace is read.
func (cfg Config) check() error {
	if cfg.ProfileBuckets > profile.MaxBuckets {
		return fmt.Errorf("replay: profile bucket count %d is above the limit of %d", cfg.ProfileBuckets, profile.MaxBuckets)
	}
	return nil
}

// withDefaults fills the options an analysis of n processes derives when
// they are left zero. Post-mortem and live analysis share it, so a
// default-titled live session's report is byte-identical to the
// post-mortem one.
func (cfg Config) withDefaults(n int) Config {
	if cfg.EagerLimit <= 0 {
		cfg.EagerLimit = 64 << 10
	}
	if cfg.Title == "" {
		cfg.Title = fmt.Sprintf("experiment (%d processes, %v)", n, cfg.Scheme)
	}
	return cfg
}

// Result is the outcome of one analysis.
type Result struct {
	Report *cube.Report
	// Violations is the number of clock-condition violations — matched
	// message pairs whose corrected receive time precedes the
	// corrected send time.
	Violations int
	// Messages and Collectives count the replayed operations.
	Messages    int
	Collectives int
	// Repairs is the number of timestamp repairs applied (0 unless
	// Config.Repair was set).
	Repairs int
	// ReplayBytes estimates the analysis-time communication volume per
	// rank: the event records forwarded to other analysis processes
	// plus collective-gather contributions. §4 argues this is far
	// smaller than shipping the trace files themselves; compare with
	// TraceSizes.
	ReplayBytes []int64
	// ReplayExternalBytes is the subset of ReplayBytes that crosses
	// metahost boundaries — the expensive wide-area traffic. Merging-
	// based analysis would instead move entire trace files between
	// metahosts (TraceSizes of every rank outside the analysis site).
	ReplayExternalBytes []int64
	// CommMatrix aggregates the application's point-to-point traffic
	// by (source metahost, destination metahost): the internal-versus-
	// external communication split §4's multi-device discussion is
	// about. Keys are metahost id pairs; MetahostNames resolves them.
	CommMatrix map[[2]int]CommVolume
	// MetahostNames maps metahost ids to their human-readable names.
	MetahostNames map[int]string
	// Corrections holds the per-rank time correction maps that were
	// applied (local time → master time).
	Corrections []vclock.Correction
	// Profile is the time-resolved wait-state profile: severity time
	// series per (pattern, metahost, rank) plus intra- vs wide-area
	// message-volume series, on a common interval axis. Also attached
	// to Report.Profile so HTML rendering can show the heatmap.
	Profile *profile.Profile
	// Phases is the automatically detected iteration structure with
	// wait-state severities folded per (phase, family, metahost) — the
	// phase-resolved counterpart of Profile, compared across archives
	// by metascope diff -phases.
	Phases *phase.Profile
}

// LoadArchive reads every local trace file of an experiment from the
// per-metahost file systems. Each file system is visited once even if
// several metahosts share it. The result is indexed by rank and
// complete: a missing or duplicate rank is an error. Ingestion metrics
// go to obs.Default; use LoadArchiveObs to direct them elsewhere.
func LoadArchive(mounts *archive.Mounts, metahosts []int, dir string) ([]*trace.Trace, error) {
	return LoadArchiveObs(mounts, metahosts, dir, nil)
}

// LoadArchiveObs is LoadArchive reporting ingestion telemetry into rec
// (nil selects obs.Default): traces decoded, bytes read, and pool
// width as metrics, and the load wall time as the "ingest" phase span
// (a wall-time gauge would break the metric-snapshot determinism the
// pipeline guarantees).
func LoadArchiveObs(mounts *archive.Mounts, metahosts []int, dir string, rec *obs.Recorder) ([]*trace.Trace, error) {
	ar, err := load(context.Background(), mounts, metahosts, dir, rec, false)
	if err != nil {
		return nil, err
	}
	return ar.Traces, nil
}

// LazyArchive is an archive loaded header-only: every v2 trace file's
// byte image is kept whole and its events decode block by block during
// the analysis sweep, directly out of the backing slice. V1 ranks
// (mixed archives are legal) fall back to full materialization. A
// LazyArchive is reusable across sequential analyses but not
// concurrent ones — the block readers are stateful.
type LazyArchive struct {
	// Traces holds every rank's decoded header (location, sync block,
	// regions, communicators). For a v2 rank Events is nil; the events
	// live in the backing image until the sweep reaches them.
	Traces []*trace.Trace

	readers []*trace.BlockReader // per rank; nil = fully decoded
}

// LoadArchiveLazy reads an experiment's trace files but defers v2
// event decoding to the analysis sweep: each file is one read into one
// buffer, and only the header is parsed up front. Combined with
// AnalyzeLazy this both makes loading I/O-bound (the per-event decode
// cost moves into the parallel sweep) and bounds analysis memory —
// swept blocks are released, so an archive larger than RAM streams
// through.
func LoadArchiveLazy(mounts *archive.Mounts, metahosts []int, dir string) (*LazyArchive, error) {
	return load(context.Background(), mounts, metahosts, dir, nil, true)
}

// LoadArchiveLazyCtx is LoadArchiveLazy honoring ctx and reporting
// ingestion telemetry into rec (nil selects obs.Default).
func LoadArchiveLazyCtx(ctx context.Context, mounts *archive.Mounts, metahosts []int, dir string, rec *obs.Recorder) (*LazyArchive, error) {
	return load(ctx, mounts, metahosts, dir, rec, true)
}

// loadItem is one trace file scheduled for decoding.
type loadItem struct {
	fs   archive.FS
	name string
	rank int
}

// load is the one archive loader. Every distinct file system is listed
// exactly once and the rank set is validated up front (dense, no
// duplicates), then a bounded worker pool decodes all trace files
// concurrently. Each file is borrowed (archive.Borrow: lent by a file system
// that holds it in memory, else read into a single size-hinted buffer) and
// decoded in place — with lazy set, a v2 file only as far as its header
// — and region and metahost names are interned across the pool, so an
// N-rank archive holds one copy of each repeated string. The first
// decode error cancels the remaining work: items after the failed one
// are skipped, items before it still decode, so the reported error is
// the lexically-first failure regardless of worker scheduling. The pool
// also stops picking up files once ctx is cancelled and the load returns
// the context's error (a decode failure that already won the first-error
// race still takes precedence, keeping the reported error
// deterministic). Assembly is rank-ordered and deterministic.
func load(ctx context.Context, mounts *archive.Mounts, metahosts []int, dir string, rec *obs.Recorder, lazy bool) (*LazyArchive, error) {
	rec = obs.OrDefault(rec)
	m := newIngestMetrics(rec)
	span := rec.Phases.Start("ingest")
	defer span.End()
	start := time.Now()

	// Phase 1: list once per distinct file system and validate the rank
	// set before any decoding work is spent.
	seen := make(map[archive.FS]bool)
	ranks := make(map[int]bool)
	var items []loadItem
	for _, mh := range metahosts {
		fs := mounts.For(mh)
		if seen[fs] {
			continue
		}
		seen[fs] = true
		names, err := fs.List(dir)
		if err != nil {
			return nil, fmt.Errorf("replay: listing archive %q: %w", dir, err)
		}
		for _, name := range names {
			rank, ok := archive.TraceRank(name)
			if !ok {
				continue
			}
			if ranks[rank] {
				return nil, fmt.Errorf("replay: duplicate trace for rank %d", rank)
			}
			ranks[rank] = true
			items = append(items, loadItem{fs: fs, name: name, rank: rank})
		}
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("replay: archive %q contains no trace files", dir)
	}
	for rank := range ranks {
		// No duplicates and every rank inside 0..n-1 imply density.
		if rank < 0 || rank >= len(items) {
			return nil, fmt.Errorf("replay: rank %d outside dense range 0..%d (missing trace)",
				rank, len(items)-1)
		}
	}

	// Phase 2: decode all ranks on a bounded pool. At least two workers
	// keep decode and file I/O overlapped even on one processor.
	width := runtime.GOMAXPROCS(0)
	if width < 2 {
		width = 2
	}
	if width > len(items) {
		width = len(items)
	}
	m.poolWidth.Set(float64(width))

	var (
		out       = make([]*trace.Trace, len(items))
		readers   []*trace.BlockReader
		intern    = trace.NewInterner()
		errs      = make([]error, len(items))
		next      atomic.Int64
		minErr    atomic.Int64 // lowest item index that failed; len(items) = none
		bytesRead atomic.Int64
		decoded   atomic.Int64
		wg        sync.WaitGroup
	)
	if lazy {
		readers = make([]*trace.BlockReader, len(items))
	}
	minErr.Store(int64(len(items)))
	decodeOne := func(i int) error {
		it := items[i]
		// Neither decoder writes to its input, and a lazy image is only
		// ever read, so the file is borrowed, not copied.
		data, err := archive.Borrow(it.fs, dir+"/"+it.name)
		if err != nil {
			return fmt.Errorf("replay: opening %s: %w", it.name, err)
		}
		bytesRead.Add(int64(len(data)))
		var t *trace.Trace
		if f, ferr := trace.FormatOf(data); lazy && ferr == nil && f == trace.FormatV2 {
			// Lazy fast path: parse the header, keep the image. The
			// events stay encoded until the sweep wants them.
			r, err := trace.NewBlockReader(data, intern)
			if err != nil {
				return fmt.Errorf("replay: decoding %s: %w", it.name, err)
			}
			readers[it.rank] = r
			t = r.Trace()
		} else {
			t, err = trace.DecodeBytesInterned(data, intern)
			if err != nil {
				return fmt.Errorf("replay: decoding %s: %w", it.name, err)
			}
		}
		if t.Loc.Rank != it.rank {
			return fmt.Errorf("replay: %s contains trace of rank %d", it.name, t.Loc.Rank)
		}
		out[it.rank] = t
		decoded.Add(1)
		return nil
	}
	var ctxCancelled atomic.Bool
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				if ctx.Err() != nil {
					ctxCancelled.Store(true)
					return
				}
				// First-error cancellation: skip items after the lowest
				// failure seen so far; items before it still decode so
				// the winning error does not depend on scheduling.
				if int64(i) > minErr.Load() {
					continue
				}
				if err := decodeOne(i); err != nil {
					errs[i] = err
					for {
						cur := minErr.Load()
						if int64(i) >= cur || minErr.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	m.traces.Add(float64(decoded.Load()))
	m.bytes.Add(float64(bytesRead.Load()))
	if idx := minErr.Load(); idx < int64(len(items)) {
		return nil, errs[idx]
	}
	if ctxCancelled.Load() {
		return nil, fmt.Errorf("replay: archive load aborted: %w", context.Cause(ctx))
	}
	rec.Log.Debug("archive loaded", "dir", dir, "traces", len(items),
		"bytes", bytesRead.Load(), "pool_width", width, "lazy", lazy,
		"seconds", fmt.Sprintf("%.3f", time.Since(start).Seconds()))
	return &LazyArchive{Traces: out, readers: readers}, nil
}

// ingestMetrics pre-registers the archive-ingestion metric families so
// a -metrics-out snapshot carries load-phase cost next to replay-phase
// cost even for an idle or failed load.
type ingestMetrics struct {
	traces, bytes *obs.Series
	poolWidth     *obs.Series
}

func newIngestMetrics(rec *obs.Recorder) *ingestMetrics {
	r := rec.Reg
	return &ingestMetrics{
		traces: r.Counter("metascope_ingest_traces_total",
			"trace files decoded during archive loads").With(),
		bytes: r.Counter("metascope_ingest_bytes_total",
			"trace bytes read during archive loads").With(),
		poolWidth: r.Gauge("metascope_ingest_pool_width",
			"decode worker pool width of the last archive load").With(),
	}
}

// BuildCorrections derives the per-rank time correction maps for a
// scheme from the measurements stored in the traces. Every scheme
// derives a rank's map from that rank's own sync block alone
// (rankCorrection), which is why a live session can build them one
// header at a time.
func BuildCorrections(traces []*trace.Trace, scheme vclock.Scheme) ([]vclock.Correction, error) {
	out := make([]vclock.Correction, len(traces))
	for r, t := range traces {
		m, err := rankCorrection(t, scheme)
		if err != nil {
			return nil, err
		}
		out[r] = vclock.Correction{Rank: r, Map: m}
	}
	return out, nil
}

// mergeComms combines the communicator definitions of all traces,
// verifying consistency across ranks, into communicators ascending by id,
// and verifies that every communicator member has a trace and is listed
// once. The dense-range check of the archive loader cannot notice a
// missing tail rank (the job simply looks smaller), but the world
// communicator recorded in every surviving trace still names the lost
// ranks — replaying without them would silently drop their side of every
// message and produce a wrong cube rather than an error. A member listed
// twice would wait in every collective for an arrival that never comes.
//
// Traces decoded through one trace.Interner share each member slice, so
// the per-trace comparison is by identity; only traces from different
// interners are compared member by member.
func mergeComms(traces []*trace.Trace) ([]communicator, error) {
	var out []communicator
	for _, t := range traces {
		for _, cd := range t.Comms {
			k := sort.Search(len(out), func(k int) bool { return out[k].id >= cd.ID })
			if k < len(out) && out[k].id == cd.ID {
				have := out[k].ranks
				if len(have) != len(cd.Ranks) {
					return nil, fmt.Errorf("replay: communicator %d has inconsistent sizes across traces", cd.ID)
				}
				if len(have) > 0 && &have[0] != &cd.Ranks[0] && !slices.Equal(have, cd.Ranks) {
					return nil, fmt.Errorf("replay: communicator %d has inconsistent membership across traces", cd.ID)
				}
				continue
			}
			out = slices.Insert(out, k, communicator{id: cd.ID, ranks: cd.Ranks, seq: make([]int, len(cd.Ranks))})
		}
	}
	// seen[r] is 1 + the index of the last communicator that listed r.
	seen := make([]int32, len(traces))
	for i := range out {
		for _, r := range out[i].ranks {
			if int(r) < 0 || int(r) >= len(traces) {
				return nil, fmt.Errorf("replay: communicator %d references rank %d but the archive holds traces for ranks 0..%d (incomplete archive)",
					out[i].id, r, len(traces)-1)
			}
			if seen[r] == int32(i+1) {
				return nil, fmt.Errorf("replay: communicator %d lists rank %d more than once", out[i].id, r)
			}
			seen[r] = int32(i + 1)
		}
	}
	return out, nil
}

// Analyze runs the parallel replay over a complete set of local traces
// and produces the analysis report. Its own runtime behavior — the
// sync, replay, and pattern-search phase durations, replayed events
// per second, per-rank replay traffic (total and the external-link
// subset), and clock-violation/repair counts — is reported into
// cfg.Obs (or obs.Default).
func Analyze(traces []*trace.Trace, cfg Config) (*Result, error) {
	return AnalyzeContext(context.Background(), traces, cfg)
}

// AnalyzeContext is Analyze honoring ctx: cancellation is checked
// between the sync, replay, and pattern-search phases, and inside the
// replay it re-queues ranks parked on message matching or collective
// gathers and trips the periodic sweep poll, so even an analysis of a
// huge archive stops promptly. (A replay in which no rank can proceed
// needs no context: it fails at once with a deadlock error.) The returned error wraps the context's
// error (errors.Is-compatible with context.Canceled and
// context.DeadlineExceeded).
func AnalyzeContext(ctx context.Context, traces []*trace.Trace, cfg Config) (*Result, error) {
	return analyzeCtx(ctx, &LazyArchive{Traces: traces}, cfg)
}

// AnalyzeLazy analyzes a lazily loaded archive: v2 ranks decode their
// event blocks on demand during the sweep and release them behind it,
// so peak analysis memory is bounded by the sweep window rather than
// the archive size. The produced report, profile, and counters are
// byte-identical to Analyze over the fully materialized traces — lazy
// block validation applies the same checks at the same events.
func AnalyzeLazy(ar *LazyArchive, cfg Config) (*Result, error) {
	return analyzeCtx(context.Background(), ar, cfg)
}

// analyzeCtx is the one post-mortem entry point: a rank with a block
// reader is swept through a pulled log, every other rank through a
// preloaded one.
func analyzeCtx(ctx context.Context, ar *LazyArchive, cfg Config) (*Result, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	traces := ar.Traces
	if len(traces) == 0 {
		return nil, fmt.Errorf("replay: no traces")
	}
	// A decoded trace comes checked and counted by its decoder, and one
	// built by hand is checked and counted here; a pulled rank's blocks
	// are checked as they decode.
	logs := make([]*rankLog, len(traces))
	for i, t := range traces {
		if i < len(ar.readers) && ar.readers[i] != nil {
			logs[i] = newPulledRankLog(ar.readers[i])
			continue
		}
		sizes, err := t.Checked()
		if err != nil {
			return nil, err
		}
		logs[i] = newPreloadedRankLog(t.Events, sizes)
	}
	cfg = cfg.withDefaults(len(traces))
	rec := obs.OrDefault(cfg.Obs)

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("replay: analysis aborted before synchronization: %w", err)
	}
	syncSpan := rec.Phases.Start("sync")
	corr, err := BuildCorrections(traces, cfg.Scheme)
	syncSpan.End()
	if err != nil {
		return nil, err
	}
	a, err := newAnalyzer(traces, logs, corr, cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("replay: analysis aborted before replay: %w", err)
	}

	// A cancellation during the replay aborts it; none is watched after.
	stop := context.AfterFunc(ctx, func() { a.abort(ctx.Err()) })
	replaySpan := rec.Phases.Start("replay")
	a.labelBase = ctx
	a.run()
	replaySpan.End()
	stop()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("replay: analysis aborted before pattern search: %w", err)
	}
	patternSpan := rec.Phases.Start("pattern-search")
	defer patternSpan.End()
	return a.finish()
}

// finish is the one engine epilogue, shared by post-mortem, lazy and
// live analysis: it assembles the result and reports what the replay did
// into the replay counters, the per-rank traffic histograms and the log.
//
// The epilogue is timed as four children of the pattern search that tile
// it: ledger-fold (the result's preamble, the accumulators and the read
// of the sweep samples), phase-detect, post-pass, and report-build (the
// snapshots, the cube and the counters below).
func (a *analyzer) finish() (*Result, error) {
	phases := obs.OrDefault(a.cfg.Obs).Phases
	mark := time.Now()
	lap := func(child string) {
		now := time.Now()
		phases.Record(now.Sub(mark), "pattern-search", child)
		mark = now
	}
	res, err := a.result(lap)
	if err != nil {
		return nil, err
	}
	// The result holds copies of what the ledger held, and a live session
	// reads its window sink from here on, not the logs: the pages go on
	// the shelf for the next analysis.
	shelve(a.results, func(rr *rankResult) *pagedLog[profSample] { return &rr.profLog })
	shelve(a.results, func(rr *rankResult) *pagedLog[recvInfo] { return &rr.recvLog })
	shelve(a.results, func(rr *rankResult) *pagedLog[phase.Op] { return &rr.opLog })

	events := 0
	for _, lg := range a.logs {
		events += lg.published()
	}
	m := a.metrics
	m.events.Add(float64(events))
	if s := a.replayDur.Seconds(); s > 0 {
		m.eventsPerSec.Set(float64(events) / s)
	}
	m.messages.Add(float64(res.Messages))
	m.collectives.Add(float64(res.Collectives))
	m.violations.Add(float64(res.Violations))
	m.repairs.Add(float64(res.Repairs))
	for i := range res.ReplayBytes {
		m.rankBytes.Observe(float64(res.ReplayBytes[i]))
		m.rankExternal.Observe(float64(res.ReplayExternalBytes[i]))
	}
	obs.OrDefault(a.cfg.Obs).Log.Debug("replay analysis complete",
		"processes", len(a.traces), "events", events, "messages", res.Messages,
		"collectives", res.Collectives, "violations", res.Violations,
		"repairs", res.Repairs, "replay_seconds", a.replayDur.Seconds())
	lap("report-build")
	return res, nil
}

// profileConfig derives the time-resolved profile's one interval axis
// from the corrected run span: origin at the earliest corrected event,
// bucket width covering the span with ~6% headroom. A rank's end is its
// last corrected event moved out by its final repair shift — the shift
// only grows, and carries to every later event — so every deposit lies
// on the axis. The span is read from the rank logs' time bounds — not
// the traces' event slices, which lazy and live analyses never
// materialize — so the axis depends only on the events and corrections,
// and two analyses of the same archive profile onto identical intervals
// regardless of mode.
func profileConfig(a *analyzer) profile.Config {
	pc := profile.Config{Buckets: a.cfg.ProfileBuckets}
	if pc.Buckets <= 0 {
		pc.Buckets = profile.DefaultBuckets
	}
	first := math.Inf(1)
	last := math.Inf(-1)
	for r, lg := range a.logs {
		lo, hi, ok := lg.bounds()
		if !ok {
			continue
		}
		if v := a.corr[r].Apply(lo); v < first {
			first = v
		}
		if v := a.corr[r].Apply(hi) + a.steppers[r].delta; v > last {
			last = v
		}
	}
	if math.IsInf(first, 1) {
		return pc
	}
	pc.Origin = first
	if span := last - first; span > 0 {
		pc.Width = span * 1.0625 / float64(pc.Buckets)
	}
	return pc
}

// replayMetrics pre-registers every replay metric family, so a
// snapshot taken after analysis always contains the complete set —
// including zero-valued repair and violation counters.
type replayMetrics struct {
	events, messages, collectives, violations, repairs *obs.Series
	eventsPerSec, workersActive, ranksDone             *obs.Series
	waitingUpload                                      *obs.Series
	rankBytes, rankExternal                            *obs.Series
	aborts                                             *obs.Family
}

func newReplayMetrics(rec *obs.Recorder) *replayMetrics {
	r := rec.Reg
	m := &replayMetrics{
		events: r.Counter("metascope_replay_events_total",
			"trace events swept during replay analysis").With(),
		messages: r.Counter("metascope_replay_messages_total",
			"point-to-point messages matched during replay").With(),
		collectives: r.Counter("metascope_replay_collectives_total",
			"collective instances replayed").With(),
		violations: r.Counter("metascope_replay_violations_total",
			"clock-condition violations detected").With(),
		repairs: r.Counter("metascope_replay_repairs_total",
			"timestamp repairs applied (controlled logical clock)").With(),
		eventsPerSec: r.Gauge("metascope_replay_events_per_second",
			"trace events replayed per wall second, last analysis").With(),
		workersActive: r.Gauge("metascope_replay_workers_active",
			"replay runners stepping a rank or looking for one, not waiting: at most GOMAXPROCS, whatever the rank count").With(),
		ranksDone: r.Gauge("metascope_replay_ranks_done",
			"analysis processes finished, last analysis").With(),
		waitingUpload: r.Gauge("metascope_replay_ranks_waiting_upload",
			"live-session ranks whose replay has caught up with the upload and waits for the next chunk, summed over sessions").With(),
		rankBytes: r.Histogram("metascope_replay_rank_bytes",
			"per-rank analysis-time communication volume", obs.BytesBuckets).With(),
		rankExternal: r.Histogram("metascope_replay_rank_external_bytes",
			"per-rank analysis-time traffic crossing metahost boundaries", obs.BytesBuckets).With(),
		aborts: r.Counter("metascope_replay_aborts_total",
			"analyses aborted, by cause: cancelled (context or session abort), failed (a rank's or the session's error), deadlock", "cause"),
	}
	for _, cause := range []string{"cancelled", "failed", "deadlock"} {
		m.aborts.With(cause)
	}
	return m
}

// AnalyzeArchive is the end-to-end convenience path: load the archive
// from the mounts and analyze it. Archive loading is timed as the
// top-level "archive" phase.
func AnalyzeArchive(mounts *archive.Mounts, metahosts []int, dir string, cfg Config) (*Result, error) {
	return AnalyzeArchiveContext(context.Background(), mounts, metahosts, dir, cfg)
}

// AnalyzeArchiveContext is AnalyzeArchive honoring ctx through both the
// archive load and the analysis phases — the entry point services use
// to bound a job's lifetime and to free its workers on cancellation.
func AnalyzeArchiveContext(ctx context.Context, mounts *archive.Mounts, metahosts []int, dir string, cfg Config) (*Result, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	span := obs.OrDefault(cfg.Obs).Phases.Start("archive")
	ar, err := load(ctx, mounts, metahosts, dir, cfg.Obs, false)
	span.End()
	if err != nil {
		return nil, err
	}
	return analyzeCtx(ctx, ar, cfg)
}

// CommVolume is one cell of the metahost communication matrix.
type CommVolume struct {
	Messages int
	Bytes    int64
}

// FormatCommMatrix renders the metahost communication matrix of a
// result as a table (rows: source metahost, columns: destination).
func (r *Result) FormatCommMatrix() string {
	ids := make([]int, 0, len(r.MetahostNames))
	for id := range r.MetahostNames {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	b.WriteString("Point-to-point communication by metahost pair (messages / MiB):\n")
	fmt.Fprintf(&b, "  %-12s", "src \\ dst")
	for _, d := range ids {
		fmt.Fprintf(&b, " %16s", r.MetahostNames[d])
	}
	b.WriteString("\n")
	for _, s := range ids {
		fmt.Fprintf(&b, "  %-12s", r.MetahostNames[s])
		for _, d := range ids {
			v := r.CommMatrix[[2]int{s, d}]
			fmt.Fprintf(&b, " %7d/%8.2f", v.Messages, float64(v.Bytes)/(1<<20))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TraceSizes returns every trace's encoded size in bytes in the default
// format, the one archives are written in — what merging-based analysis
// would have to copy between metahosts. The comparison with
// Result.ReplayBytes quantifies §4's argument for replay-based parallel
// analysis.
func TraceSizes(traces []*trace.Trace) ([]int64, error) {
	out := make([]int64, len(traces))
	for i, t := range traces {
		var cw countingWriter
		if err := t.EncodeFormat(&cw, trace.FormatDefault); err != nil {
			return nil, err
		}
		out[i] = cw.n
	}
	return out, nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
