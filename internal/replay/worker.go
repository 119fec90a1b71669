package replay

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"metascope/internal/obs"
	"metascope/internal/obs/flight"
	"metascope/internal/pattern"
	"metascope/internal/phase"
	"metascope/internal/profile"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// sendRecord is the per-message datum a sender's analysis process
// forwards to the receiver's analysis process during replay — a few
// dozen bytes, independent of the message's payload size.
type sendRecord struct {
	comm        int32
	srcWorld    int32
	tag         int32
	bytes       int64
	srcMetahost int
	sendEvent   float64 // corrected Send event time
	sendEnter   float64 // corrected enter of the enclosing MPI call
	sendExit    float64 // corrected exit of the enclosing MPI call
	srcCP       int     // sender-local call-path id of the MPI call
}

// mailbox is the unbounded, order-preserving channel delivering send
// records to one *receiver's* analysis process. put never blocks (the
// original application's standard-mode sends were buffered), so replay
// cannot deadlock if the traced application completed. take never
// blocks either: a take that finds no record notes the signature the
// receiver parks on, and the put that delivers it reports the wake for
// its caller to hand to the scheduler.
//
// Records are sharded per receiver and, inside a receiver's mailbox,
// keyed by exact matching signature (comm, src, tag). Matching is
// therefore O(1) amortized — the receiver pops the head of its
// signature's FIFO instead of scanning a shared slice — and a put only
// touches the destination rank's mailbox, so runners replaying
// disjoint receivers never contend.
//
// The FIFOs are value cells inside the signature map, with the first
// pending record stored inline and a spill slice used only when a
// signature bursts. A signature that alternates put/take — the common
// varying-pairs pattern, where thousands of (sender, receiver) pairs
// each exchange a handful of messages — therefore costs no per-pair
// heap objects at all: drained cells are deleted, and the map reuses
// their buckets.
type mailbox struct {
	mu sync.Mutex
	q  map[sig]cell
	// want is the signature the receiver parked on, while parked is set:
	// the put of that signature wakes it.
	want   sig
	parked bool
}

// sig is the exact matching signature within one receiver's mailbox.
type sig struct {
	comm int32
	src  int32 // sender world rank
	tag  int32
}

// cell is the FIFO of pending send records of one signature. Records
// from one sender arrive in that sender's event order, so the n-th
// take of a signature yields the n-th send — the same pairing the
// message-passing layer produced, because its transport is FIFO per
// process pair.
type cell struct {
	count int        // live records: first plus rest[head:]
	first sendRecord // the oldest pending record, inline
	rest  []sendRecord
	head  int
}

func newMailbox() *mailbox {
	return &mailbox{q: make(map[sig]cell, 8)}
}

// put delivers r and reports whether that wakes the receiver, parked on
// r's signature; the caller re-queues it once the lock is released.
func (mb *mailbox) put(r sendRecord) (wake bool) {
	s := sig{comm: r.comm, src: r.srcWorld, tag: r.tag}
	mb.mu.Lock()
	c := mb.q[s]
	if c.count == 0 {
		c.first = r
	} else {
		c.rest = append(c.rest, r)
	}
	c.count++
	mb.q[s] = c
	if mb.parked && mb.want == s {
		mb.parked, wake = false, true
	}
	mb.mu.Unlock()
	return wake
}

// take removes the oldest record with the exact signature (comm, source
// world rank, tag); ok=false means none is pending, and the receiver is
// parked on the signature until a put delivers one. Once matched, the
// record is gone from the mailbox: a drained signature's cell is deleted
// outright, and a shifted spill slot is zeroed, so the backing storage
// holds no reference to matched records (the old scan-and-splice left
// dead records alive in the slice's spare capacity).
func (mb *mailbox) take(comm, srcWorld, tag int32) (sendRecord, bool) {
	s := sig{comm: comm, src: srcWorld, tag: tag}
	mb.mu.Lock()
	c := mb.q[s]
	if c.count == 0 {
		mb.want, mb.parked = s, true
		mb.mu.Unlock()
		return sendRecord{}, false
	}
	r := c.first
	c.count--
	if c.count == 0 {
		delete(mb.q, s)
	} else {
		c.first = c.rest[c.head]
		c.rest[c.head] = sendRecord{}
		c.head++
		if c.head == len(c.rest) {
			c.rest = c.rest[:0]
			c.head = 0
		}
		mb.q[s] = c
	}
	mb.mu.Unlock()
	return r, true
}

// collGather coordinates the members of one collective instance: every
// participant deposits its corrected enter/exit once and parks until the
// last one arrives, after which each computes its own wait states from
// the complete vectors. The parked members form an intrusive list through
// their steppers (stepper.nextWaiter), so waiting allocates nothing.
type collGather struct {
	enters  []float64
	exits   []float64
	mhs     []int
	arrived int
	waiters int32 // first parked member's world rank, -1 for none
}

// collDomain shards the collective-gather state by communicator: each
// communicator carries its own lock and its own map of in-flight
// instances (keyed by per-communicator sequence number), so collectives
// on disjoint communicators never serialize on a shared mutex. The
// domain map itself is built before the runners start and is read-only
// during replay.
type collDomain struct {
	mu      sync.Mutex
	gathers map[int]*collGather
}

// remoteContribution attributes a severity detected on one analysis
// process to a call path of another process (Late Receiver is detected
// by the receiver but suffered by the sender).
type remoteContribution struct {
	rank   int
	cp     int
	pat    pattern.ID
	val    float64
	mhA    int // metahost pair for grid instances
	mhB    int
	isGrid bool
}

// pairKey identifies a grid-pattern instance's metahost combination
// (canonically ordered), realizing the fine-grained classification §6
// names as desirable future work.
type pairKey struct {
	pat  pattern.ID
	a, b int
}

func makePairKey(pat pattern.ID, a, b int) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{pat: pat, a: a, b: b}
}

// cpAcc accumulates raw severities for one call path of one rank.
type cpAcc struct {
	excl      float64
	visits    float64
	bytesSent float64
	bytesRecv float64
	waits     [pattern.NumPatterns]float64
	pairs     map[pairKey]float64 // grid waits by metahost pair
}

func (acc *cpAcc) addPair(pat pattern.ID, a, b int, v float64) {
	if acc.pairs == nil {
		acc.pairs = make(map[pairKey]float64, 2)
	}
	acc.pairs[makePairKey(pat, a, b)] += v
}

// cpInfo is one node of a rank-local call-path tree.
type cpInfo struct {
	parent int
	region trace.RegionID
	name   string
	kind   trace.RegionKind
	sig    uint64 // phase.SigOf(name), hashed once per call path
}

// cpKey identifies a call path by its parent path (-1 for a root) and
// its region, packed into one word so the per-Enter lookup hashes eight
// bytes instead of a struct.
type cpKey uint64

func makeCPKey(parent int, region trace.RegionID) cpKey {
	return cpKey(uint32(parent+1))<<32 | cpKey(region)
}

// recvInfo is kept per receive for the deterministic wrong-order
// post-pass and the clock-condition count: 32 bytes. The sender is kept
// as its world rank; its metahost, and with it whether the instance is a
// grid one, is read from the sender's trace header in the post-pass.
type recvInfo struct {
	sendEvent float64
	recvEnter float64
	lsWait    float64
	cp        int32
	src       int32
}

// rankResult is everything one analysis process produces.
// Wire-size estimates for the analyzer's own communication: a
// forwarded send record and one collective-gather contribution. Used
// to quantify §4's replay-traffic argument.
const (
	sendRecordWire = 64
	collGatherWire = 24
)

type rankResult struct {
	rank           int
	paths          []cpInfo
	byKey          map[cpKey]int
	acc            []cpAcc
	recvLog        pagedLog[recvInfo]
	violations     int
	repairs        int
	messages       int
	colls          int
	replayBytes    int64
	replayExternal int64
	// commRow is this rank's row of the metahost communication matrix:
	// outgoing traffic by destination metahost, indexed like
	// analyzer.metahosts.
	commRow []CommVolume
	// profLog is this analysis process's slice of the severity ledger:
	// every severity its sweep scored, as raw samples in sweep order. The
	// profile's interval axis (origin, bucket width) and the phase
	// boundaries are only known once every trace is complete — post-mortem
	// that is before the replay starts, in a live session only at
	// finalize — so steps defer the samples and result() reads the logs
	// once, in rank order, into the one profile and the one phase fold.
	profLog pagedLog[profSample]
	// opLog records one entry per completed non-user region instance
	// (corrected enter/exit plus the region-name signature) — the raw
	// material of automatic phase detection. Like profLog it is written
	// only by this rank's own sweep, so adds need no lock.
	opLog pagedLog[phase.Op]
	// remote holds the sender-side severities this rank detected for
	// other ranks' call paths (Late Receiver); result() applies them.
	remote []remoteContribution
	err    error
}

// metricID names a ledger sample's metric in one byte: a pattern id, or
// one of the two message-volume series numbered after the patterns.
type metricID uint8

const (
	metricBytesIntra = metricID(pattern.NumPatterns) + iota
	metricBytesWide
	numMetrics
)

// key returns the metric's key in the profile and phase artifacts.
func (m metricID) key() string {
	switch m {
	case metricBytesIntra:
		return profile.KeyBytesIntra
	case metricBytesWide:
		return profile.KeyBytesWide
	}
	return pattern.ID(m).MetricKey()
}

// profSample is one deferred deposit into the series (metric, metahost
// of rank, rank): Add(start, dur, val), with dur==0 standing for a point
// deposit. 32 bytes; the metahost is not stored because the rank's trace
// header has it.
type profSample struct {
	start  float64
	dur    float64
	val    float64
	rank   int32
	metric metricID
}

// score records one scored severity of rank — the scoring process itself
// or, for Late Receiver, the sender that suffered it: deferred to the
// scoring rank's sample log for result()'s read of the ledger and, in a
// live session, deposited into the window sink under its pattern family —
// grid and wrong-order variants are children of their base pattern in the
// metric tree, so the family's inclusive cube total matches the stream.
func (a *analyzer) score(rr *rankResult, m metricID, rank int32, start, dur, val float64) {
	rr.profLog.add(profSample{start: start, dur: dur, val: val, rank: rank, metric: m})
	if a.sink != nil {
		a.sink.add(rr.rank, m, rank, start, dur, val)
	}
}

// cpID returns the id of the call path that enters region under parent,
// creating it — the only time the region's definition is looked up — on
// its first visit.
func (rr *rankResult) cpID(parent int, region trace.RegionID, regions map[trace.RegionID]*trace.Region) int {
	k := makeCPKey(parent, region)
	if id, ok := rr.byKey[k]; ok {
		return id
	}
	reg := regions[region]
	id := len(rr.paths)
	rr.byKey[k] = id
	rr.paths = append(rr.paths, cpInfo{
		parent: parent, region: region, name: reg.Name, kind: reg.Kind,
		sig: phase.SigOf(reg.Name),
	})
	rr.acc = append(rr.acc, cpAcc{})
	return id
}

// analyzer owns one parallel analysis run.
type analyzer struct {
	traces []*trace.Trace
	corr   []vclock.LinearMap
	comms  map[int32][]int32
	cfg    Config

	// metahosts lists the world's metahost ids in ascending order and
	// mhCol gives each rank its metahost's index there — the dense
	// columns of the communication matrix rows and of the window sink.
	metahosts []int
	mhCol     []int

	// logs hold the per-rank event streams the steppers sweep, handed to
	// newAnalyzer by whoever feeds them.
	logs []*rankLog
	// sink, when non-nil, receives every scored severity as a windowed
	// delta for the live stream (nil post-mortem: one branch per score).
	// Besides the mailboxes and the collective gathers it is the only
	// shared state a step writes; everything else goes to its own
	// rankResult.
	sink *streamSink
	// progress, when non-nil, tracks each rank's corrected sweep time
	// (float64 bits; +Inf once the rank is done) — the live engine's
	// window-close frontier.
	progress []atomic.Uint64

	mailboxes []*mailbox
	colls     map[int32]*collDomain

	// steppers are the ranks' analysis processes, sched runs them;
	// labelBase is the base of every rank's pprof labels — a post-mortem
	// caller's context, whose labels the calling goroutine, the first
	// runner, leaves with.
	steppers  []stepper
	sched     *scheduler
	labelBase context.Context

	results []*rankResult
	corrs   []vclock.Correction

	// metrics is the pre-registered replay metric set; progress gauges
	// are updated live while the replay runs, the counters by finish.
	// replayDur is the wall time from the start of the replay to the
	// last runner's return.
	metrics     *replayMetrics
	replayStart time.Time
	replayDur   time.Duration
	// fl is the flight recorder the steppers write their event-level
	// timeline into (takes, puts, gather waits); flJob is the job id the
	// events carry and fn the pre-registered event names. When the
	// recorder is disabled every stepper's writer is nil and each
	// instrumentation point costs one branch.
	fl    *flight.Recorder
	flJob int32
	fn    flightNames

	// Cancellation: abortWith trips once and has the scheduler wake every
	// parked rank; a step checks the flag when it starts and periodically
	// while it sweeps, so a long sweep unwinds promptly. cause (the
	// context's error) is published before the atomic flag, so any step
	// that observes the abort also sees it.
	abortOnce sync.Once
	aborted   atomic.Bool
	cause     error
}

// newAnalyzer is the one engine set-up, shared by post-mortem, lazy and
// live analysis: it reports the corrections, merges and checks the
// communicator definitions of the rank headers, and builds the analyzer
// over the rank logs the caller's feeders fill. cfg carries its defaults
// already (Config.withDefaults).
func newAnalyzer(traces []*trace.Trace, logs []*rankLog, corr []vclock.Correction, cfg Config) (*analyzer, error) {
	rec := obs.OrDefault(cfg.Obs)
	vclock.ObserveCorrections(rec, cfg.Scheme, corr)
	comms, err := mergeComms(traces)
	if err != nil {
		return nil, err
	}
	if err := checkCommCoverage(comms, len(traces)); err != nil {
		return nil, err
	}
	n := len(traces)
	a := &analyzer{
		traces:    traces,
		corr:      make([]vclock.LinearMap, n),
		comms:     comms,
		cfg:       cfg,
		logs:      logs,
		mailboxes: make([]*mailbox, n),
		colls:     make(map[int32]*collDomain, len(comms)),
		steppers:  make([]stepper, n),
		sched:     newScheduler(n),
		labelBase: context.Background(),
		results:   make([]*rankResult, n),
		corrs:     corr,
		metrics:   newReplayMetrics(rec),
	}
	a.fl = rec.Flight
	a.flJob = cfg.FlightJob
	if a.flJob <= 0 {
		a.flJob = -1
	}
	if a.fl.Enabled() {
		a.fn = newFlightNames(a.fl)
	}
	for _, c := range corr {
		a.corr[c.Rank] = c.Map
	}
	a.mhCol = make([]int, n)
	for r, t := range traces {
		a.mhCol[r] = t.Loc.Metahost
	}
	a.metahosts = slices.Clone(a.mhCol)
	slices.Sort(a.metahosts)
	a.metahosts = slices.Compact(a.metahosts)
	for r, mh := range a.mhCol {
		a.mhCol[r], _ = slices.BinarySearch(a.metahosts, mh)
	}
	for r := range a.steppers {
		st := &a.steppers[r]
		st.a, st.rank, st.rr.rank = a, r, r
		a.results[r] = &st.rr
		a.mailboxes[r] = newMailbox()
		logs[r].wakes(a.sched, r)
	}
	for id := range comms {
		a.colls[id] = &collDomain{gathers: make(map[int]*collGather)}
	}
	return a, nil
}

// abortWith cancels the replay: every parked rank is queued again and
// every step unwinds at its next check. The first cause wins; later calls
// are no-ops.
func (a *analyzer) abortWith(cause error) {
	a.abortOnce.Do(func() {
		a.cause = cause
		a.aborted.Store(true)
		for _, lg := range a.logs {
			lg.abort()
		}
		a.sched.abort()
	})
}

// repairMu is the minimal message latency a timestamp repair enforces:
// the µ of the controlled logical clock, 1 ns.
const repairMu = 1e-9

// cancelErr is the per-rank error a step reports when it unwound because
// of an abort; it wraps the context's error so callers can errors.Is
// against context.Canceled / DeadlineExceeded.
func (a *analyzer) cancelErr(rank int) error {
	return fmt.Errorf("replay: rank %d: analysis aborted: %w", rank, a.cause)
}

// gatherColl deposits one member's contribution to a collective instance
// and reports whether that completed it. Completing, it wakes the members
// parked on it; otherwise rank is parked on it. Only the instance's own
// communicator domain is locked, so collectives on other communicators
// proceed concurrently.
func (a *analyzer) gatherColl(comm int32, seq, size, commRank int, enter, exit float64, mh, rank int) (*collGather, bool) {
	d := a.colls[comm]
	d.mu.Lock()
	g, ok := d.gathers[seq]
	if !ok {
		// One backing array for both time vectors halves the gather's
		// allocation count; the instance is created by whichever member
		// replays its CollExit first.
		times := make([]float64, 2*size)
		g = &collGather{
			enters:  times[:size:size],
			exits:   times[size:],
			mhs:     make([]int, size),
			waiters: -1,
		}
		d.gathers[seq] = g
	}
	g.enters[commRank] = enter
	g.exits[commRank] = exit
	g.mhs[commRank] = mh
	g.arrived++
	if g.arrived < size {
		a.steppers[rank].nextWaiter, g.waiters = g.waiters, int32(rank)
		d.mu.Unlock()
		return g, false
	}
	delete(d.gathers, seq)
	w := g.waiters
	g.waiters = -1
	d.mu.Unlock()
	// A woken member may park on its next gather, and relink, at once:
	// read each link before waking its owner.
	for w >= 0 {
		next := a.steppers[w].nextWaiter
		a.sched.wake(int(w), rank)
		w = next
	}
	return g, true
}

// gatherComplete reports whether every member of g has arrived.
func (a *analyzer) gatherComplete(comm int32, g *collGather) bool {
	d := a.colls[comm]
	d.mu.Lock()
	defer d.mu.Unlock()
	return g.arrived == len(g.enters)
}

// stackEntry tracks an open region during the forward sweep.
type stackEntry struct {
	cp        int
	enter     float64
	childTime float64
}

// stepper is one analysis process's forward sweep with its state held
// explicitly, so that the sweep can stop before any event that would
// block and resume there: the event index, the region stack, the repair
// shift, the per-communicator collective sequence numbers and the
// collective instance it has deposited into and waits on.
type stepper struct {
	a    *analyzer
	rank int
	rr   rankResult

	sc      sweepCursor
	i       int     // the next event to sweep
	delta   float64 // the forward timestamp-repair shift
	stack   []stackEntry
	collSeq map[int32]int

	// pending is the collective instance this rank deposited into and
	// waits on — instance pendingSeq of communicator pendingComm — and
	// nextWaiter links it into that instance's list of parked members.
	pending     *collGather
	pendingSeq  int
	pendingComm int32
	nextWaiter  int32

	// Set up by the first step.
	corr    vclock.LinearMap
	myMH    int
	regions map[trace.RegionID]*trace.Region
	labels  context.Context // the rank's pprof labels, set on each step

	// fw is the rank's flight shard (nil while the recorder is off); owed
	// is the End a begun wait still owes, 0 for none.
	fw           *flight.Writer
	owed         flight.Kind
	owedName     flight.NameID
	owedA, owedB int64
}

// begin sets up what the sweep needs once, on the rank's first step —
// on a runner, in parallel with other ranks' steps.
func (st *stepper) begin() {
	a, rank := st.a, st.rank
	t := a.traces[rank]
	st.corr = a.corr[rank]
	st.myMH = t.Loc.Metahost
	st.labels = pprof.WithLabels(a.labelBase, pprof.Labels("rank", strconv.Itoa(rank), "phase", "replay"))
	rr := &st.rr
	rr.byKey = make(map[cpKey]int)
	rr.commRow = make([]CommVolume, len(a.metahosts))
	st.regions = make(map[trace.RegionID]*trace.Region, len(t.Regions))
	for i := range t.Regions {
		st.regions[t.Regions[i].ID] = &t.Regions[i]
	}
	st.collSeq = make(map[int32]int)

	// The sweep reads its events through a cursor so the same code
	// serves every feeder: over a preloaded log at() always succeeds, over
	// a pulled one it decodes the next block, and in a live session it
	// reports the log dry until the next chunk lands.
	st.sc = newSweepCursor(a.logs[rank])

	// The three per-rank logs grow by one entry per Send event (the
	// volume sample), per Recv event and per completed non-user region.
	// When the whole log is already resident (post-mortem), one counting
	// pass sizes each log's first page, so a short rank — 192 of them in a
	// halo2d run — holds one exact page per log instead of a ladder of
	// doubling ones. The counts are hints: a log that outgrows its first
	// page continues in pages like any other.
	if c, ok := a.logs[rank].countIfResident(t.Regions); ok {
		rr.profLog.reserve(c.sends)
		rr.recvLog.reserve(c.recvs)
		rr.opLog.reserve(c.ops)
	}

	// Flight recording: one shard per rank. The whole sweep is one span;
	// takes, puts, and gathers nest inside.
	st.fw = a.fl.Writer(int32(rank))
	if st.fw != nil {
		st.fw.Emit(flight.SpanBegin, a.flJob, a.fn.worker, 0, 0)
	}
}

// finish closes the rank's sweep, done or failed — either way it will
// never hold a window open again. Called under the lock of the rank's
// shard.
func (st *stepper) finish() {
	a := st.a
	if a.progress != nil {
		a.progress[st.rank].Store(math.Float64bits(math.Inf(1)))
	}
	if st.fw != nil {
		st.awaited()
		st.fw.Emit(flight.SpanEnd, a.flJob, a.fn.worker, 0, 0)
	}
	a.metrics.ranksDone.Add(1)
}

// await records the start of a wait — a take or a gather — the first
// time event i tries it, and awaited its end: a wait the rank parks in
// spans its park, and one it passes at once is a zero-width pair.
func (st *stepper) await(begin flight.Kind, name flight.NameID, x, y int64) {
	if st.owed == 0 {
		st.fw.Emit(begin, st.a.flJob, name, x, y)
		st.owed, st.owedName, st.owedA, st.owedB = begin+1, name, x, y
	}
}

func (st *stepper) awaited() {
	if st.owed != 0 {
		st.fw.Emit(st.owed, st.a.flJob, st.owedName, st.owedA, st.owedB)
		st.owed = 0
	}
}

// waitsFor says what a parked rank waits on, for the deadlock error.
func (st *stepper) waitsFor() string {
	a := st.a
	if g := st.pending; g != nil {
		d := a.colls[st.pendingComm]
		d.mu.Lock()
		arrived := g.arrived
		d.mu.Unlock()
		return fmt.Sprintf("waits in collective %d of communicator %d, which %d of its %d members have reached",
			st.pendingSeq, st.pendingComm, arrived, len(g.enters))
	}
	mb := a.mailboxes[st.rank]
	mb.mu.Lock()
	s := mb.want
	mb.mu.Unlock()
	return fmt.Sprintf("waits for a message from rank %d (communicator %d, tag %d)", s.src, s.comm, s.tag)
}

// step sweeps the rank's events until the sweep ends (parkDone; rr.err
// says whether it failed) or the next event would block, and returns why
// it stopped. A blocked event has had none of its side effects applied:
// it runs again from the top when the rank is resumed.
func (st *stepper) step() park {
	a, rank := st.a, st.rank
	rr := &st.rr
	if a.aborted.Load() {
		rr.err = a.cancelErr(rank)
		return parkDone
	}
	if st.labels == nil {
		st.begin() // the rank's first step
	}
	pprof.SetGoroutineLabels(st.labels)
	sc := &st.sc
	corr, myMH, fw := st.corr, st.myMH, st.fw
	for ; ; st.i++ {
		i := st.i
		if !sc.at(i) {
			if sc.dry {
				return parkLog
			}
			if !a.sweepEnded(rr, sc) && len(st.stack) != 0 {
				rr.err = fmt.Errorf("replay: rank %d: %d unclosed regions at end of trace", rank, len(st.stack))
			}
			return parkDone
		}
		// Periodic abort poll: a cancelled analysis must not finish a
		// multi-million-event sweep first.
		if i&1023 == 0 && a.aborted.Load() {
			rr.err = a.cancelErr(rank)
			return parkDone
		}
		// Blocks entirely behind the frontier will never be read again;
		// releasing them is what bounds a lazy or live sweep's memory.
		sc.release(i)
		ev := sc.ev(i)
		ct := corr.Apply(ev.Time) + st.delta
		if a.progress != nil {
			a.progress[rank].Store(math.Float64bits(ct))
		}
		switch ev.Kind {
		case trace.KindEnter:
			parent := -1
			if len(st.stack) > 0 {
				parent = st.stack[len(st.stack)-1].cp
			}
			cp := rr.cpID(parent, ev.Region, st.regions)
			st.stack = append(st.stack, stackEntry{cp: cp, enter: ct})

		case trace.KindExit:
			stack := st.stack
			if len(stack) == 0 {
				rr.err = fmt.Errorf("replay: rank %d: exit without enter at event %d", rank, i)
				return parkDone
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			st.stack = stack
			dur := ct - top.enter
			rr.acc[top.cp].excl += dur - top.childTime
			rr.acc[top.cp].visits++
			if len(stack) > 0 {
				stack[len(stack)-1].childTime += dur
			}
			// Phase detection keys on communication structure: one op per
			// completed MPI region instance, user regions excluded (they
			// span whole iterations and would fuse every silence gap).
			if info := &rr.paths[top.cp]; info.kind != trace.RegionUser {
				rr.opLog.add(phase.Op{Enter: top.enter, Exit: ct, Sig: info.sig})
			}

		case trace.KindSend:
			if len(st.stack) == 0 {
				rr.err = fmt.Errorf("replay: rank %d: send outside region at event %d", rank, i)
				return parkDone
			}
			top := st.stack[len(st.stack)-1]
			exitT, ok := regionExitTime(sc, i, corr, st.delta)
			if !ok {
				if sc.dry {
					return parkLog
				}
				if !a.sweepEnded(rr, sc) {
					rr.err = fmt.Errorf("replay: rank %d: unterminated MPI region at event %d", rank, i)
				}
				return parkDone
			}
			def := a.comms[ev.Comm]
			if ev.Peer < 0 || int(ev.Peer) >= len(def) {
				rr.err = fmt.Errorf("replay: rank %d: send to rank %d of %d-member communicator %d",
					rank, ev.Peer, len(def), ev.Comm)
				return parkDone
			}
			rr.acc[top.cp].bytesSent += float64(ev.Bytes)
			rr.replayBytes += sendRecordWire
			dst := int(def[ev.Peer])
			dstMH := a.traces[dst].Loc.Metahost
			if dstMH != myMH {
				rr.replayExternal += sendRecordWire
			}
			cell := &rr.commRow[a.mhCol[dst]]
			cell.Messages++
			cell.Bytes += ev.Bytes
			vol := metricBytesIntra
			if dstMH != myMH {
				vol = metricBytesWide
			}
			a.score(rr, vol, int32(rank), ct, 0, float64(ev.Bytes))
			if fw != nil {
				fw.Emit(flight.Send, a.flJob, a.fn.put, int64(dst), flightSig(ev.Comm, ev.Tag))
			}
			if a.mailboxes[dst].put(sendRecord{
				comm:        ev.Comm,
				srcWorld:    int32(rank),
				tag:         ev.Tag,
				bytes:       ev.Bytes,
				srcMetahost: myMH,
				sendEvent:   ct,
				sendEnter:   top.enter,
				sendExit:    exitT,
				srcCP:       top.cp,
			}) {
				a.sched.wake(dst, rank)
			}

		case trace.KindRecv:
			if len(st.stack) == 0 {
				rr.err = fmt.Errorf("replay: rank %d: recv outside region at event %d", rank, i)
				return parkDone
			}
			top := st.stack[len(st.stack)-1]
			def := a.comms[ev.Comm]
			if ev.Peer < 0 || int(ev.Peer) >= len(def) {
				rr.err = fmt.Errorf("replay: rank %d: recv from rank %d of %d-member communicator %d",
					rank, ev.Peer, len(def), ev.Comm)
				return parkDone
			}
			srcWorld := def[ev.Peer]
			if fw != nil {
				st.await(flight.BlockBegin, a.fn.take, int64(srcWorld), flightSig(ev.Comm, ev.Tag))
			}
			rec, ok := a.mailboxes[rank].take(ev.Comm, srcWorld, ev.Tag)
			if !ok {
				return parkMailbox
			}
			if fw != nil {
				st.awaited()
			}
			rr.messages++
			rr.acc[top.cp].bytesRecv += float64(ev.Bytes)
			if ct < rec.sendEvent {
				rr.violations++
				if a.cfg.Repair {
					// Advance this process's logical clock just past
					// the send; the shift persists for all later
					// events, restoring causal order.
					st.delta += rec.sendEvent + repairMu - ct
					ct = corr.Apply(ev.Time) + st.delta
					rr.repairs++
				}
			}
			grid := rec.srcMetahost != myMH
			ls := pattern.LateSenderWait(rec.sendEnter, top.enter, ct)
			if a.sink != nil && ls > 0 {
				// Sink only, at family granularity: whether the instance
				// is plain, wrong-order or grid — all in the Late Sender
				// family — is decided in the post-pass, which deposits
				// the ledger sample.
				a.sink.add(rank, metricID(pattern.LateSender), int32(rank), top.enter, ls, ls)
			}
			rr.recvLog.add(recvInfo{
				sendEvent: rec.sendEvent,
				recvEnter: top.enter,
				lsWait:    ls,
				cp:        int32(top.cp),
				src:       rec.srcWorld,
			})
			if rec.bytes > int64(a.cfg.EagerLimit) {
				lr := pattern.LateReceiverWait(top.enter, rec.sendEnter, rec.sendExit)
				if lr > 0 {
					pat := pattern.LateReceiver
					if grid {
						pat = pattern.GridLateReceiver
					}
					rr.remote = append(rr.remote, remoteContribution{
						rank: int(rec.srcWorld), cp: rec.srcCP, pat: pat, val: lr,
						mhA: rec.srcMetahost, mhB: myMH, isGrid: grid,
					})
					// The sender blocked from its enter until the wait
					// elapsed; the detecting (receiving) process records
					// the interval into its own sample log, keyed to
					// the suffering sender.
					a.score(rr, metricID(pat), rec.srcWorld, rec.sendEnter, lr, lr)
				}
			}

		case trace.KindCollExit:
			if len(st.stack) == 0 {
				rr.err = fmt.Errorf("replay: rank %d: collexit outside region at event %d", rank, i)
				return parkDone
			}
			top := st.stack[len(st.stack)-1]
			def := a.comms[ev.Comm]
			commRank := -1
			for idx, wr := range def {
				if int(wr) == rank {
					commRank = idx
					break
				}
			}
			if commRank < 0 {
				rr.err = fmt.Errorf("replay: rank %d: collexit on foreign communicator %d", rank, ev.Comm)
				return parkDone
			}
			if (ev.Coll.IsNToOne() || ev.Coll.IsOneToN()) && (ev.Root < 0 || int(ev.Root) >= len(def)) {
				rr.err = fmt.Errorf("replay: rank %d: collective rooted at rank %d of %d-member communicator %d",
					rank, ev.Root, len(def), ev.Comm)
				return parkDone
			}
			// Deposit once; a resumed step finds its instance pending.
			g, seq := st.pending, st.pendingSeq
			if g == nil {
				seq = st.collSeq[ev.Comm]
				if fw != nil {
					st.await(flight.GatherBegin, a.fn.gather, int64(ev.Comm), int64(seq))
				}
				var complete bool
				if g, complete = a.gatherColl(ev.Comm, seq, len(def), commRank, top.enter, ct, myMH, rank); !complete {
					st.pending, st.pendingSeq, st.pendingComm = g, seq, ev.Comm
					return parkGather
				}
			} else if !a.gatherComplete(ev.Comm, g) {
				return parkGather
			}
			st.pending = nil
			st.collSeq[ev.Comm] = seq + 1
			if fw != nil {
				st.awaited()
			}
			rr.acc[top.cp].bytesSent += float64(ev.Bytes)
			rr.colls++
			rr.replayBytes += collGatherWire
			for _, wr := range def {
				if a.traces[wr].Loc.Metahost != myMH {
					// The dissemination of gathered enters crosses the
					// external network once per remote member.
					rr.replayExternal += collGatherWire
					break
				}
			}
			a.scoreCollective(rr, top.cp, ev, g, commRank, ct)
		}
	}
}

// sweepEnded reports whether the cursor's log ended by failure or abort
// rather than by completing, and records the cause as the rank's error.
func (a *analyzer) sweepEnded(rr *rankResult, sc *sweepCursor) bool {
	switch {
	case sc.err != nil:
		rr.err = sc.err
	case sc.aborted:
		rr.err = a.cancelErr(rr.rank)
	default:
		return false
	}
	return true
}

// regionExitTime finds the corrected exit time of the region enclosing
// the event at index i (the first Exit that returns to the current
// nesting depth). Under timestamp repair the current shift is used;
// shifts applied later inside the region are not foreseen, a deliberate
// simplification of the full controlled logical clock. The lookahead
// runs through the cursor: in a live session the enclosing MPI call's
// Exit may not have been ingested yet (MPI calls are leaf regions
// spanning a handful of events, so it is one chunk away at most), and
// then the cursor is left dry and the caller parks on the log. ok=false
// means that, or that the log ended first — closed without the Exit (an
// unterminated region), failed or aborted; sweepEnded tells which.
func regionExitTime(sc *sweepCursor, i int, corr vclock.LinearMap, delta float64) (float64, bool) {
	depth := 0
	for j := i + 1; sc.at(j); j++ {
		e := sc.ev(j)
		switch e.Kind {
		case trace.KindEnter:
			depth++
		case trace.KindExit:
			if depth == 0 {
				return corr.Apply(e.Time) + delta, true
			}
			depth--
		}
	}
	return 0, false
}

// scoreCollective computes this participant's wait states for one
// completed collective instance. Grid instances are additionally
// classified by the metahost pair (this process's metahost, the
// metahost of the process that caused the wait) — the fine-grained
// classification §6 proposes.
func (a *analyzer) scoreCollective(rr *rankResult, cp int, ev *trace.Event, g *collGather, commRank int, myDone float64) {
	myEnter := g.enters[commRank]
	myMH := g.mhs[commRank]
	maxEnter, minOther := myEnter, 0.0
	maxMH, minOtherMH := myMH, 0
	haveOther := false
	spans := false
	for i, e := range g.enters {
		if e > maxEnter {
			maxEnter = e
			maxMH = g.mhs[i]
		}
		if g.mhs[i] != g.mhs[0] {
			spans = true
		}
		if int32(i) != ev.Root {
			if !haveOther || e < minOther {
				minOther = e
				minOtherMH = g.mhs[i]
				haveOther = true
			}
		}
	}
	add := func(pat pattern.ID, v float64, causeMH int) {
		if v <= 0 {
			return
		}
		if spans {
			pat = pat.Gridded()
			rr.acc[cp].addPair(pat, myMH, causeMH, v)
		}
		rr.acc[cp].waits[pat] += v
		// Waiting starts when this process enters the operation and
		// lasts until the cause arrives.
		a.score(rr, metricID(pat), int32(rr.rank), myEnter, v, v)
	}
	// Completion waits sit at the *end* of the operation: from the last
	// participant's enter to this process's exit.
	addCompletion := func(pat pattern.ID, v float64) {
		if v <= 0 {
			return
		}
		rr.acc[cp].waits[pat] += v
		a.score(rr, metricID(pat), int32(rr.rank), myDone-v, v, v)
	}
	switch {
	case ev.Coll == trace.CollBarrier:
		add(pattern.WaitBarrier, pattern.WaitAtBarrierWait(maxEnter, myEnter, myDone), maxMH)
		// Barrier Completion has no grid specialization; add directly.
		addCompletion(pattern.BarrierCompletion, pattern.BarrierCompletionWait(maxEnter, myEnter, myDone))
	case ev.Coll.IsNxN():
		add(pattern.WaitNxN, pattern.WaitAtNxNWait(maxEnter, myEnter, myDone), maxMH)
		addCompletion(pattern.NxNCompletion, pattern.NxNCompletionWait(maxEnter, myEnter, myDone))
	case ev.Coll.IsNToOne():
		if int32(commRank) == ev.Root && haveOther {
			add(pattern.EarlyReduce, pattern.EarlyReduceWait(minOther, myEnter, myDone), minOtherMH)
		}
	case ev.Coll.IsOneToN():
		if int32(commRank) != ev.Root {
			rootEnter := g.enters[ev.Root]
			add(pattern.LateBroadcast, pattern.LateBroadcastWait(rootEnter, myEnter, myDone), g.mhs[ev.Root])
		}
	}
}
