package replay

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"sort"
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
	comm      int32
	srcWorld  int32
	tag       int32
	bytes     int64
	sendEvent float64 // corrected Send event time
	sendEnter float64 // corrected enter of the enclosing MPI call
	sendExit  float64 // corrected exit of the enclosing MPI call
	srcCP     int     // sender-local call-path id of the MPI call
}

// mailbox is the unbounded, order-preserving channel delivering send
// records to one *receiver's* analysis process. put never blocks (the
// original application's standard-mode sends were buffered), so replay
// cannot deadlock if the traced application completed. take never
// blocks either: a take that finds no record notes the signature the
// receiver parks on, and the put that delivers it reports the wake for
// its caller to hand to the scheduler.
//
// Records are sharded per receiver, so a put only touches the
// destination rank's mailbox and runners replaying disjoint receivers
// never contend. Inside a mailbox they wait in one FIFO per exact
// matching signature (comm, src, tag), and the FIFOs are kept sorted by
// sender world rank, then communicator and tag: the receiver's sender
// slots in rank order, each sender's (comm, tag) FIFOs side by side.
// put and take find a signature by binary search — no hash, and
// O(log pending signatures) however many senders a receiver has — and
// the receiver pops the head of its signature's FIFO instead of scanning
// a shared slice.
//
// A FIFO holds its first pending record inline and spills only when a
// signature bursts, and a drained FIFO leaves the slice at once. A
// signature that alternates put/take — the common varying-pairs
// pattern, where thousands of (sender, receiver) pairs each exchange a
// handful of messages — therefore costs no heap object at all: the
// slice stays as long as the most signatures ever pending together.
type mailbox struct {
	mu    sync.Mutex
	fifos []fifo
	// want is the signature the receiver parked on, while parked is set:
	// the put of that signature wakes it.
	want   sig
	parked bool
	// The matching shape for the "replay scheduled" line: sender slots
	// (distinct senders with records pending) and records pending, now
	// and at most.
	senders, sendersMax int
	pending, pendingMax int
}

// sig is the exact matching signature within one receiver's mailbox.
type sig struct {
	comm int32
	src  int32 // sender world rank
	tag  int32
}

// before orders signatures by sender, then communicator, then tag.
func (s sig) before(t sig) bool {
	return s.src < t.src || s.src == t.src && (s.comm < t.comm || s.comm == t.comm && s.tag < t.tag)
}

// fifo is the queue of pending send records of one signature, which its
// oldest record, first, carries. Records from one sender arrive in that
// sender's event order, so the n-th take of a signature yields the n-th
// send — the same pairing the message-passing layer produced, because
// MPI does not let messages of one (sender, receiver, comm, tag) overtake
// each other.
type fifo struct {
	first sendRecord   // the oldest pending record, inline
	rest  []sendRecord // the younger ones: rest[head:]
	head  int
}

func (f *fifo) sig() sig { return sig{comm: f.first.comm, src: f.first.srcWorld, tag: f.first.tag} }

// find returns the index of signature s's FIFO, or where it belongs.
func (mb *mailbox) find(s sig) (int, bool) {
	k := sort.Search(len(mb.fifos), func(k int) bool { return !mb.fifos[k].sig().before(s) })
	return k, k < len(mb.fifos) && mb.fifos[k].sig() == s
}

// soleOf reports whether the FIFO at k, present or just removed, is the
// only one of sender src: whether its arrival or departure opens or
// closes a sender slot.
func (mb *mailbox) soleOf(k int, src int32) bool {
	return (k == 0 || mb.fifos[k-1].first.srcWorld != src) &&
		(k >= len(mb.fifos) || mb.fifos[k].first.srcWorld != src)
}

// put delivers r and reports whether that wakes the receiver, parked on
// r's signature; the caller re-queues it once the lock is released.
func (mb *mailbox) put(r sendRecord) (wake bool) {
	s := sig{comm: r.comm, src: r.srcWorld, tag: r.tag}
	mb.mu.Lock()
	if k, ok := mb.find(s); ok {
		f := &mb.fifos[k]
		f.rest = append(f.rest, r)
	} else {
		if mb.soleOf(k, s.src) {
			mb.senders++
			mb.sendersMax = max(mb.sendersMax, mb.senders)
		}
		mb.fifos = slices.Insert(mb.fifos, k, fifo{first: r})
	}
	mb.pending++
	mb.pendingMax = max(mb.pendingMax, mb.pending)
	if mb.parked && mb.want == s {
		mb.parked, wake = false, true
	}
	mb.mu.Unlock()
	return wake
}

// take removes the oldest record with the exact signature (comm, source
// world rank, tag); ok=false means none is pending, and the receiver is
// parked on the signature until a put delivers one. Once matched, the
// record is gone from the mailbox: a drained FIFO is deleted outright —
// slices.Delete zeroes the slot it vacates — and a shifted spill slot is
// zeroed, so the backing storage holds no reference to matched records.
func (mb *mailbox) take(comm, srcWorld, tag int32) (sendRecord, bool) {
	s := sig{comm: comm, src: srcWorld, tag: tag}
	mb.mu.Lock()
	k, ok := mb.find(s)
	if !ok {
		mb.want, mb.parked = s, true
		mb.mu.Unlock()
		return sendRecord{}, false
	}
	f := &mb.fifos[k]
	r := f.first
	mb.pending--
	if f.head == len(f.rest) {
		mb.fifos = slices.Delete(mb.fifos, k, k+1)
		if mb.soleOf(k, srcWorld) {
			mb.senders--
		}
	} else {
		f.first = f.rest[f.head]
		f.rest[f.head] = sendRecord{}
		if f.head++; f.head == len(f.rest) {
			f.rest, f.head = f.rest[:0], 0
		}
	}
	mb.mu.Unlock()
	return r, true
}

// collGather coordinates the members of one collective instance: every
// participant deposits its corrected enter once and parks until the last
// one arrives. That member summarizes the enters once, under the lock,
// before any other sees the gather complete; each participant then
// scores its own wait states from the summary in O(1).
type collGather struct {
	enters  []float64
	arrived int
	// The first member holding the largest enter, the smallest, and the
	// smallest of a member other than min's, over the enters that are not
	// NaN; -1 where there is none.
	max, min, min2 int32
}

// summarize finds the gather's extremes in one pass over its enters. A
// NaN enter never wins a comparison, so it never holds an extreme.
func (g *collGather) summarize() {
	g.max, g.min, g.min2 = -1, -1, -1
	for i, e := range g.enters {
		if e != e {
			continue
		}
		k := int32(i)
		if g.max < 0 || e > g.enters[g.max] {
			g.max = k
		}
		if g.min < 0 || e < g.enters[g.min] {
			g.min2, g.min = g.min, k
		} else if g.min2 < 0 || e < g.enters[g.min2] {
			g.min2 = k
		}
	}
}

// lastFrom returns the member holding the largest enter as member k's
// scan from its own enter finds it: k itself unless a member entered
// later, else the first such member with the largest enter.
func (g *collGather) lastFrom(k int) int {
	if g.max < 0 || !(g.enters[g.max] > g.enters[k]) {
		return k
	}
	return int(g.max)
}

// minOther returns the member holding the smallest enter of a member
// other than root, as a scan of the enters in member order that skips
// root finds it: its first candidate stands unless a later one is
// smaller, so a NaN first candidate stands. ok is false when every member
// is root.
func (g *collGather) minOther(root int32) (i int, ok bool) {
	first := 0
	if root == 0 {
		first = 1
	}
	switch {
	case first >= len(g.enters):
		return 0, false
	case g.enters[first] != g.enters[first]:
		return first, true
	case g.min != root:
		return int(g.min), true
	}
	return int(g.min2), true
}

// communicator is one communicator of the replay, merged from every
// trace that declares it: its members' world ranks in communicator-rank
// order, each member's next collective instance, and the gather of the
// instance its members are arriving at. A member waits in a collective
// until every member has arrived, so none starts instance k+1 before k is
// complete: one open gather per communicator is all there is. Each
// communicator carries its own lock, so collectives on disjoint
// communicators never serialize on a shared mutex. The communicators are
// built before the runners start, with cols, the members' metahost
// columns, and spans, whether those name more than one metahost — what
// makes each of its collectives a grid instance; seq[i] is written by
// member i's step alone, and open under mu. A member finds its own
// communicator rank through analyzer.commRank.
type communicator struct {
	id    int32
	ranks []int32
	cols  []int
	spans bool
	seq   []int
	mu    sync.Mutex
	open  *collGather
}

// comm returns communicator id. The runtime numbers communicators 0, 1,
// 2, …, so an id is nearly always its own index; any other is found by
// binary search. An id no trace declares has no members, which fails the
// event that names it.
func (a *analyzer) comm(id int32) *communicator {
	if uint64(id) < uint64(len(a.comms)) && a.comms[id].id == id {
		return &a.comms[id]
	}
	if k := sort.Search(len(a.comms), func(k int) bool { return a.comms[k].id >= id }); k < len(a.comms) && a.comms[k].id == id {
		return &a.comms[k]
	}
	return &communicator{id: id}
}

// remoteContribution attributes a severity detected on one analysis
// process to a call path of another process (Late Receiver is detected
// by the receiver but suffered by the sender); col is the detecting
// receiver's metahost column.
type remoteContribution struct {
	rank int
	cp   int
	pat  pattern.ID
	val  float64
	col  int
}

// cpAcc accumulates raw severities for one call path of one rank.
type cpAcc struct {
	excl      float64
	visits    float64
	bytesSent float64
	bytesRecv float64
	waits     [pattern.NumPatterns]float64
	// pairs splits the grid waits by metahost pair, the fine-grained
	// classification §6 names as future work: pairs[pat*M+col], for M
	// metahosts, holds the waits of pattern pat whose other side is on
	// metahost column col. One side of every grid instance is the rank's
	// own metahost, so the row holds every pair. nil until the call path's
	// first grid wait.
	pairs []float64
}

// addGrid adds a grid wait v of pattern pat, whose other side is on
// metahost column col of m, to the pattern's total and its pair's cell.
func (acc *cpAcc) addGrid(pat pattern.ID, col, m int, v float64) {
	if acc.pairs == nil {
		acc.pairs = make([]float64, int(pattern.NumPatterns)*m)
	}
	acc.pairs[int(pat)*m+col] += v
	acc.waits[pat] += v
}

// cpInfo is one node of a rank-local call-path tree.
type cpInfo struct {
	parent int // -1 for a root
	region trace.RegionID
	name   string
	kind   trace.RegionKind
	sig    uint64 // phase.SigOf(name), hashed once per call path
	next   [2]int // two call paths that followed this one, newest first, -1 for none: cpID's guesses
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
	rank  int
	paths []cpInfo
	// children holds every call path's id, ordered by (parent, region):
	// the tree's child links, each node's children one run in region
	// order. last is the call path entered last, -1 before the first.
	children       []int
	last           int
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
	// profile's interval axis (origin, bucket width) is only known once
	// every rank is swept (it includes each rank's final repair shift),
	// and the phase boundaries once every trace is complete — in a live
	// session only at finalize — so steps defer the samples and result()
	// reads the logs once, in rank order, into the one profile and the one
	// phase fold.
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
// or, for Late Receiver, the sender that suffered it — in the scoring
// rank's sample log, deferred to result()'s read of the ledger. In a live
// session the window sink is folded from the same log at the rank's next
// publication (stepper.publish).
func (rr *rankResult) score(m metricID, rank int32, start, dur, val float64) {
	rr.profLog.add(profSample{start: start, dur: dur, val: val, rank: rank, metric: m})
}

// cpID returns the id of the call path that enters region under parent,
// creating it — the only time the region's definition is looked up — on
// its first visit. A sweep's Enters come round in the order they came
// the last time round the loop, so the two call paths that last followed
// the previous Enter's are tried first — two, so that a loop's body and
// its exit both hit; otherwise the child is found by binary search over
// rr.children, O(log paths) whatever the tree's width or depth.
func (rr *rankResult) cpID(parent int, region trace.RegionID, regions *trace.RegionTable) int {
	prev := rr.last
	if prev >= 0 {
		for _, id := range rr.paths[prev].next {
			if id >= 0 && rr.paths[id].parent == parent && rr.paths[id].region == region {
				rr.last = id
				return id
			}
		}
	}
	k := sort.Search(len(rr.children), func(k int) bool {
		p := &rr.paths[rr.children[k]]
		return p.parent > parent || p.parent == parent && p.region >= region
	})
	if k == len(rr.children) || rr.paths[rr.children[k]].parent != parent || rr.paths[rr.children[k]].region != region {
		reg := regions.Lookup(region)
		rr.children = slices.Insert(rr.children, k, len(rr.paths))
		rr.paths = append(rr.paths, cpInfo{
			parent: parent, region: region, name: reg.Name, kind: reg.Kind,
			sig: phase.SigOf(reg.Name), next: [2]int{-1, -1},
		})
		rr.acc = append(rr.acc, cpAcc{})
	}
	id := rr.children[k]
	if prev >= 0 {
		next := &rr.paths[prev].next
		next[0], next[1] = id, next[0]
	}
	rr.last = id
	return id
}

// analyzer owns one parallel analysis run.
type analyzer struct {
	traces []*trace.Trace
	corr   []vclock.LinearMap
	comms  []communicator // ascending by id
	cfg    Config

	// membership lists, per world rank, the communicators it belongs to
	// and its rank in each: rank r's entries are
	// membership[memberAt[r]:memberAt[r+1]].
	memberAt   []int32
	membership []member

	// metahosts lists the world's metahost ids in ascending order and
	// mhCol gives each rank its metahost's index there — the dense
	// columns of the communication matrix rows and of the window sink.
	metahosts []int
	mhCol     []int

	// logs hold the per-rank event streams the steppers sweep, handed to
	// newAnalyzer by whoever feeds them.
	logs []*rankLog
	// sink, when non-nil, is the live stream's window sink, folded from
	// each rank's ledger at every publication (nil post-mortem). Besides
	// the mailboxes and the collective gathers it is the only shared state
	// a step writes; everything else goes to its own rankResult.
	sink *streamSink
	// progress, when non-nil (a live session), holds each rank's published
	// frontier as float64 bits: the corrected time of the last event its
	// sweep had swept when it last published — −Inf before its first event,
	// +Inf once it is done. A rank publishes when a step returns and every
	// 1024 events (stepper.publish), so the value is a lower bound on its
	// sweep that lags it by at most one step and never runs ahead; the
	// minimum over the ranks is the window-close frontier. sweptEvents
	// holds, from the same publication, how many events the rank had
	// swept.
	progress    []atomic.Uint64
	sweptEvents []atomic.Int64

	mailboxes []*mailbox

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

	// cause is why the analysis was aborted, nil while it runs: the one
	// abort state. The first trip sets it; a step checks it when it starts
	// and every 1024 events, the scheduler when it re-queues a rank and
	// before it calls a deadlock.
	cause atomic.Pointer[error]
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
	n := len(traces)
	m := newReplayMetrics(rec)
	a := &analyzer{
		traces:    traces,
		corr:      make([]vclock.LinearMap, n),
		comms:     comms,
		cfg:       cfg,
		logs:      logs,
		mailboxes: make([]*mailbox, n),
		steppers:  make([]stepper, n),
		sched:     newScheduler(n, m.waitingUpload),
		labelBase: context.Background(),
		results:   make([]*rankResult, n),
		corrs:     corr,
		metrics:   m,
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
	a.memberAt = make([]int32, n+1)
	for i := range a.comms {
		c := &a.comms[i]
		c.cols = make([]int, len(c.ranks))
		for k, r := range c.ranks {
			c.cols[k] = a.mhCol[r]
			c.spans = c.spans || c.cols[k] != c.cols[0]
			a.memberAt[r+1]++
		}
	}
	for r := range n {
		a.memberAt[r+1] += a.memberAt[r]
	}
	// Filling moves each rank's start to its end, which is the next rank's
	// start: shift the starts back.
	a.membership = make([]member, a.memberAt[n])
	for i := range a.comms {
		for k, r := range a.comms[i].ranks {
			a.membership[a.memberAt[r]] = member{comm: int32(i), rank: int32(k)}
			a.memberAt[r]++
		}
	}
	copy(a.memberAt[1:], a.memberAt[:n])
	a.memberAt[0] = 0
	for r := range a.steppers {
		st := &a.steppers[r]
		st.a, st.rank, st.rr.rank = a, r, r
		st.swept = math.Inf(-1)
		a.results[r] = &st.rr
		a.mailboxes[r] = &mailbox{}
	}
	return a, nil
}

// member is one entry of the membership index: a communicator, by its
// index in analyzer.comms, and a member's communicator rank there.
type member struct {
	comm, rank int32
}

// commRank returns rank's communicator rank in c, or -1 if rank is not a
// member: a scan of the few communicators rank belongs to, not of c's
// members.
func (a *analyzer) commRank(c *communicator, rank int) int {
	for _, m := range a.membership[a.memberAt[rank]:a.memberAt[rank+1]] {
		if &a.comms[m.comm] == c {
			return int(m.rank)
		}
	}
	return -1
}

// abort cancels the replay: every parked rank is queued again, and from
// then on a rank that parks is queued again at once, so each one reaches
// its next check and unwinds. The first cause wins; later calls are
// no-ops.
func (a *analyzer) abort(cause error) {
	label := "failed"
	if errors.Is(cause, context.Canceled) || errors.Is(cause, context.DeadlineExceeded) {
		label = "cancelled"
	}
	if a.trip(cause, label) {
		for r := range a.steppers {
			a.sched.wake(r, -1)
		}
	}
}

// trip is the one place an analysis becomes aborted: it publishes cause
// unless another won, and the winner counts the abort under label and
// logs it, once per analysis.
func (a *analyzer) trip(cause error, label string) bool {
	if !a.cause.CompareAndSwap(nil, &cause) {
		return false
	}
	a.metrics.aborts.With(label).Inc()
	obs.OrDefault(a.cfg.Obs).Log.Warn("replay aborted", "cause", label, "err", cause)
	return true
}

// aborted reports whether the analysis was aborted.
func (a *analyzer) aborted() bool { return a.cause.Load() != nil }

// repairMu is the minimal message latency a timestamp repair enforces:
// the µ of the controlled logical clock, 1 ns.
const repairMu = 1e-9

// cancelErr is the per-rank error a step reports when it unwound because
// of an abort; it wraps the context's error so callers can errors.Is
// against context.Canceled / DeadlineExceeded.
func (a *analyzer) cancelErr(rank int) error {
	return fmt.Errorf("replay: rank %d: analysis aborted: %w", rank, *a.cause.Load())
}

// gatherColl deposits one member's contribution to a collective instance
// and reports whether that completed it. Completing, it wakes the other
// members; otherwise rank is parked on it. Only the instance's own
// communicator is locked, so collectives on other communicators proceed
// concurrently.
func (a *analyzer) gatherColl(c *communicator, commRank int, enter float64, rank int) (*collGather, bool) {
	size := len(c.ranks)
	c.mu.Lock()
	g := c.open
	if g == nil {
		// The instance is created by whichever member replays its CollExit
		// first.
		g = &collGather{enters: make([]float64, size)}
		c.open = g
	}
	g.enters[commRank] = enter
	g.arrived++
	if g.arrived < size {
		c.mu.Unlock()
		return g, false
	}
	g.summarize()
	c.open = nil
	c.mu.Unlock()
	// Every other member has arrived and waits on g: parked, or in a step
	// about to park, which the wake turns into a re-run. A member already
	// re-run for another wake may have found g complete (gatherComplete)
	// and moved on; its wake costs one spurious step. No list of waiters is
	// kept — such a member could relink a list into its next gather while
	// it is being walked, and the rest of the walk would be lost.
	for _, r := range c.ranks {
		if int(r) != rank {
			a.sched.wake(int(r), rank)
		}
	}
	return g, true
}

// gatherComplete reports whether every member of g has arrived.
func (a *analyzer) gatherComplete(c *communicator, g *collGather) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
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

	sc    sweepCursor
	i     int     // the next event to sweep
	delta float64 // the forward timestamp-repair shift
	stack []stackEntry

	// swept is the corrected time of the last event swept, −Inf before
	// the first; a live rank publishes it (publish), after folding the
	// ledger records past folded and foldedRecv into the window sink.
	swept              float64
	folded, foldedRecv logPos

	// pending is the collective instance this rank deposited into and
	// waits on — the open gather of communicator pendingComm.
	pending     *collGather
	pendingComm *communicator

	// Set up by the first step.
	corr    vclock.LinearMap
	regions trace.RegionTable
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
	st.labels = pprof.WithLabels(a.labelBase, pprof.Labels("rank", strconv.Itoa(rank), "phase", "replay"))
	rr := &st.rr
	rr.last = -1
	rr.commRow = make([]CommVolume, len(a.metahosts))
	st.regions = trace.NewRegionTable(t.Regions)

	// The sweep reads its events through a cursor so the same code
	// serves every feeder: over a preloaded log at() always succeeds, over
	// a pulled one it decodes the next block, and in a live session it
	// reports the log dry until the next chunk lands.
	st.sc = newSweepCursor(a.logs[rank])

	// The three per-rank logs grow by one entry per Send event (the
	// volume sample), per Recv event and per completed non-user region.
	// A preloaded log was counted as it was validated, and the counts size
	// each log's first page, so a short rank — 192 of them in a halo2d run
	// — holds one exact page per log instead of a ladder of doubling ones.
	// The counts are hints: a log that outgrows its first page continues
	// in pages like any other.
	c := a.logs[rank].sizes
	rr.profLog.reserve(c.sends)
	rr.recvLog.reserve(c.recvs)
	rr.opLog.reserve(c.ops)

	// Flight recording: one shard per rank. The whole sweep is one span;
	// takes, puts, and gathers nest inside.
	st.fw = a.fl.Writer(int32(rank))
	if st.fw != nil {
		st.fw.Emit(flight.SpanBegin, a.flJob, a.fn.worker, 0, 0)
	}
}

// finish closes the rank's sweep, done or failed — either way it will
// never hold a window open again. Called under the lock of the rank's
// shard, so it folds nothing: the step that ended the sweep has published
// everything it scored.
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
		c := st.pendingComm
		c.mu.Lock()
		arrived := g.arrived
		c.mu.Unlock()
		return fmt.Sprintf("waits in collective %d of communicator %d, which %d of its %d members have reached",
			c.seq[a.commRank(c, st.rank)], c.id, arrived, len(g.enters))
	}
	mb := a.mailboxes[st.rank]
	mb.mu.Lock()
	s := mb.want
	mb.mu.Unlock()
	return fmt.Sprintf("waits for a message from rank %d (communicator %d, tag %d)", s.src, s.comm, s.tag)
}

// step sweeps the rank's events until the sweep ends (parkDone; rr.err
// says whether it failed) or the next event would block, publishes where
// it got to, and returns why it stopped.
func (st *stepper) step() park {
	p := st.sweep()
	st.publish()
	return p
}

// publish is a live rank's one publication point, taken when a step
// returns and at the sweep's 1024-event poll: it folds what the sweep
// scored since the previous publication into the window sink, then
// publishes the corrected time of the last event swept as the rank's
// frontier, and the number of events swept. A window the frontier passes
// therefore holds every deposit the rank's sweep made into it up to
// there. Post-mortem there is neither sink nor frontier.
func (st *stepper) publish() {
	a := st.a
	if a.progress == nil {
		return
	}
	a.sink.fold(&st.rr, &st.folded, &st.foldedRecv)
	a.progress[st.rank].Store(math.Float64bits(st.swept))
	a.sweptEvents[st.rank].Store(int64(st.i))
}

// sweep runs the events of one step. A blocked event has had none of its
// side effects applied: it runs again from the top when the rank is
// resumed. Every event the cursor admits has passed the stream validator
// (Validate, for a preloaded trace): an Exit closes an open region, and a
// Send, Recv or CollExit sits inside one, so the region stack is never
// empty where the sweep reads its top.
func (st *stepper) sweep() park {
	a, rank := st.a, st.rank
	rr := &st.rr
	if a.aborted() {
		rr.err = a.cancelErr(rank)
		return parkDone
	}
	if st.labels == nil {
		st.begin() // the rank's first step
	}
	pprof.SetGoroutineLabels(st.labels)
	sc := &st.sc
	corr, myCol, fw := st.corr, a.mhCol[rank], st.fw
	for ; ; st.i++ {
		i := st.i
		// Inside the cursor's block, published and short of the next
		// release, the event is read in place; only a block edge takes the
		// cursor's calls.
		var ev *trace.Event
		if off := i - sc.base; uint(off) < uint(len(sc.blk)) && i < sc.n && i < sc.nextRelease {
			ev = &sc.blk[off]
		} else {
			if !sc.at(i) {
				if sc.dry {
					return parkLog
				}
				if rr.err = sc.err; sc.err == nil && len(st.stack) != 0 {
					rr.err = fmt.Errorf("replay: rank %d: %d unclosed regions at end of trace", rank, len(st.stack))
				}
				return parkDone
			}
			// Blocks entirely behind the frontier will never be read again;
			// releasing them is what bounds a lazy or live sweep's memory.
			sc.release(i)
			ev = sc.ev(i)
		}
		// Periodic abort poll: a cancelled analysis must not finish a
		// multi-million-event sweep first. A live rank publishes here too,
		// so a long step does not hold the windows behind it open.
		if i&1023 == 0 {
			if a.aborted() {
				rr.err = a.cancelErr(rank)
				return parkDone
			}
			st.publish()
		}
		ct := corr.Apply(ev.Time) + st.delta
		switch ev.Kind {
		case trace.KindEnter:
			parent := -1
			if len(st.stack) > 0 {
				parent = st.stack[len(st.stack)-1].cp
			}
			cp := rr.cpID(parent, ev.Region, &st.regions)
			st.stack = append(st.stack, stackEntry{cp: cp, enter: ct})

		case trace.KindExit:
			stack := st.stack
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
			top := st.stack[len(st.stack)-1]
			// Only the Late Receiver test reads the exit of the send's MPI
			// call, and only for a rendezvous send: an eager one completes
			// without its receiver, so the sweep does not look ahead for it.
			var exitT float64
			if ev.Bytes > int64(a.cfg.EagerLimit) {
				var ok bool
				if exitT, ok = regionExitTime(sc, i, corr, st.delta); !ok {
					if sc.dry {
						return parkLog
					}
					if rr.err = sc.err; sc.err == nil {
						rr.err = fmt.Errorf("replay: rank %d: unterminated MPI region at event %d", rank, i)
					}
					return parkDone
				}
			}
			def := a.comm(ev.Comm).ranks
			if ev.Peer < 0 || int(ev.Peer) >= len(def) {
				rr.err = fmt.Errorf("replay: rank %d: send to rank %d of %d-member communicator %d",
					rank, ev.Peer, len(def), ev.Comm)
				return parkDone
			}
			rr.acc[top.cp].bytesSent += float64(ev.Bytes)
			rr.replayBytes += sendRecordWire
			dst := int(def[ev.Peer])
			vol := metricBytesIntra
			if a.mhCol[dst] != myCol {
				rr.replayExternal += sendRecordWire
				vol = metricBytesWide
			}
			cell := &rr.commRow[a.mhCol[dst]]
			cell.Messages++
			cell.Bytes += ev.Bytes
			rr.score(vol, int32(rank), ct, 0, float64(ev.Bytes))
			if fw != nil {
				fw.Emit(flight.Send, a.flJob, a.fn.put, int64(dst), flightSig(ev.Comm, ev.Tag))
			}
			if a.mailboxes[dst].put(sendRecord{
				comm:      ev.Comm,
				srcWorld:  int32(rank),
				tag:       ev.Tag,
				bytes:     ev.Bytes,
				sendEvent: ct,
				sendEnter: top.enter,
				sendExit:  exitT,
				srcCP:     top.cp,
			}) {
				a.sched.wake(dst, rank)
			}

		case trace.KindRecv:
			top := st.stack[len(st.stack)-1]
			def := a.comm(ev.Comm).ranks
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
			ls := pattern.LateSenderWait(rec.sendEnter, top.enter, ct)
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
					if a.mhCol[rec.srcWorld] != myCol {
						pat = pattern.GridLateReceiver
					}
					rr.remote = append(rr.remote, remoteContribution{
						rank: int(rec.srcWorld), cp: rec.srcCP, pat: pat, val: lr, col: myCol,
					})
					// The sender blocked from its enter until the wait
					// elapsed; the detecting (receiving) process records
					// the interval into its own sample log, keyed to
					// the suffering sender.
					rr.score(metricID(pat), rec.srcWorld, rec.sendEnter, lr, lr)
				}
			}

		case trace.KindCollExit:
			top := st.stack[len(st.stack)-1]
			c := a.comm(ev.Comm)
			def := c.ranks
			commRank := a.commRank(c, rank)
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
			g := st.pending
			if g == nil {
				if fw != nil {
					st.await(flight.GatherBegin, a.fn.gather, int64(ev.Comm), int64(c.seq[commRank]))
				}
				var complete bool
				if g, complete = a.gatherColl(c, commRank, top.enter, rank); !complete {
					st.pending, st.pendingComm = g, c
					return parkGather
				}
			} else if !a.gatherComplete(c, g) {
				return parkGather
			}
			st.pending = nil
			c.seq[commRank]++
			if fw != nil {
				st.awaited()
			}
			rr.acc[top.cp].bytesSent += float64(ev.Bytes)
			rr.colls++
			rr.replayBytes += collGatherWire
			if c.spans {
				// The dissemination of gathered enters crosses the external
				// network.
				rr.replayExternal += collGatherWire
			}
			st.scoreCollective(top.cp, ev, c, g, commRank, ct)
		}
		st.swept = ct
	}
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
// unterminated region) or failed, which sc.err tells.
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
// completed collective instance of communicator c. Grid instances are
// additionally classified by the metahost pair (this process's metahost,
// the metahost of the process that caused the wait) — the fine-grained
// classification §6 proposes.
func (st *stepper) scoreCollective(cp int, ev *trace.Event, c *communicator, g *collGather, commRank int, myDone float64) {
	rr, m := &st.rr, len(st.a.metahosts)
	myEnter := g.enters[commRank]
	last := g.lastFrom(commRank)
	maxEnter, maxCol := g.enters[last], c.cols[last]
	add := func(pat pattern.ID, v float64, causeCol int) {
		if v <= 0 {
			return
		}
		if c.spans {
			pat = pat.Gridded()
			rr.acc[cp].addGrid(pat, causeCol, m, v)
		} else {
			rr.acc[cp].waits[pat] += v
		}
		// Waiting starts when this process enters the operation and
		// lasts until the cause arrives.
		rr.score(metricID(pat), int32(rr.rank), myEnter, v, v)
	}
	// Completion waits sit at the *end* of the operation: from the last
	// participant's enter to this process's exit.
	addCompletion := func(pat pattern.ID, v float64) {
		if v <= 0 {
			return
		}
		rr.acc[cp].waits[pat] += v
		rr.score(metricID(pat), int32(rr.rank), myDone-v, v, v)
	}
	switch {
	case ev.Coll == trace.CollBarrier:
		add(pattern.WaitBarrier, pattern.WaitAtBarrierWait(maxEnter, myEnter, myDone), maxCol)
		// Barrier Completion has no grid specialization; add directly.
		addCompletion(pattern.BarrierCompletion, pattern.BarrierCompletionWait(maxEnter, myEnter, myDone))
	case ev.Coll.IsNxN():
		add(pattern.WaitNxN, pattern.WaitAtNxNWait(maxEnter, myEnter, myDone), maxCol)
		addCompletion(pattern.NxNCompletion, pattern.NxNCompletionWait(maxEnter, myEnter, myDone))
	case ev.Coll.IsNToOne():
		if other, ok := g.minOther(ev.Root); int32(commRank) == ev.Root && ok {
			add(pattern.EarlyReduce, pattern.EarlyReduceWait(g.enters[other], myEnter, myDone), c.cols[other])
		}
	case ev.Coll.IsOneToN():
		if int32(commRank) != ev.Root {
			rootEnter := g.enters[ev.Root]
			add(pattern.LateBroadcast, pattern.LateBroadcastWait(rootEnter, myEnter, myDone), c.cols[ev.Root])
		}
	}
}
