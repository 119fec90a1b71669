package replay

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metascope/internal/obs"
)

// This file is the replay's one scheduler. A rank's analysis process is
// a stepper (worker.go): step sweeps the rank's events until the next one
// would block and returns why — a mailbox signature, a collective gather,
// or its own log running dry — having applied none of that event's side
// effects, so the event runs again when the rank is resumed. Runners, one
// per GOMAXPROCS and never more than there are ranks, step ready ranks;
// whoever makes a parked rank's event possible — a put of its signature,
// the last member of its gather, a publish or close of its log, an abort
// — re-queues it. Ranks cost no goroutine, and a wait is a queue entry
// instead of a sleeping goroutine and a condition variable.
//
// Each runner owns a shard: a block of consecutive ranks with its own
// ready ring and lock. Consecutive ranks are mostly each other's
// neighbours, so most wakes stay inside one shard (wakes_cross in the
// debug line counts the others) and the runners rarely touch each other's
// locks; one shared ring made two runners slower than one. A runner whose
// ring is empty steals the oldest ready rank of another shard, and a
// rank queued on a busy runner's ring claims an idle runner to steal it:
// the work of a shard is not its runner's alone, because the blocks need
// not carry equal load — metatrace's first block of 16 ranks holds 99 %
// of its events. An idle runner of a post-mortem analysis polls for a
// while before it blocks (restSpins). The scheduler's own lock only counts
// idle runners, finished ranks and ranks parked on their logs — what the
// deadlock rule needs.
//
// Lock order: nothing holds a mailbox, gather-domain or log lock while it
// takes a shard's or the scheduler's; a waker notes the wake under its
// own lock and calls wake after releasing it. No two shard locks are held
// together, and a shard's lock and the scheduler's are never held
// together, except by the deadlock report, which reads — under the
// scheduler's lock, every runner idle — each blocked rank's shard, mailbox
// and gather.

// park says why a step returned.
type park uint8

const (
	parkDone    park = iota // the sweep is over; rr.err says whether it failed
	parkMailbox             // a receive whose send has not been replayed yet
	parkGather              // a collective whose other members have not all arrived
	parkLog                 // a live rank's log holds no further event yet
	numParks
)

// rankState is one rank's place in the scheduler.
type rankState uint8

const (
	queued    rankState = iota // on its shard's ring
	running                    // being stepped by a runner
	rerun                      // being stepped, and woken meanwhile: queue it again on return
	parked                     // on a mailbox or a gather: another rank's step wakes it
	logParked                  // on its own log: the feeder's next publish or close wakes it
	finished                   // its sweep is over
)

// shard is one runner's block of ranks; its ring and counters, and the
// states of its ranks, are guarded by mu.
type shard struct {
	mu sync.Mutex
	// ring is the ready queue: a fixed ring with room for every rank of
	// the shard, as each rank is queued at most once.
	ring       []int32
	head, size int
	// idle is set, under mu, by the runner when it finds no rank on any
	// ring. Whoever clears it — a push onto this ring, or claimIdle for a
	// push onto a busy runner's — counts the runner out of the scheduler's
	// idle count and sends it the one token on wakeup.
	idle   atomic.Bool
	wakeup chan struct{}

	// Counters for the one "replay scheduled" debug line: wakes counts the
	// wakes of this shard's ranks by another rank's step, crossWakes those
	// of them from a rank of another shard, stolen the ranks another
	// runner took from this ring; maxReady is the deepest the ring was
	// when a rank was woken onto it (it starts holding every rank).
	steps             int
	parks             [numParks]int
	wakes, crossWakes int
	stolen            int
	maxReady          int
}

// scheduler runs the ranks of one analysis.
type scheduler struct {
	shards  []shard
	state   []rankState // rank r's is guarded by its shard's mu
	aborted atomic.Bool // abort ran: a rank parks only to be queued again

	// pick, when set, makes the one runner pop a ready rank drawn from it
	// instead of the oldest: the schedule explorer (export_test.go).
	pick *rand.Rand
	// spins is how often a resting runner polls before it blocks:
	// restSpins post-mortem, none in a live session (see restSpins).
	spins int

	mu sync.Mutex
	// idle counts the runners waiting for a rank; it changes under mu and
	// is read without it by claimIdle, whose look is only a hint.
	idle      atomic.Int32
	logParked int           // ranks in state logParked
	left      int           // ranks not finished
	over      chan struct{} // closed once no rank is left
	exited    int           // runners that have returned
	done      chan struct{} // closed when the last runner returns
}

// exploreSeed, set only by export_test.go, puts every analysis started
// while it is set under the schedule explorer.
var exploreSeed *int64

func newScheduler(ranks int) *scheduler {
	s := &scheduler{
		shards: make([]shard, min(runtime.GOMAXPROCS(0), ranks)),
		state:  make([]rankState, ranks),
		left:   ranks,
		over:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if exploreSeed != nil {
		s.shards, s.pick = s.shards[:1], rand.New(rand.NewSource(*exploreSeed))
	}
	for r := 0; r < ranks; r++ {
		s.shardOf(r).size++
	}
	for k := range s.shards {
		sh := &s.shards[k]
		sh.ring, sh.wakeup = make([]int32, 0, sh.size), make(chan struct{}, 1)
	}
	for r := 0; r < ranks; r++ {
		sh := s.shardOf(r)
		sh.ring = append(sh.ring, int32(r))
	}
	return s
}

// shardOf returns rank r's shard: ranks are cut into len(shards) blocks.
func (s *scheduler) shardOf(r int) *shard {
	return &s.shards[r*len(s.shards)/len(s.state)]
}

// pushLocked queues rank r on sh and reports whether that ends the wait
// of sh's idle runner; the caller passes the report to readied once it
// has released sh.mu.
func (sh *shard) pushLocked(s *scheduler, r int) (wasIdle bool) {
	sh.ring[(sh.head+sh.size)%len(sh.ring)] = int32(r)
	sh.size++
	sh.maxReady = max(sh.maxReady, sh.size)
	s.state[r] = queued
	// Only the runner sets the flag, under mu; claimIdle may clear it
	// meanwhile, and then it is claimIdle's caller that wakes the runner.
	return sh.idle.Load() && sh.idle.Swap(false)
}

// popLocked takes the oldest ready rank — or, exploring, a drawn one.
func (sh *shard) popLocked(pick *rand.Rand) (int, bool) {
	if sh.size == 0 {
		return 0, false
	}
	if pick != nil {
		k := (sh.head + pick.Intn(sh.size)) % len(sh.ring)
		sh.ring[sh.head], sh.ring[k] = sh.ring[k], sh.ring[sh.head]
	}
	r := int(sh.ring[sh.head])
	sh.head = (sh.head + 1) % len(sh.ring)
	sh.size--
	return r, true
}

// wake re-queues rank r if it is parked, or — it is being stepped — has
// it queued again when its step returns, so a wake that arrives mid-step
// is not lost. Waking a queued or finished rank does nothing. from is the
// rank whose step makes the wake, or -1 for a feeder or an abort.
func (s *scheduler) wake(r, from int) {
	sh := s.shardOf(r)
	sh.mu.Lock()
	if from >= 0 {
		sh.wakes++
		if s.shardOf(from) != sh {
			sh.crossWakes++
		}
	}
	pushed, wasIdle, fromLog := false, false, false
	switch s.state[r] {
	case logParked:
		fromLog = true
		pushed, wasIdle = true, sh.pushLocked(s, r)
	case parked:
		pushed, wasIdle = true, sh.pushLocked(s, r)
	case running:
		s.state[r] = rerun
	}
	sh.mu.Unlock()
	if pushed {
		s.readied(sh, wasIdle, fromLog)
	}
}

// readied follows a push onto sh, made under sh.mu and now released:
// it wakes sh's runner if the push ended its wait, and otherwise claims an
// idle runner, if there is one, to steal the rank. fromLog says the rank
// left its log. Both counts change in one critical section, after the
// push: the deadlock rule never sees an idle runner with a ready rank, or
// a rank that left its log before it was queued. (A claim is made only by
// a runner that is stepping, a feeder whose rank still counts as parked on
// its log, or an abort — never while every runner is idle and nothing may
// still wake them.)
func (s *scheduler) readied(sh *shard, wasIdle, fromLog bool) {
	woken := sh
	if !wasIdle {
		woken = s.claimIdle()
	}
	if woken == nil && !fromLog {
		return
	}
	s.mu.Lock()
	if fromLog {
		s.logParked--
	}
	if woken != nil {
		s.idle.Add(-1)
	}
	s.mu.Unlock()
	if woken != nil {
		select {
		case woken.wakeup <- struct{}{}:
		default: // its token is already there
		}
	}
}

// claimIdle clears the idle flag of a waiting runner and returns its
// shard, or nil when no runner waits.
func (s *scheduler) claimIdle() *shard {
	if s.idle.Load() == 0 {
		return nil
	}
	for k := range s.shards {
		if sh := &s.shards[k]; sh.idle.CompareAndSwap(true, false) {
			return sh
		}
	}
	return nil
}

// steal takes the oldest ready rank of another runner's shard, trying the
// shards after k in turn, and returns holding that shard's lock.
func (s *scheduler) steal(k int) (*shard, int, bool) {
	for i := 1; i < len(s.shards); i++ {
		sh := &s.shards[(k+i)%len(s.shards)]
		sh.mu.Lock()
		if r, ok := sh.popLocked(nil); ok { // the explorer has one shard
			sh.stolen++
			return sh, r, true
		}
		sh.mu.Unlock()
	}
	return nil, 0, false
}

// abort wakes every parked rank, for good: from now on a rank that parks
// is queued again at once, so each one reaches its next step and sees the
// abort.
func (s *scheduler) abort() {
	s.aborted.Store(true)
	for r := range s.state {
		s.wake(r, -1)
	}
}

// start launches the runners. Inline, the calling goroutine is the first
// of them, start returns when the replay is over, and the goroutine
// leaves with the labels of a.labelBase — the caller's context — not
// those of the last rank it stepped; otherwise (a live session, started
// by a feeder) every runner is a goroutine of its own and sched.done
// closes when the last one returns.
func (a *analyzer) start(inline bool) {
	s := a.sched
	a.replayStart = time.Now()
	a.metrics.ranksDone.Set(0)
	first := 0
	if inline {
		first, s.spins = 1, restSpins
	}
	for k := first; k < len(s.shards); k++ {
		go a.runner(k)
	}
	if inline {
		a.runner(0)
		pprof.SetGoroutineLabels(a.labelBase)
		<-s.done
	}
}

// run replays every rank to its end — the parallel analysis of §4, which
// on the metacomputer itself would run on the same processors as the
// application.
func (a *analyzer) run() { a.start(true) }

// runner steps ready ranks — its own shard's first, else another's —
// until no rank is left anywhere: all finished, or deadlocked.
func (a *analyzer) runner(k int) {
	s, own := a.sched, &a.sched.shards[k]
	a.metrics.workersActive.Add(1)
	own.mu.Lock()
	for {
		sh := own
		r, ok := own.popLocked(s.pick)
		if !ok {
			own.mu.Unlock()
			if sh, r, ok = s.steal(k); !ok {
				if !a.rest(own) {
					break
				}
				own.mu.Lock()
				continue
			}
		}
		s.state[r] = running
		sh.mu.Unlock()

		st := &a.steppers[r]
		p := st.step()
		if p == parkDone && st.rr.err != nil {
			// This rank's fault alone, but peers waiting on its sends
			// and collectives must unwind too.
			a.abortWith(st.rr.err)
		}

		sh.mu.Lock()
		sh.steps++
		sh.parks[p]++
		requeued, wasIdle := false, false
		switch {
		case p == parkDone:
			s.state[r] = finished
			st.finish()
		case s.state[r] == rerun || s.aborted.Load():
			requeued, wasIdle = true, sh.pushLocked(s, r)
		case p == parkLog:
			s.state[r] = logParked
		default:
			s.state[r] = parked
		}
		if sh == own && !requeued && p != parkDone && p != parkLog {
			continue // the common case: keep own.mu for the next pop
		}
		sh.mu.Unlock()
		if requeued {
			s.readied(sh, wasIdle, false)
		} else if p == parkDone || p == parkLog {
			s.mu.Lock()
			if p == parkDone {
				s.finishedLocked(1)
			} else {
				s.logParked++ // a feeder's wake may have counted it out already
			}
			s.mu.Unlock()
		}
		own.mu.Lock()
	}
	s.mu.Lock()
	s.exited++
	last := s.exited == len(s.shards)
	s.mu.Unlock()
	if last {
		a.replayDur = time.Since(a.replayStart)
		a.logSchedule()
		close(s.done)
	}
}

// restSpins is how many times a resting runner of a post-mortem analysis
// polls its wakeup channel, yielding in between, before it blocks —
// while another runner is busy and may queue a rank for it. A collective
// every few microseconds of each rank's sweep (metatrace's) hands ranks
// between runners faster than a blocked thread wakes up. A live
// session's runners share the processors with the feeders, whose pace
// bounds the replay; there a polling runner takes a processor from them
// (EXPERIMENTS "Steppers under one scheduler").
const restSpins = 200

// rest has own's runner, which found no ready rank on any ring, wait
// until a rank is queued for it, and reports whether the replay goes on.
// metascope_replay_workers_active does not count a resting runner.
func (a *analyzer) rest(own *shard) bool {
	s := a.sched
	own.mu.Lock()
	if own.size > 0 {
		own.mu.Unlock()
		return true // queued while it looked at the other rings
	}
	own.idle.Store(true)
	own.mu.Unlock()
	a.metrics.workersActive.Add(-1)
	if !a.idle() {
		return false
	}
	woken := false
	for spin := 0; spin < s.spins && !woken && int(s.idle.Load()) < len(s.shards); spin++ {
		runtime.Gosched()
		select {
		case <-own.wakeup:
			woken = true
		case <-s.over:
			woken = true
		default:
		}
	}
	if !woken {
		select {
		case <-own.wakeup:
		case <-s.over:
		}
	}
	a.metrics.workersActive.Add(1)
	return true
}

// idle counts the calling runner idle and reports whether it should wait
// for a rank: false once no rank is left. The runner that makes every
// runner idle while no rank waits on a log a feeder may still fill finds
// the replay deadlocked and ends it — unless an abort is re-queueing the
// parked ranks, the one waker that is neither a step nor a feeder.
func (a *analyzer) idle() bool {
	s := a.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.left == 0 {
		return false
	}
	if s.idle.Add(1) == int32(len(s.shards)) && s.logParked == 0 && !s.aborted.Load() {
		a.deadlockLocked()
		return false
	}
	return true
}

// finishedLocked counts n ranks finished and ends the replay with the
// last.
func (s *scheduler) finishedLocked(n int) {
	if s.left -= n; s.left == 0 {
		close(s.over)
	}
}

// deadlockLocked ends a replay in which no rank can move: every runner is
// idle and every rank not finished waits on a message or a collective
// that no other rank will ever provide. Each of them finishes with one
// error that names them and what they wait for — a traced application
// that completed cannot deadlock, so the archive is inconsistent.
func (a *analyzer) deadlockLocked() {
	s := a.sched
	const named = 16 // an error message stays readable on 1000-rank worlds
	var stuck []int
	for r := range s.state {
		sh := s.shardOf(r)
		sh.mu.Lock()
		if s.state[r] == parked {
			stuck = append(stuck, r)
		}
		sh.mu.Unlock()
	}
	var b strings.Builder
	b.WriteString("replay: deadlock, no rank can proceed:")
	for i, r := range stuck[:min(len(stuck), named)] {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, " rank %d %s", r, a.steppers[r].waitsFor())
	}
	if len(stuck) > named {
		fmt.Fprintf(&b, "; and %d more ranks", len(stuck)-named)
	}
	err := errors.New(b.String())
	for _, r := range stuck {
		sh := s.shardOf(r)
		sh.mu.Lock()
		s.state[r] = finished
		a.steppers[r].rr.err = err
		a.steppers[r].finish()
		sh.mu.Unlock()
	}
	s.finishedLocked(len(stuck))
}

// logSchedule reports, once per analysis at debug level, how the replay
// was scheduled: runners, steps taken (one per rank plus one per park),
// parks by reason, wakes by another rank's step and how many of them
// crossed shards, ranks stolen, and the deepest a ready ring got after
// the start.
func (a *analyzer) logSchedule() {
	var steps, wakes, cross, stolen, maxReady int
	var parks [numParks]int
	for k := range a.sched.shards {
		sh := &a.sched.shards[k]
		sh.mu.Lock()
		steps, maxReady = steps+sh.steps, max(maxReady, sh.maxReady)
		wakes, cross, stolen = wakes+sh.wakes, cross+sh.crossWakes, stolen+sh.stolen
		for p := range parks {
			parks[p] += sh.parks[p]
		}
		sh.mu.Unlock()
	}
	obs.OrDefault(a.cfg.Obs).Log.Debug("replay scheduled", "runners", len(a.sched.shards), "steps", steps,
		"park_mailbox", parks[parkMailbox], "park_gather", parks[parkGather],
		"park_log", parks[parkLog], "wakes", wakes, "wakes_cross", cross, "steals", stolen,
		"max_ready", maxReady)
}
