// Package sim implements a deterministic discrete-event simulation
// engine with coroutine-style simulated processes.
//
// The engine drives a set of processes, each executing user code as a
// runtime coroutine (iter.Pull). At any moment at most one of them is
// active — either the scheduler or exactly one process — and control
// passes by a direct coroutine switch: the scheduler's next runs a
// process until it yields. Process code therefore runs in a
// deterministic order (event time, then event sequence number) and may
// freely touch shared simulation state without locks.
//
// The package knows nothing about networks, clocks, or MPI; those are
// layered on top (internal/topology, internal/vclock, internal/mmpi).
package sim

import (
	"fmt"
	"iter"
	"sort"
	"strings"
	"sync/atomic"
)

// ProcState describes what a simulated process is currently doing.
// It is used for deadlock diagnostics.
type ProcState int

// Process states. A process moves New → Running ⇄ Suspended → Done.
const (
	StateNew ProcState = iota
	StateRunning
	StateSuspended
	StateDone
)

// String returns the lower-case name of the state.
func (s ProcState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunning:
		return "running"
	case StateSuspended:
		return "suspended"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// An Event is what the engine fires, in scheduler context, at the time
// it was scheduled for (At): a caller's own value, such as an arriving
// message, or the start or resumption of a process.
type Event interface{ Fire() }

// event is one queued Event. Events with equal time fire in scheduling
// order (seq), which keeps the simulation deterministic.
type event struct {
	t   float64
	seq uint64
	ev  Event
}

// before reports whether a fires before b.
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of events in firing order.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].before(&h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0], h[n] = h[n], event{}
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(&h[m]) {
			m = r
		}
		if !h[m].before(&h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}

// Engine is a discrete-event scheduler. Create one with NewEngine,
// spawn processes with Spawn, and call Run.
type Engine struct {
	now     float64
	seq     uint64
	queue   eventQueue
	procs   []*Proc
	err     error
	stopped bool
	rng     *rngSet
	// interrupt is why the run was interrupted from outside, nil until
	// then: the engine's one goroutine-safe field (Interrupt).
	interrupt atomic.Pointer[error]
}

// NewEngine returns an engine whose random streams derive from seed.
// The same seed always produces the same simulation.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: newRNGSet(seed)}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Err returns the first error raised during Run (process panic or
// explicit Fail), or nil.
func (e *Engine) Err() error { return e.err }

// At schedules ev to fire at absolute time t, behind every event
// already queued for that time. Scheduling into the past is clamped to
// the current time, which keeps caller arithmetic simple when rounding
// produces tiny negative deltas.
func (e *Engine) At(t float64, ev Event) {
	e.seq++
	e.queue.push(event{t: max(t, e.now), seq: e.seq, ev: ev})
}

// Stop makes Run return after the current event completes. Pending
// events are discarded; suspended processes are not treated as a
// deadlock.
func (e *Engine) Stop() { e.stopped = true }

// Interrupt makes RunUntil return cause before its next event, as Fail
// would. Unlike Stop and Fail it may be called from any goroutine — a
// signal handler's or a context's (context.AfterFunc) — and before Run.
// The first cause wins.
func (e *Engine) Interrupt(cause error) { e.interrupt.CompareAndSwap(nil, &cause) }

// Fail records err (first one wins) and stops the engine.
func (e *Engine) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.Stop()
}

// Proc is a simulated process. All methods must be called from the
// process's own body unless documented otherwise.
type Proc struct {
	eng   *Engine
	id    int
	name  string
	state ProcState
	why   fmt.Stringer // what the process waits for, rendered only for a deadlock report
	// next runs the body until it yields or finishes; yield, called in
	// the body, hands control back to next's caller.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// Reason is a fixed Suspend reason.
type Reason string

// String returns the reason as given.
func (r Reason) String() string { return string(r) }

// sleeping is the reason of a sleeping process. It never reaches a
// deadlock report: a sleeping process always has its wake-up queued.
var sleeping fmt.Stringer = Reason("sleep")

// ID returns the process's engine-unique id (spawn order, from 0).
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// State returns the process state. Safe to call from scheduler context.
func (p *Proc) State() ProcState { return p.state }

// Engine returns the engine that owns p.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulation time.
func (p *Proc) Now() float64 { return p.eng.now }

// Spawn creates a process that will execute body when Run is called
// (or immediately, at the current time, if the engine is already
// running). The body receives its own *Proc handle.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, id: len(e.procs), name: name, state: StateNew}
	e.procs = append(e.procs, p)
	// The coroutine's stop is never called: stopping a parked process
	// would make its yield return and the body run on. A process still
	// parked when the run ends stays parked.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
				e.stopped = true
			}
			p.state = StateDone
		}()
		body(p)
	})
	e.At(e.now, (*resumption)(p))
	return p
}

// Suspend parks the calling process until another event resumes it via
// ResumeAt. why is rendered only if the process ends in a deadlock
// report.
func (p *Proc) Suspend(why fmt.Stringer) {
	p.state = StateSuspended
	p.why = why
	p.yield(struct{}{})
	p.state = StateRunning
}

// ResumeAt schedules p to continue execution at absolute time t. It may
// be called from scheduler context or from another process. Resuming a
// process that is not suspended by the time the resume fires is a
// programming error and panics.
func (p *Proc) ResumeAt(t float64) { p.eng.At(t, (*resumption)(p)) }

// resumption is the Event that starts or resumes a process: it hands
// control to the process until it parks or finishes.
type resumption Proc

func (r *resumption) Fire() {
	r.take()
	r.next()
}

// take marks the process running. Only a new or suspended process may
// be started or resumed.
func (r *resumption) take() {
	if r.state != StateSuspended && r.state != StateNew {
		panic(fmt.Sprintf("sim: resume of non-suspended process %q (%v)", r.name, r.state))
	}
	r.state, r.why = StateRunning, nil
}

// Sleep advances the process's simulation time by d seconds (computing,
// in the simulated world). Negative d is treated as zero.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	p.SleepUntil(p.eng.now + d)
}

// SleepUntil advances the process's simulation time to absolute time t.
// Times in the past are treated as "now".
func (p *Proc) SleepUntil(t float64) {
	p.ResumeAt(t)
	p.Suspend(sleeping)
}

// DeadlockError is returned by Run when the event queue drains while
// processes are still suspended.
type DeadlockError struct {
	Time    float64
	Waiting []string // "name: reason" for each stuck process
}

// Error describes the deadlock with every stuck process and its reason.
func (d *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at t=%g, %d process(es) suspended:", d.Time, len(d.Waiting))
	for _, w := range d.Waiting {
		b.WriteString("\n  " + w)
	}
	return b.String()
}

// Run executes events until the queue is empty or the engine is
// stopped. It returns the first process panic, an explicit Fail error,
// or a DeadlockError if processes remain suspended with nothing left to
// run. On success all spawned processes have finished.
func (e *Engine) Run() error {
	return e.RunUntil(-1)
}

// RunUntil behaves like Run but additionally stops once simulation time
// would exceed horizon (a negative horizon means no limit), or with the
// cause of an Interrupt, checked between events. Stopping at the horizon
// with suspended processes is not a deadlock.
func (e *Engine) RunUntil(horizon float64) error {
	for !e.stopped && len(e.queue) > 0 {
		if cause := e.interrupt.Load(); cause != nil {
			e.Fail(*cause)
			break
		}
		if horizon >= 0 && e.queue[0].t > horizon {
			e.now = horizon
			return e.err
		}
		ev := e.queue.pop()
		e.now = ev.t
		if r, ok := ev.ev.(*resumption); ok {
			// Fire's body, spelled out: BenchmarkEngine switches 6-8 %
			// faster with next called from this frame than from Fire's.
			r.take()
			r.next()
			continue
		}
		ev.ev.Fire()
	}
	if e.err != nil {
		return e.err
	}
	if e.stopped {
		return nil
	}
	var waiting []string
	for _, p := range e.procs {
		if p.state == StateSuspended || p.state == StateNew {
			why := ""
			if p.why != nil {
				why = p.why.String()
			}
			waiting = append(waiting, p.name+": "+why)
		}
	}
	if len(waiting) > 0 {
		sort.Strings(waiting)
		err := &DeadlockError{Time: e.now, Waiting: waiting}
		e.err = err
		return err
	}
	return nil
}
