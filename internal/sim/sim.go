// Package sim implements a deterministic discrete-event simulation
// engine with coroutine-style simulated processes.
//
// The engine drives a set of processes, each executing user code in its
// own goroutine. At any moment at most one goroutine is active — either
// the scheduler or exactly one process — with control handed over
// through unbuffered channels. Process code therefore runs in a
// deterministic order (event time, then event sequence number) and may
// freely touch shared simulation state without locks.
//
// The package knows nothing about networks, clocks, or MPI; those are
// layered on top (internal/topology, internal/vclock, internal/mmpi).
package sim

import (
	"container/heap"
	"fmt"
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

// event is a scheduled callback. Events with equal time fire in
// scheduling order (seq), which keeps the simulation deterministic.
type event struct {
	t   float64
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event scheduler. Create one with NewEngine,
// spawn processes with Spawn, and call Run.
type Engine struct {
	now     float64
	seq     uint64
	queue   eventHeap
	procs   []*Proc
	yielded chan struct{} // signalled by the active process when it parks or finishes
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
	return &Engine{
		yielded: make(chan struct{}),
		rng:     newRNGSet(seed),
	}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Err returns the first error raised during Run (process panic or
// explicit Fail), or nil.
func (e *Engine) Err() error { return e.err }

// At schedules fn to run in scheduler context at absolute time t.
// Scheduling into the past is clamped to the current time, which keeps
// caller arithmetic simple when rounding produces tiny negative deltas.
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.queue, event{t: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

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
// process's own goroutine unless documented otherwise.
type Proc struct {
	eng    *Engine
	id     int
	name   string
	state  ProcState
	reason string // what the process is waiting for, for diagnostics
	resume chan struct{}
}

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
	p := &Proc{
		eng:    e,
		id:     len(e.procs),
		name:   name,
		state:  StateNew,
		resume: make(chan struct{}),
	}
	e.procs = append(e.procs, p)
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
				e.stopped = true
			}
			p.state = StateDone
			e.yielded <- struct{}{}
		}()
		body(p)
	}()
	e.At(e.now, func() { e.dispatch(p) })
	return p
}

// dispatch hands control to p until it parks or finishes. It must be
// called from scheduler context (inside an event callback).
func (e *Engine) dispatch(p *Proc) {
	if p.state == StateDone {
		panic(fmt.Sprintf("sim: dispatch of finished process %q", p.name))
	}
	if p.state == StateRunning {
		panic(fmt.Sprintf("sim: dispatch of already running process %q", p.name))
	}
	p.state = StateRunning
	p.reason = ""
	p.resume <- struct{}{}
	<-e.yielded
}

// Suspend parks the calling process until another event resumes it via
// ResumeAt. The reason string appears in deadlock reports.
func (p *Proc) Suspend(reason string) {
	p.state = StateSuspended
	p.reason = reason
	p.eng.yielded <- struct{}{}
	<-p.resume
	p.state = StateRunning
}

// ResumeAt schedules p to continue execution at absolute time t. It may
// be called from scheduler context or from another process. Resuming a
// process that is not suspended by the time the resume fires is a
// programming error and panics.
func (p *Proc) ResumeAt(t float64) {
	p.eng.At(t, func() {
		if p.state != StateSuspended {
			panic(fmt.Sprintf("sim: resume of non-suspended process %q (%v)", p.name, p.state))
		}
		p.eng.dispatch(p)
	})
}

// Sleep advances the process's simulation time by d seconds (computing,
// in the simulated world). Negative d is treated as zero.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	p.ResumeAt(p.eng.now + d)
	p.Suspend(fmt.Sprintf("sleep until %g", p.eng.now+d))
}

// SleepUntil advances the process's simulation time to absolute time t.
// Times in the past are treated as "now".
func (p *Proc) SleepUntil(t float64) {
	p.ResumeAt(t)
	p.Suspend(fmt.Sprintf("sleep until %g", t))
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
		ev := heap.Pop(&e.queue).(event)
		if horizon >= 0 && ev.t > horizon {
			e.now = horizon
			return e.err
		}
		e.now = ev.t
		ev.fn()
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
			waiting = append(waiting, fmt.Sprintf("%s: %s", p.name, p.reason))
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
