package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestSingleProcessSleep(t *testing.T) {
	e := NewEngine(1)
	var wake []float64
	e.Spawn("p", func(p *Proc) {
		p.Sleep(1.5)
		wake = append(wake, p.Now())
		p.Sleep(0.5)
		wake = append(wake, p.Now())
		p.Sleep(-3) // negative = zero
		wake = append(wake, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2.0, 2.0}
	if !reflect.DeepEqual(wake, want) {
		t.Fatalf("wake times %v, want %v", wake, want)
	}
	if e.Now() != 2.0 {
		t.Errorf("final time %g, want 2", e.Now())
	}
}

// callback is an Event that calls a function.
type callback func()

func (f callback) Fire() { f() }

func TestEventOrderingDeterministic(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(2, callback(func() { order = append(order, "b") }))
	e.At(1, callback(func() { order = append(order, "a") }))
	e.At(2, callback(func() { order = append(order, "c") })) // same time: scheduling order
	e.At(0.5, callback(func() { order = append(order, "z") }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[z a b c]" {
		t.Fatalf("order %v", order)
	}
}

func TestInterProcessResume(t *testing.T) {
	e := NewEngine(1)
	var consumerWoke float64
	var consumer *Proc
	e.Spawn("consumer", func(p *Proc) {
		consumer = p
		p.Suspend(Reason("waiting for producer"))
		consumerWoke = p.Now()
	})
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(3)
		consumer.ResumeAt(p.Now() + 0.25) // deliver with latency
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if consumerWoke != 3.25 {
		t.Fatalf("consumer woke at %g, want 3.25", consumerWoke)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("stuck", func(p *Proc) {
		p.Suspend(Reason("message that never comes"))
	})
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(dl.Waiting) != 1 || dl.Waiting[0] != "stuck: message that never comes" {
		t.Fatalf("deadlock report %q", dl.Waiting)
	}
}

func TestProcessPanicIsCaptured(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(1)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil || err.Error() != `sim: process "boom" panicked: kaboom` {
		t.Fatalf("err = %v", err)
	}
}

func TestFailStopsEngine(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1)
			ran++
			if i == 4 {
				e.Fail(errors.New("enough"))
			}
		}
	})
	err := e.Run()
	if err == nil || err.Error() != "enough" {
		t.Fatalf("err = %v", err)
	}
	if ran != 5 {
		t.Fatalf("process ran %d iterations after Fail, want 5", ran)
	}
}

// TestInterruptStopsBetweenEvents: an Interrupt from another goroutine
// stops a run that would never end by itself at its next event, and Run
// returns the cause; one raised before Run stops it before any event.
func TestInterruptStopsBetweenEvents(t *testing.T) {
	stop := errors.New("interrupted")
	e := NewEngine(1)
	started := make(chan struct{})
	e.Spawn("forever", func(p *Proc) {
		close(started)
		for {
			p.Sleep(1)
		}
	})
	go func() {
		<-started
		e.Interrupt(stop)
	}()
	if err := e.Run(); !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the interrupt's cause", err)
	}
	if err := e.Err(); !errors.Is(err, stop) {
		t.Fatalf("Err() = %v, want the interrupt's cause", err)
	}

	e = NewEngine(1)
	ran := false
	e.Spawn("p", func(p *Proc) { ran = true })
	e.Interrupt(stop)
	e.Interrupt(errors.New("second"))
	if err := e.Run(); !errors.Is(err, stop) || ran {
		t.Fatalf("err = %v, process ran: %v; want the first cause before any event", err, ran)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(1)
			ticks++
		}
	})
	if err := e.RunUntil(10.5); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if e.Now() != 10.5 {
		t.Fatalf("now = %g, want 10.5", e.Now())
	}
}

func TestYieldOrdersWithinInstant(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		// Resumed at the current instant, a process runs after every event
		// already scheduled for it.
		p.ResumeAt(e.Now())
		p.Suspend(Reason("yield"))
		order = append(order, "a-after-yield")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []string{"b", "a-after-yield"}) {
		t.Fatalf("order %v", order)
	}
}

func TestManyProcessesAllComplete(t *testing.T) {
	e := NewEngine(7)
	const n = 200
	done := 0
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(float64(i%17) * 0.01)
			p.Sleep(float64(i%5) * 0.001)
			done++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
}

func TestSchedulingIntoPastClamps(t *testing.T) {
	e := NewEngine(1)
	var at float64
	e.At(5, callback(func() {
		e.At(1, callback(func() { at = e.Now() })) // in the past: clamp to now
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5 {
		t.Fatalf("past event ran at %g, want 5", at)
	}
}

// Property: the event heap pops events in (time, seq) order for any
// insertion sequence.
func TestEventHeapOrderProperty(t *testing.T) {
	f := func(times []float64) bool {
		var q eventQueue
		for i, tm := range times {
			if tm != tm { // NaN would poison any ordering
				tm = 0
			}
			q.push(event{t: tm, seq: uint64(i)})
		}
		var popped []event
		for len(q) > 0 {
			popped = append(popped, q.pop())
		}
		for i := 1; i < len(popped); i++ {
			a, b := popped[i-1], popped[i]
			if a.t > b.t || (a.t == b.t && a.seq > b.seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGStreamsIndependentAndReproducible(t *testing.T) {
	draw := func(seed int64, stream string, n int) []float64 {
		e := NewEngine(seed)
		out := make([]float64, n)
		for i := range out {
			out[i] = e.Uniform(stream, 0, 1)
		}
		return out
	}
	a1 := draw(42, "x", 10)
	a2 := draw(42, "x", 10)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("same (seed, stream) differs")
	}
	b := draw(42, "y", 10)
	if reflect.DeepEqual(a1, b) {
		t.Fatalf("streams x and y identical")
	}
	c := draw(43, "x", 10)
	if reflect.DeepEqual(a1, c) {
		t.Fatalf("different seeds identical")
	}
	// Consuming from one stream must not perturb another.
	e := NewEngine(42)
	for i := 0; i < 5; i++ {
		e.Uniform("noise", 0, 1)
	}
	interleaved := make([]float64, 10)
	for i := range interleaved {
		interleaved[i] = e.Uniform("x", 0, 1)
		e.Uniform("noise", 0, 1)
	}
	if !reflect.DeepEqual(a1, interleaved) {
		t.Fatalf("stream x perturbed by draws on stream noise")
	}
}

func TestNormalTruncation(t *testing.T) {
	e := NewEngine(3)
	for i := 0; i < 1000; i++ {
		if x := e.Normal("n", 1e-5, 1e-5, 2e-6); x < 2e-6 {
			t.Fatalf("Normal returned %g below floor", x)
		}
	}
}

func TestParetoAndExpPositive(t *testing.T) {
	e := NewEngine(3)
	for i := 0; i < 1000; i++ {
		if x := e.Pareto("p", 1e-5, 1.3); x < 1e-5 {
			t.Fatalf("Pareto below scale: %g", x)
		}
		if x := e.Exp("e", 2.0); x < 0 {
			t.Fatalf("Exp negative: %g", x)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	e := NewEngine(5)
	n, big := 20000, 0
	for i := 0; i < n; i++ {
		if e.Pareto("p", 1.0, 1.3) > 10 {
			big++
		}
	}
	// P(X > 10) = 10^-1.3 ≈ 5%; with n=20000 expect ~1000.
	if big < 500 || big > 2000 {
		t.Fatalf("tail mass %d/%d implausible for alpha=1.3", big, n)
	}
}

func TestUniformAndIntnRanges(t *testing.T) {
	e := NewEngine(9)
	for i := 0; i < 1000; i++ {
		if x := e.Uniform("u", -2, 3); x < -2 || x >= 3 {
			t.Fatalf("Uniform out of range: %g", x)
		}
		if k := e.Intn("i", 7); k < 0 || k >= 7 {
			t.Fatalf("Intn out of range: %d", k)
		}
	}
}

func TestDispatchPanicsOnBadStates(t *testing.T) {
	// Resuming a process that is not suspended must panic loudly — it
	// indicates corrupted higher-level bookkeeping.
	e := NewEngine(1)
	p := e.Spawn("idle", func(p *Proc) { p.Sleep(10) })
	p.ResumeAt(1) // fires while the process is sleeping (suspended) — fine
	p.ResumeAt(1) // second resume at the same instant must panic
	defer func() {
		if recover() == nil {
			t.Errorf("double resume did not panic")
		}
	}()
	_ = e.Run()
}

// TestDeterministicStochasticSimulation runs a randomized workload
// twice with the same seed and compares the full event timeline.
func TestDeterministicStochasticSimulation(t *testing.T) {
	runOnce := func(seed int64) []float64 {
		e := NewEngine(seed)
		var trace []float64
		for i := 0; i < 20; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				r := rand.New(rand.NewSource(int64(p.ID())))
				for j := 0; j < 30; j++ {
					p.Sleep(e.Uniform("work", 0, 0.1) + r.Float64()*0.01)
					trace = append(trace, p.Now()+float64(p.ID()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := runOnce(11), runOnce(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different timelines")
	}
	c := runOnce(12)
	sort.Float64s(a)
	sort.Float64s(c)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical timelines")
	}
}

func TestProcStateString(t *testing.T) {
	for s, want := range map[ProcState]string{
		StateNew: "new", StateRunning: "running",
		StateSuspended: "suspended", StateDone: "done",
		ProcState(99): "ProcState(99)",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// TestRunEndsWithProcessesParked: a run ended by Stop, by its horizon
// or by an Interrupt is not a deadlock. It reports nothing about the
// processes still suspended, and they stay parked: none runs on past
// its Suspend.
func TestRunEndsWithProcessesParked(t *testing.T) {
	cause := errors.New("interrupted")
	for _, tc := range []struct {
		name string
		run  func(e *Engine) error
		want error
	}{
		{"stop", func(e *Engine) error { e.At(2, callback(e.Stop)); return e.Run() }, nil},
		{"horizon", func(e *Engine) error { return e.RunUntil(2) }, nil},
		{"interrupt", func(e *Engine) error { e.At(2, callback(func() { e.Interrupt(cause) })); return e.Run() }, cause},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			resumed := 0
			var waiter, sleeper *Proc
			waiter = e.Spawn("waiter", func(p *Proc) {
				p.Suspend(Reason("a resume that never comes"))
				resumed++
			})
			sleeper = e.Spawn("sleeper", func(p *Proc) {
				p.Sleep(5)
				resumed++
			})
			if err := tc.run(e); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if resumed != 0 || waiter.State() != StateSuspended || sleeper.State() != StateSuspended {
				t.Fatalf("after the run: %d resumed, waiter %v, sleeper %v; want both parked", resumed, waiter.State(), sleeper.State())
			}
			if !errors.Is(e.Err(), tc.want) {
				t.Fatalf("Err() = %v, want %v", e.Err(), tc.want)
			}
		})
	}
}

// BenchmarkEngine times the engine's two process switches: one Sleep
// (resume queued, park, resume) and a Suspend/ResumeAt ping-pong
// between two processes, one round trip per op.
func BenchmarkEngine(b *testing.B) {
	b.Run("sleep", func(b *testing.B) {
		e := NewEngine(1)
		e.Spawn("sleeper", func(p *Proc) {
			for range b.N {
				p.Sleep(1)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("ping-pong", func(b *testing.B) {
		e := NewEngine(1)
		var ping, pong *Proc
		ping = e.Spawn("ping", func(p *Proc) {
			for range b.N {
				pong.ResumeAt(p.Now() + 1)
				p.Suspend(Reason("pong"))
			}
		})
		pong = e.Spawn("pong", func(p *Proc) {
			for range b.N {
				p.Suspend(Reason("ping"))
				ping.ResumeAt(p.Now() + 1)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
}
