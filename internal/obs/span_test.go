package obs

import (
	"reflect"
	"testing"
	"time"
)

// fakeClock advances a fixed step on every reading, making span
// durations a pure function of the call sequence.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func newFakePhases(step time.Duration) *Phases {
	p := NewPhases()
	p.SetClock((&fakeClock{step: step}).now)
	return p
}

func TestSpanNestingDeterministic(t *testing.T) {
	p := newFakePhases(time.Second)
	b := p.Start("build") // reads t=1s
	b.End()               // reads t=2s → 1s
	m := p.Start("measure")
	s := p.Start("sync")  // nested: stack parent is measure
	s.End()               // 1s
	p.Start("sync").End() // aggregates: count=2
	m.End()

	got := p.Breakdown()
	want := []PhaseTiming{
		{Path: "build", Name: "build", Depth: 0, Count: 1, Total: time.Second},
		{Path: "measure", Name: "measure", Depth: 0, Count: 1, Total: 5 * time.Second},
		{Path: "measure/sync", Name: "sync", Depth: 1, Count: 2, Total: 2 * time.Second},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("breakdown:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestStartChildAndRecord(t *testing.T) {
	p := newFakePhases(time.Second)
	m := p.Start("measure")
	// A span started while measure is open is its child; Record deposits
	// at its absolute path whatever the stack holds.
	c := p.Start("archive-protocol")
	p.Record(3*time.Second, "measure", "trace-write")
	c.End()
	p.Record(2*time.Second, "measure", "trace-write")
	m.End()

	byPath := map[string]PhaseTiming{}
	for _, ph := range p.Breakdown() {
		byPath[ph.Path] = ph
	}
	if ph := byPath["measure/archive-protocol"]; ph.Count != 1 || ph.Total != time.Second {
		t.Errorf("archive-protocol = %+v", ph)
	}
	if ph := byPath["measure/trace-write"]; ph.Count != 2 || ph.Total != 5*time.Second {
		t.Errorf("trace-write = %+v", ph)
	}
}

func TestSpanEndIdempotentAndNilSafe(t *testing.T) {
	p := newFakePhases(time.Second)
	s := p.Start("x")
	if d := s.End(); d != time.Second {
		t.Errorf("first End = %v, want 1s", d)
	}
	if d := s.End(); d != 0 {
		t.Errorf("second End = %v, want 0", d)
	}
	var nilSpan *Span
	if d := nilSpan.End(); d != 0 {
		t.Errorf("nil End = %v, want 0", d)
	}
	if got := p.Breakdown(); len(got) != 1 || got[0].Count != 1 {
		t.Errorf("double End changed the aggregate: %+v", got)
	}
}

// Interleaved (non-LIFO) ends must close the right stack entries: the
// simulator's coroutine handoffs end spans out of order.
func TestInterleavedEnds(t *testing.T) {
	p := newFakePhases(time.Second)
	a := p.Start("a")
	b := p.Start("b") // nested under a
	a.End()           // a closes before b
	b.End()
	c := p.Start("c") // stack is empty again: top level
	c.End()

	byPath := map[string]int{}
	for _, ph := range p.Breakdown() {
		byPath[ph.Path] = ph.Count
	}
	for _, path := range []string{"a", "a/b", "c"} {
		if byPath[path] != 1 {
			t.Errorf("phase %q count = %d, want 1 (all: %v)", path, byPath[path], byPath)
		}
	}
}

func TestSnapshotAndFormat(t *testing.T) {
	p := newFakePhases(time.Second)
	p.Start("replay").End()
	snap := p.Snapshot()
	if len(snap) != 1 || snap[0].Path != "replay" || snap[0].Seconds != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	if s := p.Format(); s == "" || s == "no phases recorded\n" {
		t.Errorf("format = %q", s)
	}
	if s := NewPhases().Format(); s != "no phases recorded\n" {
		t.Errorf("empty format = %q", s)
	}
}
