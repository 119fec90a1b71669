//go:build !race

package sim

import "testing"

// TestSleepCycleAllocatesNothing: a Sleep — its resume queued, the
// switch to the scheduler and back — allocates nothing once the event
// queue has grown. The race detector instruments allocation, so the
// test is built without it; script/check.sh runs it by name.
func TestSleepCycleAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	allocs := -1.0
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1)
		allocs = testing.AllocsPerRun(100, func() { p.Sleep(1) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a Sleep cycle allocates %v objects, want 0", allocs)
	}
}
