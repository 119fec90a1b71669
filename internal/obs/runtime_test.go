package obs

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestRuntimeSamplerRegistersGauges(t *testing.T) {
	reg := NewRegistry()
	s := StartRuntimeSampler(reg, time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	s.Stop()
	s.Stop() // idempotent

	got := make(map[string]float64)
	for _, fam := range reg.Snapshot() {
		for _, series := range fam.Series {
			got[fam.Name] = series.Value
		}
	}
	for _, name := range []string{
		"go_heap_alloc_bytes", "go_heap_sys_bytes", "go_goroutines",
		"go_gc_pause_seconds_total", "go_gc_cycles_total",
	} {
		v, ok := got[name]
		if !ok {
			t.Errorf("gauge %s not registered", name)
			continue
		}
		if name == "go_heap_alloc_bytes" || name == "go_goroutines" {
			if v <= 0 {
				t.Errorf("%s = %g, want > 0", name, v)
			}
		}
	}
}

func TestRuntimeSamplerNilStop(t *testing.T) {
	var s *RuntimeSampler
	s.Stop() // must not panic
}

// samplerGoroutines counts the live goroutines StartRuntimeSampler
// started, by their creator frame in a dump of all stacks. A global
// runtime.NumGoroutine() delta would also count whatever goroutines
// earlier tests of a shuffled run are still winding down.
func samplerGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "created by metascope/internal/obs.StartRuntimeSampler")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestRecorderCloseStopsSampler is the sampler-shutdown leak check
// (the analogue of the replay package's goroutine-leak tests): a
// sampler started through the recorder must not outlive Close.
func TestRecorderCloseStopsSampler(t *testing.T) {
	rec := NewRecorder()
	for i := 0; i < 3; i++ {
		rec.StartRuntimeSampler(time.Millisecond)
	}
	if running := samplerGoroutines(); running != 3 {
		t.Fatalf("%d sampler goroutines running, want 3", running)
	}
	rec.Close()
	rec.Close() // idempotent
	// Stop() waits on the sampler's done channel, which the goroutine
	// closes as its last act; poll briefly to let it leave the scheduler.
	for deadline := time.Now().Add(2 * time.Second); samplerGoroutines() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d sampler goroutines leaked after Close", samplerGoroutines())
		}
	}
}

// A sampler stopped directly and then again via Close must not
// double-close or hang.
func TestRecorderCloseAfterManualStop(t *testing.T) {
	rec := NewRecorder()
	s := rec.StartRuntimeSampler(time.Millisecond)
	s.Stop()
	rec.Close()
}
