package obs

import (
	"runtime"
	"strings"
	"testing"
)

// obsGoroutines counts the live goroutines started by code of this
// package, by their creator frame in a dump of all stacks.
func obsGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "created by metascope/internal/obs.")
		}
		buf = make([]byte, 2*len(buf))
	}
}

func gaugeValues(reg *Registry) map[string]float64 {
	got := make(map[string]float64)
	for _, fam := range reg.Snapshot() {
		for _, series := range fam.Series {
			got[fam.Name] = series.Value
		}
	}
	return got
}

// sink keeps the test's allocation reachable until the second render.
var sink []byte

// TestRuntimeGaugesReadAtRender pins that the runtime gauges are read
// when the registry is rendered: registering them starts no goroutine,
// twice is harmless, and an allocation between two renders shows in
// go_heap_alloc_bytes.
func TestRuntimeGaugesReadAtRender(t *testing.T) {
	reg := NewRegistry()
	before := obsGoroutines()
	RegisterRuntimeGauges(reg)
	RegisterRuntimeGauges(reg)
	if after := obsGoroutines(); after != before {
		t.Fatalf("registering the runtime gauges started %d goroutines", after-before)
	}

	first := gaugeValues(reg)
	for _, name := range []string{
		"go_heap_alloc_bytes", "go_heap_sys_bytes", "go_goroutines",
		"go_gc_pause_seconds_total", "go_gc_cycles_total",
	} {
		v, ok := first[name]
		if !ok {
			t.Errorf("gauge %s not registered", name)
			continue
		}
		if (name == "go_heap_alloc_bytes" || name == "go_goroutines") && v <= 0 {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
	sink = make([]byte, 8<<20)
	second := gaugeValues(reg)
	if first["go_heap_alloc_bytes"] == second["go_heap_alloc_bytes"] {
		t.Errorf("go_heap_alloc_bytes reads %g before and after an 8 MiB allocation", first["go_heap_alloc_bytes"])
	}
	sink = nil

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE go_goroutines gauge\ngo_goroutines ") {
		t.Errorf("exposition lacks go_goroutines:\n%s", b.String())
	}
}
