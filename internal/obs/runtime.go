package obs

import "runtime"

// RegisterRuntimeGauges registers five Go runtime gauges on reg — heap
// sizes, goroutine count and garbage-collector activity — whose values
// are read from the runtime each time reg is rendered, so a long
// analysis run's memory trajectory shows up next to the tool's own
// metrics on /metrics and in the -metrics-out snapshot without anything
// sampling in the background. Registering them again is a no-op.
func RegisterRuntimeGauges(reg *Registry) {
	memStat := func(name, help string, get func(*runtime.MemStats) float64) {
		reg.GaugeFunc(name, help, func() float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return get(&m)
		})
	}
	memStat("go_heap_alloc_bytes", "Bytes of allocated heap objects",
		func(m *runtime.MemStats) float64 { return float64(m.HeapAlloc) })
	memStat("go_heap_sys_bytes", "Bytes of heap memory obtained from the OS",
		func(m *runtime.MemStats) float64 { return float64(m.HeapSys) })
	memStat("go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause",
		func(m *runtime.MemStats) float64 { return float64(m.PauseTotalNs) / 1e9 })
	memStat("go_gc_cycles_total", "Completed GC cycles",
		func(m *runtime.MemStats) float64 { return float64(m.NumGC) })
	reg.GaugeFunc("go_goroutines", "Number of live goroutines",
		func() float64 { return float64(runtime.NumGoroutine()) })
}
