// Package obs is metascope's self-instrumentation layer. The paper's
// analyzer is itself a parallel program whose replay phase exchanges
// data over the same wide-area links it diagnoses (§4); this package
// makes the toolchain report its own runtime behavior the way it asks
// applications to report theirs.
//
// Three dependency-free facilities, bundled by Recorder:
//
//   - a concurrency-safe metrics Registry (counters, gauges,
//     fixed-bucket histograms; labeled families; Prometheus text
//     exposition and a stable JSON snapshot),
//   - lightweight phase spans (Phases.Start → Span.End) that nest and
//     aggregate into a per-run phase breakdown (build, measure, sync,
//     archive, replay, pattern-search, render),
//   - a leveled structured (key=value) Logger, log/slog's text handler
//     without time stamps, replacing ad-hoc log/fmt use in the CLIs.
//
// Library layers accept an optional *Recorder and fall back to the
// process-wide Default, so instrumentation is always on but tests can
// isolate their own recorders.
package obs

import "metascope/internal/obs/flight"

// Recorder bundles the observability facilities for one run (or for
// the whole process, in the case of Default).
type Recorder struct {
	Reg    *Registry
	Phases *Phases
	Log    *Logger
	// Flight is the event-granular flight recorder (always non-nil,
	// created disabled; Flight.Enable turns retention on). Aggregates
	// go to Reg, timelines go here.
	Flight *flight.Recorder
}

// NewRecorder creates an isolated recorder with an empty registry,
// empty phase tree, a disabled flight recorder, and an Info-level
// logger writing to stderr.
func NewRecorder() *Recorder {
	return &Recorder{
		Reg:    NewRegistry(),
		Phases: NewPhases(),
		Log:    NewLogger(nil),
		Flight: flight.New(),
	}
}

// Close stops the flight recorder retaining events. Metrics, phases,
// recorded flight events, and the logger stay readable; Close is
// idempotent.
func (r *Recorder) Close() { r.Flight.Disable() }

// Default is the process-wide recorder used by the package-level
// helpers and by every layer that is not handed an explicit Recorder.
var Default = NewRecorder()

// OrDefault resolves an optional recorder: nil selects Default.
func OrDefault(r *Recorder) *Recorder {
	if r == nil {
		return Default
	}
	return r
}

// Shared histogram bucket boundaries, chosen once so the same
// measurement is comparable across packages and runs.
var (
	// BytesBuckets spans 64 B … 64 MiB exponentially; used for replay
	// communication volumes and trace sizes.
	BytesBuckets = []float64{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}
	// SecondsBuckets spans 1 µs … 10 s; used for protocol step and
	// phase wall times.
	SecondsBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
	// DriftBuckets covers residual clock-correction drifts |B−1|.
	DriftBuckets = []float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3}
)
