// Package scenario is the declarative workload front-end of the
// toolchain: a scenario document — one JSON object, decoded by
// encoding/json straight into Spec — describing a metacomputer
// (metahosts, link latencies and bandwidths, clock models) together
// with an application kernel, its parameters, and fault injection
// (stragglers, bursty WAN cross-traffic windows, trace truncation). A
// compiler lowers a scenario onto internal/sim + internal/mmpi +
// internal/topology, producing a measured trace archive through the
// normal pipeline, and derives a closed-form expectation of every
// wait-state severity the analyzer must recover, so the conformance
// oracle can verify generated workloads exactly as it verifies the
// planted single-pattern scenarios.
//
// The kernels are aligned-step workloads: each global step starts at a
// pre-computed simulation time every rank sleeps to, performs
// deterministic per-rank work drawn from the scenario's own PRNG, and
// issues exactly one blocking communication construct. Because the
// replay analyzer computes wait states from region-enter deltas, the
// resulting severities are pure functions of the work tables —
// independent of transfer times, latency modelling, and cross-traffic
// — and exact on the deterministic conformance testbed.
package scenario

import (
	"fmt"

	"metascope/internal/trace"
)

// Error is a structured scenario error: where in the document it was
// detected (1-based source line when known, dotted field path) and
// what went wrong. Parsing and validation return *Error values and
// never panic, whatever the input.
type Error struct {
	// Line is the 1-based document line of a syntax error or a
	// wrong-typed value. It is 0 when the decoder reports no position:
	// unknown keys, anything inside a list element, and every range or
	// consistency error from Validate and Compile.
	Line int
	Path string // dotted field path, e.g. "topology.metahosts[1].clock"
	Msg  string
}

func (e *Error) Error() string {
	switch {
	case e.Line > 0 && e.Path != "":
		return fmt.Sprintf("scenario: line %d: %s: %s", e.Line, e.Path, e.Msg)
	case e.Line > 0:
		return fmt.Sprintf("scenario: line %d: %s", e.Line, e.Msg)
	case e.Path != "":
		return fmt.Sprintf("scenario: %s: %s", e.Path, e.Msg)
	default:
		return "scenario: " + e.Msg
	}
}

func errAt(line int, path, format string, args ...interface{}) *Error {
	return &Error{Line: line, Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Kernel names accepted by the "kernel" field.
const (
	KernelHalo1D       = "halo1d"
	KernelHalo2D       = "halo2d"
	KernelMasterWorker = "masterworker"
	KernelAMR          = "amr"
	KernelStraggler    = "straggler"
)

// Kernels lists every shipped kernel in display order.
func Kernels() []string {
	return []string{KernelHalo1D, KernelHalo2D, KernelMasterWorker, KernelAMR, KernelStraggler}
}

// Spec is a fully decoded scenario document. The json tags are the
// document's keys. Parse decodes a document over its defaults: a key the
// document leaves out keeps its default, while a value it states, zero
// included, is judged by Validate — "schedule": {"slack": 0} is refused,
// not defaulted. So json.Marshal of a Spec that Parse returned is a
// document Parse accepts, as long as Format is left at its default, which
// is omitted (a set Format marshals as a number, not the "v1"/"v2" string
// a document carries). A Spec built by hand marshals what it leaves unset
// as zeros, which Validate refuses where zero is out of range. A Spec
// obtained from Parse is always internally consistent.
type Spec struct {
	Name       string       `json:"name"`
	Kernel     string       `json:"kernel"`
	Seed       int64        `json:"seed"`
	Format     trace.Format `json:"format,omitempty"`
	Ranks      int          `json:"ranks"`
	Iterations int          `json:"iterations"`
	Bytes      int          `json:"bytes"` // p2p payload; must stay under the eager limit

	Topology  TopoSpec     `json:"topology"`
	Placement []PlaceSpec  `json:"placement"`
	Schedule  ScheduleSpec `json:"schedule"`
	Work      WorkSpec     `json:"work"`
	Params    ParamSpec    `json:"params"`
	Faults    FaultSpec    `json:"faults"`
}

// TopoSpec selects either a named preset or a custom metahost list.
type TopoSpec struct {
	Preset    string         `json:"preset"` // "conformance" (default when Metahosts is empty)
	Count     int            `json:"count"`  // metahost count for the preset
	Metahosts []MetahostSpec `json:"metahosts"`
	External  *LinkSpec      `json:"external"`  // override for inter-metahost links
	Asymmetry bool           `json:"asymmetry"` // enable per-route latency asymmetry (breaks exactness)
}

// MetahostSpec describes one custom metahost.
type MetahostSpec struct {
	Name      string    `json:"name"`
	Nodes     int       `json:"nodes"`
	CPUs      int       `json:"cpus"`
	Speed     float64   `json:"speed"` // relative execution speed (work units per second)
	Internal  LinkSpec  `json:"internal"`
	NodeLocal *LinkSpec `json:"node_local"`
	Clock     ClockSpec `json:"clock"`
}

// LinkSpec describes one network segment in human units.
type LinkSpec struct {
	LatencyUS     float64 `json:"latency_us"` // one-way latency mean, microseconds
	JitterUS      float64 `json:"jitter_us"`  // latency standard deviation, microseconds
	BandwidthGbps float64 `json:"bandwidth_gbps"`
	Dedicated     *bool   `json:"dedicated"` // nil = true (no cross-traffic spikes)
}

// ClockSpec describes a metahost's node clocks in human units.
type ClockSpec struct {
	MaxOffsetMS   float64 `json:"max_offset_ms"`
	MaxDriftPPM   float64 `json:"max_drift_ppm"`
	GranularityUS float64 `json:"granularity_us"`
	Synchronized  bool    `json:"synchronized"`
}

// PlaceSpec places a block of ranks: nodes × per_node processes on the
// given metahost starting at first_node.
type PlaceSpec struct {
	Metahost  int `json:"metahost"`
	FirstNode int `json:"first_node"`
	Nodes     int `json:"nodes"`
	PerNode   int `json:"per_node"`
}

// ScheduleSpec tunes the aligned-step schedule.
type ScheduleSpec struct {
	Align float64 `json:"align"` // absolute start of the first step (after init sync)
	Slack float64 `json:"slack"` // per-step headroom beyond the worst-case work
}

// WorkSpec is the base per-rank work model in work units (seconds on a
// speed-1.0 machine): base plus a uniform [0, spread) draw from the
// scenario PRNG per rank and step.
type WorkSpec struct {
	Base   float64 `json:"base"`
	Spread float64 `json:"spread"`
}

// ParamSpec holds kernel-specific parameters; unused fields are
// ignored by kernels that do not consume them.
type ParamSpec struct {
	PX            int     `json:"px"` // halo2d process grid
	PY            int     `json:"py"`
	Prep          float64 `json:"prep"` // masterworker: mean per-task handout cost
	PrepSpread    float64 `json:"prep_spread"`
	Collect       float64 `json:"collect"` // masterworker: mean per-result collect cost
	CollectSpread float64 `json:"collect_spread"`
	Window        int     `json:"window"` // amr: refinement window width (ranks)
	Amp           float64 `json:"amp"`    // amr: extra work inside the window
}

// FaultSpec is the injected-fault section.
type FaultSpec struct {
	Stragglers   []StragglerSpec `json:"stragglers"`
	CrossTraffic []BurstSpec     `json:"cross_traffic"`
	Truncate     []TruncateSpec  `json:"truncate"`
}

// StragglerSpec multiplies one rank's work by Factor over the
// iteration range [From, To] (inclusive, 0-based).
type StragglerSpec struct {
	Rank   int     `json:"rank"`
	Factor float64 `json:"factor"`
	From   int     `json:"from"`
	To     int     `json:"to"`
}

// BurstSpec adds ExtraMS milliseconds of one-way latency to every
// message on links of the given class during the simulation-time
// window [From, To). Class is "external", "internal", "same-node", or
// "any".
type BurstSpec struct {
	From    float64 `json:"from"`
	To      float64 `json:"to"`
	ExtraMS float64 `json:"extra_ms"`
	Class   string  `json:"class"`
}

// TruncateSpec cuts one rank's trace file to the given fraction of its
// bytes after measurement — a rank-failure model. Analysis of the
// archive is then expected to fail with a structured decode error.
type TruncateSpec struct {
	Rank int     `json:"rank"`
	Keep float64 `json:"keep"` // fraction of bytes kept, in (0, 1)
}

// rng is a splitmix64 generator: the scenario's own deterministic
// randomness for work tables, independent of the simulation engine's
// streams so that expectations can be computed without running
// anything.
type rng struct{ s uint64 }

func newRNG(seed int64, salt string) *rng {
	s := uint64(seed)
	for _, c := range []byte(salt) {
		s = (s ^ uint64(c)) * 1099511628211 // FNV-1a step
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
