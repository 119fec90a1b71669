package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"metascope/internal/obs"
	"metascope/internal/stats"
)

// setupRounds is how often set-up is repeated; setup_s is the median.
const setupRounds = 3

// span is one timed interval at a layer boundary. Spans of one
// operation share its op id; parent is the index of the enclosing
// span in the spans file, -1 for the operation's own span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how the untraced operations run.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int // innermost open span, -1 outside an operation
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: t.cur, Op: t.op})
	t.cur = len(t.spans) - 1
	return t.cur
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.cur = t.spans[i].Parent
}

// perOp sums span durations (ms) by name within each operation and
// returns, per name, one total per traced operation; the operations'
// own spans are under "op".
func (t *tracer) perOp() map[string][]float64 {
	ops := map[int]map[string]float64{}
	for _, s := range t.spans {
		if ops[s.Op] == nil {
			ops[s.Op] = map[string]float64{}
		}
		ops[s.Op][s.Name] += float64(s.End-s.Start) / 1e6
	}
	out := map[string][]float64{}
	for _, sums := range ops {
		for name := range sums {
			out[name] = nil
		}
	}
	for _, sums := range ops {
		for name := range out {
			out[name] = append(out[name], sums[name])
		}
	}
	return out
}

// coverage is the share of the operations' time their direct child
// spans account for.
func (t *tracer) coverage() float64 {
	var ops, children int64
	for _, s := range t.spans {
		switch {
		case s.Parent == -1:
			ops += s.End - s.Start
		case t.spans[s.Parent].Parent == -1:
			children += s.End - s.Start
		}
	}
	if ops == 0 {
		return 0
	}
	return float64(children) / float64(ops)
}

func (t *tracer) writeFile(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+workload+".json"), data, 0o644)
}

// timing is what timed observed.
type timing struct {
	ms          []float64 // wall time per untraced operation
	tracedMS    []float64 // wall time per traced operation
	peakMB      []float64 // resident-set high-water mark of each operation; empty if the kernel refuses the reset
	failed      int
	allocBytes  uint64 // over the timed parts only
	allocCount  uint64
	firstErrors []string
}

// timed runs n operations of op back to back. Each is preceded by an
// untimed collection so that every operation starts from the same heap,
// timed on its own, and verified after its clock has stopped. With a
// tracer every second operation records spans; the untraced half is
// the baseline the tracing overhead is measured against.
func timed(op operation, n int, tr *tracer) timing {
	var t timing
	var before, after runtime.MemStats
	for i := 0; i < n; i++ {
		var otr *tracer
		if tr != nil && i%2 == 1 {
			otr = tr
			tr.op = i
		}
		runtime.GC()
		resettable := resetPeakRSS()
		runtime.ReadMemStats(&before)
		s := otr.begin("op")
		start := time.Now()
		err := op.run(otr)
		d := time.Since(start)
		otr.end(s)
		runtime.ReadMemStats(&after)
		t.allocBytes += after.TotalAlloc - before.TotalAlloc
		t.allocCount += after.Mallocs - before.Mallocs
		if resettable {
			t.peakMB = append(t.peakMB, peakRSSMB())
		}
		if err == nil {
			err = op.verify()
		}
		if err != nil {
			t.failed++
			if len(t.firstErrors) < 3 {
				t.firstErrors = append(t.firstErrors, fmt.Sprintf("op %d: %v", i, err))
			}
		}
		if otr != nil {
			t.tracedMS = append(t.tracedMS, float64(d)/1e6)
		} else {
			t.ms = append(t.ms, float64(d)/1e6)
		}
	}
	return t
}

// run is one measurement of one workload in this process: set-up
// (repeated, median reported), the timed phase at GOMAXPROCS=1, and in
// a -trace run the parallel speed-up probe and the micro rungs.
func run(w workload, o options) (*result, *environment, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	env := newEnvironment(w, o)
	rec := obs.NewRecorder()
	rec.Log.SetLevel(obs.LevelWarn) // the service's per-job info lines are not under test
	defer rec.Close()

	// Set-up, setupRounds times from scratch: generate the input from
	// the seed, build the reference analysis, start the server, run
	// the warm-up operations. The last round's state is the one timed.
	var (
		in     *input
		op     operation
		setups []float64
	)
	for round := 0; round < setupRounds; round++ {
		if op != nil {
			if err := op.close(); err != nil {
				return nil, nil, err
			}
			op = nil
			runtime.GC()
		}
		start := time.Now()
		next, err := buildInput(w.input, o.seed, o.small)
		if err != nil {
			return nil, nil, fmt.Errorf("building input %s: %w", w.input, err)
		}
		if in != nil && next.digest != in.digest {
			return nil, nil, fmt.Errorf("input %s is not a function of the seed: digests %s and %s", w.input, in.digest, next.digest)
		}
		in = next
		if op, err = w.setup(in, rec); err != nil {
			return nil, nil, fmt.Errorf("set-up of %s: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { op.close() }()
	env.events, env.archiveBytes, env.digest = in.events, in.bytes, in.digest

	// Set-up's garbage must not count as the operations' memory.
	debug.FreeOSMemory()
	env.calibBefore = calibrate(o.small)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	start := time.Now()
	t := timed(op, env.ops, tr)
	env.timedSeconds = time.Since(start).Seconds()
	env.setupSeconds = setups
	// The median of the operations' own high-water marks: one
	// collector overshoot in a hundred operations moves a maximum, not
	// a median, and memory that grows with every operation still shows.
	peakMB := peakRSSMB()
	if env.hwmReset = len(t.peakMB) == env.ops; env.hwmReset {
		peakMB = stats.Quantile(t.peakMB, 0.5)
	}
	env.calibAfter = calibrate(o.small)
	for _, e := range t.firstErrors {
		fmt.Fprintln(os.Stderr, "bench:", w.name, e)
	}

	res := &result{Correct: t.failed == 0, Attempted: env.ops, Failed: t.failed, Metrics: map[string]value{}}
	set := func(defs []metricDef, name string, v float64) {
		for _, d := range defs {
			if d.Name == name {
				res.Metrics[name] = value{Value: v, Unit: d.Unit}
				return
			}
		}
		panic("undeclared metric " + name)
	}
	p25 := stats.Quantile(t.ms, 0.25)
	if !o.trace {
		processed := float64(in.events) * float64(env.ops)
		set(endToEnd, "events_per_s", float64(in.events)/(p25/1e3))
		set(endToEnd, "alloc_bytes_per_event", float64(t.allocBytes)/processed)
		set(endToEnd, "allocs_per_event", float64(t.allocCount)/processed)
		set(endToEnd, "peak_rss_mb", peakMB)
		set(endToEnd, "setup_s", stats.Quantile(setups, 0.5))
		return res, env, nil
	}

	layer := func(name string, v float64) { set(perLayer, name, v) }
	perOp := tr.perOp()
	for _, d := range perLayer {
		if span, ok := strings.CutSuffix(d.Name, "_ms"); ok {
			// A layer off this workload's path costs it nothing; the
			// micro rungs below replace the zeros they measure.
			layer(d.Name, 0)
			if ms := perOp[span]; ms != nil {
				layer(d.Name, stats.Quantile(ms, 0.25))
			}
		}
	}
	puts := 0
	for _, s := range tr.spans {
		if s.Name == "serve.chunk_put" {
			puts++
		}
	}
	layer("serve.chunk_puts", float64(puts)/float64(len(t.tracedMS)))
	layer("harness.ops", float64(env.ops))
	layer("harness.op_p25_ms", p25)
	layer("harness.op_p50_ms", stats.Quantile(t.ms, 0.5))
	layer("harness.op_p90_ms", stats.Quantile(t.ms, 0.9))
	layer("harness.op_min_ms", slices.Min(t.ms))
	layer("harness.span_coverage", tr.coverage())
	layer("harness.trace_overhead_share", stats.Quantile(t.tracedMS, 0.25)/p25-1)
	layer("harness.calib_ms", env.calibBefore)
	layer("harness.calib_drift", env.calibAfter/env.calibBefore-1)

	// Parallel speed-up is reported, never gated: on a 2-vCPU shared
	// box the second processor is worth ~1.1x and mostly noise.
	runtime.GOMAXPROCS(env.nproc)
	par := timed(op, (env.ops+3)/4, nil)
	runtime.GOMAXPROCS(1)
	res.Failed += par.failed
	res.Attempted += len(par.ms)
	res.Correct = res.Failed == 0
	layer("harness.speedup_nproc", p25/stats.Quantile(par.ms, 0.25))

	measured := func(name string) bool { return perOp[strings.TrimSuffix(name, "_ms")] != nil }
	if err := rungs(in, op.reference(), o.small, measured, layer); err != nil {
		return nil, nil, fmt.Errorf("micro rungs: %w", err)
	}
	if err := tr.writeFile(o.spansDir, w.name); err != nil {
		return nil, nil, err
	}
	return res, env, nil
}
