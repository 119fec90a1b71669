// Command bench is the repository benchmark: four closed-loop
// workloads that drive metascope's public entry points from outside,
// check every operation's output, and print every metric by name and
// unit. See README.md in this directory for the tables and the
// measurement protocol.
//
//	go run ./bench                                   # all four workloads, one process each
//	go run ./bench -workload halo2d-eager -seed 42   # one workload, gated numbers
//	go run ./bench -workload halo2d-eager -trace 1   # per-layer numbers + spans file
//	go run ./bench -aa 3                             # A/A repeatability table
//
// The last line of standard output of a single-workload run is one
// JSON object {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// metricDef declares one metric: BENCHMARK.json carries the same
// table (bench_test.go asserts the two agree).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, taken untraced at GOMAXPROCS=1.
// Failures are not a metric here: they are the "failed" count of the
// result line, which must be 0.
var endToEnd = []metricDef{
	{"events_per_s", "1/s", "higher", 0.25},
	{"alloc_bytes_per_event", "B", "lower", 0.15},
	{"allocs_per_event", "count", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the ungated metrics of the -trace run. A "_ms" metric
// is the p25 time one operation spends in that layer (0 when the
// layer is not on the workload's path) or, where the operation never
// calls the layer's entry point directly, a micro rung on the same
// archive.
var perLayer = []metricDef{
	{Name: "archive.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.decode_mevents_per_s", Unit: "Mev/s", Better: "higher"},
	{Name: "trace.decode_v1_mevents_per_s", Unit: "Mev/s", Better: "higher"},
	{Name: "trace.block_next_mevents_per_s", Unit: "Mev/s", Better: "higher"},
	{Name: "trace.chunk_feed_mevents_per_s", Unit: "Mev/s", Better: "higher"},
	{Name: "trace.encode_mevents_per_s", Unit: "Mev/s", Better: "higher"},
	{Name: "trace.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "trace.v1_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "vclock.build_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.load_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.load_lazy_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.analyze_lazy_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.live_feed_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.live_finalize_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.messages", Unit: "count", Better: "lower"},
	{Name: "replay.collectives", Unit: "count", Better: "lower"},
	{Name: "replay.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "cube.write_ms", Unit: "ms", Better: "lower"},
	{Name: "cube.render_ms", Unit: "ms", Better: "lower"},
	{Name: "cube.bytes", Unit: "B", Better: "lower"},
	{Name: "profile.write_ms", Unit: "ms", Better: "lower"},
	{Name: "profile.bytes", Unit: "B", Better: "lower"},
	{Name: "phase.write_ms", Unit: "ms", Better: "lower"},
	{Name: "phase.phases", Unit: "count", Better: "higher"},
	{Name: "serve.encode_zip_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.decode_zip_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.digest_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.result_get_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.profile_get_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.session_create_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.chunk_put_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.chunk_puts", Unit: "count", Better: "lower"},
	{Name: "serve.finalize_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.session_delete_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.ops", Unit: "count", Better: "higher"},
	{Name: "harness.op_p25_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.op_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.op_min_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.span_coverage", Unit: "ratio", Better: "higher"},
	{Name: "harness.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.speedup_nproc", Unit: "x", Better: "higher"},
	{Name: "harness.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.calib_drift", Unit: "ratio", Better: "lower"},
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options selects one run of one workload.
type options struct {
	workload string
	seed     int64
	seconds  int  // sizes the fixed operation count
	ops      int  // explicit operation count (tests); 0 derives it from seconds
	trace    bool // per-layer run: spans, micro rungs, overhead
	small    bool // shrunken inputs (tests)
	spansDir string
}

func main() {
	var o options
	var trace, aa int
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four, one process each): "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 42, "input seed: the same seed generates the same archives")
	flag.IntVar(&o.seconds, "seconds", 15, "nominal length of the timed phase; fixes the operation count per workload")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer run: spans at layer boundaries, micro rungs, tracing overhead")
	flag.IntVar(&aa, "aa", 0, "run every workload N times as set A and N times as set B and compare them against the bounds")
	flag.Parse()
	o.trace = trace != 0
	o.spansDir = "bench/out"

	var err error
	switch {
	case aa > 0:
		err = runAA(o, aa, os.Stdout)
	case o.workload == "":
		err = runAll(o, os.Stdout)
	default:
		err = runOne(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints the header,
// the metric table, and the result line.
func runOne(o options, out io.Writer) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	res, env, err := run(w, o)
	if err != nil {
		return err
	}
	env.print(out)
	printMetrics(out, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// printMetrics renders every metric by name and unit, in the declared
// order of the metric tables.
func printMetrics(out io.Writer, res *result) {
	fmt.Fprintf(out, "%-34s %16s  %s\n", "metric", "value", "unit")
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(out, "%-34s %16.6g  %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	fmt.Fprintf(out, "%-34s %16d  of %d\n", "failed", res.Failed, res.Attempted)
}
