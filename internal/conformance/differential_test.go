package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"metascope/internal/measure"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// diffWorld is one world of the randomized differential: a scenario
// document, the eager limit its run and every analysis of it use, the
// synchronization scheme, and the seed of the measured run. Rooted
// worlds run the rooted-collective kernel below instead of the document's
// kernel, on the document's topology, work and faults.
type diffWorld struct {
	Spec       scenario.Spec `json:"spec"`
	Rooted     bool          `json:"rooted,omitempty"`
	EagerLimit int           `json:"eager_limit"`
	Scheme     vclock.Scheme `json:"scheme"`
	RunSeed    int64         `json:"run_seed"`
}

func (w diffWorld) String() string {
	b, _ := json.Marshal(w)
	return string(b)
}

// measureWorld compiles the world's document — through its JSON, so
// the document is exactly what a seed file holds — and measures it. A
// world that cannot be measured is an error, which the shrinker never
// keeps.
func measureWorld(w diffWorld) ([]*trace.Trace, func() (*replay.LazyArchive, error), error) {
	doc, err := json.Marshal(w.Spec)
	if err != nil {
		return nil, nil, err
	}
	sp, err := scenario.Parse(doc)
	if err != nil {
		return nil, nil, fmt.Errorf("world cannot be measured: %v", err)
	}
	prog, err := sp.Compile()
	if err != nil {
		return nil, nil, fmt.Errorf("world cannot be measured: %v", err)
	}
	e, err := prog.NewExperiment("differential", w.RunSeed)
	if err != nil {
		return nil, nil, fmt.Errorf("world cannot be measured: %v", err)
	}
	e.World().EagerLimit = w.EagerLimit
	body := prog.Body
	if w.Rooted {
		body = rootedBody(sp)
	}
	if err := e.Run(body); err != nil {
		return nil, nil, fmt.Errorf("world cannot be measured: %v", err)
	}
	traces, err := e.Traces()
	if err != nil {
		return nil, nil, err
	}
	return traces, e.TracesLazy, nil
}

// rootedBody is the rooted-collective kernel: every iteration each rank
// works (the document's work draw, straggler-scaled) before each of a
// reduce and a broadcast on the world at roots that move with the
// iteration, a gather, a scatter, an allreduce and a barrier on its half
// of a split world, one ring message of the document's payload and two
// small ones its neighbour takes in the reverse order. No
// step is aligned, so instances of the two communicators interleave and
// a fast rank runs ahead into the next one — what the replay's gathers
// must keep apart.
func rootedBody(sp *scenario.Spec) func(m *measure.M) {
	return func(m *measure.M) {
		w, r, n := m.World(), m.Rank(), sp.Ranks
		rng := rand.New(rand.NewSource(sp.Seed*7919 + int64(r)))
		work := func(it int) {
			f := 1.0
			for _, s := range sp.Faults.Stragglers {
				if s.Rank == r && it >= s.From && it <= s.To {
					f *= s.Factor
				}
			}
			m.Elapse((sp.Work.Base + sp.Work.Spread*rng.Float64()) * f * 0.1)
		}
		m.InRegion("rooted", func() {
			half := w.Split(r%2, r)
			for it := range sp.Iterations {
				work(it)
				w.Reduce(it%n, 8)
				work(it)
				w.Bcast((it+1)%n, 64)
				work(it)
				half.Gather(it%half.Size(), 8)
				work(it)
				half.Scatter(half.Size()-1, 8)
				work(it)
				half.Allreduce(8)
				work(it)
				half.Barrier()
				work(it)
				right, left := (r+1)%n, (r+n-1)%n
				req := w.Isend(right, it, sp.Bytes)
				w.Recv(left, it)
				w.Wait(req)
				// Two messages taken in the reverse of their send order:
				// a late second one is a Message in Wrong Order.
				first := w.Isend(right, 1000+2*it, 8)
				work(it)
				second := w.Isend(right, 1001+2*it, 8)
				w.Recv(left, 1001+2*it)
				w.Recv(left, 1000+2*it)
				w.Waitall([]*measure.Request{first, second})
			}
		})
	}
}

// analysisTimeout bounds the preloaded and live analyses of a world,
// should one hang instead of reporting a deadlock — which a replay whose
// gathers lose their members does at once.
const analysisTimeout = 60 * time.Second

// checkWorld measures a world, runs the reference and the preloaded,
// lazy and live analyses over it, and returns every disagreement. An
// error means the world could not be measured or analyzed at all.
func checkWorld(w diffWorld) ([]string, error) {
	traces, lazy, err := measureWorld(w)
	if err != nil {
		return nil, err
	}
	ref, err := ReferenceAnalyze(traces, w.Scheme, w.EagerLimit)
	if err != nil {
		return nil, err
	}
	cfg := replay.Config{Scheme: w.Scheme, EagerLimit: w.EagerLimit, Title: "differential"}
	var problems []string
	compare := func(mode string, res *replay.Result, err error) {
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", mode, err))
			return
		}
		cells, err := ReportCells(res.Report)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", mode, err))
			return
		}
		for _, m := range ref.Compare(cells, ExactTol) {
			problems = append(problems, fmt.Sprintf("%s: %v", mode, m))
		}
		if res.Messages != ref.Messages || res.Collectives != ref.Collectives || res.Violations != ref.Violations {
			problems = append(problems, fmt.Sprintf("%s: %d messages, %d collectives, %d violations; reference %d, %d, %d",
				mode, res.Messages, res.Collectives, res.Violations, ref.Messages, ref.Collectives, ref.Violations))
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), analysisTimeout)
	res, err := replay.AnalyzeContext(ctx, traces, cfg)
	cancel()
	compare("preloaded", res, err)

	ar, err := lazy()
	if err != nil {
		return nil, err
	}
	res, err = replay.AnalyzeLazy(ar, cfg)
	compare("lazy", res, err)

	res, err = analyzeLive(traces, cfg, rand.New(rand.NewSource(w.RunSeed)))
	compare("live", res, err)
	return problems, nil
}

// analyzeLive feeds every rank's v2 image through a live session in
// chunks of random size, the ranks interleaved at random.
func analyzeLive(traces []*trace.Trace, cfg replay.Config, rng *rand.Rand) (*replay.Result, error) {
	blobs := make([][]byte, len(traces))
	for r, t := range traces {
		var buf bytes.Buffer
		if err := t.EncodeV2(&buf); err != nil {
			return nil, err
		}
		blobs[r] = buf.Bytes()
	}
	l, err := replay.NewLive(replay.LiveConfig{Config: cfg, Ranks: len(traces), WindowSec: 0.5})
	if err != nil {
		return nil, err
	}
	for left := len(blobs); left > 0; {
		r := rng.Intn(len(blobs))
		if len(blobs[r]) == 0 {
			continue
		}
		k := min(len(blobs[r]), 1+rng.Intn(4096))
		if err := l.FeedChunk(r, blobs[r][:k]); err != nil {
			return nil, err
		}
		if blobs[r] = blobs[r][k:]; len(blobs[r]) == 0 {
			left--
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), analysisTimeout)
	defer cancel()
	return l.Finalize(ctx)
}

// drawWorld draws a world of at most maxRanks ranks: a shipped kernel
// (halo1d, halo2d, masterworker, amr's barriers, straggler's allreduces)
// or the rooted-collective one, on the conformance testbed or on custom
// metahosts with jitter, drift and uneven speeds, with stragglers and
// cross-traffic, an eager limit on either side of the payload and any
// scheme.
func drawWorld(rng *rand.Rand, maxRanks int) diffWorld {
	kernels := append(scenario.Kernels(), "rooted")
	kernel := kernels[rng.Intn(len(kernels))]
	w := diffWorld{RunSeed: rng.Int63n(1 << 30), Scheme: vclock.Scheme(rng.Intn(3))}
	if kernel == "rooted" {
		w.Rooted, kernel = true, scenario.KernelAMR
	}
	sp := &w.Spec
	sp.Name, sp.Kernel, sp.Seed = "differential", kernel, rng.Int63n(1<<30)
	sp.Ranks = 2 + rng.Intn(maxRanks-1)
	if kernel == scenario.KernelHalo2D {
		sp.Params.PX = 2 + rng.Intn(2)
		sp.Params.PY = 2 + rng.Intn(max(1, min(3, maxRanks/sp.Params.PX-1)))
		sp.Ranks = sp.Params.PX * sp.Params.PY
	}
	sp.Iterations = 1 + rng.Intn(3)
	sp.Bytes = 64 + rng.Intn(65536-64)
	w.EagerLimit = sp.Bytes - 1 // the payload above: rendezvous
	if rng.Intn(2) == 0 {
		w.EagerLimit = 2 * sp.Bytes
	}
	sp.Work = scenario.WorkSpec{Base: 0.05 + 0.25*rng.Float64(), Spread: 0.2 * rng.Float64()}
	sp.Params.Prep, sp.Params.PrepSpread = 0.03, 0.02
	sp.Params.Collect, sp.Params.CollectSpread = 0.08, 0.05
	sp.Params.Amp = 0.25 * rng.Float64()
	sp.Schedule.Slack = 0.25
	count := 1 + rng.Intn(min(3, sp.Ranks))
	if rng.Intn(2) == 0 {
		sp.Topology = scenario.TopoSpec{Preset: "conformance", Count: count}
	} else {
		for i := range count {
			sp.Topology.Metahosts = append(sp.Topology.Metahosts, scenario.MetahostSpec{
				Name: fmt.Sprintf("MH%c", 'A'+i), Nodes: sp.Ranks, CPUs: 1,
				Speed:    0.5 + 1.5*rng.Float64(),
				Internal: scenario.LinkSpec{LatencyUS: 5 + 50*rng.Float64(), JitterUS: 5 * rng.Float64(), BandwidthGbps: 1 + 9*rng.Float64()},
				Clock:    scenario.ClockSpec{MaxOffsetMS: 50 * rng.Float64(), MaxDriftPPM: 50 * rng.Float64()},
			})
		}
		sp.Topology.External = &scenario.LinkSpec{LatencyUS: 200 + 2000*rng.Float64(), JitterUS: 50 * rng.Float64(), BandwidthGbps: 0.5 + 5*rng.Float64()}
	}
	stragglers := rng.Intn(3)
	if kernel == scenario.KernelStraggler {
		stragglers = max(1, stragglers)
	}
	for range stragglers {
		from := rng.Intn(sp.Iterations)
		sp.Faults.Stragglers = append(sp.Faults.Stragglers, scenario.StragglerSpec{
			Rank: rng.Intn(sp.Ranks), Factor: 1.5 + 2.5*rng.Float64(), From: from, To: from + rng.Intn(sp.Iterations-from),
		})
	}
	if rng.Intn(3) == 0 {
		// Inside [align, start of the last step] for any world of at least
		// two steps; Compile refuses it otherwise, and the draw drops it.
		from := 2.05 + 0.1*rng.Float64()
		sp.Faults.CrossTraffic = []scenario.BurstSpec{{
			From: from, To: from + 0.05 + 0.1*rng.Float64(), ExtraMS: 5 * rng.Float64(),
			Class: []string{"external", "internal", "any"}[rng.Intn(3)],
		}}
		if _, err := compileSpec(*sp); err != nil {
			sp.Faults.CrossTraffic = nil
		}
	}
	return w
}

// compileSpec compiles a copy of a document through its JSON.
func compileSpec(sp scenario.Spec) (*scenario.Program, error) {
	doc, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	return scenario.Load(doc)
}

// shrink reduces a world on which the analyses disagree with the
// reference to a smaller one that still disagrees: fewer iterations,
// ranks, metahosts, faults and work spread, the testbed for custom
// metahosts. It returns the smallest world found and its disagreements.
func shrink(w diffWorld, problems []string) (diffWorld, []string) {
	for tries := 0; tries < 60; {
		progressed := false
		for _, c := range shrinkSteps(w) {
			tries++
			if p, err := checkWorld(c); err == nil && len(p) > 0 {
				w, problems, progressed = c, p, true
				break
			}
		}
		if !progressed {
			break
		}
	}
	return w, problems
}

// shrinkSteps lists the one-step reductions of a world, smallest first.
func shrinkSteps(w diffWorld) []diffWorld {
	var out []diffWorld
	try := func(f func(sp *scenario.Spec)) {
		c := w
		c.Spec.Faults.Stragglers = append([]scenario.StragglerSpec(nil), w.Spec.Faults.Stragglers...)
		c.Spec.Topology.Metahosts = append([]scenario.MetahostSpec(nil), w.Spec.Topology.Metahosts...)
		f(&c.Spec)
		if c.Spec.Ranks >= 2 && c.Spec.Iterations >= 1 {
			for _, s := range c.Spec.Faults.Stragglers {
				if s.Rank >= c.Spec.Ranks || s.From >= c.Spec.Iterations {
					return
				}
			}
			out = append(out, c)
		}
	}
	sp := w.Spec
	if sp.Iterations > 1 {
		try(func(sp *scenario.Spec) { sp.Iterations = 1 })
		try(func(sp *scenario.Spec) { sp.Iterations-- })
	}
	if sp.Kernel == scenario.KernelHalo2D {
		try(func(sp *scenario.Spec) { sp.Params.PX--; sp.Ranks = sp.Params.PX * sp.Params.PY })
		try(func(sp *scenario.Spec) { sp.Params.PY--; sp.Ranks = sp.Params.PX * sp.Params.PY })
	} else if sp.Ranks > 2 {
		try(func(sp *scenario.Spec) { sp.Ranks = 2 })
		try(func(sp *scenario.Spec) { sp.Ranks-- })
	}
	if len(sp.Faults.CrossTraffic) > 0 {
		try(func(sp *scenario.Spec) { sp.Faults.CrossTraffic = nil })
	}
	for i := range sp.Faults.Stragglers {
		try(func(sp *scenario.Spec) {
			sp.Faults.Stragglers = append(sp.Faults.Stragglers[:i:i], sp.Faults.Stragglers[i+1:]...)
		})
	}
	if len(sp.Topology.Metahosts) > 0 {
		try(func(sp *scenario.Spec) {
			sp.Topology = scenario.TopoSpec{Preset: "conformance", Count: len(sp.Topology.Metahosts)}
		})
	} else if sp.Topology.Count > 1 {
		try(func(sp *scenario.Spec) { sp.Topology.Count-- })
	}
	if sp.Work.Spread > 0 {
		try(func(sp *scenario.Spec) { sp.Work.Spread = 0 })
	}
	return out
}

// differentialSeeds reads the checked-in worlds: shrunk counterexamples
// the differential once found, each replayed before any draw.
func differentialSeeds(t *testing.T) map[string]diffWorld {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "differential", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]diffWorld{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var w diffWorld
		if err := json.Unmarshal(b, &w); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out[strings.TrimSuffix(filepath.Base(f), ".json")] = w
	}
	if len(out) == 0 {
		t.Fatal("no differential seeds under testdata/differential")
	}
	return out
}

// TestReferenceDifferential: on randomly drawn worlds, the preloaded,
// lazy and live analyses find the severity the reference analyzer finds
// in every (pattern, call path, rank, metahost pair) cell, within
// ExactTol, and the same message, collective and violation counts. The
// checked-in seeds run first; longer draws skip under -short. A
// disagreement is shrunk and printed as a seed file to check in.
func TestReferenceDifferential(t *testing.T) {
	run := func(name string, w diffWorld) {
		t.Run(name, func(t *testing.T) {
			problems, err := checkWorld(w)
			if err != nil {
				t.Fatalf("world %v: %v", w, err)
			}
			if len(problems) == 0 {
				return
			}
			small, sp := shrink(w, problems)
			t.Errorf("analyses disagree with the reference on %v:\n  %s\nshrunk to testdata/differential/<name>.json:\n%s",
				w, strings.Join(head(problems, 8), "\n  "), small)
			for _, p := range head(sp, 8) {
				t.Log(p)
			}
		})
	}
	for name, w := range differentialSeeds(t) {
		run("seed/"+name, w)
	}
	rng := rand.New(rand.NewSource(20261018))
	for i := range 40 {
		run(fmt.Sprintf("draw/%d", i), drawWorld(rng, 8))
	}
	if testing.Short() {
		return
	}
	for i := range 12 {
		run(fmt.Sprintf("long/%d", i), drawWorld(rng, 48))
	}
}

func head(s []string, n int) []string { return s[:min(n, len(s))] }
