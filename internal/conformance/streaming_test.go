package conformance

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// feedStep is one chunk of one rank's byte stream, in feed order.
type feedStep struct {
	rank  int
	chunk []byte
}

// encodeRanks renders each trace to its wire bytes — what a measured
// process would upload to a live session, which takes v2 only.
func encodeRanks(t *testing.T, traces []*trace.Trace) [][]byte {
	t.Helper()
	out := make([][]byte, len(traces))
	for i, tr := range traces {
		var buf bytes.Buffer
		if err := tr.EncodeV2(&buf); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// chunkPlans builds the adversarial feed orders the streaming oracle
// sweeps: tiny round-robin chunks, whole ranks in order, whole ranks in
// reverse, and seeded random sizes with random rank interleaving.
func chunkPlans(blobs [][]byte) map[string][]feedStep {
	plans := make(map[string][]feedStep)

	var rr []feedStep
	offs := make([]int, len(blobs))
	for {
		progressed := false
		for r, b := range blobs {
			if offs[r] >= len(b) {
				continue
			}
			end := offs[r] + 23
			if end > len(b) {
				end = len(b)
			}
			rr = append(rr, feedStep{r, b[offs[r]:end]})
			offs[r] = end
			progressed = true
		}
		if !progressed {
			break
		}
	}
	plans["round-robin-small"] = rr

	var inOrder, reverse []feedStep
	for r, b := range blobs {
		inOrder = append(inOrder, feedStep{r, b})
	}
	for r := len(blobs) - 1; r >= 0; r-- {
		reverse = append(reverse, feedStep{r, blobs[r]})
	}
	plans["rank-complete-first"] = inOrder
	plans["reverse-ranks"] = reverse

	rng := rand.New(rand.NewSource(17))
	var random []feedStep
	offs = make([]int, len(blobs))
	for {
		live := make([]int, 0, len(blobs))
		for r := range blobs {
			if offs[r] < len(blobs[r]) {
				live = append(live, r)
			}
		}
		if len(live) == 0 {
			break
		}
		r := live[rng.Intn(len(live))]
		end := offs[r] + 1 + rng.Intn(48)
		if end > len(blobs[r]) {
			end = len(blobs[r])
		}
		random = append(random, feedStep{r, blobs[r][offs[r]:end]})
		offs[r] = end
	}
	plans["random"] = random
	return plans
}

// streamPlan feeds the plan through a live session and returns the
// result plus the emitted event stream.
func streamPlan(t *testing.T, cfg replay.Config, n int, plan []feedStep) (*replay.Result, []replay.StreamEvent) {
	t.Helper()
	var got []replay.StreamEvent
	l, err := replay.NewLive(replay.LiveConfig{
		Config:    cfg,
		Ranks:     n,
		WindowSec: 0.5,
		OnEvent:   func(ev replay.StreamEvent) { got = append(got, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range plan {
		if err := l.FeedChunk(st.rank, st.chunk); err != nil {
			t.Fatalf("feed rank %d: %v", st.rank, err)
		}
	}
	res, err := l.Finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, got
}

func renderArtifacts(t *testing.T, res *replay.Result) (report, prof, phases []byte) {
	t.Helper()
	var rb, pb, hb bytes.Buffer
	if err := res.Report.Write(&rb); err != nil {
		t.Fatal(err)
	}
	if err := res.Profile.WriteJSON(&pb); err != nil {
		t.Fatal(err)
	}
	if err := res.Phases.WriteJSON(&hb); err != nil {
		t.Fatal(err)
	}
	return rb.Bytes(), pb.Bytes(), hb.Bytes()
}

// deltaSums folds the window events of a stream into cumulative
// per-(metric, metahost) totals, adding amended deposits like any
// compliant consumer must.
func deltaSums(events []replay.StreamEvent) map[[2]interface{}]float64 {
	sums := make(map[[2]interface{}]float64)
	for _, ev := range events {
		if ev.Window == nil {
			continue
		}
		for _, d := range ev.Window.Deltas {
			sums[[2]interface{}{d.Metric, d.Metahost}] += d.Value
		}
	}
	return sums
}

// TestStreamingOracle is the streaming arm of the conformance tentpole:
// every planted pattern scenario, fed chunk-by-chunk through a live
// session under each adversarial chunking, must reproduce the
// post-mortem analysis of the same bytes byte-for-byte — identical cube
// report, identical profile artifact — and still satisfy the
// closed-form oracle. The cumulative window deltas of the stream must
// additionally sum to the final summary totals and, for the planted
// family, to the cube's per-rank totals.
func TestStreamingOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming oracle matrix is not -short")
	}
	for _, s := range oracleScenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			e, err := s.NewExperiment(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(s.Body); err != nil {
				t.Fatal(err)
			}
			traces, err := e.Traces()
			if err != nil {
				t.Fatal(err)
			}
			blobs := encodeRanks(t, traces)
			cfg := replay.Config{Scheme: vclock.Hierarchical, Title: "stream-" + s.Name}
			postTraces, err := e.Traces() // fresh copy: analysis must not see shared state
			if err != nil {
				t.Fatal(err)
			}
			post, err := replay.Analyze(postTraces, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantReport, wantProf, wantPhases := renderArtifacts(t, post)
			scale := MasterScale(e)
			if mm := CheckOracle(post.Report, s, scale, ExactTol); len(mm) != 0 {
				t.Fatalf("post-mortem baseline fails the oracle: %v", mm)
			}

			baseKey := s.Base.MetricKey()
			wantFamily := 0.0
			for r := 0; r < s.N(); r++ {
				wantFamily += post.Report.RankMetricTotal(baseKey, r)
			}
			wantByMH := make(map[int]float64)
			for r, tr := range traces {
				wantByMH[int(tr.Loc.Metahost)] += post.Report.RankMetricTotal(baseKey, r)
			}

			plans := chunkPlans(blobs)
			for name, plan := range plans {
				name, plan := name, plan
				t.Run(name, func(t *testing.T) {
					res, events := streamPlan(t, cfg, len(blobs), plan)
					gotReport, gotProf, gotPhases := renderArtifacts(t, res)
					if !bytes.Equal(gotReport, wantReport) {
						t.Errorf("report bytes differ from post-mortem (%d vs %d bytes)",
							len(gotReport), len(wantReport))
					}
					if !bytes.Equal(gotProf, wantProf) {
						t.Errorf("profile bytes differ from post-mortem (%d vs %d bytes)",
							len(gotProf), len(wantProf))
					}
					if !bytes.Equal(gotPhases, wantPhases) {
						t.Errorf("phase profile bytes differ from post-mortem (%d vs %d bytes)",
							len(gotPhases), len(wantPhases))
					}
					if mm := CheckOracle(res.Report, s, scale, ExactTol); len(mm) != 0 {
						t.Errorf("streamed result fails the oracle: %v", mm)
					}

					// Stream-internal consistency: window deltas sum to the
					// summary totals.
					sums := deltaSums(events)
					var summary *replay.SummaryEvent
					for _, ev := range events {
						if ev.Summary != nil {
							summary = ev.Summary
						}
					}
					if summary == nil {
						t.Fatal("stream carried no summary event")
					}
					seen := make(map[[2]interface{}]bool, len(summary.Totals))
					for _, tot := range summary.Totals {
						k := [2]interface{}{tot.Metric, tot.Metahost}
						seen[k] = true
						if got := sums[k]; math.Abs(got-tot.Value) > 1e-9*(1+math.Abs(tot.Value)) {
							t.Errorf("deltas for %s/mh%d sum to %.12g, summary says %.12g",
								tot.Metric, tot.Metahost, got, tot.Value)
						}
					}
					for k, v := range sums {
						if !seen[k] && math.Abs(v) > 1e-9 {
							t.Errorf("stream delta %v = %.12g missing from summary", k, v)
						}
					}

					// Stream-to-cube consistency: the planted family's
					// streamed mass equals the cube total, overall and per
					// metahost.
					gotFamily, gotByMH := 0.0, make(map[int]float64)
					for k, v := range sums {
						if k[0] == baseKey {
							gotFamily += v
							gotByMH[k[1].(int)] += v
						}
					}
					if math.Abs(gotFamily-wantFamily) > 1e-9*(1+math.Abs(wantFamily)) {
						t.Errorf("streamed %s mass %.12g, cube total %.12g", baseKey, gotFamily, wantFamily)
					}
					for mh, want := range wantByMH {
						if got := gotByMH[mh]; math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
							t.Errorf("streamed %s mass at mh%d %.12g, cube total %.12g", baseKey, mh, got, want)
						}
					}
				})
			}
		})
	}
}

// TestStreamingKernelOracle extends the streaming arm to generated
// workloads: the stencil and master-worker kernels, fed
// chunk-by-chunk through a live session under each adversarial
// chunking (v2, plus one v1 plan), must reproduce the post-mortem
// analysis byte-for-byte and still satisfy their compiled multi-key
// expectations.
func TestStreamingKernelOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming kernel matrix is not -short")
	}
	for _, name := range []string{"halo1d", "masterworker"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog, err := scenario.LoadLibrary(name)
			if err != nil {
				t.Fatal(err)
			}
			e, err := prog.Run("stream-kern-"+name, 1)
			if err != nil {
				t.Fatal(err)
			}
			scale := MasterScale(e)
			traces, err := e.Traces()
			if err != nil {
				t.Fatal(err)
			}
			blobs := encodeRanks(t, traces)
			cfg := replay.Config{Scheme: vclock.Hierarchical, Title: "stream-kern-" + name}
			postTraces, err := e.Traces()
			if err != nil {
				t.Fatal(err)
			}
			post, err := replay.Analyze(postTraces, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantReport, wantProf, wantPhases := renderArtifacts(t, post)
			if mm := CheckKernel(post.Report, prog, scale, ExactTol); len(mm) != 0 {
				t.Fatalf("post-mortem baseline fails the kernel oracle: %v", mm)
			}

			plans := chunkPlans(blobs)
			for planName, plan := range plans {
				planName, plan := planName, plan
				t.Run(planName, func(t *testing.T) {
					res, _ := streamPlan(t, cfg, len(blobs), plan)
					gotReport, gotProf, gotPhases := renderArtifacts(t, res)
					if !bytes.Equal(gotReport, wantReport) {
						t.Errorf("report bytes differ from post-mortem (%d vs %d bytes)",
							len(gotReport), len(wantReport))
					}
					if !bytes.Equal(gotProf, wantProf) {
						t.Errorf("profile bytes differ from post-mortem (%d vs %d bytes)",
							len(gotProf), len(wantProf))
					}
					if !bytes.Equal(gotPhases, wantPhases) {
						t.Errorf("phase profile bytes differ from post-mortem (%d vs %d bytes)",
							len(gotPhases), len(wantPhases))
					}
					if mm := CheckKernel(res.Report, prog, scale, ExactTol); len(mm) != 0 {
						t.Errorf("streamed result fails the kernel oracle: %v", mm)
					}
				})
			}
		})
	}
}

// TestStreamingDeterminismSmoke is the fast arm for the check gate: one
// grid scenario, one adversarial chunking, byte-identical artifacts.
func TestStreamingDeterminismSmoke(t *testing.T) {
	t.Parallel()
	s := Scenario{Name: "smoke-ls-grid", Base: oracleScenarios()[0].Base, Grid: true,
		Delays: []float64{0.137, 0}, Align: 1.0, Bytes: 2048}
	e, err := s.NewExperiment(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(s.Body); err != nil {
		t.Fatal(err)
	}
	traces, err := e.Traces()
	if err != nil {
		t.Fatal(err)
	}
	blobs := encodeRanks(t, traces)
	cfg := replay.Config{Scheme: vclock.Hierarchical, Title: "stream-smoke"}
	postTraces, err := e.Traces()
	if err != nil {
		t.Fatal(err)
	}
	post, err := replay.Analyze(postTraces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantReport, wantProf, wantPhases := renderArtifacts(t, post)
	res, _ := streamPlan(t, cfg, len(blobs), chunkPlans(blobs)["round-robin-small"])
	gotReport, gotProf, gotPhases := renderArtifacts(t, res)
	if !bytes.Equal(gotReport, wantReport) {
		t.Fatalf("smoke: report bytes differ (%d vs %d)", len(gotReport), len(wantReport))
	}
	if !bytes.Equal(gotProf, wantProf) {
		t.Fatalf("smoke: profile bytes differ (%d vs %d)", len(gotProf), len(wantProf))
	}
	if !bytes.Equal(gotPhases, wantPhases) {
		t.Fatalf("smoke: phase profile bytes differ (%d vs %d)", len(gotPhases), len(wantPhases))
	}
	if mm := CheckOracle(res.Report, s, MasterScale(e), ExactTol); len(mm) != 0 {
		t.Fatalf("smoke: streamed result fails the oracle: %v", mm)
	}
}
