package conformance

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"metascope"
	"metascope/internal/mmpi"
	"metascope/internal/pattern"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/vclock"
)

// mw5Spec is a master/worker run over five metahosts: the master's
// collect loop suffers Grid Late Sender from workers on four other
// metahosts, so one call path of one rank holds four pair values — the
// shape whose grid metric once summed them in hash order. At experiment
// seed 5, `metascope gen -seed 5` writes its archive with sha256
// 32288bf8cb00….
const mw5Spec = `{"name":"mw5","kernel":"masterworker","seed":3,"ranks":24,"iterations":12,
"topology":{"preset":"conformance","count":5},"work":{"base":0.2,"spread":0.15}}`

// runSpec measures a scenario document at an experiment seed, as
// `metascope gen` does.
func runSpec(t *testing.T, src string, seed int64) *metascope.Experiment {
	t.Helper()
	prog, err := scenario.Load([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	e, err := prog.Run(prog.Spec.Name, seed)
	if err != nil {
		t.Fatalf("measuring %s: %v", prog.Spec.Name, err)
	}
	return e
}

// TestGridPairsDeterministic: a grid wait split over several metahost
// pairs gives one cube, one profile and one phase profile, however often
// and by whichever path the archive is analyzed — fifty eager analyses,
// a lazy one and a live session fed round-robin chunks. A grid metric
// keeps no exclusive value of its own: its mass is exactly its pair
// children's, which sum to the pattern's mass in the profile.
func TestGridPairsDeterministic(t *testing.T) {
	t.Parallel()
	e := runSpec(t, mw5Spec, 5)
	traces, err := e.Traces()
	if err != nil {
		t.Fatal(err)
	}
	cfg := replay.Config{Scheme: vclock.Hierarchical, Title: "mw5 (hier)", EagerLimit: mmpi.DefaultEagerLimit}
	analyze := func() *replay.Result {
		res, err := replay.Analyze(traces, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := analyze()
	checkGridPairMass(t, first)
	wantCube, wantProf, wantPhases := renderArtifacts(t, first)
	same := func(how string, res *replay.Result) {
		t.Helper()
		gotCube, gotProf, gotPhases := renderArtifacts(t, res)
		for _, a := range []struct {
			name      string
			got, want []byte
		}{{"cube", gotCube, wantCube}, {"profile", gotProf, wantProf}, {"phase profile", gotPhases, wantPhases}} {
			if !bytes.Equal(a.got, a.want) {
				t.Errorf("%s: %s bytes differ from the first eager analysis", how, a.name)
			}
		}
	}
	for i := 2; i <= 50; i++ {
		same(fmt.Sprintf("eager analysis %d", i), analyze())
	}
	ar, err := e.TracesLazy()
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := replay.AnalyzeLazy(ar, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same("lazy analysis", lazy)
	live, _ := streamPlan(t, cfg, len(traces), chunkPlans(encodeRanks(t, traces))["round-robin-small"])
	same("live session", live)
}

// checkGridPairMass requires every grid metric to hold exactly 0 at every
// (call path, rank), and its pair children to sum to the pattern's mass
// in the time-resolved profile — which the ledger fills independently of
// the cube — within 1e-12 relative.
func checkGridPairMass(t *testing.T, res *replay.Result) {
	t.Helper()
	rep := res.Report
	pairs := 0
	for base := range pattern.NumPatterns {
		p := base.Gridded()
		if p == base {
			continue // no grid specialization, or a grid pattern itself
		}
		m := rep.MetricIndex(p.MetricKey())
		for c := range rep.Calls {
			for l := range rep.Locs {
				if v := rep.Value(m, c, l); v != 0 {
					t.Errorf("%s holds %g exclusively at call %d, location %d: its mass belongs to its pair children", p, v, c, l)
				}
			}
		}
		sum := 0.0
		for _, ch := range rep.MetricChildren(m) {
			sum += rep.MetricTotal(ch)
			pairs++
		}
		if want := res.Profile.SeriesTotal(p.MetricKey(), -1); math.Abs(sum-want) > 1e-12*math.Abs(want) {
			t.Errorf("%s: pair children sum to %.17g, the profile holds %.17g", p, sum, want)
		}
	}
	if pairs == 0 {
		t.Fatal("no pair metric: the run holds no grid wait to split")
	}
}
