//go:build !race

package conformance

import (
	"fmt"
	"math"
	"testing"

	"metascope"
	"metascope/internal/apps/clockbench"
	"metascope/internal/apps/metatrace"
	"metascope/internal/measure"
	"metascope/internal/pattern"
	"metascope/internal/replay"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// trueCorrections maps each rank's local clock onto true time in rank
// 0's time base, the base every scheme's correction targets: the
// inverse of the rank's node clock, then rank 0's.
func trueCorrections(e *metascope.Experiment) ([]vclock.LinearMap, error) {
	base := e.Clocks().ForLoc(e.Place.Loc(0)).TrueMap()
	out := make([]vclock.LinearMap, e.Place.N())
	for r := range out {
		toTrue, err := e.Clocks().ForLoc(e.Place.Loc(r)).TrueMap().Invert()
		if err != nil {
			return nil, err
		}
		out[r] = base.Compose(toTrue)
	}
	return out, nil
}

// severityError is how far a severity map lies from the truth over the
// cells of the patterns keep picks: the sum of the cells' absolute errors
// as a share of the true severity there.
func severityError(got, truth map[Cell]float64, keep func(pattern.ID) bool) float64 {
	var diff, sum float64
	for c, v := range truth {
		if keep(c.Pattern) {
			diff += math.Abs(got[c] - v)
			sum += v
		}
	}
	for c, v := range got {
		if _, ok := truth[c]; !ok && keep(c.Pattern) {
			diff += math.Abs(v)
		}
	}
	if sum == 0 {
		return 0
	}
	return diff / sum
}

// TestSeveritiesAgainstTruth grades each synchronization scheme against
// the simulator's true time on both VIOLA workloads (Experiment 1
// placement, 32 ranks) at three seeds: the reference analyzer over the
// scheme's corrections against the reference over the true clocks. It
// gates only what the paper claims and ROADMAP item 23 measured: the
// hierarchical scheme leaves no clock-condition violation, and on the
// clock benchmark its Late Sender error is below two flat offsets'. The
// other cells are logged for EXPERIMENTS.md, not gated. On these worlds,
// which the differential never draws, the replay finds what the
// reference finds under every scheme.
func TestSeveritiesAgainstTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("three seeds of two VIOLA workloads")
	}
	workloads := []struct {
		name string
		body func(e *metascope.Experiment) (func(m *measure.M), error)
	}{
		{"metatrace", func(e *metascope.Experiment) (func(m *measure.M), error) {
			p, err := metatrace.Setup(e.World(), metatrace.Default(e.Place.N()/2))
			return func(m *measure.M) { metatrace.Body(m, p) }, err
		}},
		{"clockbench", func(*metascope.Experiment) (func(m *measure.M), error) {
			return func(m *measure.M) { clockbench.Body(m, clockbench.Default()) }, nil
		}},
	}
	lateSender := func(p pattern.ID) bool { return p == pattern.LateSender }
	gridLateSender := func(p pattern.ID) bool { return p == pattern.GridLateSender }
	all := func(pattern.ID) bool { return true }
	for _, w := range workloads {
		for _, seed := range []int64{42, 1, 2} {
			t.Run(fmt.Sprintf("%s/seed=%d", w.name, seed), func(t *testing.T) {
				t.Parallel()
				topo := metascope.VIOLA()
				e := metascope.NewExperiment(w.name, topo, metascope.ViolaExperiment1Placement(topo), seed)
				if err := e.Build(); err != nil {
					t.Fatal(err)
				}
				body, err := w.body(e)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Run(body); err != nil {
					t.Fatal(err)
				}
				traces, err := e.Traces()
				if err != nil {
					t.Fatal(err)
				}
				eager := e.World().EagerLimit
				corr, err := trueCorrections(e)
				if err != nil {
					t.Fatal(err)
				}
				truth, err := ReferenceAnalyze(traces, corr, eager)
				if err != nil {
					t.Fatal(err)
				}
				lsErr := map[vclock.Scheme]float64{}
				for _, scheme := range []vclock.Scheme{vclock.FlatSingle, vclock.FlatInterp, vclock.Hierarchical} {
					ref := schemeReference(t, traces, scheme, eager)
					lsErr[scheme] = severityError(ref.Cells, truth.Cells, lateSender)
					t.Logf("%-10s seed %2d %-28v violations %6d  error %.4f %%  Late Sender %.4f %%  Grid Late Sender %.4f %%",
						w.name, seed, scheme, ref.Violations, 100*severityError(ref.Cells, truth.Cells, all),
						100*lsErr[scheme], 100*severityError(ref.Cells, truth.Cells, gridLateSender))
					if scheme == vclock.Hierarchical && ref.Violations != 0 {
						t.Errorf("%d clock-condition violations under %v, want none", ref.Violations, scheme)
					}
					res, err := replay.Analyze(traces, replay.Config{Scheme: scheme, EagerLimit: eager, Title: "truth"})
					if err != nil {
						t.Fatal(err)
					}
					cells, err := ReportCells(res.Report)
					if err != nil {
						t.Fatal(err)
					}
					if mm := ref.Compare(cells, ExactTol); len(mm) > 0 {
						t.Errorf("%v: the replay disagrees with the reference in %d cells, first %v", scheme, len(mm), mm[0])
					}
					if res.Messages != ref.Messages || res.Violations != ref.Violations {
						t.Errorf("%v: the replay counts %d messages and %d violations, the reference %d and %d",
							scheme, res.Messages, res.Violations, ref.Messages, ref.Violations)
					}
				}
				if w.name == "clockbench" && lsErr[vclock.Hierarchical] >= lsErr[vclock.FlatInterp] {
					t.Errorf("Late Sender error under %v %.4f %% is not below %v's %.4f %%", vclock.Hierarchical,
						100*lsErr[vclock.Hierarchical], vclock.FlatInterp, 100*lsErr[vclock.FlatInterp])
				}
			})
		}
	}
}

// schemeReference runs the reference analyzer over a scheme's
// corrections.
func schemeReference(t *testing.T, traces []*trace.Trace, scheme vclock.Scheme, eager int) *Reference {
	t.Helper()
	corr, err := referenceCorrections(traces, scheme)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReferenceAnalyze(traces, corr, eager)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}
