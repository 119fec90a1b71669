package replay_test

import (
	"bytes"
	"testing"

	"metascope/internal/conformance"
	"metascope/internal/pattern"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// artifacts renders the report, profile and phase profile of a result.
func artifacts(t *testing.T, res *replay.Result) (report, prof, phases []byte) {
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

// TestPostPassDeterminism: the parallel wait-state post-pass must be a
// pure reordering of the sequential reference — byte-identical report,
// profile and phase artifacts — on the two late-sender conformance
// scenarios (plain and grid deposits) and on a generated many-rank
// kernel. Referenced by script/check.sh as the determinism gate.
func TestPostPassDeterminism(t *testing.T) {
	t.Parallel()
	lateSender := conformance.Scenario{Name: "late-sender", Base: pattern.LateSender,
		Delays: []float64{0.137, 0}, Align: 1.0, Bytes: 2048}
	scenarioTraces := func(name string, grid bool) func(*testing.T) []*trace.Trace {
		return func(t *testing.T) []*trace.Trace {
			s := lateSender
			s.Name, s.Grid = name, grid
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
			return traces
		}
	}
	for _, tc := range []struct {
		name   string
		traces func(*testing.T) []*trace.Trace
	}{
		{"late-sender-grid", scenarioTraces("late-sender-grid", true)},
		{"late-sender-intra", scenarioTraces("late-sender-intra", false)},
		{"halo2d", func(t *testing.T) []*trace.Trace {
			prog, err := scenario.LoadLibrary("halo2d")
			if err != nil {
				t.Fatal(err)
			}
			e, err := prog.Run("pp-halo2d", 5)
			if err != nil {
				t.Fatal(err)
			}
			traces, err := e.Traces()
			if err != nil {
				t.Fatal(err)
			}
			return traces
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			traces := tc.traces(t)
			par := replay.Config{Scheme: vclock.Hierarchical, Title: "pp-" + tc.name}
			seqRes, err := replay.Analyze(traces, replay.WithSequentialPostPass(par))
			if err != nil {
				t.Fatal(err)
			}
			parRes, err := replay.Analyze(traces, par)
			if err != nil {
				t.Fatal(err)
			}
			rSeq, pSeq, hSeq := artifacts(t, seqRes)
			rPar, pPar, hPar := artifacts(t, parRes)
			if !bytes.Equal(rSeq, rPar) {
				t.Errorf("report bytes differ between sequential and parallel post-pass (%d vs %d)",
					len(rSeq), len(rPar))
			}
			if !bytes.Equal(pSeq, pPar) {
				t.Errorf("profile bytes differ between sequential and parallel post-pass (%d vs %d)",
					len(pSeq), len(pPar))
			}
			if !bytes.Equal(hSeq, hPar) {
				t.Errorf("phase profile bytes differ between sequential and parallel post-pass (%d vs %d)",
					len(hSeq), len(hPar))
			}
		})
	}
}
