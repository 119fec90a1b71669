package phase_test

import (
	"fmt"
	"reflect"
	"testing"

	"metascope/internal/phase"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// opLogs rebuilds the op logs the replay sweep records for traces under
// scheme: one op per completed non-user region instance, in corrected
// time, in exit order.
func opLogs(t *testing.T, traces []*trace.Trace, scheme vclock.Scheme) [][]phase.Op {
	t.Helper()
	corr, err := replay.BuildCorrections(traces, scheme)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]phase.Op, len(traces))
	for r, tr := range traces {
		regions := trace.NewRegionTable(tr.Regions)
		var open []float64 // the enter times of the open regions
		for _, ev := range tr.Events {
			ct := corr[r].Map.Apply(ev.Time)
			switch ev.Kind {
			case trace.KindEnter:
				open = append(open, ct)
			case trace.KindExit:
				enter := open[len(open)-1]
				open = open[:len(open)-1]
				if reg := regions.Lookup(ev.Region); reg.Kind != trace.RegionUser {
					rows[r] = append(rows[r], phase.Op{Enter: enter, Exit: ct, Sig: phase.SigOf(reg.Name)})
				}
			}
		}
	}
	return rows
}

// TestDetectMatchesReferenceOnLibrary holds Detect to its definition on
// the op logs of every library scenario, at its own seed and two more; a
// scenario that cuts a trace file is measured without the cut. The
// rebuilt logs are the replay's own as far as the segmentation can tell:
// Detect over them gives the phase table of the analysis's phase profile.
func TestDetectMatchesReferenceOnLibrary(t *testing.T) {
	for _, name := range scenario.LibraryNames() {
		prog, err := scenario.LoadLibrary(name)
		if err != nil {
			t.Fatal(err)
		}
		prog.Spec.Faults.Truncate = nil
		for _, seed := range []int64{prog.Spec.Seed, 1, 2} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				testDetectOnScenario(t, prog, seed)
			})
		}
	}
}

// testDetectOnScenario measures one scenario at one seed and holds
// Detect to its definition on the op logs of its analysis.
func testDetectOnScenario(t *testing.T, prog *scenario.Program, seed int64) {
	e, err := prog.Run(prog.Spec.Name, seed)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := e.Traces()
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Analyze(vclock.Hierarchical)
	if err != nil {
		t.Fatal(err)
	}
	rows := opLogs(t, traces, vclock.Hierarchical)
	logs := make([]phase.Log, len(rows))
	for r, ops := range rows {
		logs[r] = phase.Log{ops}
	}
	got := phase.Detect(logs)
	if want := phase.ReferenceDetect(rows); !reflect.DeepEqual(got, want) {
		t.Fatalf("Detect differs from its definition:\n got %+v\nwant %+v", got, want)
	}
	rebuilt := phase.NewAccumulator(got, len(traces)).Snapshot(res.Phases.Title)
	if len(rebuilt.Phases) == len(res.Phases.Phases) {
		for i := range rebuilt.Phases {
			rebuilt.Phases[i].Rows = res.Phases.Phases[i].Rows // the severities are not the ops'
		}
	}
	if !reflect.DeepEqual(rebuilt, res.Phases) {
		t.Fatalf("the rebuilt op logs segment into %d phases (period %d), the analysis into %d (period %d)",
			got.Phases(), got.Period, len(res.Phases.Phases), res.Phases.Period)
	}
	t.Logf("%d ranks, %d phases, period %d", len(traces), got.Phases(), got.Period)
}
