package clockbench

import (
	"testing"

	"metascope"
	"metascope/internal/measure"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

func runBench(t *testing.T, seed int64, p Params) ([]*trace.Trace, *metascope.Experiment) {
	t.Helper()
	topo := metascope.VIOLA()
	place := metascope.ViolaExperiment1Placement(topo)
	e := metascope.NewExperiment("clockbench-test", topo, place, seed)
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(func(m *measure.M) { Body(m, p) }); err != nil {
		t.Fatal(err)
	}
	traces, err := e.Traces()
	if err != nil {
		t.Fatal(err)
	}
	return traces, e
}

func TestBodyProducesExpectedMessageCount(t *testing.T) {
	p := Params{Rounds: 40, Bytes: 64, Gap: 0.01}
	traces, _ := runBench(t, 1, p)
	if len(traces) != 32 {
		t.Fatalf("%d traces", len(traces))
	}
	for _, tr := range traces {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		sends := tr.CountKind(trace.KindSend)
		recvs := tr.CountKind(trace.KindRecv)
		if sends != p.Rounds || recvs != p.Rounds {
			t.Fatalf("rank %d: %d sends / %d recvs, want %d each",
				tr.Loc.Rank, sends, recvs, p.Rounds)
		}
	}
}

func TestVaryingPairsCoverManyPartners(t *testing.T) {
	// Over n-1 rounds every process must have sent to n-1 distinct
	// partners ("varying pairs of processes", §5).
	p := Params{Rounds: 31, Bytes: 64, Gap: 0}
	traces, _ := runBench(t, 2, p)
	tr := traces[0]
	partners := map[int32]bool{}
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindSend {
			partners[ev.Peer] = true
		}
	}
	if len(partners) != 31 {
		t.Fatalf("rank 0 sent to %d distinct partners, want 31", len(partners))
	}
}

func TestViolationOrderingAcrossSchemes(t *testing.T) {
	// The core claim of Table 2, as an integration test on a reduced
	// workload: flat-single ≥ flat-interp > hierarchical == 0.
	traces, e := runBench(t, 3, Quick())
	_ = traces
	counts := map[vclock.Scheme]int{}
	for _, s := range []vclock.Scheme{vclock.FlatSingle, vclock.FlatInterp, vclock.Hierarchical} {
		res, err := e.Analyze(s)
		if err != nil {
			t.Fatal(err)
		}
		counts[s] = res.Violations
	}
	if counts[vclock.Hierarchical] != 0 {
		t.Errorf("hierarchical violations = %d, want 0 (Table 2)", counts[vclock.Hierarchical])
	}
	if counts[vclock.FlatInterp] <= counts[vclock.Hierarchical] {
		t.Errorf("flat-interp (%d) not worse than hierarchical (%d)",
			counts[vclock.FlatInterp], counts[vclock.Hierarchical])
	}
	if counts[vclock.FlatSingle] <= counts[vclock.FlatInterp] {
		t.Errorf("flat-single (%d) not worse than flat-interp (%d)",
			counts[vclock.FlatSingle], counts[vclock.FlatInterp])
	}
}

func TestDefaultAndQuickParams(t *testing.T) {
	d, q := Default(), Quick()
	if d.Rounds <= q.Rounds {
		t.Errorf("Default (%d rounds) not larger than Quick (%d)", d.Rounds, q.Rounds)
	}
	if d.Bytes <= 0 || d.Gap <= 0 {
		t.Errorf("bad defaults %+v", d)
	}
}
