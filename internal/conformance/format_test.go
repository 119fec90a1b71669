package conformance

import (
	"bytes"
	"testing"

	"metascope/internal/replay"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// runArtifacts runs one scenario end to end under the given on-disk
// trace format and returns the rendered report, profile, and phase
// profile bytes.
func runArtifacts(t *testing.T, s Scenario, f trace.Format, cfg replay.Config) (report, prof, phases []byte) {
	t.Helper()
	s.Format = f
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
	res, err := replay.Analyze(traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return renderArtifacts(t, res)
}

// TestFormatArtifactEquality: the trace encoding is a transport detail.
// The same scenario measured to v1 and to v2 archives must produce
// byte-identical analysis artifacts.
func TestFormatArtifactEquality(t *testing.T) {
	t.Parallel()
	for _, s := range []Scenario{
		oracleScenarios()[1],  // late-sender grid
		oracleScenarios()[4],  // wait-barrier intra
		oracleScenarios()[11], // late-broadcast grid
	} {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			cfg := replay.Config{Scheme: vclock.Hierarchical, Title: "fmt-" + s.Name}
			r1, p1, h1 := runArtifacts(t, s, trace.FormatV1, cfg)
			r2, p2, h2 := runArtifacts(t, s, trace.FormatV2, cfg)
			if !bytes.Equal(r1, r2) {
				t.Errorf("report bytes differ between v1 and v2 archives (%d vs %d)", len(r1), len(r2))
			}
			if !bytes.Equal(p1, p2) {
				t.Errorf("profile bytes differ between v1 and v2 archives (%d vs %d)", len(p1), len(p2))
			}
			if !bytes.Equal(h1, h2) {
				t.Errorf("phase profile bytes differ between v1 and v2 archives (%d vs %d)", len(h1), len(h2))
			}
		})
	}
}

// TestLazyArtifactEquality: analyzing a v2 archive through the
// zero-copy lazy block cursor must be indistinguishable from fully
// materializing every trace first.
func TestLazyArtifactEquality(t *testing.T) {
	t.Parallel()
	s := oracleScenarios()[1] // late-sender grid: exercises cross-metahost matching
	s.Format = trace.FormatV2
	e, err := s.NewExperiment(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(s.Body); err != nil {
		t.Fatal(err)
	}
	cfg := replay.Config{Scheme: vclock.Hierarchical, Title: "lazy-eq"}

	traces, err := e.Traces()
	if err != nil {
		t.Fatal(err)
	}
	want, err := replay.Analyze(traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantReport, wantProf, wantPhases := renderArtifacts(t, want)

	ar, err := e.TracesLazy()
	if err != nil {
		t.Fatal(err)
	}
	got, err := replay.AnalyzeLazy(ar, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotReport, gotProf, gotPhases := renderArtifacts(t, got)

	if !bytes.Equal(gotReport, wantReport) {
		t.Errorf("lazy report bytes differ from materialized (%d vs %d)", len(gotReport), len(wantReport))
	}
	if !bytes.Equal(gotProf, wantProf) {
		t.Errorf("lazy profile bytes differ from materialized (%d vs %d)", len(gotProf), len(wantProf))
	}
	if !bytes.Equal(gotPhases, wantPhases) {
		t.Errorf("lazy phase profile bytes differ from materialized (%d vs %d)", len(gotPhases), len(wantPhases))
	}
	if mm := CheckOracle(got.Report, s, MasterScale(e), ExactTol); len(mm) != 0 {
		t.Errorf("lazy analysis fails the oracle: %v", mm)
	}
}
