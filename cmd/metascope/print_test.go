package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"metascope/internal/conformance"
	"metascope/internal/pattern"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// goldenFormats drives every golden test over both trace encodings:
// the rendered output must match the SAME golden file regardless of
// which on-disk format the archive used.
func goldenFormats(t *testing.T, f func(t *testing.T, tf trace.Format)) {
	for _, tf := range []trace.Format{trace.FormatV1, trace.FormatV2} {
		tf := tf
		t.Run(tf.String(), func(t *testing.T) { f(t, tf) })
	}
}

// fixtureCube runs a deterministic conformance scenario and writes its
// analysis report, giving the golden tests a real cube produced by the
// full pipeline rather than a hand-built fake.
func fixtureCube(t *testing.T, tf trace.Format) (cubePath, profilePath string) {
	t.Helper()
	s := conformance.Scenario{
		Name: "golden", Base: pattern.WaitBarrier,
		Delays: []float64{0.05, 0.17, 0.08, 0.26}, Align: 1.0,
		Format: tf,
	}
	rr, err := conformance.RunScenario(s, 1, vclock.Hierarchical)
	if err != nil {
		t.Fatal(err)
	}
	res := rr.Results[vclock.Hierarchical]
	dir := t.TempDir()
	cubePath = filepath.Join(dir, "report.cube")
	f, err := os.Create(cubePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Report.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	profilePath = filepath.Join(dir, "profile.json")
	if err := writeArtifact(profilePath, res.Profile); err != nil {
		t.Fatal(err)
	}
	return cubePath, profilePath
}

func TestGoldenMetricTree(t *testing.T) {
	goldenFormats(t, func(t *testing.T, tf trace.Format) {
		cube, _ := fixtureCube(t, tf)
		var buf bytes.Buffer
		if err := printReport(printOptions{}, []string{cube}, &buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "metric-tree.golden", buf.Bytes())
	})
}

func TestGoldenMetricList(t *testing.T) {
	goldenFormats(t, func(t *testing.T, tf trace.Format) {
		cube, _ := fixtureCube(t, tf)
		var buf bytes.Buffer
		if err := printReport(printOptions{list: true}, []string{cube}, &buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "metric-list.golden", buf.Bytes())
	})
}

func TestGoldenFigure(t *testing.T) {
	goldenFormats(t, func(t *testing.T, tf trace.Format) {
		cube, _ := fixtureCube(t, tf)
		var buf bytes.Buffer
		if err := printReport(printOptions{metric: pattern.KeyWaitBarrier}, []string{cube}, &buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "figure.golden", buf.Bytes())
	})
}

func TestGoldenHTML(t *testing.T) {
	goldenFormats(t, func(t *testing.T, tf trace.Format) {
		cube, profile := fixtureCube(t, tf)
		htmlOut := filepath.Join(t.TempDir(), "report.html")
		var buf bytes.Buffer
		if err := printReport(printOptions{htmlOut: htmlOut, profileIn: profile}, []string{cube}, &buf); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(htmlOut)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "report.html.golden", got)
	})
}

// fixturePrintPhases analyzes a deterministic straggler kernel and writes
// its phase profile, so the golden test renders a real multi-phase
// artifact produced by the full pipeline.
func fixturePrintPhases(t *testing.T, tf trace.Format) string {
	t.Helper()
	prog, err := scenario.LoadLibrary("straggler")
	if err != nil {
		t.Fatal(err)
	}
	prog.Spec.Format = tf
	e, err := prog.Run("print-phases", 1)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := e.Traces()
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay.Analyze(traces, replay.Config{Scheme: vclock.Hierarchical, Title: "print-phases"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "phases.json")
	if err := writeArtifact(path, res.Phases); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGoldenPhases(t *testing.T) {
	goldenFormats(t, func(t *testing.T, tf trace.Format) {
		phases := fixturePrintPhases(t, tf)
		var buf bytes.Buffer
		if err := printReport(printOptions{phasesIn: phases}, nil, &buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "phases.golden", buf.Bytes())
	})
}

func TestPrintRejectsBadUsage(t *testing.T) {
	var buf bytes.Buffer
	if err := printReport(printOptions{}, nil, &buf); err == nil {
		t.Error("no arguments accepted")
	}
	if err := printReport(printOptions{phasesIn: "phases.json"}, []string{"report.cube"}, &buf); err == nil {
		t.Error("-phases with a positional argument accepted")
	}
	if err := printReport(printOptions{phasesIn: filepath.Join(t.TempDir(), "missing.json")}, nil, &buf); err == nil {
		t.Error("missing phase artifact accepted")
	}
	if err := printReport(printOptions{}, []string{"a", "b"}, &buf); err == nil {
		t.Error("two arguments accepted")
	}
	if err := printReport(printOptions{}, []string{filepath.Join(t.TempDir(), "missing.cube")}, &buf); err == nil {
		t.Error("missing cube file accepted")
	}
}
