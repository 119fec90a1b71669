package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"metascope/internal/conformance"
	"metascope/internal/pattern"
	"metascope/internal/phase"
	"metascope/internal/profile"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/vclock"
)

// fixturePair produces two analysis reports of the same workload shape
// with different planted imbalance, the natural input for the
// cross-experiment algebra.
func fixturePair(t *testing.T) (aCube, bCube, aProf, bProf string) {
	t.Helper()
	dir := t.TempDir()
	write := func(tag string, delays []float64, seed int64) (string, string) {
		s := conformance.Scenario{
			Name: "diff-" + tag, Base: pattern.WaitBarrier,
			Delays: delays, Align: 1.0,
		}
		rr, err := conformance.RunScenario(s, seed, vclock.Hierarchical)
		if err != nil {
			t.Fatal(err)
		}
		res := rr.Results[vclock.Hierarchical]
		cubePath := filepath.Join(dir, tag+".cube")
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
		profPath := filepath.Join(dir, tag+"-profile.json")
		if err := writeArtifact(profPath, res.Profile); err != nil {
			t.Fatal(err)
		}
		return cubePath, profPath
	}
	aCube, aProf = write("a", []float64{0.05, 0.17, 0.08, 0.26}, 1)
	bCube, bProf = write("b", []float64{0.05, 0.08, 0.17, 0.11}, 1)
	return aCube, bCube, aProf, bProf
}

func TestGoldenDiff(t *testing.T) {
	a, b, _, _ := fixturePair(t)
	var buf bytes.Buffer
	if err := diffReports("diff", "", []string{a, b}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diff.golden", buf.Bytes())
}

func TestGoldenMerge(t *testing.T) {
	a, b, _, _ := fixturePair(t)
	var buf bytes.Buffer
	if err := diffReports("merge", "", []string{a, b}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "merge.golden", buf.Bytes())
}

func TestGoldenMean(t *testing.T) {
	a, b, _, _ := fixturePair(t)
	var buf bytes.Buffer
	if err := diffReports("mean", "", []string{a, b}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mean.golden", buf.Bytes())
}

func TestGoldenProfileDiff(t *testing.T) {
	// Profile diffs require a shared interval axis, so the comparison
	// partner is the same artifact with one series scaled — run b "got
	// slower" in a known place.
	_, _, ap, _ := fixturePair(t)
	p, err := readFile(ap, profile.Read)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Series {
		if p.Series[i].Rank == 0 && p.Series[i].Metric == pattern.KeyWaitBarrier {
			for j := range p.Series[i].Values {
				p.Series[i].Values[j] *= 1.5
			}
		}
	}
	bp := filepath.Join(t.TempDir(), "b-profile.json")
	if err := writeArtifact(bp, p); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runProfile("", []string{ap, bp}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "profile-diff.golden", buf.Bytes())
}

// fixturePhaseTwins produces the phase artifacts of two straggler twins:
// a baseline with a permanent 2x straggler on rank 2, and a current
// run that additionally slows the same rank 2.5x in iteration 3 only
// — the planted single-iteration regression the phase diff must
// pinpoint.
func fixturePhaseTwins(t *testing.T) (aPath, bPath string) {
	t.Helper()
	dir := t.TempDir()
	write := func(tag string, extra []scenario.StragglerSpec) string {
		base, err := scenario.LoadLibrary("straggler")
		if err != nil {
			t.Fatal(err)
		}
		sp := *base.Spec
		sp.Name = "phasediff-" + tag
		sp.Iterations = 8
		sp.Faults.Stragglers = append([]scenario.StragglerSpec{
			{Rank: 2, Factor: 2.0, From: 0, To: 7},
		}, extra...)
		prog, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		e, err := prog.Run(sp.Name, 1)
		if err != nil {
			t.Fatal(err)
		}
		traces, err := e.Traces()
		if err != nil {
			t.Fatal(err)
		}
		res, err := replay.Analyze(traces, replay.Config{Scheme: vclock.Hierarchical, Title: "phases-" + tag})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, tag+"-phases.json")
		if err := writeArtifact(p, res.Phases); err != nil {
			t.Fatal(err)
		}
		return p
	}
	aPath = write("a", nil)
	bPath = write("b", []scenario.StragglerSpec{{Rank: 2, Factor: 2.5, From: 3, To: 3}})
	return aPath, bPath
}

func TestGoldenPhasesDiff(t *testing.T) {
	a, b := fixturePhaseTwins(t)
	var buf bytes.Buffer
	if err := runPhases("", false, 0, 0, []string{a, b}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "phases-diff.golden", buf.Bytes())
}

func TestGoldenPhasesDiffJSON(t *testing.T) {
	a, b := fixturePhaseTwins(t)
	var buf bytes.Buffer
	if err := runPhases("", true, 0, 0, []string{a, b}, &buf); err != nil {
		t.Fatal(err)
	}
	var cmp phase.Comparison
	if err := json.Unmarshal(buf.Bytes(), &cmp); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if cmp.Regressions == 0 {
		t.Error("-json comparison reports no regressions for the planted slowdown")
	}
	checkGolden(t, "phases-diff-json.golden", buf.Bytes())
}

func TestPhasesDiffWritesComparison(t *testing.T) {
	a, b := fixturePhaseTwins(t)
	out := filepath.Join(t.TempDir(), "cmp.json")
	var buf bytes.Buffer
	if err := runPhases(out, false, 0, 0, []string{a, b}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var cmp phase.Comparison
	if err := json.Unmarshal(data, &cmp); err != nil {
		t.Fatalf("-o comparison is not valid JSON: %v", err)
	}
	if cmp.Mode != "match" || cmp.Regressions == 0 {
		t.Errorf("written comparison mode=%q regressions=%d, want match mode with regressions",
			cmp.Mode, cmp.Regressions)
	}
}

// TestProfileDiffRefusesBadAxes: diff -profile ends at once with an
// error on two axes that differ — widths 0 and 1 have no power of two
// in common — and on an artifact declaring more than profile.MaxBuckets
// buckets.
func TestProfileDiffRefusesBadAxes(t *testing.T) {
	dir := t.TempDir()
	artifact := func(name string, width float64, buckets int) string {
		path := filepath.Join(dir, name)
		doc := fmt.Sprintf(`{"origin":0,"bucket_width":%g,"buckets":%d,"series":[{"metric":"m","metahost":0,"rank":0,"count":1,"values":[1]}]}`, width, buckets)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	zero, one := artifact("zero.json", 0, 1), artifact("one.json", 1, 1)
	huge := artifact("huge.json", 1, profile.MaxBuckets+1)
	for _, c := range []struct {
		a, b, want string
	}{
		{zero, one, "profile: time axes differ (1 buckets of 0s from 0s vs 1 buckets of 1s from 0s)"},
		{huge, huge, "profile: invalid artifact: buckets=65537 (limit 65536)"},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := dispatch(context.Background(), []string{"diff", "-profile", c.a, c.b}, io.Discard, io.Discard)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("diff -profile %s %s: err %v, want %q", filepath.Base(c.a), filepath.Base(c.b), err, c.want)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("diff -profile %s %s still running after 5 s", filepath.Base(c.a), filepath.Base(c.b))
		}
	}
}

func TestDiffRejectsBadUsage(t *testing.T) {
	a, b, _, _ := fixturePair(t)
	var buf bytes.Buffer
	if err := diffReports("diff", "", []string{a}, &buf); err == nil {
		t.Error("diff with one report accepted")
	}
	if err := diffReports("diff", "", []string{a, b, a}, &buf); err == nil {
		t.Error("diff with three reports accepted")
	}
	if err := diffReports("frobnicate", "", []string{a, b}, &buf); err == nil {
		t.Error("unknown op accepted")
	}
	if err := runProfile("", []string{a}, &buf); err == nil {
		t.Error("profile diff with one artifact accepted")
	}
	if err := runPhases("", false, 0, 0, []string{a}, &buf); err == nil {
		t.Error("phase diff with one artifact accepted")
	}
	if err := runPhases("", false, 0, 0, []string{a, b}, &buf); err == nil {
		t.Error("phase diff over cube files accepted")
	}
}
