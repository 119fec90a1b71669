package conformance

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"metascope/internal/mmpi"
	"metascope/internal/pattern"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// exactKernels lists the library scenarios whose multi-key closed
// forms hold at ExactTol on their (deterministic) topologies.
func exactKernels() []string {
	return []string{"halo1d", "halo2d", "masterworker", "amr", "straggler", "crosstraffic"}
}

// TestKernelOracle is the generated-workload arm of the oracle: every
// exact library kernel, in both trace encodings, analyzed under every
// synchronization scheme, must reproduce its compiled multi-key
// expectation — and the lazy zero-copy path must produce artifacts
// byte-identical to the materialized post-mortem analysis.
func TestKernelOracle(t *testing.T) {
	for _, name := range exactKernels() {
		for _, f := range []trace.Format{trace.FormatV1, trace.FormatV2} {
			name, f := name, f
			t.Run(name+"/"+f.String(), func(t *testing.T) {
				t.Parallel()
				testKernelOracle(t, name, f)
			})
		}
	}
}

func testKernelOracle(t *testing.T, name string, f trace.Format) {
	for _, seed := range oracleSeeds(t) {
		kr, err := RunKernel(name, f, seed,
			vclock.FlatSingle, vclock.FlatInterp, vclock.Hierarchical)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prog := kr.Program
		if !prog.Expect.Exact {
			t.Fatalf("library scenario %s compiled inexact; the oracle needs exact closed forms", name)
		}
		if len(prog.Expect.Keys) == 0 {
			t.Fatalf("library scenario %s compiled with an empty expectation", name)
		}
		for _, sch := range []vclock.Scheme{vclock.FlatInterp, vclock.Hierarchical} {
			res := kr.Results[sch]
			for _, mm := range CheckKernel(res.Report, prog, kr.Scale, ExactTol) {
				t.Errorf("seed %d %v: %v", seed, sch, mm)
			}
			if res.Violations != 0 {
				t.Errorf("seed %d %v: %d clock-condition violations on the exact testbed",
					seed, sch, res.Violations)
			}
			checkKernelProfileMass(t, res, prog, kr.Scale, sch)
		}
		tol := FlatSingleTol(kr.Exp, prog.Expect.Horizon)
		for _, mm := range CheckKernel(kr.Results[vclock.FlatSingle].Report, prog, kr.Scale, tol) {
			t.Errorf("seed %d %v: %v", seed, vclock.FlatSingle, mm)
		}

		checkKernelLazy(t, kr, seed)
	}
}

// checkKernelProfileMass asserts the time-resolved profile carries the
// same total severity mass as the expectation, family by family. The
// profile stores instances under their concrete pattern (base, grid,
// or wrong-order), so the family mass is the sum of the three series,
// compared against the expectation's inclusive family total.
func checkKernelProfileMass(t *testing.T, res *replay.Result, prog *scenario.Program, scale float64, sch vclock.Scheme) {
	t.Helper()
	gridded := make(map[string]string) // base key → its grid child's key
	for id := pattern.ID(0); id < pattern.NumPatterns; id++ {
		if g := id.Gridded(); g != id {
			gridded[id.MetricKey()] = g.MetricKey()
		}
	}
	for key, perRank := range prog.Expect.Keys {
		grid, ok := gridded[key]
		if !ok {
			continue // a grid child; covered via its family
		}
		want := 0.0
		for _, w := range perRank {
			want += w * scale
		}
		got := res.Profile.SeriesTotal(key, -1) +
			res.Profile.SeriesTotal(grid, -1) +
			res.Profile.SeriesTotal(key+".wrong_order", -1)
		if math.Abs(got-want) > ExactTol.For(want) {
			t.Errorf("%v: profile mass under the %s family = %.9g, want %.9g", sch, key, got, want)
		}
	}
}

// checkKernelLazy re-analyzes the same archive through the lazy
// zero-copy loader and requires byte-identical report and profile
// artifacts.
func checkKernelLazy(t *testing.T, kr *KernelRun, seed int64) {
	t.Helper()
	cfg := replay.Config{
		Scheme:     vclock.Hierarchical,
		Title:      fmt.Sprintf("lazy-kern-%s-%d", kr.Program.Spec.Name, seed),
		EagerLimit: mmpi.DefaultEagerLimit,
	}
	postTraces, err := kr.Exp.Traces()
	if err != nil {
		t.Fatalf("seed %d: loading materialized archive: %v", seed, err)
	}
	post, err := replay.Analyze(postTraces, cfg)
	if err != nil {
		t.Fatalf("seed %d: post-mortem analysis: %v", seed, err)
	}
	ar, err := kr.Exp.TracesLazy()
	if err != nil {
		t.Fatalf("seed %d: lazy load: %v", seed, err)
	}
	lazy, err := replay.AnalyzeLazy(ar, cfg)
	if err != nil {
		t.Fatalf("seed %d: lazy analysis: %v", seed, err)
	}
	wantReport, wantProf, wantPhases := renderArtifacts(t, post)
	gotReport, gotProf, gotPhases := renderArtifacts(t, lazy)
	if !bytes.Equal(gotReport, wantReport) {
		t.Errorf("seed %d: lazy report bytes differ from post-mortem (%d vs %d)",
			seed, len(gotReport), len(wantReport))
	}
	if !bytes.Equal(gotProf, wantProf) {
		t.Errorf("seed %d: lazy profile bytes differ from post-mortem (%d vs %d)",
			seed, len(gotProf), len(wantProf))
	}
	if !bytes.Equal(gotPhases, wantPhases) {
		t.Errorf("seed %d: lazy phase profile bytes differ from post-mortem (%d vs %d)",
			seed, len(gotPhases), len(wantPhases))
	}
	if mm := CheckKernel(lazy.Report, kr.Program, kr.Scale, ExactTol); len(mm) != 0 {
		t.Errorf("seed %d: lazy result fails the oracle: %v", seed, mm)
	}
}

// TestKernelTruncationFails asserts the damaged-archive scenario does
// what its expectation declares: measurement succeeds, the truncation
// fault is applied, and analysis of the archive fails with an error
// instead of silently producing numbers.
func TestKernelTruncationFails(t *testing.T) {
	t.Parallel()
	for _, f := range []trace.Format{trace.FormatV1, trace.FormatV2} {
		kr, err := RunKernel("truncate", f, 1)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if !kr.Program.Expect.Err {
			t.Fatalf("%v: truncate scenario compiled without Err expectation", f)
		}
		if _, err := kr.Exp.Analyze(vclock.Hierarchical); err == nil {
			t.Errorf("%v: analyzing a truncated archive succeeded, want an error", f)
		}
	}
}

// TestKernelMutationSensitivity proves CheckKernel can fail: checking
// a conformant run against a perturbed expectation must mismatch.
func TestKernelMutationSensitivity(t *testing.T) {
	t.Parallel()
	kr, err := RunKernel("masterworker", trace.FormatV2, 1, vclock.Hierarchical)
	if err != nil {
		t.Fatal(err)
	}
	rep := kr.Results[vclock.Hierarchical].Report
	prog := kr.Program
	if mm := CheckKernel(rep, prog, kr.Scale, ExactTol); len(mm) != 0 {
		t.Fatalf("unperturbed kernel oracle already fails: %v", mm)
	}
	mutated := *prog
	mutated.Expect.Keys = make(map[string]map[int]float64, len(prog.Expect.Keys))
	for k, m := range prog.Expect.Keys {
		cp := make(map[int]float64, len(m))
		for r, v := range m {
			cp[r] = v
		}
		mutated.Expect.Keys[k] = cp
	}
	for _, m := range mutated.Expect.Keys {
		for r := range m {
			m[r] *= 1.15
			break
		}
		break
	}
	if mm := CheckKernel(rep, &mutated, kr.Scale, ExactTol); len(mm) == 0 {
		t.Error("kernel oracle accepted a run whose expectation was perturbed by 15%")
	}
}
