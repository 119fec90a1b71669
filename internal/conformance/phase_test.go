package conformance

import (
	"bytes"
	"runtime"
	"sort"
	"testing"

	"metascope/internal/pattern"
	"metascope/internal/phase"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// phaseOracleKernels lists the library kernels whose detected phase
// structure must equal the aligned-step schedule one-to-one. This is
// exactKernels minus crosstraffic: on that scenario's custom WAN
// topology the two intra-metahost halo pairs of an even step
// communicate in disjoint time windows, so gap detection legitimately
// resolves sub-step phases — finer than the schedule, not wrong.
func phaseOracleKernels() []string {
	return []string{"halo1d", "halo2d", "masterworker", "amr", "straggler"}
}

// TestPhaseOracle is the per-iteration arm of the kernel oracle: for
// every phase-oracle kernel, in both trace encodings, under every
// synchronization scheme, phase detection must recover exactly the
// kernel's aligned-step count, the detected period must divide the
// per-iteration step count, and every (phase, family, metahost)
// severity must equal the compiled per-step closed form. The lazy and
// streamed paths are covered by the byte-identity assertions in
// checkKernelLazy, TestStreamingKernelOracle, and TestStreamingOracle
// (renderArtifacts includes the phase profile).
func TestPhaseOracle(t *testing.T) {
	for _, name := range phaseOracleKernels() {
		for _, f := range []trace.Format{trace.FormatV1, trace.FormatV2} {
			name, f := name, f
			t.Run(name+"/"+f.String(), func(t *testing.T) {
				t.Parallel()
				testPhaseOracle(t, name, f)
			})
		}
	}
}

func testPhaseOracle(t *testing.T, name string, f trace.Format) {
	for _, seed := range oracleSeeds(t) {
		kr, err := RunKernel(name, f, seed,
			vclock.FlatSingle, vclock.FlatInterp, vclock.Hierarchical)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prog := kr.Program
		if len(prog.Expect.Steps) != prog.Phases() {
			t.Fatalf("compiled %d per-step expectations for %d phases", len(prog.Expect.Steps), prog.Phases())
		}
		for sch, res := range kr.Results {
			pp := res.Phases
			if pp == nil {
				t.Fatalf("seed %d %v: analysis produced no phase profile", seed, sch)
			}
			if got, want := len(pp.Phases), prog.Phases(); got != want {
				t.Errorf("seed %d %v: detected %d phases, kernel schedules %d steps", seed, sch, got, want)
				continue
			}
			stepsPerIter := prog.Phases() / prog.Spec.Iterations
			if pp.Period < 1 || stepsPerIter%pp.Period != 0 {
				t.Errorf("seed %d %v: detected period %d does not divide the %d steps per iteration",
					seed, sch, pp.Period, stepsPerIter)
			}
			tol := ExactTol
			if sch == vclock.FlatSingle {
				tol = FlatSingleTol(kr.Exp, prog.Expect.Horizon)
			}
			for _, mm := range CheckPhases(pp, prog, kr.Scale, tol) {
				t.Errorf("seed %d %v: %v", seed, sch, mm)
			}
		}
	}
}

// kernelPhases measures one library kernel under the given format and
// returns the rendered phase-profile JSON of its analysis under cfg.
// Title and seed are held fixed by the callers so the bytes are
// comparable across runs.
func kernelPhases(t *testing.T, name string, f trace.Format, seed int64, cfg replay.Config) []byte {
	t.Helper()
	prog, err := scenario.LoadLibrary(name)
	if err != nil {
		t.Fatal(err)
	}
	prog.Spec.Format = f
	e, err := prog.Run("phase-det", seed)
	if err != nil {
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
	var buf bytes.Buffer
	if err := res.Phases.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPhaseDeterminism pins the phase profile as a deterministic
// artifact: the same scenario and seed must render byte-identical
// phase JSON under GOMAXPROCS=1 and the test default, and from a v1
// and a v2 archive.
func TestPhaseDeterminism(t *testing.T) {
	cfg := replay.Config{Scheme: vclock.Hierarchical, Title: "phase-det"}
	old := runtime.GOMAXPROCS(1)
	one := kernelPhases(t, "halo2d", trace.FormatV2, 5, cfg)
	runtime.GOMAXPROCS(old)
	want := kernelPhases(t, "halo2d", trace.FormatV2, 5, cfg)
	if !bytes.Equal(one, want) {
		t.Errorf("phase profile bytes differ across GOMAXPROCS (%d vs %d)", len(one), len(want))
	}
	v1 := kernelPhases(t, "halo2d", trace.FormatV1, 5, cfg)
	if !bytes.Equal(v1, want) {
		t.Errorf("phase profile bytes differ between v1 and v2 archives (%d vs %d)", len(v1), len(want))
	}
}

// TestPhaseOracleMutation proves CheckPhases can fail: checking a
// conformant run against a per-step expectation with any single cell
// perturbed by 15% must mismatch.
func TestPhaseOracleMutation(t *testing.T) {
	t.Parallel()
	kr, err := RunKernel("straggler", trace.FormatV2, 1, vclock.Hierarchical)
	if err != nil {
		t.Fatal(err)
	}
	prog := kr.Program
	pp := kr.Results[vclock.Hierarchical].Phases
	if mm := CheckPhases(pp, prog, kr.Scale, ExactTol); len(mm) != 0 {
		t.Fatalf("unperturbed phase oracle already fails: %v", mm)
	}
	mutated := *prog
	mutated.Expect.Steps = make([]map[string]map[int]float64, len(prog.Expect.Steps))
	for i, m := range prog.Expect.Steps {
		if m == nil {
			continue
		}
		cm := make(map[string]map[int]float64, len(m))
		for k, sm := range m {
			csm := make(map[int]float64, len(sm))
			for r, v := range sm {
				csm[r] = v
			}
			cm[k] = csm
		}
		mutated.Expect.Steps[i] = cm
	}
	// Perturb the first family-key cell in deterministic order. Grid
	// sub-accounts are excluded: CheckPhases folds them into their
	// family, whose inclusive cell is what gets perturbed here.
	perturbed := false
	for _, m := range mutated.Expect.Steps {
		keys := make([]string, 0, len(m))
		for k := range m {
			if phase.FamilyOf(k) == k {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			ranks := make([]int, 0, len(m[k]))
			for r := range m[k] {
				ranks = append(ranks, r)
			}
			sort.Ints(ranks)
			if len(ranks) == 0 {
				continue
			}
			m[k][ranks[0]] *= 1.15
			perturbed = true
			break
		}
		if perturbed {
			break
		}
	}
	if !perturbed {
		t.Fatal("found no per-step family expectation to perturb")
	}
	if mm := CheckPhases(pp, &mutated, kr.Scale, ExactTol); len(mm) == 0 {
		t.Error("phase oracle accepted a run whose per-step expectation was perturbed by 15%")
	}
}

// phaseDiffSpec builds the straggler twin used by
// TestPhaseDiffPinpointsRegression: 12 iterations with a permanent
// 2x straggler on rank 2, plus an optional extra slowdown confined to
// iteration 5.
func phaseDiffSpec(t *testing.T, name string, extra []scenario.StragglerSpec) *scenario.Program {
	t.Helper()
	base, err := scenario.LoadLibrary("straggler")
	if err != nil {
		t.Fatal(err)
	}
	sp := *base.Spec
	sp.Name = name
	sp.Iterations = 12
	sp.Faults.Stragglers = append([]scenario.StragglerSpec{
		{Rank: 2, Factor: 2.0, From: 0, To: 11},
	}, extra...)
	prog, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestPhaseDiffPinpointsRegression is the headline scenario for the
// phase-aligned diff: a workload with a permanent straggler regresses
// in exactly one iteration (an extra 2.5x slowdown in iteration 5).
// The global family total moves by ~25% — under the default 2x
// threshold a whole-archive diff stays silent — while the per-phase
// comparison flags iteration 5, and only iteration 5.
func TestPhaseDiffPinpointsRegression(t *testing.T) {
	t.Parallel()
	run := func(name string, extra []scenario.StragglerSpec) *phase.Profile {
		prog := phaseDiffSpec(t, name, extra)
		e, err := prog.Run(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		traces, err := e.Traces()
		if err != nil {
			t.Fatal(err)
		}
		res, err := replay.Analyze(traces, replay.Config{Scheme: vclock.Hierarchical, Title: name})
		if err != nil {
			t.Fatal(err)
		}
		return res.Phases
	}
	clean := run("phasediff-base", nil)
	perturbed := run("phasediff-cur", []scenario.StragglerSpec{
		{Rank: 2, Factor: 2.5, From: 5, To: 5},
	})
	if len(clean.Phases) != 12 || len(perturbed.Phases) != 12 {
		t.Fatalf("expected 12 detected phases in both twins, got %d and %d",
			len(clean.Phases), len(perturbed.Phases))
	}

	// The whole-archive view: total wait-at-NxN moved by well under the
	// 2x regression threshold, so a global diff would not flag it.
	family := pattern.KeyWaitNxN
	baseTotal, curTotal := clean.FamilyTotal(family), perturbed.FamilyTotal(family)
	if baseTotal <= 0 {
		t.Fatalf("clean twin carries no %s severity", family)
	}
	if ratio := curTotal / baseTotal; ratio >= phase.DefaultThreshold {
		t.Fatalf("global %s ratio %.3f reaches the threshold; the scenario no longer hides the regression",
			family, ratio)
	}

	cmp := phase.Compare(clean, perturbed, 0, 0)
	if cmp.Mode != "match" {
		t.Fatalf("twins with equal rank and phase counts aligned in %q mode, want match", cmp.Mode)
	}
	if cmp.Regressions == 0 {
		t.Fatal("phase-aligned diff found no regression in the perturbed twin")
	}
	for _, row := range cmp.Rows {
		if row.Regressed && row.PhaseB != 5 {
			t.Errorf("phase-aligned diff flagged phase %d (%s metahost %d), want only phase 5",
				row.PhaseB, row.Family, row.Metahost)
		}
	}
	flagged := false
	for _, row := range cmp.Rows {
		if row.Regressed && row.PhaseB == 5 && phase.FamilyOf(row.Family) == family {
			flagged = true
		}
	}
	if !flagged {
		t.Errorf("phase-aligned diff did not flag %s in phase 5", family)
	}
}
