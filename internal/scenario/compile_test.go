package scenario

import (
	"math"
	"strings"
	"testing"

	"metascope/internal/pattern"
)

// TestLibraryCompiles loads every shipped scenario and checks the
// basic compiled invariants: schedule monotone, expectation populated
// (or Err for damaged-archive scenarios), deterministic recompiles.
func TestLibraryCompiles(t *testing.T) {
	t.Parallel()
	names := LibraryNames()
	if len(names) < 7 {
		t.Fatalf("library has %d scenarios, want at least 7: %v", len(names), names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := LoadLibrary(name)
			if err != nil {
				t.Fatal(err)
			}
			if p.Phases() == 0 {
				t.Fatal("compiled to zero phases")
			}
			last := 0.0
			for i := range p.phases {
				if p.phases[i].at <= last {
					t.Fatalf("phase %d at %g not after %g", i, p.phases[i].at, last)
				}
				last = p.phases[i].at
			}
			if !p.Expect.Err && len(p.Expect.Keys) == 0 {
				t.Error("expectation has no keys and no Err")
			}
			// Recompiling must reproduce the identical plan.
			q, err := LoadLibrary(name)
			if err != nil {
				t.Fatal(err)
			}
			if p.Describe() != q.Describe() {
				t.Error("two compiles of the same scenario describe differently")
			}
		})
	}
}

// TestStragglerClosedForm pins a hand-computed expectation: uniform
// work 0.15, rank 2 slowed 3x in iterations 1-2 of 4, Allreduce per
// iteration. Every other rank waits 0.30s each slowed iteration.
func TestStragglerClosedForm(t *testing.T) {
	t.Parallel()
	p, err := LoadLibrary("straggler")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{0: 0.6, 1: 0.6, 3: 0.6}
	got := p.Expect.Keys[pattern.KeyWaitNxN]
	if len(got) != len(want) {
		t.Fatalf("WaitNxN expectation = %v, want %v", got, want)
	}
	for r, w := range want {
		if math.Abs(got[r]-w) > 1e-12 {
			t.Errorf("rank %d: %g, want %g", r, got[r], w)
		}
	}
	// The world spans both testbed metahosts, so the grid child
	// carries the same values.
	gotGrid := p.Expect.Keys[pattern.KeyGridNxN]
	for r, w := range want {
		if math.Abs(gotGrid[r]-w) > 1e-12 {
			t.Errorf("grid rank %d: %g, want %g", r, gotGrid[r], w)
		}
	}
	if b := p.Expect.Bounds[pattern.KeyNxNComp]; math.Abs(b-4*CompletionPerCall) > 1e-12 {
		t.Errorf("NxN completion bound = %g, want %g", b, 4*CompletionPerCall)
	}
	if !p.Expect.Exact {
		t.Error("straggler scenario should compile exact")
	}
}

// TestMasterWorkerClosedForm checks the structural form without
// pinning PRNG draws: worker waits are strictly increasing prefix
// sums, and the master's wait is the sum of all collect costs.
func TestMasterWorkerClosedForm(t *testing.T) {
	t.Parallel()
	p, err := LoadLibrary("masterworker")
	if err != nil {
		t.Fatal(err)
	}
	ls := p.Expect.Keys[pattern.KeyLateSender]
	if len(ls) != p.N() {
		t.Fatalf("LateSender covers %d ranks, want all %d", len(ls), p.N())
	}
	// With all workers on the far metahost, every instance is grid.
	grid := p.Expect.Keys[pattern.KeyGridLS]
	for r := 0; r < p.N(); r++ {
		if math.Abs(ls[r]-grid[r]) > 1e-12 {
			t.Errorf("rank %d: base %g != grid %g though all pairs cross", r, ls[r], grid[r])
		}
	}
	// Worker handout waits grow with rank (prefix sums of positive
	// prep costs, summed over equal iteration counts).
	for r := 2; r < p.N(); r++ {
		if ls[r] <= ls[r-1] {
			t.Errorf("worker waits not increasing: ls[%d]=%g <= ls[%d]=%g", r, ls[r], r-1, ls[r-1])
		}
	}
	if ls[0] <= 0 {
		t.Error("master accumulated no collect-phase wait")
	}
}

// TestDescribeRendersPlan spot-checks the deterministic plan dump.
func TestDescribeRendersPlan(t *testing.T) {
	t.Parallel()
	p, err := LoadLibrary("crosstraffic")
	if err != nil {
		t.Fatal(err)
	}
	d := p.Describe()
	for _, sub := range []string{
		`scenario "crosstraffic"`,
		"kernel halo1d",
		"topology: custom, 2 metahosts",
		"cross-traffic +2ms on external links",
		"mpi.communication.p2p.late_sender",
		"exact=true",
	} {
		if !strings.Contains(d, sub) {
			t.Errorf("Describe() missing %q:\n%s", sub, d)
		}
	}
}

// TestValidateStepCeiling rejects scenarios that would compile to an
// unbounded number of rank-steps.
func TestValidateStepCeiling(t *testing.T) {
	t.Parallel()
	sp := &Spec{Kernel: KernelHalo2D, Ranks: 256, Iterations: 64,
		Bytes: 1024, Params: ParamSpec{PX: 16, PY: 16, Prep: 0.1, Collect: 0.1, Amp: 0.1},
		Schedule: ScheduleSpec{Align: 2, Slack: 0.25}, Work: WorkSpec{Base: 0.1},
		Topology: TopoSpec{Preset: "conformance", Count: 2}}
	if err := sp.Validate(); err == nil {
		t.Fatal("256 ranks x 64 iterations x 4 phases passed validation")
	} else if !strings.Contains(err.Error(), "rank-steps") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestDerivedAlignFitsLargeWorld: a 1024-rank halo2d document that
// leaves schedule.align out validates, derives an alignment point past
// the start-of-run clock synchronization — rank 511, the last answered
// over the wide-area link, is done at t ≈ 11.3 s — and every rank reaches
// its first phase before it (Body fails a rank that arrives late). Small
// documents keep 2 s.
func TestDerivedAlignFitsLargeWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a 1024-rank run")
	}
	prog, err := Load([]byte(`{"kernel": "halo2d", "ranks": 1024, "iterations": 1, "params": {"px": 32, "py": 32}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Spec.Schedule.Align; got != 12.8 {
		t.Fatalf("derived align %g, want 12.8 (25 ms for each of 512 ranks off rank 0's metahost)", got)
	}
	if _, err := prog.Run(prog.Spec.Name, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range LibraryNames() {
		p, err := LoadLibrary(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Spec.Schedule.Align; got != 2 {
			t.Errorf("library scenario %s: derived align %g, want 2", name, got)
		}
	}
}
