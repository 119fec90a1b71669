package measure

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"metascope/internal/archive"
	"metascope/internal/mmpi"
	"metascope/internal/sim"
	"metascope/internal/topology"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// rig bundles a small two-metahost test bench: metahost 0 ("alpha",
// 2 nodes x 2) and metahost 1 ("beta", 2 nodes x 2), each with its own
// file system.
type rig struct {
	eng    *sim.Engine
	topo   *topology.Metacomputer
	place  *topology.Placement
	clocks *vclock.Set
	mounts *archive.Mounts
	world  *mmpi.World
	fss    []*archive.MemFS
}

func newRig(t *testing.T, seed int64, shared bool) *rig {
	t.Helper()
	mc := topology.New("bench")
	internal := topology.Link{LatencyMean: 20e-6, LatencySD: 0.2e-6, Bandwidth: 1e9, Dedicated: true}
	shm := topology.Link{LatencyMean: 2e-6, LatencySD: 0.05e-6, Bandwidth: 4e9, Dedicated: true}
	clock := topology.ClockSpec{MaxOffset: 1, MaxDrift: 1e-5, Granularity: 1e-7}
	mc.AddMetahost(&topology.Metahost{
		Name: "alpha", Nodes: 2, CPUs: 2, Internal: internal, NodeLocal: shm, Clock: clock,
	})
	mc.AddMetahost(&topology.Metahost{
		Name: "beta", Nodes: 2, CPUs: 2, Internal: internal, NodeLocal: shm, Clock: clock,
	})
	mc.DefaultExternal = topology.Link{LatencyMean: 1e-3, LatencySD: 4e-6, Bandwidth: 1.25e9, Dedicated: true}
	place := topology.NewPlacement(mc)
	place.MustPlace(0, 0, 2, 2)
	place.MustPlace(1, 0, 2, 2)

	eng := sim.NewEngine(seed)
	r := &rig{
		eng: eng, topo: mc, place: place,
		clocks: vclock.Generate(eng, mc),
		mounts: archive.NewMounts(),
		world:  mmpi.NewWorld(eng, place),
	}
	if shared {
		fs := archive.NewMemFS("shared")
		r.fss = []*archive.MemFS{fs}
		r.mounts.Mount(0, fs)
		r.mounts.Mount(1, fs)
	} else {
		a, b := archive.NewMemFS("alpha"), archive.NewMemFS("beta")
		r.fss = []*archive.MemFS{a, b}
		r.mounts.Mount(0, a)
		r.mounts.Mount(1, b)
	}
	return r
}

func (r *rig) config() Config {
	return Config{ArchiveDir: "epik_test", Mounts: r.mounts, Clocks: r.clocks, PingPongs: 8}
}

func (r *rig) loadTrace(t *testing.T, rank int) *trace.Trace {
	t.Helper()
	mh := r.place.Loc(rank).Metahost
	data, err := archive.ReadFile(r.mounts.For(mh), archive.TraceFile("epik_test", rank))
	if err != nil {
		t.Fatalf("reading trace %d: %v", rank, err)
	}
	tr, err := trace.DecodeBytes(data)
	if err != nil {
		t.Fatalf("decoding trace %d: %v", rank, err)
	}
	return tr
}

func TestRunProducesTracesOnEachMetahostFS(t *testing.T) {
	r := newRig(t, 1, false)
	_, err := Run(r.world, r.config(), func(m *M) {
		m.Enter("main")
		m.Compute("", 0.01)
		m.Exit()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Traces of ranks 0-3 live on alpha's fs, 4-7 on beta's.
	for rank := 0; rank < 8; rank++ {
		fs := r.fss[rank/4]
		if !fs.Exists(archive.TraceFile("epik_test", rank)) {
			t.Errorf("trace %d missing on %s", rank, fs.Name())
		}
		other := r.fss[1-rank/4]
		if other.Exists(archive.TraceFile("epik_test", rank)) {
			t.Errorf("trace %d leaked onto %s", rank, other.Name())
		}
	}
}

func TestEventStreamStructure(t *testing.T) {
	r := newRig(t, 2, false)
	_, err := Run(r.world, r.config(), func(m *M) {
		c := m.World()
		m.Enter("main")
		m.Enter("phase1")
		if m.Rank() == 0 {
			c.Send(1, 5, 4096)
		} else if m.Rank() == 1 {
			c.Recv(0, 5)
		}
		m.Exit()
		c.Barrier()
		m.Exit()
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := r.loadTrace(t, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expect: Enter main, Enter phase1, Enter MPI_Recv, RECV, Exit,
	// Exit, Enter MPI_Barrier, COLLEXIT, Exit, Exit.
	var kinds []trace.EventKind
	var names []string
	regions := trace.NewRegionTable(tr.Regions)
	for _, ev := range tr.Events {
		kinds = append(kinds, ev.Kind)
		if ev.Kind == trace.KindEnter {
			names = append(names, regions.Lookup(ev.Region).Name)
		}
	}
	wantKinds := []trace.EventKind{
		trace.KindEnter, trace.KindEnter, trace.KindEnter, trace.KindRecv, trace.KindExit,
		trace.KindExit, trace.KindEnter, trace.KindCollExit, trace.KindExit, trace.KindExit,
	}
	if !reflect.DeepEqual(kinds, wantKinds) {
		t.Fatalf("event kinds %v, want %v", kinds, wantKinds)
	}
	if !reflect.DeepEqual(names, []string{"main", "phase1", "MPI_Recv", "MPI_Barrier"}) {
		t.Fatalf("region names %v", names)
	}
	// The RECV event carries the resolved source and tag.
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindRecv {
			if ev.Peer != 0 || ev.Tag != 5 || ev.Bytes != 4096 {
				t.Fatalf("recv event %+v", ev)
			}
		}
		if ev.Kind == trace.KindCollExit && ev.Coll != trace.CollBarrier {
			t.Fatalf("collexit op %v", ev.Coll)
		}
	}
	// Region kinds recorded correctly.
	for _, reg := range tr.Regions {
		switch reg.Name {
		case "main", "phase1":
			if reg.Kind != trace.RegionUser {
				t.Errorf("%s kind %v", reg.Name, reg.Kind)
			}
		case "MPI_Recv", "MPI_Send":
			if reg.Kind != trace.RegionMPIP2P {
				t.Errorf("%s kind %v", reg.Name, reg.Kind)
			}
		case "MPI_Barrier":
			if reg.Kind != trace.RegionMPIColl {
				t.Errorf("%s kind %v", reg.Name, reg.Kind)
			}
		}
	}
}

func TestMetahostIdentification(t *testing.T) {
	r := newRig(t, 3, false)
	ids := make([]int, 8)
	names := make([]string, 8)
	_, err := Run(r.world, r.config(), func(m *M) {
		ids[m.Rank()] = m.MetahostID()
		names[m.Rank()] = m.MetahostName()
		m.Enter("main")
		m.Exit()
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 8; rank++ {
		wantID := rank / 4
		wantName := []string{"alpha", "beta"}[wantID]
		if ids[rank] != wantID || names[rank] != wantName {
			t.Errorf("rank %d identified as (%d,%q)", rank, ids[rank], names[rank])
		}
	}
	// Identification lands in the trace location.
	tr := r.loadTrace(t, 6)
	if tr.Loc.Metahost != 1 || tr.Loc.MetahostName != "beta" {
		t.Errorf("trace location %+v", tr.Loc)
	}
}

func TestMetahostEnvOverrideAndFailure(t *testing.T) {
	r := newRig(t, 4, false)
	cfg := r.config()
	cfg.Env = map[int]MetahostEnv{
		0: {ID: 10, Name: "site-A"},
		1: {ID: 20, Name: "site-B"},
	}
	_, err := Run(r.world, cfg, func(m *M) { m.Enter("main"); m.Exit() })
	if err != nil {
		t.Fatal(err)
	}
	tr := r.loadTrace(t, 0)
	if tr.Loc.Metahost != 10 || tr.Loc.MetahostName != "site-A" {
		t.Errorf("override ignored: %+v", tr.Loc)
	}

	r2 := newRig(t, 4, false)
	cfg2 := r2.config()
	cfg2.Env = map[int]MetahostEnv{0: {ID: 10, Name: "site-A"}} // metahost 1 missing
	_, err = Run(r2.world, cfg2, func(m *M) { m.Enter("main"); m.Exit() })
	if err == nil || !strings.Contains(err.Error(), "no identification environment") {
		t.Fatalf("missing env not detected: %v", err)
	}
}

func TestArchiveFailureAbortsMeasurement(t *testing.T) {
	r := newRig(t, 5, false)
	r.fss[1].FailMkdir = true // beta cannot create the archive
	_, err := Run(r.world, r.config(), func(m *M) { m.Enter("main"); m.Exit() })
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("broken fs did not abort: %v", err)
	}
}

func TestSharedFSNeedsOnlyOneArchive(t *testing.T) {
	r := newRig(t, 6, true)
	_, err := Run(r.world, r.config(), func(m *M) { m.Enter("main"); m.Exit() })
	if err != nil {
		t.Fatal(err)
	}
	names, err := r.fss[0].List("epik_test")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 8 {
		t.Fatalf("%d trace files on shared fs, want 8", len(names))
	}
}

func TestSyncDataSupportsAccurateCorrections(t *testing.T) {
	r := newRig(t, 7, false)
	_, err := Run(r.world, r.config(), func(m *M) {
		m.Enter("main")
		m.Elapse(30) // long enough for drift to matter
		m.Exit()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth check: hierarchical corrections must map local
	// readings onto the master clock with error well below the
	// internal network latency (20 us here).
	master := r.clocks.ForLoc(r.place.Loc(0))
	tMid := r.eng.Now() / 2
	hier := make([]vclock.LinearMap, 8)
	flat := make([]vclock.LinearMap, 8)
	for rank := 0; rank < 8; rank++ {
		tr := r.loadTrace(t, rank)
		s := tr.Sync
		if s.GlobalMasterRank != 0 {
			t.Fatalf("rank %d: global master %d", rank, s.GlobalMasterRank)
		}
		hier[rank] = vclock.HierarchicalCorrection(vclock.HierarchicalInput{
			Rank: rank, SlaveStart: s.LocalStart, SlaveEnd: s.LocalEnd,
			MasterStart: s.MasterStart, MasterEnd: s.MasterEnd,
			SharedNodeClock: s.SharedNodeClock,
		})
		if flat[rank], err = vclock.FlatCorrection(vclock.FlatInterp, s.FlatStart, s.FlatEnd); err != nil {
			t.Fatal(err)
		}
	}
	corrected := make([]float64, 8)
	for rank := 0; rank < 8; rank++ {
		local := r.clocks.ForLoc(r.place.Loc(rank)).Read(tMid)
		corrected[rank] = hier[rank].Apply(local)
	}
	// The guarantee of the hierarchical scheme (§4): processes on the
	// SAME metahost stay mutually synchronized to internal-measurement
	// accuracy (well below the 20 us internal latency), even though the
	// whole metahost may be off against the metamaster by a fraction of
	// the external latency.
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			diff := math.Abs(corrected[a] - corrected[b])
			if r.place.Loc(a).Metahost == r.place.Loc(b).Metahost {
				if diff > 10e-6 {
					t.Errorf("ranks %d,%d same metahost: relative error %.2f us", a, b, diff*1e6)
				}
			} else if diff > 500e-6 {
				t.Errorf("ranks %d,%d different metahosts: relative error %.2f us exceeds external budget", a, b, diff*1e6)
			}
		}
	}
	// Ranks on the master's own metahost are also absolutely accurate.
	for rank := 0; rank < 4; rank++ {
		if err := corrected[rank] - master.Read(tMid); math.Abs(err) > 10e-6 {
			t.Errorf("rank %d: absolute error %.2f us on master metahost", rank, err*1e6)
		}
	}
	// Flat interpolation also works, just less accurately; sanity-check
	// it stays within a few external latencies.
	for rank := 0; rank < 8; rank++ {
		local := r.clocks.ForLoc(r.place.Loc(rank)).Read(tMid)
		got := flat[rank].Apply(local)
		want := master.Read(tMid)
		if math.Abs(got-want) > 3e-3 {
			t.Errorf("rank %d: flat error %.2f us implausibly large", rank, (got-want)*1e6)
		}
	}
}

func TestSameClockProcessesShareCorrections(t *testing.T) {
	r := newRig(t, 8, false)
	_, err := Run(r.world, r.config(), func(m *M) { m.Enter("main"); m.Elapse(1); m.Exit() })
	if err != nil {
		t.Fatal(err)
	}
	// Ranks 0 and 1 share node 0 of alpha: their flat measurements must
	// be identical (per-node measurement, §3).
	t0, t1 := r.loadTrace(t, 0), r.loadTrace(t, 1)
	if t0.Sync.FlatStart != t1.Sync.FlatStart || t0.Sync.FlatEnd != t1.Sync.FlatEnd {
		t.Errorf("same-node flat measurements differ:\n%+v\n%+v", t0.Sync, t1.Sync)
	}
	// Ranks 4 and 5 share node 0 of beta.
	t4, t5 := r.loadTrace(t, 4), r.loadTrace(t, 5)
	if t4.Sync.LocalStart != t5.Sync.LocalStart {
		t.Errorf("same-node local measurements differ")
	}
	// Rank 5 shares its clock with local master rank 4.
	if !t5.Sync.SharedNodeClock {
		t.Errorf("rank 5 not marked as sharing the local master clock")
	}
	if t5.Sync.LocalMasterRank != 4 {
		t.Errorf("rank 5 local master = %d, want 4", t5.Sync.LocalMasterRank)
	}
}

func TestCommDefsRecorded(t *testing.T) {
	r := newRig(t, 9, false)
	sub := r.world.PredefComm([]int{0, 2, 4, 6})
	_, err := Run(r.world, r.config(), func(m *M) {
		m.Enter("main")
		if c := m.Comm(sub); c != nil {
			c.Barrier()
		}
		half := m.World().Split(m.Rank()%2, 0)
		half.Barrier()
		m.Exit()
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := r.loadTrace(t, 0)
	if tr.CommByID(0) == nil {
		t.Fatalf("world comm not recorded")
	}
	cd := tr.CommByID(int32(sub))
	if cd == nil || !reflect.DeepEqual(cd.Ranks, []int32{0, 2, 4, 6}) {
		t.Fatalf("predef comm def %+v", cd)
	}
	// The split produced comms with ids after the predefs; rank 0 is in
	// the even group.
	found := false
	for _, c := range tr.Comms {
		if len(c.Ranks) == 4 && c.Ranks[0] == 0 && c.Ranks[1] == 2 && c.ID != int32(sub) {
			found = true
		}
	}
	if !found {
		t.Fatalf("split comm not recorded: %+v", tr.Comms)
	}
}

func TestUnbalancedInstrumentationFails(t *testing.T) {
	r := newRig(t, 10, false)
	_, err := Run(r.world, r.config(), func(m *M) {
		m.Enter("main") // never exited
	})
	if err == nil || !strings.Contains(err.Error(), "unclosed") {
		t.Fatalf("unclosed region not detected: %v", err)
	}

	r2 := newRig(t, 10, false)
	_, err = Run(r2.world, r2.config(), func(m *M) {
		m.Exit() // exit without enter panics the process
	})
	if err == nil {
		t.Fatalf("stray Exit not detected")
	}
}

func TestDisableTracing(t *testing.T) {
	r := newRig(t, 11, false)
	cfg := r.config()
	cfg.DisableTracing = true
	_, err := Run(r.world, cfg, func(m *M) {
		m.Enter("main")
		m.World().Barrier()
		m.Exit()
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := r.loadTrace(t, 0)
	if len(tr.Events) != 0 {
		t.Fatalf("tracing disabled but %d events recorded", len(tr.Events))
	}
	// Sync measurements still happen.
	if tr.Sync.FlatStart == (vclock.Measurement{}) && tr.Sync.LocalStart == (vclock.Measurement{}) {
		t.Fatalf("sync data missing")
	}
}

func TestDeterministicTraces(t *testing.T) {
	encode := func(seed int64) map[int]string {
		r := newRig(t, seed, false)
		_, err := Run(r.world, r.config(), func(m *M) {
			m.Enter("main")
			m.World().Barrier()
			m.Compute("", 0.001*float64(m.Rank()))
			m.Exit()
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[int]string)
		for rank := 0; rank < 8; rank++ {
			tr := r.loadTrace(t, rank)
			var sb strings.Builder
			if err := tr.Encode(&sb); err != nil {
				t.Fatal(err)
			}
			out[rank] = sb.String()
		}
		return out
	}
	a, b := encode(123), encode(123)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different traces")
	}
	c := encode(124)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical traces")
	}
}

func TestInRegionHelper(t *testing.T) {
	r := newRig(t, 12, false)
	_, err := Run(r.world, r.config(), func(m *M) {
		m.InRegion("main", func() {
			m.InRegion("inner", func() {
				m.Compute("", 0.001)
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := r.loadTrace(t, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.CountKind(trace.KindEnter) != 2 || tr.CountKind(trace.KindExit) != 2 {
		t.Fatalf("InRegion nesting wrong: %d enters", tr.CountKind(trace.KindEnter))
	}
}

func TestConfigValidation(t *testing.T) {
	r := newRig(t, 13, false)
	if _, err := Run(r.world, Config{Clocks: r.clocks}, nil); err == nil {
		t.Errorf("missing mounts accepted")
	}
	if _, err := Run(r.world, Config{Mounts: r.mounts}, nil); err == nil {
		t.Errorf("missing clocks accepted")
	}
}

func TestTimestampsAreLocalClockReadings(t *testing.T) {
	r := newRig(t, 14, false)
	_, err := Run(r.world, r.config(), func(m *M) {
		m.Enter("main")
		m.Elapse(1)
		m.Exit()
	})
	if err != nil {
		t.Fatal(err)
	}
	// A trace's first event time should reflect the node clock's
	// offset, not true simulation time.
	for rank := 0; rank < 8; rank++ {
		tr := r.loadTrace(t, rank)
		clk := r.clocks.ForLoc(r.place.Loc(rank))
		first := tr.Events[0].Time
		// The event happened somewhere in (0, now); its local reading
		// must be consistent with the clock's range over that span.
		lo, hi := clk.Read(0), clk.Read(r.eng.Now())
		if first < lo-1e-6 || first > hi+1e-6 {
			t.Errorf("rank %d first event %g outside local-clock range [%g,%g]", rank, first, lo, hi)
		}
	}
}
