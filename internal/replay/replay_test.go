package replay

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"metascope/internal/archive"
	"metascope/internal/cube"
	"metascope/internal/pattern"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// Synthetic traces: region table shared by all test traces, identity
// synchronization (all measurements zero), explicit event times. This
// lets every pattern formula be checked against hand-computed values.

var testRegions = []trace.Region{
	{ID: 0, Name: "main", Kind: trace.RegionUser},
	{ID: 1, Name: "MPI_Send", Kind: trace.RegionMPIP2P},
	{ID: 2, Name: "MPI_Recv", Kind: trace.RegionMPIP2P},
	{ID: 3, Name: "MPI_Barrier", Kind: trace.RegionMPIColl},
	{ID: 4, Name: "MPI_Allreduce", Kind: trace.RegionMPIColl},
	{ID: 5, Name: "MPI_Reduce", Kind: trace.RegionMPIColl},
	{ID: 6, Name: "MPI_Bcast", Kind: trace.RegionMPIColl},
	{ID: 7, Name: "MPI_Init", Kind: trace.RegionMPIOther},
}

// identitySync yields identity corrections under every scheme.
func identitySync(n int) trace.SyncData {
	return trace.SyncData{SharedNodeClock: true}
}

func synth(rank, mh int, events []trace.Event, comms ...trace.CommDef) *trace.Trace {
	if len(comms) == 0 {
		comms = []trace.CommDef{{ID: 0, Ranks: []int32{0, 1}}}
	}
	return &trace.Trace{
		Loc: trace.Location{
			Rank: rank, Metahost: mh,
			MetahostName: []string{"A", "B", "C"}[mh], Node: rank,
		},
		Sync:    identitySync(2),
		Regions: testRegions,
		Comms:   comms,
		Events:  events,
	}
}

func enter(t float64, r trace.RegionID) trace.Event {
	return trace.Event{Kind: trace.KindEnter, Time: t, Region: r}
}
func exit(t float64, r trace.RegionID) trace.Event {
	return trace.Event{Kind: trace.KindExit, Time: t, Region: r}
}
func send(t float64, peer, tag int32, bytes int64) trace.Event {
	return trace.Event{Kind: trace.KindSend, Time: t, Comm: 0, Peer: peer, Tag: tag, Bytes: bytes}
}
func recv(t float64, peer, tag int32, bytes int64) trace.Event {
	return trace.Event{Kind: trace.KindRecv, Time: t, Comm: 0, Peer: peer, Tag: tag, Bytes: bytes}
}
func collExit(t float64, op trace.CollOp, root int32) trace.Event {
	return trace.Event{Kind: trace.KindCollExit, Time: t, Comm: 0, Coll: op, Root: root}
}

func analyze(t *testing.T, traces []*trace.Trace) *Result {
	t.Helper()
	res, err := Analyze(traces, Config{Scheme: vclock.FlatSingle, Title: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sev reads the inclusive severity of a metric at a call path/rank.
func sev(t *testing.T, r *cube.Report, key string, path []string, rank int) float64 {
	t.Helper()
	m := r.MetricIndex(key)
	if m < 0 {
		t.Fatalf("metric %q missing", key)
	}
	c := r.CallByPath(path)
	if c < 0 {
		t.Fatalf("call path %v missing", path)
	}
	l := r.LocIndex(rank)
	if l < 0 {
		t.Fatalf("rank %d missing", rank)
	}
	return r.MetricLocValue(m, c, l)
}

func TestLateSenderDetection(t *testing.T) {
	// Rank 1 posts its receive at t=1; rank 0 enters the send at t=4;
	// the receive completes at t=5. Late Sender waiting time: 3, at
	// main/MPI_Recv on rank 1. Both on metahost A → plain, not grid.
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(4, 1), send(4, 1, 7, 100), exit(4.5, 1),
		exit(10, 0),
	})
	t1 := synth(1, 0, []trace.Event{
		enter(0, 0),
		enter(1, 2), recv(5, 0, 7, 100), exit(5, 2),
		exit(10, 0),
	})
	res := analyze(t, []*trace.Trace{t0, t1})
	if res.Messages != 1 {
		t.Fatalf("messages %d", res.Messages)
	}
	got := sev(t, res.Report, pattern.KeyLateSender, []string{"main", "MPI_Recv"}, 1)
	if math.Abs(got-3) > 1e-9 {
		t.Errorf("Late Sender = %g, want 3", got)
	}
	if g := sev(t, res.Report, pattern.KeyGridLS, []string{"main", "MPI_Recv"}, 1); g != 0 {
		t.Errorf("grid LS = %g on an intra-metahost message", g)
	}
	if v := res.Violations; v != 0 {
		t.Errorf("violations = %d", v)
	}
}

func TestGridLateSenderAcrossMetahosts(t *testing.T) {
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(4, 1), send(4, 1, 7, 100), exit(4.5, 1),
		exit(10, 0),
	})
	t1 := synth(1, 1, []trace.Event{ // rank 1 on metahost B
		enter(0, 0),
		enter(1, 2), recv(5, 0, 7, 100), exit(5, 2),
		exit(10, 0),
	})
	res := analyze(t, []*trace.Trace{t0, t1})
	grid := sev(t, res.Report, pattern.KeyGridLS, []string{"main", "MPI_Recv"}, 1)
	if math.Abs(grid-3) > 1e-9 {
		t.Errorf("Grid Late Sender = %g, want 3", grid)
	}
	// Inclusive LS (parent) includes the grid child.
	incl := sev(t, res.Report, pattern.KeyLateSender, []string{"main", "MPI_Recv"}, 1)
	if math.Abs(incl-3) > 1e-9 {
		t.Errorf("inclusive Late Sender = %g, want 3", incl)
	}
	// Exclusive plain LS must be zero (grid takes the instance).
	m := res.Report.MetricIndex(pattern.KeyLateSender)
	c := res.Report.CallByPath([]string{"main", "MPI_Recv"})
	if excl := res.Report.Value(m, c, res.Report.LocIndex(1)); excl != 0 {
		t.Errorf("exclusive plain LS = %g, want 0", excl)
	}
}

func TestLateReceiverAttributedToSender(t *testing.T) {
	// Rendezvous (1 MiB > 64 KiB eager limit): sender enters at 1,
	// blocks until the receive is posted at 5, completes at 6.
	// Waiting time 4 at the SENDER's main/MPI_Send.
	big := int64(1 << 20)
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(1, 1), send(1, 1, 7, big), exit(6, 1),
		exit(10, 0),
	})
	t1 := synth(1, 1, []trace.Event{
		enter(0, 0),
		enter(5, 2), recv(6, 0, 7, big), exit(6, 2),
		exit(10, 0),
	})
	res := analyze(t, []*trace.Trace{t0, t1})
	got := sev(t, res.Report, pattern.KeyGridLR, []string{"main", "MPI_Send"}, 0)
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("Grid Late Receiver = %g, want 4", got)
	}
	// No Late Receiver for eager-sized messages.
	t0e := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(1, 1), send(1, 1, 7, 100), exit(6, 1),
		exit(10, 0),
	})
	t1e := synth(1, 1, []trace.Event{
		enter(0, 0),
		enter(5, 2), recv(6, 0, 7, 100), exit(6, 2),
		exit(10, 0),
	})
	res = analyze(t, []*trace.Trace{t0e, t1e})
	lr := res.Report.MetricIndex(pattern.KeyLateRecv)
	if got := res.Report.MetricTotal(lr); got != 0 {
		t.Errorf("eager message produced Late Receiver %g", got)
	}
}

func TestWrongOrderDetection(t *testing.T) {
	// Rank 0 sends message X (tag 1) at t=1 and message Y (tag 2) at
	// t=4. Rank 1 receives Y FIRST (posted t=2, completes t=5, waited
	// 2 on the late send) although X — sent earlier, before the recv —
	// is pending and consumed later. Y's wait is Wrong Order.
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(1, 1), send(1, 1, 1, 10), exit(1.5, 1),
		enter(4, 1), send(4, 1, 2, 10), exit(4.5, 1),
		exit(10, 0),
	})
	t1 := synth(1, 0, []trace.Event{
		enter(0, 0),
		enter(2, 2), recv(5, 0, 2, 10), exit(5, 2), // Y, waited 2
		enter(6, 2), recv(6.5, 0, 1, 10), exit(6.5, 2), // X, no wait
		exit(10, 0),
	})
	res := analyze(t, []*trace.Trace{t0, t1})
	wo := sev(t, res.Report, pattern.KeyWrongOrder, []string{"main", "MPI_Recv"}, 1)
	if math.Abs(wo-2) > 1e-9 {
		t.Errorf("Messages in Wrong Order = %g, want 2", wo)
	}
	// The instance moved out of plain LS (exclusive) but stays in the
	// inclusive total.
	incl := sev(t, res.Report, pattern.KeyLateSender, []string{"main", "MPI_Recv"}, 1)
	if math.Abs(incl-2) > 1e-9 {
		t.Errorf("inclusive LS = %g, want 2", incl)
	}
}

func TestWaitAtBarrierAndCompletion(t *testing.T) {
	// Enters at 2 and 6, both leave at 6.5: rank 0 waits 4; both spend
	// 0.5 in completion. Ranks on different metahosts → grid variant.
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(2, 3), collExit(6.5, trace.CollBarrier, -1), exit(6.5, 3),
		exit(10, 0),
	})
	t1 := synth(1, 1, []trace.Event{
		enter(0, 0),
		enter(6, 3), collExit(6.5, trace.CollBarrier, -1), exit(6.5, 3),
		exit(10, 0),
	})
	res := analyze(t, []*trace.Trace{t0, t1})
	if res.Collectives != 2 {
		t.Fatalf("collectives = %d", res.Collectives)
	}
	wb := sev(t, res.Report, pattern.KeyGridWB, []string{"main", "MPI_Barrier"}, 0)
	if math.Abs(wb-4) > 1e-9 {
		t.Errorf("Grid Wait at Barrier = %g, want 4", wb)
	}
	if wb1 := sev(t, res.Report, pattern.KeyGridWB, []string{"main", "MPI_Barrier"}, 1); wb1 != 0 {
		t.Errorf("late entrant charged %g barrier wait", wb1)
	}
	bc0 := sev(t, res.Report, pattern.KeyBarrierComp, []string{"main", "MPI_Barrier"}, 0)
	bc1 := sev(t, res.Report, pattern.KeyBarrierComp, []string{"main", "MPI_Barrier"}, 1)
	if math.Abs(bc0-0.5) > 1e-9 || math.Abs(bc1-0.5) > 1e-9 {
		t.Errorf("Barrier Completion = %g/%g, want 0.5/0.5", bc0, bc1)
	}
}

func TestWaitAtNxN(t *testing.T) {
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(1, 4), collExit(7, trace.CollAllreduce, -1), exit(7, 4),
		exit(10, 0),
	})
	t1 := synth(1, 0, []trace.Event{
		enter(0, 0),
		enter(6, 4), collExit(7, trace.CollAllreduce, -1), exit(7, 4),
		exit(10, 0),
	})
	res := analyze(t, []*trace.Trace{t0, t1})
	nxn := sev(t, res.Report, pattern.KeyWaitNxN, []string{"main", "MPI_Allreduce"}, 0)
	if math.Abs(nxn-5) > 1e-9 {
		t.Errorf("Wait at NxN = %g, want 5", nxn)
	}
	// Same metahost: no grid contribution.
	if g := res.Report.MetricTotal(res.Report.MetricIndex(pattern.KeyGridNxN)); g != 0 {
		t.Errorf("grid NxN = %g on intra-metahost communicator", g)
	}
}

func TestEarlyReduceOnlyChargesRoot(t *testing.T) {
	// Root (comm rank 0) enters at 1; the only non-root at 5: root
	// idles 4 before any data can arrive.
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(1, 5), collExit(6, trace.CollReduce, 0), exit(6, 5),
		exit(10, 0),
	})
	t1 := synth(1, 0, []trace.Event{
		enter(0, 0),
		enter(5, 5), collExit(5.5, trace.CollReduce, 0), exit(5.5, 5),
		exit(10, 0),
	})
	res := analyze(t, []*trace.Trace{t0, t1})
	er := sev(t, res.Report, pattern.KeyEarlyReduce, []string{"main", "MPI_Reduce"}, 0)
	if math.Abs(er-4) > 1e-9 {
		t.Errorf("Early Reduce = %g, want 4", er)
	}
	if er1 := sev(t, res.Report, pattern.KeyEarlyReduce, []string{"main", "MPI_Reduce"}, 1); er1 != 0 {
		t.Errorf("non-root charged Early Reduce %g", er1)
	}
}

func TestLateBroadcastChargesNonRoots(t *testing.T) {
	// Non-root enters at 1, root at 5: non-root waits 4.
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(5, 6), collExit(5.5, trace.CollBcast, 0), exit(5.5, 6),
		exit(10, 0),
	})
	t1 := synth(1, 0, []trace.Event{
		enter(0, 0),
		enter(1, 6), collExit(5.6, trace.CollBcast, 0), exit(5.6, 6),
		exit(10, 0),
	})
	res := analyze(t, []*trace.Trace{t0, t1})
	lb := sev(t, res.Report, pattern.KeyLateBcast, []string{"main", "MPI_Bcast"}, 1)
	if math.Abs(lb-4) > 1e-9 {
		t.Errorf("Late Broadcast = %g, want 4", lb)
	}
	if lb0 := sev(t, res.Report, pattern.KeyLateBcast, []string{"main", "MPI_Bcast"}, 0); lb0 != 0 {
		t.Errorf("root charged Late Broadcast %g", lb0)
	}
}

func TestClockConditionViolationCount(t *testing.T) {
	// The receive completes before the send happened (badly corrected
	// clocks): one violation; waiting times clamp to ≥ 0.
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(4, 1), send(4, 1, 7, 100), exit(4.5, 1),
		exit(10, 0),
	})
	t1 := synth(1, 0, []trace.Event{
		enter(0, 0),
		enter(3, 2), recv(3.5, 0, 7, 100), exit(3.5, 2),
		exit(10, 0),
	})
	res := analyze(t, []*trace.Trace{t0, t1})
	if res.Violations != 1 {
		t.Fatalf("violations = %d, want 1", res.Violations)
	}
}

func TestTimeMetricsDecomposition(t *testing.T) {
	// Rank 0: main [0,10] containing MPI_Init-class call [1,2] and a
	// send [4,4.5]. Execution excl = 10 − 1 − 0.5 = 8.5; MPI excl
	// (init) = 1; P2P = 0.5; Time inclusive = 10.
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(1, 7), exit(2, 7),
		enter(4, 1), send(4, 1, 7, 10), exit(4.5, 1),
		exit(10, 0),
	})
	t1 := synth(1, 0, []trace.Event{
		enter(0, 0),
		enter(0.5, 2), recv(4.6, 0, 7, 10), exit(4.6, 2),
		exit(10, 0),
	})
	res := analyze(t, []*trace.Trace{t0, t1})
	r := res.Report

	timeTotal := r.TotalTime()
	if math.Abs(timeTotal-20) > 1e-9 {
		t.Errorf("total time = %g, want 20", timeTotal)
	}
	if got := sev(t, r, pattern.KeyMPI, []string{"main", "MPI_Init"}, 0); math.Abs(got-1) > 1e-9 {
		t.Errorf("MPI(init) = %g, want 1", got)
	}
	if got := sev(t, r, pattern.KeyP2P, []string{"main", "MPI_Send"}, 0); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("P2P(send) = %g, want 0.5", got)
	}
	// Rank 1's receive: 4.1 s total, of which LS wait 3.5 (send enter 4
	// − recv enter 0.5); P2P exclusive = 0.6.
	if got := sev(t, r, pattern.KeyLateSender, []string{"main", "MPI_Recv"}, 1); math.Abs(got-3.5) > 1e-9 {
		t.Errorf("LS = %g, want 3.5", got)
	}
	m := r.MetricIndex(pattern.KeyP2P)
	c := r.CallByPath([]string{"main", "MPI_Recv"})
	if got := r.Value(m, c, r.LocIndex(1)); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("P2P excl at recv = %g, want 0.6", got)
	}
	// Visits: main twice (once per rank).
	v := r.MetricIndex(pattern.KeyVisits)
	cm := r.CallByPath([]string{"main"})
	if got := r.Value(v, cm, 0) + r.Value(v, cm, 1); got != 2 {
		t.Errorf("visits(main) = %g", got)
	}
}

func TestCorrectionIsApplied(t *testing.T) {
	// Rank 1's clock is ahead by 100 (offset measurement says the
	// master is 100 behind): under FlatSingle its times shift by −100…
	// here we instead give rank 1 an offset measurement of −100 so its
	// local times (t+100) map onto master time t.
	t0 := synth(0, 0, []trace.Event{
		enter(0, 0),
		enter(4, 1), send(4, 1, 7, 100), exit(4.5, 1),
		exit(10, 0),
	})
	t1 := synth(1, 0, []trace.Event{
		enter(100, 0),
		enter(101, 2), recv(105, 0, 7, 100), exit(105, 2),
		exit(110, 0),
	})
	t1.Sync = trace.SyncData{
		FlatStart: vclock.Measurement{Local: 100, Offset: -100},
		FlatEnd:   vclock.Measurement{Local: 110, Offset: -100},
	}
	res := analyze(t, []*trace.Trace{t0, t1})
	// After correction the receive was posted at 1 and the send at 4:
	// LS wait 3, and no clock-condition violation.
	got := sev(t, res.Report, pattern.KeyLateSender, []string{"main", "MPI_Recv"}, 1)
	if math.Abs(got-3) > 1e-9 {
		t.Errorf("LS with correction = %g, want 3", got)
	}
	if res.Violations != 0 {
		t.Errorf("violations = %d", res.Violations)
	}
}

func TestAnalyzeValidatesTraces(t *testing.T) {
	bad := synth(0, 0, []trace.Event{enter(0, 0)}) // unclosed
	if _, err := Analyze([]*trace.Trace{bad}, Config{}); err == nil {
		t.Fatalf("invalid trace analyzed")
	}
	if _, err := Analyze(nil, Config{}); err == nil {
		t.Fatalf("empty trace set analyzed")
	}
}

func TestMergeCommsDetectsInconsistency(t *testing.T) {
	a := synth(0, 0, []trace.Event{enter(0, 0), exit(1, 0)},
		trace.CommDef{ID: 0, Ranks: []int32{0, 1}})
	b := synth(1, 0, []trace.Event{enter(0, 0), exit(1, 0)},
		trace.CommDef{ID: 0, Ranks: []int32{1, 0}}) // different order
	if _, err := Analyze([]*trace.Trace{a, b}, Config{}); err == nil {
		t.Fatalf("inconsistent communicators not detected")
	}
}

// TestMergeCommsRefusesRepeatedMember: a communicator that lists a rank
// twice is refused up front, naming the communicator and the rank, not
// replayed into a collective that waits forever for the repeat.
func TestMergeCommsRefusesRepeatedMember(t *testing.T) {
	world := trace.CommDef{ID: 0, Ranks: []int32{0, 1, 1}}
	var traces []*trace.Trace
	for r := range 2 {
		traces = append(traces, synth(r, 0, []trace.Event{
			enter(0, 0), enter(1, 3), collExit(2, trace.CollBarrier, -1), exit(2, 3), exit(3, 0),
		}, world))
	}
	_, err := Analyze(traces, Config{})
	if err == nil || !strings.Contains(err.Error(), "communicator 0 lists rank 1 more than once") {
		t.Fatalf("repeated member: %v", err)
	}
}

func TestLoadArchive(t *testing.T) {
	fsA, fsB := archive.NewMemFS("a"), archive.NewMemFS("b")
	mounts := archive.NewMounts()
	mounts.Mount(0, fsA)
	mounts.Mount(1, fsB)
	dir := "epik_load"
	fsA.Mkdir(dir)
	fsB.Mkdir(dir)
	writeTrace := func(fs archive.FS, tr *trace.Trace) {
		w, err := fs.Create(archive.TraceFile(dir, tr.Loc.Rank))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Encode(w); err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	writeTrace(fsA, synth(0, 0, []trace.Event{enter(0, 0), exit(1, 0)}))
	writeTrace(fsB, synth(1, 1, []trace.Event{enter(0, 0), exit(1, 0)}))
	traces, err := LoadArchive(mounts, []int{0, 1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 || traces[0].Loc.Rank != 0 || traces[1].Loc.Rank != 1 {
		t.Fatalf("loaded %d traces", len(traces))
	}

	// Missing rank.
	fsC := archive.NewMemFS("c")
	mounts2 := archive.NewMounts()
	mounts2.Mount(0, fsC)
	fsC.Mkdir(dir)
	writeTrace(fsC, synth(1, 0, []trace.Event{enter(0, 0), exit(1, 0)}))
	if _, err := LoadArchive(mounts2, []int{0}, dir); err == nil ||
		!(strings.Contains(err.Error(), "missing trace") || strings.Contains(err.Error(), "dense range")) {
		t.Fatalf("missing rank not detected: %v", err)
	}

	// Duplicate rank across file systems.
	fsD := archive.NewMemFS("d")
	mounts3 := archive.NewMounts()
	mounts3.Mount(0, fsA)
	mounts3.Mount(1, fsD)
	fsD.Mkdir(dir)
	writeTrace(fsD, synth(0, 1, []trace.Event{enter(0, 0), exit(1, 0)}))
	if _, err := LoadArchive(mounts3, []int{0, 1}, dir); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate rank not detected: %v", err)
	}

	// Shared FS listed twice must not double-count.
	mounts4 := archive.NewMounts()
	mounts4.Mount(0, fsA)
	mounts4.Mount(1, fsA)
	fsA.Mkdir("epik_shared")
	// reuse dir with single trace for rank 0:
	w, _ := fsA.Create(archive.TraceFile("epik_shared", 0))
	synth(0, 0, []trace.Event{enter(0, 0), exit(1, 0)}).Encode(w)
	w.Close()
	got, err := LoadArchive(mounts4, []int{0, 1}, "epik_shared")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("shared fs visited twice: %d traces", len(got))
	}

	// Missing archive directory.
	if _, err := LoadArchive(mounts, []int{0, 1}, "nope"); err == nil {
		t.Fatalf("missing archive dir not detected")
	}

	// Corrupt trace file.
	w2, _ := fsA.Create(archive.TraceFile(dir, 0))
	w2.Write([]byte("garbage"))
	w2.Close()
	if _, err := LoadArchive(mounts, []int{0, 1}, dir); err == nil {
		t.Fatalf("corrupt trace accepted")
	}
}

func TestBuildCorrectionsSchemes(t *testing.T) {
	tr := synth(0, 0, []trace.Event{enter(0, 0), exit(1, 0)})
	tr.Sync = trace.SyncData{
		FlatStart:   vclock.Measurement{Local: 0, Offset: 5},
		FlatEnd:     vclock.Measurement{Local: 10, Offset: 7},
		LocalStart:  vclock.Measurement{Local: 0, Offset: 1},
		LocalEnd:    vclock.Measurement{Local: 10, Offset: 1},
		MasterStart: vclock.Measurement{Local: 1, Offset: 2},
		MasterEnd:   vclock.Measurement{Local: 11, Offset: 2},
	}
	traces := []*trace.Trace{tr}

	c1, err := BuildCorrections(traces, vclock.FlatSingle)
	if err != nil {
		t.Fatal(err)
	}
	if got := c1[0].Map.Apply(10); math.Abs(got-15) > 1e-9 {
		t.Errorf("FlatSingle(10) = %g, want 15", got)
	}
	c2, err := BuildCorrections(traces, vclock.FlatInterp)
	if err != nil {
		t.Fatal(err)
	}
	// offset grows 5→7 over local 0→10: at local 10 master = 17.
	if got := c2[0].Map.Apply(10); math.Abs(got-17) > 1e-9 {
		t.Errorf("FlatInterp(10) = %g, want 17", got)
	}
	c3, err := BuildCorrections(traces, vclock.Hierarchical)
	if err != nil {
		t.Fatal(err)
	}
	// local: +1 (constant); then master map: +2 (constant): total +3.
	if got := c3[0].Map.Apply(10); math.Abs(got-13) > 1e-9 {
		t.Errorf("Hierarchical(10) = %g, want 13", got)
	}
	if _, err := BuildCorrections(traces, vclock.Scheme(99)); err == nil {
		t.Errorf("unknown scheme accepted")
	}
}

func TestAnalyzeDeterministicAcrossRuns(t *testing.T) {
	// The analyzer's runners step the ranks in whatever order wakes
	// them; results must not depend on that interleaving. 8 ranks in a ring with known
	// waits, analyzed many times.
	mk := func() []*trace.Trace {
		var traces []*trace.Trace
		ranks := []int32{0, 1, 2, 3, 4, 5, 6, 7}
		def := trace.CommDef{ID: 0, Ranks: ranks}
		for r := 0; r < 8; r++ {
			next := int32((r + 1) % 8)
			prev := int32((r + 7) % 8)
			base := float64(r) * 0.1
			traces = append(traces, synth(r, r%2, []trace.Event{
				enter(0, 0),
				enter(base+1, 1), send(base+1, next, 1, 10), exit(base+1.1, 1),
				enter(base+2, 2), recv(base+3, prev, 1, 10), exit(base+3, 2),
				exit(10, 0),
			}, def))
		}
		return traces
	}
	// Cube, profile and phase bytes: any scheduling-dependent addition
	// order shows in one of them. The fan-out input is the one where the
	// order in which the ranks' sample logs are read reaches the bytes.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, mk := range map[string]func() []*trace.Trace{"ring": mk, "fanout": fanoutTraces} {
		ref := outcomeOf(Analyze(mk(), Config{Scheme: vclock.FlatSingle, Title: "synthetic"}))
		if ref.err != nil {
			t.Fatal(ref.err)
		}
		for i := 0; i < 20; i++ {
			runtime.GOMAXPROCS(1 + 3*(i%2))
			got := outcomeOf(Analyze(mk(), Config{Scheme: vclock.FlatSingle, Title: "synthetic"}))
			if got.err != nil {
				t.Fatal(got.err)
			}
			if !bytes.Equal(got.report, ref.report) || !bytes.Equal(got.prof, ref.prof) || !bytes.Equal(got.phases, ref.phases) {
				t.Fatalf("%s, run %d (GOMAXPROCS %d): artifacts differ from the first run's (cube %v, profile %v, phases %v)",
					name, i, runtime.GOMAXPROCS(0), bytes.Equal(got.report, ref.report),
					bytes.Equal(got.prof, ref.prof), bytes.Equal(got.phases, ref.phases))
			}
		}
	}
}

func TestReportStructureValid(t *testing.T) {
	t0 := synth(0, 0, []trace.Event{enter(0, 0), exit(1, 0)})
	t1 := synth(1, 1, []trace.Event{enter(0, 0), exit(2, 0)})
	res := analyze(t, []*trace.Trace{t0, t1})
	if err := res.Report.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Locs) != 2 {
		t.Fatalf("locs %d", len(res.Report.Locs))
	}
	if res.Report.Locs[1].MetahostName != "B" {
		t.Fatalf("loc metahost %q", res.Report.Locs[1].MetahostName)
	}
}
