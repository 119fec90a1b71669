package replay

import (
	"os"
	"path/filepath"
	"testing"

	"metascope/internal/archive"
	"metascope/internal/obs/flight"
	"metascope/internal/pattern"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// flightEv builds one snapshot event with millisecond-scale stamps.
func flightEv(whenMS int64, actor int32, kind flight.Kind, name flight.NameID, a, b int64) flight.Event {
	return flight.Event{When: whenMS * 1e6, Actor: actor, Job: -1, Kind: kind, Name: name, A: a, B: b}
}

// Names table shared by the hand-made snapshots below; ids are 1-based
// positions.
var selftraceNames = []string{"replay-worker", "mailbox-take", "mailbox-put", "collective-gather"}

const (
	nWorker flight.NameID = 1
	nTake   flight.NameID = 2
	nPut    flight.NameID = 3
	nGather flight.NameID = 4
)

// TestBuildFlightTracesRoundTrip feeds a minimal two-actor recording —
// actor 5 puts a message for actor 9, which blocked for it — through
// the exporter and back through the analyzer. The blocked take must
// come out as a matched receive with Late Sender severity.
func TestBuildFlightTracesRoundTrip(t *testing.T) {
	sig := flightSig(0, 7)
	snap := &flight.Snapshot{
		Names: selftraceNames,
		Events: []flight.Event{
			flightEv(0, 5, flight.SpanBegin, nWorker, 0, 0),
			flightEv(0, 9, flight.SpanBegin, nWorker, 0, 0),
			flightEv(1, 9, flight.BlockBegin, nTake, 5, sig),
			flightEv(30, 5, flight.Send, nPut, 9, sig),
			flightEv(31, 9, flight.BlockEnd, nTake, 5, sig),
			flightEv(32, 5, flight.SpanEnd, nWorker, 0, 0),
			flightEv(33, 9, flight.SpanEnd, nWorker, 0, 0),
		},
	}
	traces, err := BuildFlightTraces(snap, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	// Actors renumber densely: 5 -> rank 0, 9 -> rank 1.
	if traces[0].Loc.Rank != 0 || traces[1].Loc.Rank != 1 {
		t.Fatalf("ranks not dense: %v, %v", traces[0].Loc, traces[1].Loc)
	}
	if n := traces[0].CountKind(trace.KindSend); n != 1 {
		t.Fatalf("sender trace has %d sends, want 1", n)
	}
	if n := traces[1].CountKind(trace.KindRecv); n != 1 {
		t.Fatalf("receiver trace has %d recvs, want 1", n)
	}

	res, err := Analyze(traces, Config{Scheme: vclock.FlatSingle, Title: "self"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 1 {
		t.Fatalf("self-replay matched %d messages, want 1", res.Messages)
	}
	ls := res.Report.RankMetricTotal(pattern.KeyLateSender, 1)
	if ls <= 0 {
		t.Fatalf("blocked take produced no Late Sender severity (got %g)", ls)
	}
}

// TestBuildFlightTracesBalancePrune drops the message events that lost
// their counterpart to ring overwrites: three puts survived but only
// one take, so exactly one send/recv pair may remain or the
// self-replay would block forever.
func TestBuildFlightTracesBalancePrune(t *testing.T) {
	sig := flightSig(3, 1)
	snap := &flight.Snapshot{
		Names: selftraceNames,
		Events: []flight.Event{
			flightEv(1, 0, flight.Send, nPut, 1, sig),
			flightEv(2, 0, flight.Send, nPut, 1, sig),
			flightEv(3, 0, flight.Send, nPut, 1, sig),
			flightEv(4, 1, flight.BlockBegin, nTake, 0, sig),
			flightEv(5, 1, flight.BlockEnd, nTake, 0, sig),
		},
	}
	traces, err := BuildFlightTraces(snap, -1)
	if err != nil {
		t.Fatal(err)
	}
	if n := traces[0].CountKind(trace.KindSend); n != 1 {
		t.Fatalf("pruned sender trace has %d sends, want 1", n)
	}
	// The demoted puts keep their region spans.
	if n := traces[0].CountKind(trace.KindEnter); n != 4 { // root + 3 puts
		t.Fatalf("sender trace has %d enters, want 4", n)
	}
	if _, err := Analyze(traces, Config{Scheme: vclock.FlatSingle}); err != nil {
		t.Fatalf("self-replay of pruned traces failed: %v", err)
	}
}

// TestBuildFlightTracesChoppedRing survives a window whose edges the
// ring cut off: a BlockEnd with no Begin, and a Gather left open at
// the end. The output must still validate.
func TestBuildFlightTracesChoppedRing(t *testing.T) {
	sig := flightSig(0, 2)
	snap := &flight.Snapshot{
		Names: selftraceNames,
		Events: []flight.Event{
			flightEv(1, 4, flight.BlockEnd, nTake, 11, sig),   // begin fell off
			flightEv(2, 4, flight.Send, nPut, 11, sig),        // peer recorded nothing
			flightEv(3, 4, flight.GatherBegin, nGather, 0, 0), // never closed
		},
	}
	traces, err := BuildFlightTraces(snap, -1)
	if err != nil {
		t.Fatal(err)
	}
	tr := traces[0]
	if n := tr.CountKind(trace.KindRecv); n != 0 {
		t.Fatalf("orphaned BlockEnd produced %d recvs, want 0", n)
	}
	if n := tr.CountKind(trace.KindSend); n != 0 {
		t.Fatalf("send to an unrecorded actor produced %d sends, want 0", n)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("chopped trace does not validate: %v", err)
	}
}

// TestBuildFlightTracesJobFilter keeps only the requested job's
// events.
func TestBuildFlightTracesJobFilter(t *testing.T) {
	ev := flightEv(1, 0, flight.SpanBegin, nWorker, 0, 0)
	ev.Job = 3
	snap := &flight.Snapshot{Names: selftraceNames, Events: []flight.Event{ev}}
	if _, err := BuildFlightTraces(snap, -1); err == nil {
		t.Fatal("no error for a snapshot with no job -1 events")
	}
	traces, err := BuildFlightTraces(snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
}

// TestWriteFlightArchiveMounts writes a recording to disk and mounts
// it back through the standard archive autodetection path.
func TestWriteFlightArchiveMounts(t *testing.T) {
	rec := flight.New()
	rec.Enable(0)
	fn := newFlightNames(rec)
	sig := flightSig(0, 1)
	w0 := rec.Writer(0)
	w1 := rec.Writer(1)
	w0.Emit(flight.SpanBegin, -1, fn.worker, 0, 0)
	w1.Emit(flight.SpanBegin, -1, fn.worker, 0, 0)
	w1.Emit(flight.BlockBegin, -1, fn.take, 0, sig)
	w0.Emit(flight.Send, -1, fn.put, 1, sig)
	w1.Emit(flight.BlockEnd, -1, fn.take, 0, sig)
	w0.Emit(flight.SpanEnd, -1, fn.worker, 0, 0)
	w1.Emit(flight.SpanEnd, -1, fn.worker, 0, 0)

	root := t.TempDir()
	if err := WriteFlightArchive(rec, root); err != nil {
		t.Fatal(err)
	}
	mounts, metahosts, dir, err := archive.MountTree(root, "")
	if err != nil {
		t.Fatal(err)
	}
	if dir != "epik_flight" {
		t.Fatalf("detected archive %q, want epik_flight", dir)
	}
	traces, err := LoadArchive(mounts, metahosts, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("loaded %d traces, want 2", len(traces))
	}
	if traces[0].Loc.MetahostName != "metascope" {
		t.Fatalf("metahost name %q, want metascope", traces[0].Loc.MetahostName)
	}
	// Every file is in the default format, like every archive metascope run writes.
	for r := range traces {
		data, err := os.ReadFile(filepath.Join(root, "metascope", archive.TraceFile(dir, r)))
		if err != nil {
			t.Fatal(err)
		}
		if f, err := trace.FormatOf(data); err != nil || f != trace.FormatV2 {
			t.Errorf("rank %d's flight trace sniffs as %v (%v), want v2", r, f, err)
		}
	}
}

// TestWriteFlightArchiveEmpty: a command that replayed nothing writes
// the experiment directory without rank files instead of failing.
func TestWriteFlightArchiveEmpty(t *testing.T) {
	rec := flight.New()
	rec.Enable(0)
	root := t.TempDir()
	if err := WriteFlightArchive(rec, root); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(filepath.Join(root, "metascope", "epik_flight"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("empty recording wrote %d files", len(ents))
	}
}
