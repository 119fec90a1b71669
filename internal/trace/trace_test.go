package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"metascope/internal/vclock"
)

// sampleTrace builds a small, structurally valid trace.
func sampleTrace() *Trace {
	return &Trace{
		Loc: Location{Rank: 3, Metahost: 1, MetahostName: "FH-BRS", Node: 0, CPU: 3},
		Sync: SyncData{
			GlobalMasterRank: 0,
			LocalMasterRank:  0,
			SharedNodeClock:  true,
			FlatStart:        vclock.Measurement{Local: 1.5, Offset: -0.25, Err: 1e-5},
			FlatEnd:          vclock.Measurement{Local: 99.5, Offset: -0.245, Err: 2e-5},
			LocalStart:       vclock.Measurement{Local: 1.6, Offset: 0.1, Err: 1e-6},
			LocalEnd:         vclock.Measurement{Local: 99.6, Offset: 0.11, Err: 1e-6},
			MasterStart:      vclock.Measurement{Local: 1.4, Offset: -0.35, Err: 3e-5},
			MasterEnd:        vclock.Measurement{Local: 99.4, Offset: -0.34, Err: 3e-5},
		},
		Regions: []Region{
			{ID: 0, Name: "main", Kind: RegionUser},
			{ID: 1, Name: "MPI_Send", Kind: RegionMPIP2P},
			{ID: 2, Name: "MPI_Barrier", Kind: RegionMPIColl},
		},
		Comms: []CommDef{
			{ID: 0, Ranks: []int32{0, 1, 2, 3}},
			{ID: 1, Ranks: []int32{1, 3}},
		},
		Events: []Event{
			{Kind: KindEnter, Time: 1.0, Region: 0},
			{Kind: KindEnter, Time: 1.25, Region: 1},
			{Kind: KindSend, Time: 1.25, Comm: 1, Peer: 0, Tag: 42, Bytes: 65536},
			{Kind: KindExit, Time: 1.5, Region: 1},
			{Kind: KindEnter, Time: 2.0, Region: 2},
			{Kind: KindCollExit, Time: 2.5, Comm: 0, Coll: CollBarrier, Root: -1, Bytes: 0},
			{Kind: KindExit, Time: 2.5, Region: 2},
			{Kind: KindEnter, Time: 3.0, Region: 1},
			{Kind: KindRecv, Time: 3.5, Comm: 1, Peer: 0, Tag: 43, Bytes: 10},
			{Kind: KindExit, Time: 3.5, Region: 1},
			{Kind: KindExit, Time: 4.0, Region: 0},
		},
	}
}

// TestEventSize: every resident event array and every lazy or live block
// is this struct times the event count, so its size is pinned — the
// fields are ordered widest first and pack without a hole. A new field,
// or a reorder that opens padding, is a decision to take here.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(trace.Event{}) = %d, want 40", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip mismatch:\norig %+v\ngot  %+v", orig, got)
	}
}

func TestDecodeRejectsForeignData(t *testing.T) {
	_, err := DecodeBytes([]byte("not a trace at all, sorry"))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail loudly, never crash or succeed.
	for cut := 1; cut < len(full); cut += 7 {
		if _, err := DecodeBytes(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(full))
		}
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // version byte follows the 4-byte magic
	if _, err := DecodeBytes(b); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version accepted: %v", err)
	}
}

func TestEncodeRejectsInvalidEventKind(t *testing.T) {
	tr := sampleTrace()
	tr.Events = append(tr.Events, Event{Kind: EventKind(77)})
	if err := tr.Encode(&bytes.Buffer{}); err == nil {
		t.Fatalf("invalid event kind encoded")
	}
}

// Property: round trip is the identity for randomized (valid) traces.
func TestRoundTripProperty(t *testing.T) {
	gen := func(r *rand.Rand) *Trace {
		tr := &Trace{
			Loc: Location{
				Rank: r.Intn(64), Metahost: r.Intn(4),
				MetahostName: "mh" + string(rune('A'+r.Intn(26))),
				Node:         r.Intn(8), CPU: r.Intn(4),
			},
			Regions: []Region{{ID: 0, Name: "main", Kind: RegionUser},
				{ID: 1, Name: "MPI_Send", Kind: RegionMPIP2P}},
			Comms: []CommDef{{ID: 0, Ranks: []int32{0, 1, 2}}},
		}
		now := r.Float64()
		depth := 0
		for i := 0; i < 30; i++ {
			now += r.Float64()
			switch r.Intn(4) {
			case 0:
				tr.Events = append(tr.Events, Event{Kind: KindEnter, Time: now, Region: RegionID(r.Intn(2))})
				depth++
			case 1:
				if depth > 0 {
					tr.Events = append(tr.Events, Event{Kind: KindExit, Time: now, Region: 0})
					depth--
				}
			case 2:
				if depth > 0 {
					tr.Events = append(tr.Events, Event{
						Kind: KindSend, Time: now,
						Comm: 0, Peer: int32(r.Intn(3)), Tag: int32(r.Intn(100)), Bytes: int64(r.Intn(1 << 20)),
					})
				}
			case 3:
				if depth > 0 {
					tr.Events = append(tr.Events, Event{
						Kind: KindCollExit, Time: now,
						Comm: 0, Coll: CollOp(1 + r.Intn(8)), Root: int32(r.Intn(3)), Bytes: int64(r.Intn(4096)),
					})
				}
			}
		}
		for depth > 0 {
			now += r.Float64()
			tr.Events = append(tr.Events, Event{Kind: KindExit, Time: now, Region: 0})
			depth--
		}
		return tr
	}
	f := func(seed int64) bool {
		tr := gen(rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return false
		}
		got, err := DecodeBytes(buf.Bytes())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	base := sampleTrace

	tr := base()
	tr.Events[3].Time = 0.5 // goes backwards
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "before predecessor") {
		t.Errorf("backwards time not caught: %v", err)
	}

	// A NaN is not before anything and an infinity is after everything:
	// neither trips the order check, at the first event or the last.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, len(base().Events) - 1} {
			tr = base()
			tr.Events[at].Time = bad
			want := fmt.Sprintf("event %d has non-finite time %g", at, bad)
			if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("time %g at event %d not caught: %v", bad, at, err)
			}
		}
	}

	tr = base()
	tr.Events = tr.Events[:len(tr.Events)-1] // unclosed region
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "unclosed") {
		t.Errorf("unclosed region not caught: %v", err)
	}

	tr = base()
	tr.Events[0].Region = 55 // unknown region
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "unknown region") {
		t.Errorf("unknown region not caught: %v", err)
	}

	tr = base()
	tr.Events = append([]Event{{Kind: KindExit, Time: 0.1, Region: 0}}, tr.Events...)
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "without matching enter") {
		t.Errorf("stray exit not caught: %v", err)
	}

	tr = base()
	tr.Events = []Event{{Kind: KindSend, Time: 1, Comm: 0}}
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "outside any region") {
		t.Errorf("naked send not caught: %v", err)
	}

	tr = base()
	tr.Events[0].Kind = EventKind(0)
	if err := tr.Validate(); err == nil {
		t.Errorf("invalid kind not caught")
	}
}

func TestCollOpClasses(t *testing.T) {
	nxn := []CollOp{CollAllreduce, CollAllgather, CollAlltoall}
	for _, op := range nxn {
		if !op.IsNxN() || op.IsOneToN() || op.IsNToOne() {
			t.Errorf("%v misclassified", op)
		}
	}
	for _, op := range []CollOp{CollBcast, CollScatter} {
		if !op.IsOneToN() || op.IsNxN() || op.IsNToOne() {
			t.Errorf("%v misclassified", op)
		}
	}
	for _, op := range []CollOp{CollReduce, CollGather} {
		if !op.IsNToOne() || op.IsNxN() || op.IsOneToN() {
			t.Errorf("%v misclassified", op)
		}
	}
	if CollBarrier.IsNxN() || CollBarrier.IsOneToN() || CollBarrier.IsNToOne() {
		t.Errorf("barrier misclassified")
	}
}

// TestRegionTableMatchesMap: whatever ids a header declares — dense from
// zero, ascending with holes, unsorted, repeated, at the top of the id
// space — Lookup resolves every id as a map filled in declaration order
// does, the last declaration of a repeated id winning.
func TestRegionTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	headers := [][]RegionID{
		nil,
		{0, 1, 2, 3},
		{0, 1, 2, 4, 7, 1 << 16, 1<<16 + 1, 0xFFFFFFFF},
		{5, 0, 3, 3, 0xFFFFFFFE, 1, 0},
	}
	for i := 0; i < 50; i++ {
		ids := make([]RegionID, rng.Intn(40))
		for j := range ids {
			ids[j] = RegionID(rng.Intn(48))
			if rng.Intn(8) == 0 {
				ids[j] = RegionID(rng.Uint32())
			}
		}
		headers = append(headers, ids)
	}
	for _, ids := range headers {
		regions := make([]Region, len(ids))
		want := map[RegionID]string{}
		probes := []RegionID{0, 1, 47, 48, 1 << 16, 0xFFFFFFFF}
		for j, id := range ids {
			regions[j] = Region{ID: id, Name: fmt.Sprint("r", j)}
			want[id] = regions[j].Name
			probes = append(probes, id, id+1, id-1)
		}
		table := NewRegionTable(regions)
		for _, id := range probes {
			r := table.Lookup(id)
			if name, ok := want[id]; ok != (r != nil) || ok && (r.Name != name || r.ID != id) {
				t.Fatalf("header %v: Lookup(%d) = %+v, want %q (declared %v)", ids, id, r, name, ok)
			}
		}
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := sampleTrace()
	if d := tr.Duration(); math.Abs(d-3.0) > 1e-12 {
		t.Errorf("Duration = %g, want 3", d)
	}
	if n := tr.CountKind(KindEnter); n != 4 {
		t.Errorf("CountKind(Enter) = %d, want 4", n)
	}
	regions := NewRegionTable(tr.Regions)
	if r := regions.Lookup(1); r == nil || r.Name != "MPI_Send" {
		t.Errorf("Lookup(1) = %+v", r)
	}
	if regions.Lookup(99) != nil {
		t.Errorf("unknown region found")
	}
	if cd := tr.CommByID(1); cd == nil || len(cd.Ranks) != 2 {
		t.Errorf("CommByID(1) = %+v", cd)
	}
	if tr.CommByID(9) != nil {
		t.Errorf("unknown comm found")
	}
	if (&Trace{}).Duration() != 0 {
		t.Errorf("empty trace duration")
	}
}

func TestStringers(t *testing.T) {
	if KindEnter.String() != "ENTER" || EventKind(99).String() == "" {
		t.Errorf("EventKind.String broken")
	}
	if RegionMPIColl.String() != "mpi-coll" || RegionKind(9).String() == "" {
		t.Errorf("RegionKind.String broken")
	}
	if CollAllreduce.String() != "MPI_Allreduce" || CollOp(99).String() == "" {
		t.Errorf("CollOp.String broken")
	}
	loc := Location{Rank: 2, Metahost: 1, MetahostName: "FZJ", Node: 4, CPU: 0}
	if got := loc.String(); got != "FZJ:rank2@1/4/0" {
		t.Errorf("Location.String = %q", got)
	}
}

func TestLargeTraceEncodeSize(t *testing.T) {
	// The varint encoding should stay compact: an Enter/Exit pair is
	// ~20 bytes (two 8-byte floats plus small varints).
	tr := &Trace{
		Loc:     Location{MetahostName: "x"},
		Regions: []Region{{ID: 0, Name: "f", Kind: RegionUser}},
	}
	const pairs = 10000
	now := 0.0
	for i := 0; i < pairs; i++ {
		now += 0.001
		tr.Events = append(tr.Events, Event{Kind: KindEnter, Time: now, Region: 0})
		now += 0.001
		tr.Events = append(tr.Events, Event{Kind: KindExit, Time: now, Region: 0})
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	perEvent := float64(buf.Len()) / float64(2*pairs)
	if perEvent > 16 {
		t.Errorf("encoding too fat: %.1f bytes/event", perEvent)
	}
	got, err := DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 2*pairs {
		t.Fatalf("decoded %d events", len(got.Events))
	}
}
