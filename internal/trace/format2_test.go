package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// synthTrace builds a structurally valid trace with ne events covering
// every event kind, deterministic in seed.
func synthTrace(seed int64, ne int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{
		Loc: Location{Rank: 3, Metahost: 1, MetahostName: "viola-a", Node: 2, CPU: 1},
		Regions: []Region{
			{ID: 1, Name: "main", Kind: RegionUser},
			{ID: 2, Name: "MPI_Send", Kind: RegionMPIP2P},
			{ID: 3, Name: "MPI_Allreduce", Kind: RegionMPIColl},
		},
		Comms: []CommDef{{ID: 0, Ranks: []int32{0, 1, 2, 3}}},
	}
	t.Sync.GlobalMasterRank = 0
	t.Sync.LocalMasterRank = 1
	t.Sync.SharedNodeClock = true
	t.Sync.FlatStart.Local = 0.25
	t.Sync.FlatStart.Offset = -1e-3
	t.Sync.FlatStart.Err = 2e-6
	t.Sync.MasterEnd.Local = 99.5

	now := 1.0
	depth := 0
	for len(t.Events) < ne {
		now += rng.Float64() * 1e-3
		switch k := rng.Intn(6); {
		case k == 0 || depth == 0:
			t.Events = append(t.Events, Event{Kind: KindEnter, Time: now, Region: RegionID(1 + rng.Intn(3))})
			depth++
		case k == 1 && depth > 0:
			t.Events = append(t.Events, Event{Kind: KindExit, Time: now, Region: RegionID(1 + rng.Intn(3))})
			depth--
		case k == 2:
			t.Events = append(t.Events, Event{Kind: KindSend, Time: now,
				Comm: 0, Peer: int32(rng.Intn(4)), Tag: int32(rng.Intn(100)), Bytes: int64(rng.Intn(1 << 20))})
		case k == 3:
			t.Events = append(t.Events, Event{Kind: KindRecv, Time: now,
				Comm: 0, Peer: int32(rng.Intn(4)), Tag: int32(rng.Intn(100)), Bytes: int64(rng.Intn(1 << 20))})
		default:
			t.Events = append(t.Events, Event{Kind: KindCollExit, Time: now,
				Comm: 0, Coll: CollAllreduce, Root: -1, Bytes: 4096})
		}
	}
	return t
}

func encodeV2Bytes(t *testing.T, tr *Trace, blockSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.encodeV2(&buf, blockSize); err != nil {
		t.Fatalf("encodeV2: %v", err)
	}
	return buf.Bytes()
}

func TestV2RoundTrip(t *testing.T) {
	for _, ne := range []int{0, 1, 7, 100, 4096, 4097, 10000} {
		tr := synthTrace(int64(ne), ne)
		data := encodeV2Bytes(t, tr, defaultBlockSize)
		got, err := DecodeBytes(data)
		if err != nil {
			t.Fatalf("ne=%d: decode: %v", ne, err)
		}
		if len(got.Events) == 0 {
			got.Events = nil
		}
		if len(tr.Events) == 0 {
			tr.Events = nil
		}
		if !reflect.DeepEqual(tr, got) {
			t.Fatalf("ne=%d: v2 round trip mutated the trace", ne)
		}
	}
}

// TestV2RoundTripOddBlockSizes exercises block boundaries that do not
// divide the event count, including one-event blocks.
func TestV2RoundTripOddBlockSizes(t *testing.T) {
	tr := synthTrace(7, 1000)
	for _, bs := range []int{1, 2, 3, 63, 999, 1000, 1001, maxBlockSize} {
		data := encodeV2Bytes(t, tr, bs)
		got, err := DecodeBytes(data)
		if err != nil {
			t.Fatalf("bs=%d: decode: %v", bs, err)
		}
		if !reflect.DeepEqual(tr.Events, got.Events) {
			t.Fatalf("bs=%d: events differ after round trip", bs)
		}
	}
}

// TestV2MatchesV1 pins the formats to the same model: any trace must
// decode identically from its v1 and v2 encodings.
func TestV2MatchesV1(t *testing.T) {
	tr := synthTrace(42, 500)
	var v1, v2 bytes.Buffer
	if err := tr.EncodeFormat(&v1, FormatV1); err != nil {
		t.Fatal(err)
	}
	if err := tr.EncodeFormat(&v2, FormatV2); err != nil {
		t.Fatal(err)
	}
	d1, err := DecodeBytes(v1.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DecodeBytes(v2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("v1 and v2 decodes of the same trace differ")
	}
	if v2.Len() >= v1.Len() {
		t.Errorf("v2 image (%d bytes) not smaller than v1 (%d bytes)", v2.Len(), v1.Len())
	}
}

// TestV2TimeBitExact pins the lossless time encoding on values whose
// deltas are not representable as floats (denormals, huge magnitudes,
// sign flips on the bit pattern).
func TestV2TimeBitExact(t *testing.T) {
	times := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 0.1, 1, 1 + 1e-16,
		math.MaxFloat64, math.Inf(1)}
	tr := &Trace{Regions: []Region{{ID: 1, Name: "r"}}}
	for _, tm := range times {
		tr.Events = append(tr.Events, Event{Kind: KindEnter, Time: tm, Region: 1})
	}
	got, err := DecodeBytes(encodeV2Bytes(t, tr, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, tm := range times {
		if b1, b2 := math.Float64bits(tm), math.Float64bits(got.Events[i].Time); b1 != b2 {
			t.Errorf("event %d: time bits %x decoded as %x", i, b1, b2)
		}
	}
}

func TestFormatOf(t *testing.T) {
	tr := synthTrace(1, 10)
	var v1, v2 bytes.Buffer
	if err := tr.Encode(&v1); err != nil {
		t.Fatal(err)
	}
	if err := tr.EncodeV2(&v2); err != nil {
		t.Fatal(err)
	}
	if f, err := FormatOf(v1.Bytes()); err != nil || f != FormatV1 {
		t.Errorf("FormatOf(v1) = %v, %v", f, err)
	}
	if f, err := FormatOf(v2.Bytes()); err != nil || f != FormatV2 {
		t.Errorf("FormatOf(v2) = %v, %v", f, err)
	}
	if _, err := FormatOf([]byte("not a trace")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("foreign input: %v, want ErrBadMagic", err)
	}
	if _, err := FormatOf([]byte{'M', 'S', 'C', 'P', 9}); err == nil {
		t.Error("version 9 accepted")
	}
	if _, err := FormatOf([]byte("MS")); err == nil {
		t.Error("short input accepted")
	}
}

func TestParseFormat(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Format
		ok   bool
	}{
		{"", FormatDefault, true}, {"v1", FormatV1, true}, {"1", FormatV1, true},
		{"v2", FormatV2, true}, {"2", FormatV2, true}, {"v3", 0, false}, {"junk", 0, false},
	} {
		got, err := ParseFormat(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParseFormat(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestBlockReader(t *testing.T) {
	tr := synthTrace(5, 2500)
	data := encodeV2Bytes(t, tr, 512)
	r, err := NewBlockReader(data, NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	if r.Total() != len(tr.Events) {
		t.Fatalf("Total = %d, want %d", r.Total(), len(tr.Events))
	}
	if r.BlockSize() != 512 {
		t.Fatalf("BlockSize = %d, want 512", r.BlockSize())
	}
	if got := r.Trace(); got.Loc != tr.Loc || len(got.Events) != 0 {
		t.Fatal("header trace wrong or carries events")
	}
	buf := make([]Event, r.BlockSize())
	var all []Event
	for {
		n, err := r.Next(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, buf[:n]...)
	}
	if !reflect.DeepEqual(all, tr.Events) {
		t.Fatal("block-at-a-time decode differs from the encoded events")
	}
	// EOF is sticky.
	if _, err := r.Next(buf); err != io.EOF {
		t.Fatalf("post-EOF Next: %v", err)
	}
}

func TestBlockReaderRejectsV1(t *testing.T) {
	tr := synthTrace(5, 10)
	var v1 bytes.Buffer
	if err := tr.Encode(&v1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBlockReader(v1.Bytes(), nil); err == nil {
		t.Fatal("v1 image accepted")
	}
}

func TestBlockReaderSmallBuffer(t *testing.T) {
	tr := synthTrace(5, 100)
	r, err := NewBlockReader(encodeV2Bytes(t, tr, 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(make([]Event, 10)); err == nil {
		t.Fatal("undersized buffer accepted")
	}
}

// TestV2Truncation decodes every prefix of a v2 image; none may
// succeed (except the full image) and none may panic.
func TestV2Truncation(t *testing.T) {
	tr := synthTrace(11, 300)
	data := encodeV2Bytes(t, tr, 64)
	for n := 0; n < len(data); n++ {
		if _, err := DecodeBytes(data[:n]); err == nil {
			t.Fatalf("truncated image of %d/%d bytes decoded without error", n, len(data))
		}
	}
	if _, err := DecodeBytes(data); err != nil {
		t.Fatalf("full image: %v", err)
	}
}

// TestV2CorruptBlock flips the block payload length and the in-block
// event count; the decoder must reject both without panicking.
func TestV2Corrupt(t *testing.T) {
	tr := synthTrace(11, 50)
	data := encodeV2Bytes(t, tr, 16)
	for i := range data {
		for _, delta := range []byte{1, 0x80, 0xff} {
			mut := append([]byte(nil), data...)
			mut[i] ^= delta
			tr2, err := DecodeBytes(mut) // must not panic
			if err == nil && tr2 != nil {
				_ = tr2.Validate() // may or may not fail; must not panic
			}
		}
	}
}

func TestV2RejectsOversizedBlockSize(t *testing.T) {
	tr := synthTrace(11, 50)
	if err := tr.encodeV2(io.Discard, maxBlockSize+1); err == nil {
		t.Fatal("oversized encoder block size accepted")
	}
	if err := tr.encodeV2(io.Discard, 0); err == nil {
		t.Fatal("zero encoder block size accepted")
	}
}

func TestEncodeFormatUnknown(t *testing.T) {
	tr := synthTrace(11, 5)
	if err := tr.EncodeFormat(io.Discard, Format(9)); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// BenchmarkV2BlockDecode is the allocation contract behind the
// check.sh gate: after the first block warms the scratch, BlockReader
// must not allocate per block. One iteration decodes one block.
func BenchmarkV2BlockDecode(b *testing.B) {
	tr := synthTrace(1, 100000)
	var buf bytes.Buffer
	if err := tr.EncodeV2(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	r, err := NewBlockReader(data, NewInterner())
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]Event, r.BlockSize())
	// Warm the scratch outside the timed region.
	if _, err := r.Next(dst); err != nil {
		b.Fatal(err)
	}
	r.Reset()
	b.SetBytes(int64(defaultBlockSize * 16)) // approximate decoded bytes per block
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := r.Next(dst)
		if err == io.EOF {
			r.Reset()
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		_ = n
	}
}

// BenchmarkV2BlockIngest is the allocation contract of the validating
// path behind the second check.sh gate: NextInto decodes and validates
// one block per iteration into a block the caller reuses, and must not
// allocate either.
func BenchmarkV2BlockIngest(b *testing.B) {
	tr := synthTrace(1, 100000)
	for depth := tr.CountKind(KindEnter) - tr.CountKind(KindExit); depth > 0; depth-- {
		tr.Events = append(tr.Events, Event{Kind: KindExit, Time: tr.Events[len(tr.Events)-1].Time, Region: 1})
	}
	var buf bytes.Buffer
	if err := tr.EncodeV2(&buf); err != nil {
		b.Fatal(err)
	}
	r, err := NewBlockReader(buf.Bytes(), NewInterner())
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]Event, r.BlockSize())
	reserve := func(n int) []Event { return dst[:n] }
	// Warm the validator outside the timed region.
	if _, err := r.NextInto(reserve); err != nil {
		b.Fatal(err)
	}
	r.Reset()
	b.SetBytes(int64(defaultBlockSize * 16)) // approximate decoded bytes per block
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := r.NextInto(reserve)
		if err != nil {
			b.Fatal(err)
		}
		if blk == nil {
			r.Reset()
		}
	}
}

func TestBlockReaderReset(t *testing.T) {
	tr := synthTrace(5, 300)
	r, err := NewBlockReader(encodeV2Bytes(t, tr, 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Event, r.BlockSize())
	read := func() []Event {
		var all []Event
		for {
			n, err := r.Next(buf)
			if err == io.EOF {
				return all
			}
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, buf[:n]...)
		}
	}
	first := read()
	r.Reset()
	second := read()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("second pass after Reset differs from the first")
	}
}
