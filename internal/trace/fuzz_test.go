package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"metascope/internal/vclock"
)

// seedTraces returns example traces covering every event kind, the
// basis of the fuzz seed corpora in both encodings.
func seedTraces() []*Trace {
	return []*Trace{
		sampleTrace(),
		{Loc: Location{MetahostName: "tiny"}},
		{
			Loc: Location{Rank: 1, Metahost: 2, MetahostName: "FZJ", Node: 3, CPU: 0},
			Sync: SyncData{
				FlatStart: vclock.Measurement{Local: 0, Offset: 0.5, Err: 1e-6},
				FlatEnd:   vclock.Measurement{Local: 9, Offset: 0.6, Err: 1e-6},
			},
			Regions: []Region{{ID: 0, Name: "main", Kind: RegionUser}},
			Comms:   []CommDef{{ID: 0, Ranks: []int32{0, 1}}},
			Events: []Event{
				{Kind: KindEnter, Time: 0, Region: 0},
				{Kind: KindSend, Time: 1, Comm: 0, Peer: 1, Tag: -3, Bytes: 1 << 20},
				{Kind: KindRecv, Time: 2, Comm: 0, Peer: 1, Tag: 9, Bytes: 16},
				{Kind: KindCollExit, Time: 3, Comm: 0, Coll: CollAllreduce, Root: -1, Bytes: 8},
				{Kind: KindExit, Time: 4, Region: 0},
			},
		},
	}
}

// encodedSeeds returns the seed traces in the v1 row encoding.
func encodedSeeds(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, tr := range seedTraces() {
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// encodedV2Seeds returns the seed traces in the v2 block encoding, with
// a deliberately tiny block size on the last one so the corpus carries
// a multi-block image.
func encodedV2Seeds(t testing.TB) [][]byte {
	t.Helper()
	seeds := seedTraces()
	var out [][]byte
	for i, tr := range seeds {
		bs := defaultBlockSize
		if i == len(seeds)-1 {
			bs = 2
		}
		var buf bytes.Buffer
		if err := tr.encodeV2(&buf, bs); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// explicitSeeds returns the seed traces in format f with every member
// list spelled out, as images from before run coding are written (v2
// with the same block sizes as encodedV2Seeds).
func explicitSeeds(t testing.TB, f Format) [][]byte {
	t.Helper()
	seeds := seedTraces()
	var out [][]byte
	for i, tr := range seeds {
		bs := defaultBlockSize
		if i == len(seeds)-1 {
			bs = 2
		}
		var buf bytes.Buffer
		if err := tr.EncodeExplicit(&buf, f, bs); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// runWorldTrace declares a 4096-rank world and the odd ranks of it
// around a barrier: two runs of three varints each.
func runWorldTrace() *Trace {
	world, odd := make([]int32, 4096), make([]int32, 2048)
	for i := range world {
		world[i] = int32(i)
	}
	for i := range odd {
		odd[i] = int32(2*i + 1)
	}
	return &Trace{
		Loc:     Location{Rank: 7, MetahostName: "big"},
		Regions: []Region{{ID: 0, Name: "MPI_Barrier", Kind: RegionMPIColl}},
		Comms:   []CommDef{{ID: 0, Ranks: world}, {ID: 1, Ranks: odd}},
		Events: []Event{
			{Kind: KindEnter, Time: 1, Region: 0},
			{Kind: KindCollExit, Time: 2, Comm: 1, Coll: CollBarrier, Root: -1},
			{Kind: KindExit, Time: 2, Region: 0},
		},
	}
}

func runWorldImage(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := runWorldTrace().EncodeV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withComms returns the v2 image of an empty trace whose header declares
// one communicator with the given id and runs, (start, count, stride)
// each, written as they stand: a header no writer produces.
func withComms(t testing.TB, id int64, nruns uint64, r ...int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (&Trace{Loc: Location{MetahostName: "x"}}).EncodeV2(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// The image ends in the communicator count, the event count (both
	// 0) and the two-byte block size.
	tail := len(img) - 4
	if img[tail] != 0 || img[tail+1] != 0 {
		t.Fatalf("unexpected tail % x", img[tail:])
	}
	out := append([]byte{}, img[:tail]...)
	out = append(out, 1)
	out = binary.AppendVarint(out, id)
	out = binary.AppendUvarint(out, nruns)
	for i := 0; i+2 < len(r); i += 3 {
		out = binary.AppendVarint(out, r[i])
		out = binary.AppendUvarint(out, uint64(r[i+1]))
		out = binary.AppendVarint(out, r[i+2])
	}
	return append(out, img[tail+1:]...)
}

// encodeV1Bytes re-encodes tr in the v1 format. The fuzz targets judge
// trace equality by comparing these bytes: the encoding is canonical,
// and byte comparison stays exact on NaN time stamps, which defeat
// reflect.DeepEqual.
func encodeV1Bytes(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	return buf.Bytes()
}

// FuzzDecode feeds arbitrary bytes to the slice decoder. Whatever the
// input, Decode must return cleanly — no panics, no runaway
// allocations from corrupt headers — and anything it accepts must
// survive a re-encode/re-decode round trip.
func FuzzDecode(f *testing.F) {
	for _, seed := range encodedSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte("MSCP"))
	f.Add([]byte("MSCP\x01"))
	f.Add([]byte("not a trace"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeBytes(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("decoded trace failed to re-encode: %v", err)
		}
		again, err := DecodeBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if len(again.Events) != len(tr.Events) || len(again.Regions) != len(tr.Regions) {
			t.Fatalf("round trip changed shape: %d/%d events, %d/%d regions",
				len(tr.Events), len(again.Events), len(tr.Regions), len(again.Regions))
		}
	})
}

// eventBitEqual compares two events with bit-exact time comparison.
func eventBitEqual(a, b Event) bool {
	return a.Kind == b.Kind && math.Float64bits(a.Time) == math.Float64bits(b.Time) &&
		a.Region == b.Region && a.Comm == b.Comm && a.Peer == b.Peer &&
		a.Tag == b.Tag && a.Bytes == b.Bytes && a.Coll == b.Coll && a.Root == b.Root
}

// FuzzDecodeV2 hammers the columnar block decoder: arbitrary bytes must
// decode cleanly or fail cleanly; anything accepted must survive a v2
// re-encode round trip; and on v2 images the block-at-a-time reader
// must agree event for event with the one-shot decode.
func FuzzDecodeV2(f *testing.F) {
	for _, seed := range encodedV2Seeds(f) {
		f.Add(seed)
	}
	f.Add(runWorldImage(f))
	f.Add(withComms(f, 0, 1, 0, 1<<40, 1))
	f.Add([]byte("MSCP\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeBytes(data)
		if err != nil {
			return
		}
		var v2 bytes.Buffer
		if err := tr.EncodeV2(&v2); err != nil {
			t.Fatalf("decoded trace failed to re-encode as v2: %v", err)
		}
		again, err := DecodeBytes(v2.Bytes())
		if err != nil {
			t.Fatalf("re-encoded v2 trace failed to decode: %v", err)
		}
		if !bytes.Equal(encodeV1Bytes(t, tr), encodeV1Bytes(t, again)) {
			t.Fatal("v2 round trip changed the trace")
		}
		if fv, _ := FormatOf(data); fv != FormatV2 {
			return
		}
		r, err := NewBlockReader(data, nil)
		if err != nil {
			t.Fatalf("one-shot decode accepted a v2 image BlockReader rejects: %v", err)
		}
		buf := make([]Event, r.BlockSize())
		total := 0
		for {
			n, err := r.Next(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("block %d starting at event %d: %v", total/r.BlockSize(), total, err)
			}
			if total+n > len(tr.Events) {
				t.Fatalf("blocks yielded %d events, one-shot decode %d", total+n, len(tr.Events))
			}
			for i := 0; i < n; i++ {
				if !eventBitEqual(buf[i], tr.Events[total+i]) {
					t.Fatalf("event %d differs between block and one-shot decode", total+i)
				}
			}
			total += n
		}
		if total != len(tr.Events) {
			t.Fatalf("blocks yielded %d events, one-shot decode %d", total, len(tr.Events))
		}
	})
}

// FuzzDecodeDifferential cross-checks the two encoders: any trace the
// decoder accepts, in either format, must re-encode as v2 and decode
// back to the identical trace — judged by byte-identical v1
// re-encodings, so the check is exact even on NaN time stamps.
func FuzzDecodeDifferential(f *testing.F) {
	for _, seed := range encodedSeeds(f) {
		f.Add(seed)
	}
	for _, seed := range encodedV2Seeds(f) {
		f.Add(seed)
	}
	for _, seed := range explicitSeeds(f, FormatV2) {
		f.Add(seed)
	}
	f.Add(runWorldImage(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeBytes(data)
		if err != nil {
			return
		}
		ref := encodeV1Bytes(t, tr)
		var v2 bytes.Buffer
		if err := tr.EncodeV2(&v2); err != nil {
			t.Fatalf("accepted trace failed to encode as v2: %v", err)
		}
		got, err := DecodeBytes(v2.Bytes())
		if err != nil {
			t.Fatalf("v2 image of an accepted trace failed to decode: %v", err)
		}
		if !bytes.Equal(ref, encodeV1Bytes(t, got)) {
			t.Fatal("v1 → v2 → decode → v1 is not the identity")
		}
	})
}

// corruptVarint overwrites the varint at off with the given value,
// keeping the rest of the image intact (the new varint must use the
// same byte length as the old one for the tail to stay aligned; the
// tests pick offsets where that holds).
func putUvarintAt(data []byte, off int, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	_, oldLen := binary.Uvarint(data[off:])
	out := append([]byte{}, data[:off]...)
	out = append(out, tmp[:n]...)
	return append(out, data[off+oldLen:]...)
}

// TestDecodeRejectsOversizedCounts corrupts each count header of a
// valid image to a value the remaining bytes cannot satisfy; the
// decoder must fail before allocating the declared amount.
func TestDecodeRejectsOversizedCounts(t *testing.T) {
	img := encodedSeeds(t)[0]

	// Locate the section offsets by re-decoding with a tracking decoder.
	d := &decoder{data: img}
	d.pos = 5 // magic + version
	d.i64()   // rank
	d.i64()   // metahost
	d.i64()   // node
	d.i64()   // cpu
	d.str()   // metahost name
	d.i64()   // global master
	d.i64()   // local master
	d.byte()  // shared clock
	for i := 0; i < 18; i++ {
		d.f64()
	}
	regionCountOff := d.pos
	if d.err != nil {
		t.Fatal(d.err)
	}

	// A region count far beyond the remaining input must be rejected
	// with a bounded error, not an allocation.
	bad := putUvarintAt(img, regionCountOff, 1<<19)
	if _, err := DecodeBytes(bad); err == nil ||
		!strings.Contains(err.Error(), "exceeds remaining input") {
		t.Fatalf("oversized region count accepted: %v", err)
	}
	// Beyond the absolute cap: "implausible".
	bad = putUvarintAt(img, regionCountOff, 1<<40)
	if _, err := DecodeBytes(bad); err == nil ||
		!strings.Contains(err.Error(), "implausible") {
		t.Fatalf("implausible region count accepted: %v", err)
	}
}

// TestDecodeRejectsOversizedEventCount truncates a valid image right
// after an inflated event count: the declared count must be validated
// against the remaining bytes before make([]Event, ne) runs.
func TestDecodeRejectsOversizedEventCount(t *testing.T) {
	// Build a trace with no regions/comms/events, so the event count is
	// the last varint of the image.
	var buf bytes.Buffer
	if err := (&Trace{Loc: Location{MetahostName: "x"}}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	eventCountOff := len(img) - 1 // trailing zero varint
	bad := putUvarintAt(img, eventCountOff, 1<<27)
	if _, err := DecodeBytes(bad); err == nil ||
		!strings.Contains(err.Error(), "exceeds remaining input") {
		t.Fatalf("oversized event count accepted: %v", err)
	}
	bad = putUvarintAt(img, eventCountOff, 1<<30)
	if _, err := DecodeBytes(bad); err == nil ||
		!strings.Contains(err.Error(), "implausible") {
		t.Fatalf("implausible event count accepted: %v", err)
	}
}

// TestDecodeBytesInterned checks that two decodes through one interner
// share region-name storage, and that a nil interner still works.
func TestDecodeBytesInterned(t *testing.T) {
	img := encodedSeeds(t)[0]
	in := NewInterner()
	a, err := DecodeBytesInterned(img, in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBytesInterned(img, in)
	if err != nil {
		t.Fatal(err)
	}
	if in.Len() == 0 {
		t.Fatal("interner saw no strings")
	}
	for i := range a.Regions {
		if a.Regions[i].Name != b.Regions[i].Name {
			t.Fatalf("region %d name mismatch", i)
		}
	}
	if a.Loc.MetahostName != b.Loc.MetahostName {
		t.Fatal("metahost name mismatch")
	}
	// Same image through a nil interner must decode identically.
	c, err := DecodeBytesInterned(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Loc.MetahostName != a.Loc.MetahostName {
		t.Fatal("nil-interner decode diverged")
	}
}
