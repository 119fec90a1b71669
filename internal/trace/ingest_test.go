package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"
)

// ingestOutcome is what ingesting one image came to: the events handed
// over, in order, and the message of the error that ended it ("" for
// none).
type ingestOutcome struct {
	events []Event
	err    string
}

func (o ingestOutcome) equal(p ingestOutcome) bool {
	if o.err != p.err || len(o.events) != len(p.events) {
		return false
	}
	for i := range o.events {
		if !eventBitEqual(o.events[i], p.events[i]) {
			return false
		}
	}
	return true
}

func (o ingestOutcome) String() string {
	return fmt.Sprintf("%d events, err %q", len(o.events), o.err)
}

// referenceIngest is the two-pass ingest that validating NextInto
// replaces, kept as its specification: Next decodes a block; once the
// declared count is reached the trailing-byte check runs; a
// StreamValidator walks the block; and the block that completes the
// count closes the regions. A block is handed over only once all of
// that passed.
func referenceIngest(data []byte) (out ingestOutcome) {
	fail := func(err error) ingestOutcome {
		out.err = err.Error()
		return out
	}
	r, err := NewBlockReader(data, nil)
	if err != nil {
		return fail(err)
	}
	v := NewStreamValidator(r.Trace())
	buf := make([]Event, r.BlockSize())
	for {
		n, err := r.Next(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(err)
		}
		last := r.Decoded() == r.Total()
		if last {
			if err := r.trailing(); err != nil {
				return fail(err)
			}
		}
		for i := range buf[:n] {
			if err := v.Event(&buf[i]); err != nil {
				return fail(err)
			}
		}
		if last {
			if err := v.Close(); err != nil {
				return fail(err)
			}
		}
		out.events = append(out.events, buf[:n]...)
	}
	if err := r.trailing(); err != nil { // an image that declares no events
		return fail(err)
	}
	return out
}

// drain hands over every block r holds whole.
func drain(r *BlockReader, out *ingestOutcome) error {
	for {
		blk, err := r.NextInto(func(n int) []Event { return make([]Event, n) })
		if err != nil || blk == nil {
			return err
		}
		out.events = append(out.events, blk...)
	}
}

// inPassIngest ingests a complete image through validating NextInto.
func inPassIngest(data []byte) (out ingestOutcome) {
	r, err := NewBlockReader(data, nil)
	if err == nil {
		err = drain(r, &out)
	}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// streamIngest feeds data to a ChunkDecoder cut at the given offsets,
// draining its reader after every piece and once more after Close.
func streamIngest(data []byte, cuts []int) (out ingestOutcome) {
	c := NewChunkDecoder(nil)
	err := func() error {
		prev := 0
		for _, cut := range append(cuts[:len(cuts):len(cuts)], len(data)) {
			if err := c.Append(data[prev:cut]); err != nil {
				return err
			}
			prev = cut
			if r := c.Reader(); r != nil {
				if err := drain(r, &out); err != nil {
					return err
				}
			}
		}
		if err := c.Close(); err != nil {
			return err
		}
		return drain(c.Reader(), &out)
	}()
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// streamReference is the reference outcome of data streamed in pieces
// cut at cuts. It is the whole image's, with one exception a growing
// image cannot avoid: bytes after the last declared block are counted,
// and weighed against that block's own faults, as far as they have
// arrived when the block is decoded — at the first cut at or past its
// end — or, if that block passes, when the next piece arrives.
func streamReference(data []byte, cuts []int) ingestOutcome {
	end := len(data) // where the last declared block ends
	if r, err := NewBlockReader(data, nil); err == nil {
		buf := make([]Event, r.BlockSize())
		for err == nil {
			_, err = r.Next(buf)
		}
		if err == io.EOF {
			end = r.d.pos
		}
	}
	if end == len(data) {
		return referenceIngest(data)
	}
	cuts = append(cuts[:len(cuts):len(cuts)], len(data))
	i := 0
	for cuts[i] < end {
		i++
	}
	if out := referenceIngest(data[:cuts[i]]); out.err != "" || cuts[i] == len(data) {
		return out
	}
	return referenceIngest(data[:cuts[i+1]])
}

// checkIngestAgrees requires the in-pass ingest of data to match the
// reference, whole and — when the header decodes, below which a growing
// image has its own words — streamed: whole and, if everyCut is set, one
// byte at a time and in two pieces cut at every byte.
func checkIngestAgrees(t *testing.T, name string, data []byte, everyCut bool) {
	t.Helper()
	want := referenceIngest(data)
	if got := inPassIngest(data); !got.equal(want) {
		t.Fatalf("%s: NextInto gave %v, the reference %v", name, got, want)
	}
	if _, err := NewBlockReader(data, nil); err != nil {
		return
	}
	streamed := func(how string, cuts []int) {
		t.Helper()
		want := streamReference(data, cuts)
		if got := streamIngest(data, cuts); !got.equal(want) {
			t.Fatalf("%s: streamed %s: %v, the reference %v", name, how, got, want)
		}
	}
	streamed("whole", nil)
	if !everyCut {
		return
	}
	bytewise := make([]int, 0, len(data))
	for cut := 1; cut < len(data); cut++ {
		bytewise = append(bytewise, cut)
	}
	streamed("a byte at a time", bytewise)
	for cut := 1; cut < len(data); cut++ {
		streamed(fmt.Sprintf("in two pieces cut at %d", cut), []int{cut})
	}
}

// v2KindColumns returns the offset of every block's kinds column in a
// v2 image.
func v2KindColumns(t testing.TB, data []byte) (kinds []int) {
	t.Helper()
	r, err := NewBlockReader(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	for pos := r.start; pos < len(data); {
		plen, w := binary.Uvarint(data[pos:])
		k := pos + w
		for range v2ColumnCount + 1 { // the event count, then the directory
			_, w := binary.Uvarint(data[k:])
			k += w
		}
		kinds = append(kinds, k)
		pos += w + int(plen)
	}
	return kinds
}

// ingestFaults are images that each carry one fault past the header, or
// two in one block — there the first of the stated precedence must be
// the one reported: framing, columns and kinds; then more events than
// declared; then bytes after the last declared event; then the first
// invalid event; then regions left open.
func ingestFaults(t testing.TB) []struct {
	name, want string
	img        []byte
} {
	const bs = 4
	encode := func(tr *Trace) []byte {
		var buf bytes.Buffer
		if err := tr.encodeV2(&buf, bs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	edit := func(fn func(evs []Event) []Event) *Trace {
		tr := validTrace(40)
		tr.Events = fn(tr.Events)
		return tr
	}
	loc := validTrace(1).Loc
	n := len(validTrace(40).Events)
	badTime := func(i int, tm float64) *Trace {
		return edit(func(evs []Event) []Event { evs[i].Time = tm; return evs })
	}
	// kindToSend turns the first Enter of block b into a Send: the region
	// column then holds one value too many and the communication columns
	// one too few.
	kindToSend := func(img []byte, b int) []byte {
		kinds := v2KindColumns(t, img)
		out := bytes.Clone(img)
		for k := kinds[b]; k < kinds[b]+bs; k++ {
			if EventKind(out[k]) == KindEnter {
				out[k] = byte(KindSend)
				return out
			}
		}
		t.Fatalf("block %d holds no Enter", b)
		return nil
	}
	// declare rewrites the image's event count, whose varint keeps its
	// length.
	declare := func(img []byte, total int) []byte {
		r, err := NewBlockReader(img, nil)
		if err != nil {
			t.Fatal(err)
		}
		var short Trace = *r.Trace()
		short.Events = make([]Event, total)
		for i := range short.Events {
			short.Events[i].Kind = KindEnter
		}
		head := encode(&short)
		hr, err := NewBlockReader(head, nil)
		if err != nil || hr.start != r.start {
			t.Fatalf("declared count %d changes the header length", total)
		}
		return append(head[:hr.start:hr.start], img[r.start:]...)
	}
	unclosed := edit(func(evs []Event) []Event { return evs[:len(evs)-1] })
	faults := []struct {
		name, want string
		img        []byte
	}{
		{"clean", "", encode(validTrace(40))},
		{"non-monotone time", fmt.Sprintf("trace %v: event 9 time 0.5 before predecessor %g", loc, validTrace(40).Events[8].Time),
			encode(badTime(9, 0.5))},
		{"nan time", fmt.Sprintf("trace %v: event 9 has non-finite time NaN", loc), encode(badTime(9, math.NaN()))},
		{"+inf last time", fmt.Sprintf("trace %v: event %d has non-finite time +Inf", loc, n-1), encode(badTime(n-1, math.Inf(1)))},
		{"-inf first time", fmt.Sprintf("trace %v: event 0 has non-finite time -Inf", loc), encode(badTime(0, math.Inf(-1)))},
		{"unknown region", fmt.Sprintf("trace %v: event 12 enters unknown region 7", loc),
			encode(edit(func(evs []Event) []Event { evs[12].Region = 7; return evs }))},
		{"exit without enter", fmt.Sprintf("trace %v: event 0 exit without matching enter", loc),
			encode(edit(func(evs []Event) []Event { return evs[2:] }))},
		{"send outside any region", fmt.Sprintf("trace %v: event 0 SEND outside any region", loc),
			encode(edit(func(evs []Event) []Event { return evs[1:] }))},
		{"send between regions", fmt.Sprintf("trace %v: event 3 SEND outside any region", loc),
			encode(edit(func(evs []Event) []Event {
				send := Event{Kind: KindSend, Time: evs[2].Time, Peer: 1, Tag: 7, Bytes: 8}
				return append(evs[:3:3], append([]Event{send}, evs[3:]...)...)
			}))},
		{"exit past the last region", fmt.Sprintf("trace %v: event %d exit without matching enter", loc, n),
			encode(edit(func(evs []Event) []Event { return append(evs, Event{Kind: KindExit, Time: evs[n-1].Time}) }))},
		{"unclosed regions", fmt.Sprintf("trace %v: 1 unclosed region(s) at end of trace", loc), encode(unclosed)},
		// Two faults in one block: the corrupt columns win over the bad
		// time, more events than declared over the bad time, trailing
		// bytes over the open regions, the bad time over the open regions.
		{"columns and bad time", "trace: corrupt event block: columns do not match the kinds they serve",
			kindToSend(encode(badTime(10, 0.5)), 2)},
		{"over-declared and bad time", fmt.Sprintf("trace %v: blocks hold more events than the declared count %d", loc, n-1),
			declare(encode(badTime(n-1, 0.5)), n-1)},
		{"trailing bytes and unclosed regions", fmt.Sprintf("trace %v: 1 trailing byte(s) after %d declared events", loc, n-1),
			append(encode(unclosed), 0)},
		{"bad time and unclosed regions", fmt.Sprintf("trace %v: event %d time 0.5 before predecessor %g", loc, n-2, validTrace(40).Events[n-3].Time),
			encode(edit(func(evs []Event) []Event { evs[n-2].Time = 0.5; return evs[:n-1] }))},
		// In stream order, a fault in an earlier block comes first.
		{"bad time, then corrupt columns", fmt.Sprintf("trace %v: event 5 time 0.5 before predecessor %g", loc, validTrace(40).Events[4].Time),
			kindToSend(encode(badTime(5, 0.5)), 4)},
	}
	return faults
}

// TestInPassValidationMatchesReference: NextInto validates inside the
// decode passes and replays only a refused block through the
// StreamValidator. Whatever the image — every FuzzDecodeV2 seed, the
// faults above, each one's single-byte mutations — it must hand over the
// same events and fail with the same message as the two-pass reference,
// given whole or streamed in pieces.
func TestInPassValidationMatchesReference(t *testing.T) {
	for name, data := range corpusSets(t)["FuzzDecodeV2"] {
		checkIngestAgrees(t, name, data, true)
	}
	for _, f := range ingestFaults(t) {
		t.Run(f.name, func(t *testing.T) {
			if got := referenceIngest(f.img); got.err != f.want {
				t.Fatalf("reference ingest: err %q, want %q", got.err, f.want)
			}
			checkIngestAgrees(t, f.name, f.img, true)
			for i := range f.img {
				for _, flip := range []byte{0x01, 0x80} {
					mut := bytes.Clone(f.img)
					mut[i] ^= flip
					checkIngestAgrees(t, fmt.Sprintf("byte %d ^ %#x", i, flip), mut, false)
				}
			}
		})
	}
}

// FuzzIngestDifferential holds validating NextInto to the two-pass
// reference on arbitrary images: the same events and the same error,
// whole and streamed.
func FuzzIngestDifferential(f *testing.F) {
	for _, seed := range encodedV2Seeds(f) {
		f.Add(seed)
	}
	for _, fault := range ingestFaults(f) {
		f.Add(fault.img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkIngestAgrees(t, "fuzz input", data, len(data) <= 1<<12)
	})
}

// TestOneShotDecodeRefusesTrailingBytes: the one-shot decode refuses
// bytes after the last declared event in both formats, with the words
// NextInto uses, so an eager load refuses the rank file a lazy analysis
// and a live session refuse.
func TestOneShotDecodeRefusesTrailingBytes(t *testing.T) {
	tr := sampleTrace()
	want := fmt.Sprintf("trace %v: 2 trailing byte(s) after %d declared events", tr.Loc, len(tr.Events))
	for _, f := range []Format{FormatV1, FormatV2} {
		var buf bytes.Buffer
		if err := tr.EncodeFormat(&buf, f); err != nil {
			t.Fatal(err)
		}
		img := append(buf.Bytes(), 0, 0)
		if _, err := DecodeBytes(img); err == nil || err.Error() != want {
			t.Errorf("%v: DecodeBytes err = %v, want %q", f, err, want)
		}
		if f == FormatV2 {
			if got := inPassIngest(img); got.err != want {
				t.Errorf("v2: NextInto err = %q, want %q", got.err, want)
			}
		}
	}
	seed := corpusSets(t)["FuzzDecodeV2"]["v2-trailing-garbage"]
	if _, err := DecodeBytes(seed); err == nil {
		t.Error("the v2-trailing-garbage seed decodes")
	}
}
