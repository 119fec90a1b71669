package trace

import (
	"fmt"
	"io"
)

// Writer encodes a trace's events as they are recorded, the way a
// process writes its local trace file while it runs. It holds the
// events of at most one block and encodes each full block into a page
// of its own: a v2 framed block (a block decodes on its own, so encoding
// it as it fills gives the image a whole-trace encode would) or a block
// size of v1 rows. Finish writes the header, the event count, for v2 the
// block size, and the pages. Encode, EncodeV2 and EncodeFormat hand a
// Writer a whole trace a block at a time (see Trace.write).
type Writer struct {
	v1    bool
	bs    int     // events per block (v2) or rows per page (v1)
	n     int     // events encoded into pages
	block []Event // the block being filled, grown up to bs
	cb    v2ColBufs
	page  []byte    // Trace.write's one reused page
	pages [][]byte  // the sealed pages, until Finish writes them
	dst   io.Writer // Trace.write: each page goes straight out
	err   error
	// explicitComms writes the header's member lists member by member
	// (see encoder); the tests write such images.
	explicitComms bool
}

// NewWriter returns a Writer for format f (FormatDefault is v2) with
// the default block size.
func NewWriter(f Format) *Writer { return newWriter(f, defaultBlockSize) }

func newWriter(f Format, bs int) *Writer {
	w := &Writer{v1: f == FormatV1, bs: bs}
	if f > FormatV2 {
		w.err = fmt.Errorf("trace: cannot encode unknown format %d", uint8(f))
	} else if bs < 1 || bs > maxBlockSize {
		w.err = fmt.Errorf("trace: block size %d out of range [1, %d]", bs, maxBlockSize)
	}
	return w
}

// Len returns the number of events appended.
func (w *Writer) Len() int { return w.n + len(w.block) }

// Append adds ev to the trace. An event that cannot be encoded fails
// Finish.
func (w *Writer) Append(ev Event) {
	if w.err != nil {
		return
	}
	if len(w.block) == cap(w.block) {
		grown := make([]Event, len(w.block), min(max(2*len(w.block), 64), w.bs))
		copy(grown, w.block)
		w.block = grown
	}
	w.block = append(w.block, ev)
	if len(w.block) == w.bs {
		w.seal(w.block)
		w.block = w.block[:0]
	}
}

// seal encodes evs, at most one block, into a page of its own: written
// to dst through the one reused page, or kept for Finish.
func (w *Writer) seal(evs []Event) {
	if w.err != nil {
		return
	}
	page := w.page[:0]
	if w.v1 {
		for i := range evs {
			if page, w.err = appendV1Row(page, &evs[i]); w.err != nil {
				return
			}
		}
	} else if page, w.err = appendV2Block(page, &w.cb, evs); w.err != nil {
		return
	}
	w.n += len(evs)
	if w.dst == nil {
		w.pages = append(w.pages, page)
		return
	}
	w.page = page
	_, w.err = w.dst.Write(page)
}

// header returns the image's header: t's (t.Events is ignored), the
// event count n and, for v2, the block size.
func (w *Writer) header(t *Trace, n int) []byte {
	e := &encoder{explicitComms: w.explicitComms}
	version := byte(formatVersion2)
	if w.v1 {
		version = formatVersion
	}
	t.encodeHeader(e, version)
	e.u64(uint64(n))
	if !w.v1 {
		e.u64(uint64(w.bs))
	}
	return e.b
}

// Finish writes the trace to dst and returns the bytes written: t's
// header (t.Events is ignored), the event count, for v2 the block size,
// and the pages, which it then drops. A dst with a Grow method, a file
// held in memory, is grown once to the image's size.
func (w *Writer) Finish(dst io.Writer, t *Trace) (int64, error) {
	if len(w.block) > 0 {
		w.seal(w.block)
	}
	pages := w.pages
	w.pages, w.block, w.page = nil, nil, nil
	if w.err != nil {
		return 0, w.err
	}
	hdr := w.header(t, w.n)
	size := len(hdr)
	for _, p := range pages {
		size += len(p)
	}
	if g, ok := dst.(interface{ Grow(int) }); ok {
		g.Grow(size)
	}
	n, err := dst.Write(hdr)
	for i := 0; err == nil && i < len(pages); i++ {
		var k int
		k, err = dst.Write(pages[i])
		n += k
	}
	return int64(n), err
}

// write encodes t to dst with tw: the header, then each block of
// t.Events sealed straight from the slice and written out through one
// reused page, so the encode holds one block's bytes, not the image.
func (t *Trace) write(tw *Writer, dst io.Writer) error {
	if tw.err != nil {
		return tw.err
	}
	if _, err := dst.Write(tw.header(t, len(t.Events))); err != nil {
		return err
	}
	tw.dst = dst
	for i := 0; i < len(t.Events); i += tw.bs {
		tw.seal(t.Events[i:min(i+tw.bs, len(t.Events))])
	}
	return tw.err
}
