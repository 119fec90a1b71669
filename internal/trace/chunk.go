package trace

import (
	"errors"
	"fmt"
	"io"
)

// ChunkDecoder turns an MSCP v2 trace that arrives in pieces into a
// BlockReader over an image that is still growing, so a live analysis
// can start replaying a rank while the rank is still uploading. It owns
// the byte buffer and parses the header resumably — a varint, a float,
// or a string may be split across chunks at any byte — and from then on
// the reader does the work: Append makes the new bytes visible to it,
// and its NextInto hands over each block once the block is whole. The
// same bytes therefore yield the same blocks or the same error whether
// they arrive chunked or as a complete image.
//
// Live streams are v2 only. An experiment that is being written now is
// written in v2; a v1 archive is analysed post-mortem, or converted.
//
// Feed is a front-end over the same reader for callers that just want
// the validated events of each chunk as a slice.
//
// A ChunkDecoder is not safe for concurrent use; the caller serializes
// its calls per rank (the serve layer's sequence numbers do this).
type ChunkDecoder struct {
	// DiscardEvents, when set before the first Feed, stops Feed from
	// accumulating events on the trace Finish returns: events are still
	// decoded, validated, and returned as they complete, but the
	// decoder's resident memory stays bounded by the undecoded tail of
	// one chunk.
	DiscardEvents bool

	intern *Interner
	buf    []byte       // bytes appended and not yet decoded: the reader's image
	r      *BlockReader // nil until the header has fully decoded
	val    *StreamValidator
	err    error // sticky: first fatal error ends the stream
}

// ErrV1Stream refuses a v1 stream, by its version byte.
var ErrV1Stream = errors.New("trace: live streams are format v2; convert the archive with metascope trace -convert -format v2 (post-mortem analysis reads v1)")

// NewChunkDecoder returns a decoder that canonicalizes region and
// metahost names through in (nil disables interning), matching
// DecodeBytesInterned.
func NewChunkDecoder(in *Interner) *ChunkDecoder {
	return &ChunkDecoder{intern: in}
}

// needMore reports whether a decode error means "the bytes are not
// here yet" (resume after the next Append) rather than corruption.
func needMore(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}

// fail records the stream's first fatal error.
func (c *ChunkDecoder) fail(err error) error {
	c.err = err
	return err
}

// Append adds data to the stream. The decoder copies what it needs, so
// the caller may reuse data as soon as Append returns. Once the bytes
// complete the header — which for v2 includes the block size that
// follows the event count — Reader turns non-nil. Errors are
// sticky: once corruption is reported, the decoder is dead.
func (c *ChunkDecoder) Append(data []byte) error {
	if c.err != nil {
		return c.err
	}
	if c.r != nil {
		// Drop what the reader has decoded and show it the longer image.
		d := &c.r.d
		if d.pos > 0 {
			c.buf = c.buf[:copy(c.buf, c.buf[d.pos:])]
			d.pos = 0
		}
		c.buf = append(c.buf, data...)
		d.data = c.buf
		return nil
	}
	c.buf = append(c.buf, data...)
	if f, _ := FormatOf(c.buf); f == FormatV1 {
		return c.fail(ErrV1Stream)
	}
	r := &BlockReader{d: decoder{data: c.buf, intern: c.intern}, open: true}
	if err := r.readHeader(); err != nil {
		if needMore(err) {
			return nil // header still arriving
		}
		return c.fail(err)
	}
	c.r = r
	return nil
}

// Reader returns the block reader over the stream once the header has
// arrived, nil before that. Its NextInto returns a nil block while the
// next block is still arriving; after Close the image is complete and a
// block cut short is an error.
func (c *ChunkDecoder) Reader() *BlockReader { return c.r }

// Close declares end-of-stream: the reader's image stops growing. A
// stream that ends inside the header is an error.
func (c *ChunkDecoder) Close() error {
	if c.err != nil {
		return c.err
	}
	if c.r == nil {
		return c.fail(fmt.Errorf("trace: stream ended inside the header (%d bytes): %w",
			len(c.buf), io.ErrUnexpectedEOF))
	}
	c.r.open = false
	return nil
}

// bufferedEvents is the number of events the whole blocks buffered so
// far hold: what one Feed call can return.
func (c *ChunkDecoder) bufferedEvents() int {
	r := c.r
	owed := uint64(r.total - r.decoded)
	rest := r.d.data[r.d.pos:]
	var total uint64
	for total < owed {
		n, length, ok := peekV2Block(rest)
		if !ok || n < 1 || n > uint64(r.bs) || n > uint64(length/minEventBytesV2) {
			break
		}
		total += n
		rest = rest[length:]
	}
	return int(min(total, owed))
}

// Feed appends data to the stream and returns the events that became
// complete, in trace order and validated with exactly the checks
// (*Trace).Validate applies post-mortem, in one slice sized for all of
// them. A nil slice with a nil error means the decoder is waiting for
// more bytes (mid-header or mid-block). Errors are sticky.
func (c *ChunkDecoder) Feed(data []byte) ([]Event, error) {
	if err := c.Append(data); err != nil || c.r == nil {
		return nil, err
	}
	if c.val == nil {
		c.val = NewStreamValidator(c.r.t)
	}
	var fresh []Event
	reserve := func(n int) []Event {
		if fresh == nil {
			fresh = make([]Event, 0, c.bufferedEvents())
		}
		room := fresh[len(fresh):cap(fresh)]
		return room[:min(n, len(room))]
	}
	for {
		blk, err := c.r.NextInto(reserve)
		for i := 0; err == nil && i < len(blk); i++ {
			err = c.val.Event(&blk[i])
		}
		if err != nil {
			return nil, c.fail(err)
		}
		if blk == nil {
			return fresh, nil
		}
		fresh = fresh[:len(fresh)+len(blk)]
		if !c.DiscardEvents {
			c.r.t.Events = append(c.r.t.Events, blk...)
		}
	}
}

// Finish is Close for a stream decoded through Feed, and returns the
// completed trace. A stream that ends mid-header, short of its declared
// event count, or with unbalanced regions is an error — the same faults
// Validate reports on a truncated file.
func (c *ChunkDecoder) Finish() (*Trace, error) {
	if err := c.Close(); err != nil {
		return nil, err
	}
	if r := c.r; r.decoded < r.total {
		return nil, c.fail(fmt.Errorf("trace %v: stream ended after %d of %d declared events: %w",
			r.t.Loc, r.decoded, r.total, io.ErrUnexpectedEOF))
	}
	if c.val != nil {
		if err := c.val.Close(); err != nil {
			return nil, c.fail(err)
		}
	}
	return c.r.t, nil
}
