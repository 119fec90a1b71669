package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ChunkDecoder decodes an MSCP trace that arrives in pieces, so a live
// analysis can start replaying a rank while the rank is still
// uploading. The decoder is resumable at any byte boundary — a varint,
// a float, or the header itself may be split across chunks — and it
// validates incrementally with exactly the checks (*Trace).Validate
// applies post-mortem: monotone time stamps, known regions, balanced
// Enter/Exit nesting, operations inside a region. Feeding the same
// bytes chunked or whole therefore yields the same trace or the same
// error.
//
// Append buffers bytes and NextBlock decodes them one block at a time,
// each event exactly once, into memory the caller hands out — so every
// block NextBlock returns belongs to the caller: the decoder keeps no
// reference to it and never writes to it again. Feed is the same loop
// with the decoder's own destination, for callers that just want the
// events of one chunk as a slice.
//
// A ChunkDecoder is not safe for concurrent use; the caller serializes
// its calls per rank (the serve layer's sequence numbers do this).
type ChunkDecoder struct {
	// DiscardEvents, when set before the first Feed, stops Feed from
	// accumulating events on the trace returned by Header/Finish: events
	// are still decoded, validated, and returned as they complete, but
	// the decoder's resident memory stays bounded by the undecoded tail
	// of one chunk. NextBlock never accumulates.
	DiscardEvents bool

	intern *Interner
	buf    []byte // bytes fed but not yet consumed
	pos    int    // consumed prefix of buf, dropped by the next Append
	fed    int64  // total bytes ever fed

	t         *Trace // nil until the header has fully decoded
	version   byte   // format version from the header
	declared  uint64 // event count from the header
	decoded   uint64 // events completed so far
	blockSize int    // v2: events per block, part of the header

	// Incremental Validate state.
	val *StreamValidator

	err error // sticky: first fatal error ends the stream
}

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
// complete the header — for a v2 stream that includes the block size
// that follows the event count — Header turns non-nil. Errors are
// sticky: once corruption is reported, the decoder is dead.
func (c *ChunkDecoder) Append(data []byte) error {
	if c.err != nil {
		return c.err
	}
	if c.pos > 0 {
		c.buf = c.buf[:copy(c.buf, c.buf[c.pos:])]
		c.pos = 0
	}
	c.buf = append(c.buf, data...)
	c.fed += int64(len(data))
	if c.t != nil {
		return nil
	}

	d := &decoder{data: c.buf, intern: c.intern, streaming: true}
	t, ne, err := decodeHeader(d)
	if err != nil {
		if needMore(err) {
			return nil // header still arriving
		}
		return c.fail(err)
	}
	if ne > maxEventCount {
		return c.fail(fmt.Errorf("trace: implausible event count %d", ne))
	}
	if d.version == formatVersion2 {
		// The varint may itself straddle a chunk boundary.
		if c.blockSize, err = decodeV2BlockSize(d); err != nil {
			if needMore(err) {
				return nil
			}
			return c.fail(err)
		}
	}
	c.t = t
	c.declared = ne
	c.version = d.version
	c.val = NewStreamValidator(t)
	c.pos = d.pos
	return nil
}

// NextBlock decodes and validates the next run of buffered events into
// memory obtained from reserve, and returns the filled part of it. A
// nil block with a nil error means the decoder is waiting for more
// bytes (or the stream is complete).
//
// reserve(max) returns room for up to max events and is called at most
// once per NextBlock, only when at least one event will be written. A
// v2 stream decodes one whole block per call: max is the block's event
// count and the room must hold all of it. A v1 stream has no blocks:
// max is the number of events the stream still owes, and the call
// fills as much of the room as the buffered bytes allow, so a caller
// with a part-filled block of its own can hand out the rest of it.
// Every event is written exactly once, and a block is returned only
// after each event in it validated.
func (c *ChunkDecoder) NextBlock(reserve func(max int) []Event) ([]Event, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.t == nil {
		return nil, nil
	}
	if c.decoded == c.declared {
		if rest := len(c.buf) - c.pos; rest > 0 {
			return nil, c.fail(fmt.Errorf("trace %v: %d trailing byte(s) after %d declared events",
				c.t.Loc, rest, c.declared))
		}
		return nil, nil
	}
	d := &decoder{data: c.buf, pos: c.pos, intern: c.intern, streaming: true}
	owed := c.declared - c.decoded
	var blk []Event
	if c.version == formatVersion2 {
		n, length, ok := peekV2Block(c.buf[c.pos:])
		if !ok {
			return nil, nil // block still arriving
		}
		var dst []Event
		switch {
		case n < 1 || n > uint64(c.blockSize):
			// decodeV2Block rejects the count before it looks at dst.
		case n > owed || n > uint64(length/minEventBytesV2):
			// The block cannot be valid. Decode it into scratch, bounded
			// by the largest legal block, only to report what the decoder
			// always reported for these bytes.
			dst = make([]Event, n)
		default:
			dst = reserve(int(n))
		}
		got, err := decodeV2Block(d, dst, c.blockSize)
		if err != nil {
			return nil, c.fail(err)
		}
		if uint64(got) > owed {
			return nil, c.fail(fmt.Errorf("trace %v: blocks hold more events than the declared count %d",
				c.t.Loc, c.declared))
		}
		blk = dst[:got]
		for i := range blk {
			if err := c.val.Event(&blk[i]); err != nil {
				return nil, c.fail(err)
			}
		}
	} else {
		for blk == nil || len(blk) < cap(blk) {
			// Decode into a local first: a chunk that ends mid-event must
			// neither reserve room nor leave half an event behind in it.
			var ev Event
			mark := d.pos
			if err := decodeEvent(d, int(c.decoded)+len(blk), &ev); err != nil {
				if needMore(err) {
					d.pos = mark // event still arriving; retry after the next Append
					break
				}
				return nil, c.fail(err)
			}
			if err := c.val.Event(&ev); err != nil {
				return nil, c.fail(err)
			}
			if blk == nil {
				room := reserve(int(owed))
				blk = room[:0:len(room)]
			}
			blk = append(blk, ev)
		}
	}
	c.pos = d.pos
	c.decoded += uint64(len(blk))
	return blk, nil
}

// peekV2Block reads the length prefix and the event count of the v2
// block at the head of p without consuming anything. ok is false while
// the block is still arriving; length is its encoded size, prefix
// included. A malformed prefix or count reports ok with n = 0, which
// decodeV2Block then rejects with its own message.
func peekV2Block(p []byte) (n uint64, length int, ok bool) {
	plen, pos := readUvarintSlow(p, 0, len(p))
	if pos == posInvalid {
		// Ten bytes always settle a varint; fewer may just be short.
		return 0, 0, len(p) >= binary.MaxVarintLen64
	}
	if plen > uint64(len(p)-pos) {
		return 0, 0, false
	}
	length = pos + int(plen)
	if n, pos = readUvarintSlow(p, pos, length); pos == posInvalid {
		n = 0
	}
	return n, length, true
}

// bufferedEvents bounds the number of events NextBlock can still
// produce from the bytes buffered so far: exact for v2 (the sum of the
// complete blocks' counts), an upper bound for v1 (no event is shorter
// than minEventBytes).
func (c *ChunkDecoder) bufferedEvents() int {
	owed := c.declared - c.decoded
	rest := c.buf[c.pos:]
	if c.version != formatVersion2 {
		return int(min(owed, uint64(len(rest)/minEventBytes)))
	}
	var total uint64
	for total < owed {
		n, length, ok := peekV2Block(rest)
		if !ok || n < 1 || n > uint64(c.blockSize) || n > uint64(length/minEventBytesV2) {
			break
		}
		total += n
		rest = rest[length:]
	}
	return int(min(total, owed))
}

// Feed appends data to the stream and returns the events that became
// complete, in trace order, in one slice sized for all of them. A nil
// slice with a nil error means the decoder is waiting for more bytes
// (mid-header or mid-event). Errors are sticky: once Feed reports
// corruption, the decoder is dead.
func (c *ChunkDecoder) Feed(data []byte) ([]Event, error) {
	if err := c.Append(data); err != nil {
		return nil, err
	}
	var fresh []Event
	reserve := func(max int) []Event {
		if fresh == nil {
			fresh = make([]Event, 0, c.bufferedEvents())
		}
		room := fresh[len(fresh):cap(fresh)]
		return room[:min(max, len(room))]
	}
	for {
		blk, err := c.NextBlock(reserve)
		if err != nil {
			return nil, err
		}
		if blk == nil {
			return fresh, nil
		}
		fresh = fresh[:len(fresh)+len(blk)]
		if !c.DiscardEvents {
			c.t.Events = append(c.t.Events, blk...)
		}
	}
}

// Finish declares end-of-stream and returns the completed trace. A
// stream that ends mid-header, short of its declared event count, or
// with unbalanced regions is an error — the same faults Validate
// reports on a truncated file.
func (c *ChunkDecoder) Finish() (*Trace, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.t == nil {
		c.err = fmt.Errorf("trace: stream ended inside the header (%d bytes): %w",
			c.fed, io.ErrUnexpectedEOF)
		return nil, c.err
	}
	if c.decoded < c.declared {
		c.err = fmt.Errorf("trace %v: stream ended after %d of %d declared events: %w",
			c.t.Loc, c.decoded, c.declared, io.ErrUnexpectedEOF)
		return nil, c.err
	}
	if err := c.val.Close(); err != nil {
		c.err = err
		return nil, c.err
	}
	return c.t, nil
}

// Header returns the decoded trace header (location, sync block,
// regions, communicators) once it is complete, nil before that. The
// returned trace's Events slice grows as Feed calls land (unless
// DiscardEvents is set); Finish returns the same pointer when the
// stream completes.
func (c *ChunkDecoder) Header() *Trace { return c.t }

// Declared returns the event count announced by the header, valid once
// Header is non-nil.
func (c *ChunkDecoder) Declared() uint64 { return c.declared }

// BlockSize returns the events-per-block count a v2 stream announced,
// valid once Header is non-nil; 0 for a v1 stream, which has no blocks.
func (c *ChunkDecoder) BlockSize() int { return c.blockSize }

// Decoded returns the number of fully decoded events so far.
func (c *ChunkDecoder) Decoded() uint64 { return c.decoded }

// BytesFed returns the total number of bytes fed so far.
func (c *ChunkDecoder) BytesFed() int64 { return c.fed }

// Err returns the sticky error, if any.
func (c *ChunkDecoder) Err() error { return c.err }
