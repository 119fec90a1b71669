package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// encodeSample returns the sample trace's full MSCP encoding, in three
// blocks.
func encodeSample(t *testing.T) []byte {
	t.Helper()
	return encodeV2Bytes(t, sampleTrace(), 4)
}

// feedAll pushes data through a ChunkDecoder in the given chunk sizes
// (cycling), collecting every event Feed returns.
func feedAll(t *testing.T, data []byte, sizes []int) (*ChunkDecoder, []Event) {
	t.Helper()
	c := NewChunkDecoder(nil)
	var got []Event
	for off, i := 0, 0; off < len(data); i++ {
		n := sizes[i%len(sizes)]
		if off+n > len(data) {
			n = len(data) - off
		}
		evs, err := c.Feed(data[off : off+n])
		if err != nil {
			t.Fatalf("Feed at offset %d: %v", off, err)
		}
		got = append(got, evs...)
		off += n
	}
	return c, got
}

func TestChunkDecoderMatchesOneShot(t *testing.T) {
	data := encodeSample(t)
	want, err := DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, sizes := range [][]int{
		{1},                  // every varint/float split across chunks
		{2, 3, 5, 7},         // cycling odd sizes
		{len(data)},          // one shot through the chunk path
		{13, 1, 64, 2, 1000}, // mixed
	} {
		c, got := feedAll(t, data, sizes)
		tr, err := c.Finish()
		if err != nil {
			t.Fatalf("sizes %v: Finish: %v", sizes, err)
		}
		if !reflect.DeepEqual(tr, want) {
			t.Fatalf("sizes %v: chunked trace differs from one-shot decode", sizes)
		}
		if !reflect.DeepEqual(got, want.Events) {
			t.Fatalf("sizes %v: Feed-returned events differ from one-shot decode", sizes)
		}
		if r := c.Reader(); r.Decoded() != len(want.Events) || r.Total() != r.Decoded() {
			t.Fatalf("sizes %v: decoded %d declared %d, want %d",
				sizes, r.Decoded(), r.Total(), len(want.Events))
		}
	}
}

func TestChunkDecoderRandomChunking(t *testing.T) {
	data := encodeSample(t)
	want, err := DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		c := NewChunkDecoder(NewInterner())
		for off := 0; off < len(data); {
			n := 1 + rng.Intn(40)
			if off+n > len(data) {
				n = len(data) - off
			}
			if _, err := c.Feed(data[off : off+n]); err != nil {
				t.Fatalf("trial %d: Feed at %d: %v", trial, off, err)
			}
			off += n
		}
		tr, err := c.Finish()
		if err != nil {
			t.Fatalf("trial %d: Finish: %v", trial, err)
		}
		if !reflect.DeepEqual(tr, want) {
			t.Fatalf("trial %d: chunked trace differs from one-shot decode", trial)
		}
	}
}

func TestChunkDecoderHeaderAccessors(t *testing.T) {
	data := encodeSample(t)
	c := NewChunkDecoder(nil)
	if c.Reader() != nil {
		t.Fatal("Reader non-nil before any bytes")
	}
	// Feed a prefix too short for the header: still waiting.
	if evs, err := c.Feed(data[:8]); err != nil || evs != nil {
		t.Fatalf("short Feed = (%v, %v), want (nil, nil)", evs, err)
	}
	if c.Reader() != nil {
		t.Fatal("Reader non-nil mid-header")
	}
	if _, err := c.Feed(data[8:]); err != nil {
		t.Fatal(err)
	}
	h := c.Reader().Trace()
	if h.Loc.MetahostName != "FH-BRS" || len(h.Regions) != 3 {
		t.Fatalf("header = %+v, want sample header", h)
	}
	tr, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tr != h {
		t.Fatal("Finish returned a different *Trace than the reader's")
	}
}

func TestChunkDecoderTruncationAtFinish(t *testing.T) {
	data := encodeSample(t)
	// Every strict prefix must fail at Finish, never succeed or crash.
	for cut := 0; cut < len(data); cut += 5 {
		c := NewChunkDecoder(nil)
		if _, err := c.Feed(data[:cut]); err != nil {
			t.Fatalf("cut %d: Feed: %v", cut, err)
		}
		if _, err := c.Finish(); err == nil {
			t.Fatalf("cut %d/%d: Finish succeeded on truncated stream", cut, len(data))
		} else if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: Finish err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
		// Errors are sticky.
		if _, err := c.Feed(data[cut:]); err == nil {
			t.Fatalf("cut %d: Feed after failed Finish succeeded", cut)
		}
	}
}

func TestChunkDecoderRejectsCorruption(t *testing.T) {
	data := encodeSample(t)

	t.Run("bad magic", func(t *testing.T) {
		c := NewChunkDecoder(nil)
		bad := append([]byte("XSCP"), data[4:]...)
		if _, err := c.Feed(bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
		if _, err := c.Feed(nil); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("sticky err = %v, want ErrBadMagic", err)
		}
	})

	t.Run("trailing bytes", func(t *testing.T) {
		c := NewChunkDecoder(nil)
		if _, err := c.Feed(data); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Feed([]byte{0xff}); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})

	t.Run("non-monotone time", func(t *testing.T) {
		tr := sampleTrace()
		tr.Events[5].Time = 0.5 // before its predecessor
		data := encodeV2Bytes(t, tr, 4)
		c := NewChunkDecoder(nil)
		_, err := c.Feed(data)
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte("before predecessor")) {
			t.Fatalf("err = %v, want monotone-time violation", err)
		}
		// Same fault post-mortem: the one-shot decode refuses it.
		if _, derr := DecodeBytes(data); derr == nil || derr.Error() != err.Error() {
			t.Fatalf("streamed error %q != one-shot decode's %q", err, derr)
		}
	})

	t.Run("unknown region", func(t *testing.T) {
		tr := sampleTrace()
		tr.Events[0].Region = 99
		c := NewChunkDecoder(nil)
		if _, err := c.Feed(encodeV2Bytes(t, tr, 4)); err == nil {
			t.Fatal("unknown region accepted")
		}
	})

	t.Run("unbalanced exit", func(t *testing.T) {
		// The block that completes the declared count closes the regions,
		// so the Feed that delivers it fails, and Finish repeats the error.
		tr := sampleTrace()
		tr.Events = tr.Events[:len(tr.Events)-1] // drop final Exit
		c := NewChunkDecoder(nil)
		_, err := c.Feed(encodeV2Bytes(t, tr, 4))
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte("unclosed region")) {
			t.Fatalf("err = %v, want unclosed-region error", err)
		}
		if _, ferr := c.Finish(); ferr != err {
			t.Fatalf("Finish err = %v, want the sticky %v", ferr, err)
		}
	})
}

// validTrace returns a Validate-clean trace of about ne events built on
// the sample header: Enter/op/Exit triples over the three sample
// regions, for streaming tests that span multiple v2 blocks.
func validTrace(ne int) *Trace {
	tr := sampleTrace()
	tr.Events = nil
	now := 1.0
	for len(tr.Events) < ne {
		now += 1e-4
		i := len(tr.Events)
		tr.Events = append(tr.Events, Event{Kind: KindEnter, Time: now, Region: RegionID(i % 3)})
		switch i % 3 {
		case 0:
			tr.Events = append(tr.Events, Event{Kind: KindSend, Time: now, Comm: 0, Peer: int32(i % 4), Tag: 7, Bytes: int64(i)})
		case 1:
			tr.Events = append(tr.Events, Event{Kind: KindRecv, Time: now, Comm: 1, Peer: 1, Tag: 7, Bytes: 4096})
		default:
			tr.Events = append(tr.Events, Event{Kind: KindCollExit, Time: now, Comm: 0, Coll: CollBarrier, Root: -1})
		}
		tr.Events = append(tr.Events, Event{Kind: KindExit, Time: now, Region: RegionID(i % 3)})
	}
	return tr
}

func TestChunkDecoderV2MatchesOneShot(t *testing.T) {
	// Block size 64 over ~1000 events: many whole blocks plus a partial
	// tail, with chunk boundaries landing inside length prefixes, column
	// directories, and mid-column.
	data := encodeV2Bytes(t, validTrace(1000), 64)
	want, err := DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, sizes := range [][]int{
		{1},                  // every byte its own chunk
		{2, 3, 5, 7},         // cycling odd sizes
		{len(data)},          // one shot through the chunk path
		{13, 1, 64, 2, 1000}, // mixed
	} {
		c, got := feedAll(t, data, sizes)
		tr, err := c.Finish()
		if err != nil {
			t.Fatalf("sizes %v: Finish: %v", sizes, err)
		}
		if !reflect.DeepEqual(tr, want) {
			t.Fatalf("sizes %v: chunked v2 trace differs from one-shot decode", sizes)
		}
		if !reflect.DeepEqual(got, want.Events) {
			t.Fatalf("sizes %v: Feed-returned events differ from one-shot decode", sizes)
		}
	}
}

func TestChunkDecoderV2Truncation(t *testing.T) {
	data := encodeV2Bytes(t, validTrace(100), 16)
	for cut := 0; cut < len(data); cut += 7 {
		c := NewChunkDecoder(nil)
		if _, err := c.Feed(data[:cut]); err != nil {
			t.Fatalf("cut %d: Feed: %v", cut, err)
		}
		if _, err := c.Finish(); err == nil {
			t.Fatalf("cut %d/%d: Finish succeeded on truncated v2 stream", cut, len(data))
		} else if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: Finish err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestChunkDecoderV2RejectsCorruption(t *testing.T) {
	t.Run("non-monotone time", func(t *testing.T) {
		tr := validTrace(200)
		tr.Events[150].Time = 0.5 // before its predecessor, in a later block
		data := encodeV2Bytes(t, tr, 32)
		c := NewChunkDecoder(nil)
		_, err := c.Feed(data)
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte("before predecessor")) {
			t.Fatalf("err = %v, want monotone-time violation", err)
		}
		// The streamed fault matches the one-shot decode's byte for byte.
		if _, derr := DecodeBytes(data); derr == nil || derr.Error() != err.Error() {
			t.Fatalf("streamed error %q != one-shot decode's %q", err, derr)
		}
	})

	t.Run("trailing bytes", func(t *testing.T) {
		data := encodeV2Bytes(t, validTrace(50), 16)
		c := NewChunkDecoder(nil)
		if _, err := c.Feed(data); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Feed([]byte{0xff}); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})

	t.Run("unknown region", func(t *testing.T) {
		tr := validTrace(60)
		tr.Events[30].Region = 99
		if tr.Events[30].Kind != KindEnter {
			t.Fatal("test setup: event 30 is not an Enter")
		}
		data := encodeV2Bytes(t, tr, 16)
		c := NewChunkDecoder(nil)
		if _, err := c.Feed(data); err == nil {
			t.Fatal("unknown region accepted")
		}
	})
}

func TestChunkDecoderDiscardEvents(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"v2", encodeV2Bytes(t, validTrace(300), 32)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := DecodeBytes(tc.data)
			if err != nil {
				t.Fatal(err)
			}
			c := NewChunkDecoder(nil)
			c.DiscardEvents = true
			var got []Event
			for off := 0; off < len(tc.data); off += 11 {
				end := off + 11
				if end > len(tc.data) {
					end = len(tc.data)
				}
				evs, err := c.Feed(tc.data[off:end])
				if err != nil {
					t.Fatalf("Feed at %d: %v", off, err)
				}
				got = append(got, evs...)
			}
			tr, err := c.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Events) != 0 {
				t.Fatalf("DiscardEvents kept %d events on the trace", len(tr.Events))
			}
			if !reflect.DeepEqual(got, want.Events) {
				t.Fatal("Feed-returned events differ from one-shot decode")
			}
			if got := c.Reader().Decoded(); got != len(want.Events) {
				t.Fatalf("Decoded = %d, want %d", got, len(want.Events))
			}
			if tr.Loc != want.Loc || len(tr.Regions) != len(want.Regions) {
				t.Fatal("discarding events mutated the header")
			}
		})
	}
}
