package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// blockSink takes NextInto's blocks the way a rank log does: every
// block is its own allocation of exactly the block's event count.
type blockSink struct {
	blocks [][]Event
	want   []Event // expected events, checked as they are handed over
	n      int
	// scribble overwrites every block right after it was checked: the
	// reader must not read a handed-off block again.
	scribble bool
}

func (s *blockSink) take(t *testing.T, blk []Event) {
	t.Helper()
	if s.n+len(blk) > len(s.want) || !slices.Equal(blk, s.want[s.n:s.n+len(blk)]) {
		t.Fatalf("block at event %d (%d events) differs from the one-shot decode", s.n, len(blk))
	}
	s.n += len(blk)
	s.blocks = append(s.blocks, blk)
	if s.scribble {
		for i := range blk {
			blk[i] = Event{Kind: KindRecv, Time: -1, Bytes: -1}
		}
	}
}

// feedBlocks pushes data through Append and the reader's NextInto in the
// given chunks.
func feedBlocks(t *testing.T, chunks [][]byte, s *blockSink) *ChunkDecoder {
	t.Helper()
	c := NewChunkDecoder(nil)
	for i, chunk := range chunks {
		if err := c.Append(chunk); err != nil {
			t.Fatalf("Append chunk %d: %v", i, err)
		}
		for r := c.Reader(); r != nil; {
			blk, err := r.NextInto(func(n int) []Event { return make([]Event, n) })
			if err != nil {
				t.Fatalf("NextInto in chunk %d: %v", i, err)
			}
			if blk == nil {
				break
			}
			s.take(t, blk)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if blk, err := c.Reader().NextInto(nil); blk != nil || err != nil {
		t.Fatalf("NextInto after the last block = (%d events, %v)", len(blk), err)
	}
	if s.n != len(s.want) {
		t.Fatalf("handed off %d events, want %d", s.n, len(s.want))
	}
	return c
}

// splitAt cuts data into the chunks the given sorted offsets delimit.
func splitAt(data []byte, offs ...int) [][]byte {
	var chunks [][]byte
	prev := 0
	for _, off := range append(offs, len(data)) {
		chunks = append(chunks, data[prev:off])
		prev = off
	}
	return chunks
}

func randomSplit(rng *rand.Rand, data []byte, maxChunk int) [][]byte {
	var chunks [][]byte
	for off := 0; off < len(data); {
		n := min(1+rng.Intn(maxChunk), len(data)-off)
		chunks = append(chunks, data[off:off+n])
		off += n
	}
	return chunks
}

var handoffBlockSizes = []int{1, 7, 4095, 4096, 5000}

// TestChunkDecoderBlockHandoff: whatever the block size and chunk
// boundaries, the blocks the reader hands over concatenate to the
// one-shot decode, each lives in its own allocation, and Feed returns
// the same events over the same loop.
func TestChunkDecoderBlockHandoff(t *testing.T) {
	small, large := validTrace(40), validTrace(11000)
	rng := rand.New(rand.NewSource(13))
	for _, bs := range handoffBlockSizes {
		{
			data := encodeV2Bytes(t, small, bs)
			t.Run(fmt.Sprintf("small/v2/bs=%d", bs), func(t *testing.T) {
				want, err := DecodeBytes(data)
				if err != nil {
					t.Fatal(err)
				}
				// Every byte boundary, as a two-chunk split.
				for cut := 0; cut <= len(data); cut++ {
					feedBlocks(t, splitAt(data, cut), &blockSink{want: want.Events, scribble: cut%2 == 1})
				}
				// Every byte its own chunk.
				var single [][]byte
				for i := range data {
					single = append(single, data[i:i+1])
				}
				s := &blockSink{want: want.Events}
				c := feedBlocks(t, single, s)
				if c.Reader().Trace().Events != nil {
					t.Fatal("NextInto accumulated events on the decoder's trace")
				}
				for k, blk := range s.blocks {
					if k < len(s.blocks)-1 && len(blk) != bs {
						t.Fatalf("block %d holds %d events, want the stride %d", k, len(blk), bs)
					}
				}
			})
		}
		{
			data := encodeV2Bytes(t, large, bs)
			t.Run(fmt.Sprintf("large/v2/bs=%d", bs), func(t *testing.T) {
				want, err := DecodeBytes(data)
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 3; trial++ {
					chunks := randomSplit(rng, data, []int{40, 70000, 1 << 20}[trial])
					s := &blockSink{want: want.Events, scribble: trial == 1}
					feedBlocks(t, chunks, s)
					if !s.scribble {
						checkBlocksDisjoint(t, s.blocks)
					}
					// Feed is the same loop with the decoder's own room.
					c := NewChunkDecoder(nil)
					var got []Event
					for _, chunk := range chunks {
						evs, err := c.Feed(chunk)
						if err != nil {
							t.Fatal(err)
						}
						if cap(evs) != len(evs) {
							t.Fatalf("Feed returned %d events in room for %d: results are sized exactly", len(evs), cap(evs))
						}
						got = append(got, evs...)
					}
					if tr, err := c.Finish(); err != nil || !reflect.DeepEqual(tr, want) || !slices.Equal(got, want.Events) {
						t.Fatalf("Feed over the same chunks differs from the one-shot decode (err %v)", err)
					}
				}
			})
		}
	}
}

// checkBlocksDisjoint overwrites one block at a time and requires every
// other block to keep its events: no two blocks share backing memory.
func checkBlocksDisjoint(t *testing.T, blocks [][]Event) {
	t.Helper()
	if len(blocks) > 64 {
		blocks = blocks[:64] // 11000 one-event blocks prove nothing 64 do not
	}
	snap := make([][]Event, len(blocks))
	for k, blk := range blocks {
		snap[k] = append([]Event(nil), blk...)
	}
	for k, blk := range blocks {
		full := blk[:cap(blk)]
		for i := range full {
			full[i] = Event{Kind: KindSend, Time: -2}
		}
		for j := range blocks {
			if j != k && !slices.Equal(blocks[j], snap[j]) {
				t.Fatalf("overwriting block %d changed block %d", k, j)
			}
		}
		copy(blk, snap[k])
	}
}

// patchV2Counts returns img, a v2 image of a trace with no events, with
// its trailing event count and block size replaced.
func patchV2Counts(t *testing.T, img []byte, events, blockSize uint64) []byte {
	t.Helper()
	tail := binary.AppendUvarint([]byte{0}, defaultBlockSize)
	if !bytes.HasSuffix(img, tail) {
		t.Fatal("test setup: image does not end in an empty event stream")
	}
	out := append([]byte(nil), img[:len(img)-len(tail)]...)
	out = binary.AppendUvarint(out, events)
	return binary.AppendUvarint(out, blockSize)
}

// TestChunkDecoderAllocBoundedByUpload: a header is free to declare the
// largest block size and a million events; the decoder allocates event
// memory only for blocks whose bytes have arrived.
func TestChunkDecoderAllocBoundedByUpload(t *testing.T) {
	empty := &Trace{Loc: Location{MetahostName: "x"}}
	data := patchV2Counts(t, encodeV2Bytes(t, empty, defaultBlockSize), 1_000_000, maxBlockSize)
	// A block that announces 100 000 bytes and delivers five of them.
	data = append(binary.AppendUvarint(data, 100_000), 1, 2, 3, 4, 5)
	if len(data) > 256 {
		t.Fatalf("test setup: hostile stream is %d bytes", len(data))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewChunkDecoder(nil)
	evs, err := c.Feed(data)
	_, ferr := c.Finish()
	runtime.ReadMemStats(&after)
	if err != nil || evs != nil {
		t.Fatalf("Feed = (%d events, %v), want to be waiting for the block", len(evs), err)
	}
	if ferr == nil {
		t.Fatal("Finish accepted a stream a million events short")
	}
	if r := c.Reader(); r.BlockSize() != maxBlockSize || r.Total() != 1_000_000 {
		t.Fatalf("header decoded as block size %d, %d events", r.BlockSize(), r.Total())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("%d-byte stream made the decoder allocate %d bytes, want < 64 KiB", len(data), got)
	}
}

// TestChunkDecoderImplausibleBlocks pins the messages for complete
// blocks that cannot be valid — the ones the decoder refuses to reserve
// room for.
func TestChunkDecoderImplausibleBlocks(t *testing.T) {
	t.Run("count the payload cannot hold", func(t *testing.T) {
		empty := &Trace{Loc: Location{MetahostName: "x"}}
		data := patchV2Counts(t, encodeV2Bytes(t, empty, defaultBlockSize), 1_000_000, maxBlockSize)
		payload := binary.AppendUvarint(nil, 200_000) // events in the block
		payload = append(payload, make([]byte, v2ColumnCount+1)...)
		data = append(binary.AppendUvarint(data, uint64(len(payload))), payload...)
		_, err := NewChunkDecoder(nil).Feed(data)
		if err == nil || !strings.Contains(err.Error(), "block columns (1000000 bytes) do not tile the payload (1 bytes left)") {
			t.Fatalf("err = %v, want the column-tiling error", err)
		}
	})
	t.Run("more events than declared", func(t *testing.T) {
		tr := validTrace(12)
		data := encodeV2Bytes(t, tr, 20)
		// The image ends header, count, block size, one block; shrink the count.
		tail := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(len(tr.Events))), 20)
		at := bytes.LastIndex(data[:len(data)-len(tr.Events)*minEventBytesV2], tail)
		if at < 0 {
			t.Fatal("test setup: count and block size not found")
		}
		data[at] = 5
		for _, chunks := range [][][]byte{{data}, splitAt(data, at+1), splitAt(data, len(data)-1)} {
			c := NewChunkDecoder(nil)
			var err error
			for _, chunk := range chunks {
				if _, err = c.Feed(chunk); err != nil {
					break
				}
			}
			if err == nil || !strings.Contains(err.Error(), "blocks hold more events than the declared count 5") {
				t.Fatalf("err = %v, want the declared-count error", err)
			}
		}
	})
	t.Run("short inner block still decodes", func(t *testing.T) {
		// Two images' blocks back to back: a 5-event block, then full ones.
		a, b := validTrace(3), validTrace(30)
		for i := range b.Events {
			b.Events[i].Time += 10
		}
		whole := &Trace{Loc: a.Loc, Sync: a.Sync, Regions: a.Regions, Comms: a.Comms,
			Events: append(append([]Event(nil), a.Events...), b.Events...)}
		bs := len(a.Events) + 2
		imgA, imgB := encodeV2Bytes(t, a, bs), encodeV2Bytes(t, b, bs)
		head := encodeV2Bytes(t, &Trace{Loc: a.Loc, Sync: a.Sync, Regions: a.Regions, Comms: a.Comms}, bs)
		prefix := len(head) - 2 // header without its one-byte count and block size
		data := binary.AppendUvarint(append([]byte(nil), head[:prefix]...), uint64(len(whole.Events)))
		data = binary.AppendUvarint(data, uint64(bs))
		data = append(data, imgA[prefix+2:]...)
		data = append(data, imgB[prefix+2:]...)
		want, err := DecodeBytes(data)
		if err != nil || !slices.Equal(want.Events, whole.Events) {
			t.Fatalf("test setup: spliced image does not decode to the spliced trace (err %v)", err)
		}
		_, got := feedAll(t, data, []int{17})
		if !slices.Equal(got, want.Events) {
			t.Fatal("Feed over a short inner block differs from the one-shot decode")
		}
	})
}
