package trace

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// decodeRaw decodes an image of either format without validating its
// events (a prefix of a trace may leave regions open) and returns its
// events and the event count of each v2 block.
func decodeRaw(t *testing.T, img []byte) (evs []Event, blocks []int) {
	t.Helper()
	if f, _ := FormatOf(img); f == FormatV2 {
		r, err := NewBlockReader(img, nil)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]Event, r.BlockSize())
		for {
			n, err := rawNext(r, buf)
			if err == io.EOF {
				if err := r.trailing(); err != nil {
					t.Fatal(err)
				}
				return evs, blocks
			} else if err != nil {
				t.Fatal(err)
			}
			evs, blocks = append(evs, buf[:n]...), append(blocks, n)
		}
	}
	d := &decoder{data: img}
	_, ne, err := decodeHeader(d)
	if err != nil {
		t.Fatal(err)
	}
	evs = make([]Event, ne)
	for i := range evs {
		if err := decodeEvent(d, i, &evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := trailing(d, &Trace{}, len(evs)); err != nil {
		t.Fatal(err)
	}
	return evs, nil
}

// writes records each Write a writer makes: the header, then the pages.
type writes [][]byte

func (ws *writes) Write(p []byte) (int, error) {
	*ws = append(*ws, bytes.Clone(p))
	return len(p), nil
}

// TestWriterEdges feeds a writer counts around the block size, in both
// formats, event by event (Append, Finish) and as a whole trace
// (Trace.write): both write the header and then one page per block, the
// same bytes; every image decodes back to the events; each page holds
// one block (v2) or one block size of rows (v1), each v2 block a block
// size of events but the last.
func TestWriterEdges(t *testing.T) {
	for _, f := range []Format{FormatV1, FormatV2} {
		for _, bs := range []int{1, 7, defaultBlockSize} {
			for _, n := range []int{0, 1, bs - 1, bs, bs + 1, 3*bs + 1} {
				t.Run(fmt.Sprintf("%v/bs=%d/n=%d", f, bs, n), func(t *testing.T) {
					tr := synthTrace(int64(n), n)
					w := newWriter(f, bs)
					for _, ev := range tr.Events {
						w.Append(ev)
					}
					if w.Len() != n {
						t.Fatalf("Len %d after %d events", w.Len(), n)
					}
					var got writes
					size, err := w.Finish(&got, tr)
					img := bytes.Join(got, nil)
					if err != nil || size != int64(len(img)) {
						t.Fatalf("Finish: %d bytes reported, %d written, %v", size, len(img), err)
					}
					if w.pages != nil || w.block != nil {
						t.Errorf("Finish kept %d pages and a %d-event block", len(w.pages), cap(w.block))
					}
					var whole writes
					if err := tr.write(newWriter(f, bs), &whole); err != nil || !reflect.DeepEqual(whole, got) {
						t.Fatalf("a whole trace was written as %d writes (%v), not as the appended events' %d", len(whole), err, len(got))
					}
					evs, blocks := decodeRaw(t, img)
					if len(evs) != n || n > 0 && !reflect.DeepEqual(evs, tr.Events) {
						t.Fatalf("decoded %d events, want the %d appended", len(evs), n)
					}
					pages := got[1:]
					if want := (n + bs - 1) / bs; len(pages) != want || f == FormatV2 && len(blocks) != want {
						t.Fatalf("%d pages, %d blocks, want %d of each", len(pages), len(blocks), want)
					}
					for i, page := range pages {
						want := min(bs, n-i*bs)
						rows := 0
						if f == FormatV1 {
							d := &decoder{data: page}
							for ; d.remaining() > 0; rows++ {
								var ev Event
								if err := decodeEvent(d, rows, &ev); err != nil {
									t.Fatal(err)
								}
							}
						} else if k, length, ok := peekV2Block(page); ok && length == len(page) {
							rows = int(k)
						}
						if rows != want || f == FormatV2 && blocks[i] != want {
							t.Fatalf("page %d holds %d events, want one whole block of %d", i, rows, want)
						}
					}
				})
			}
		}
	}
}

// TestWriterReproducesCorpus feeds a writer the events of every image in
// the checked-in seed corpus that decodes, with the image's format, block
// size and member-list coding: it must write the image byte for byte.
func TestWriterReproducesCorpus(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join(corpusRoot, "*", "*"))
	reproduced := 0
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		img, err := unmarshalCorpus(raw)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := DecodeBytes(img)
		if err != nil {
			continue
		}
		f, _ := FormatOf(img)
		bs := defaultBlockSize
		if f == FormatV2 {
			r, _ := NewBlockReader(img, nil)
			bs = r.BlockSize()
		}
		d := &decoder{data: img, pos: len(magic) + 1} // the flags byte follows the location and the master ranks
		for range 4 {
			d.i64()
		}
		d.str()
		d.i64()
		d.i64()
		w := newWriter(f, bs)
		w.explicitComms = d.byte()&flagCommRuns == 0
		for _, ev := range tr.Events {
			w.Append(ev)
		}
		var out bytes.Buffer
		if _, err := w.Finish(&out, tr); err != nil || !bytes.Equal(out.Bytes(), img) {
			t.Errorf("%s: the writer wrote %d bytes (%v), not the image's %d", file, out.Len(), err, len(img))
		}
		reproduced++
	}
	if reproduced < 10 {
		t.Fatalf("only %d corpus images decode; the corpus is missing", reproduced)
	}
}
