package replay

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"metascope/internal/archive"
	"metascope/internal/obs"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// logEvents returns n (even) distinguishable events in time order that
// validate as a trace: main entered, a run of leaf-region visits, main
// exited.
func logEvents(n int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{Kind: trace.KindEnter + trace.EventKind(i%2), Time: float64(i), Region: trace.RegionID(1 + (i-1)/2%7)}
	}
	evs[0] = enter(0, 0)
	evs[n-1] = exit(float64(n-1), 0)
	return evs
}

// v2Image renders events (Enter/Exit only, as logEvents makes them) as a
// v2 image of rank 0 that declares block size bs and holds blocks of the
// given event counts. The package's encoder cannot do that: it writes
// 4096-event blocks, all full but the last.
func v2Image(t *testing.T, events []trace.Event, bs int, counts ...int) []byte {
	t.Helper()
	var head bytes.Buffer
	if err := synth(0, 0, nil).EncodeV2(&head); err != nil {
		t.Fatal(err)
	}
	// An empty image ends with its event count (0, one byte) and the
	// encoder's block size (4096, two bytes).
	img := head.Bytes()[:head.Len()-3]
	img = binary.AppendUvarint(img, uint64(len(events)))
	img = binary.AppendUvarint(img, uint64(bs))
	zigzag := func(b []byte, d int64) []byte { return binary.AppendUvarint(b, uint64((d<<1)^(d>>63))) }
	for _, n := range counts {
		blk := events[:n]
		events = events[n:]
		var thi, reg []byte
		var tprev, rprev int64
		for _, ev := range blk {
			hi := int64(math.Float64bits(ev.Time) >> 32)
			thi, tprev = zigzag(thi, hi-tprev), hi
			reg, rprev = zigzag(reg, int64(ev.Region)-rprev), int64(ev.Region)
		}
		p := binary.AppendUvarint(nil, uint64(n))
		for _, col := range [8][]byte{thi, reg} { // the other six columns stay empty
			p = binary.AppendUvarint(p, uint64(len(col)))
		}
		for _, ev := range blk {
			p = append(p, byte(ev.Kind))
		}
		for _, ev := range blk {
			p = binary.LittleEndian.AppendUint32(p, uint32(math.Float64bits(ev.Time)))
		}
		p = append(append(p, thi...), reg...)
		img = append(binary.AppendUvarint(img, uint64(len(p))), p...)
	}
	return img
}

// blockCounts splits n events into full blocks of bs and a short last.
func blockCounts(n, bs int) []int {
	var counts []int
	for ; n > 0; n -= min(n, bs) {
		counts = append(counts, min(n, bs))
	}
	return counts
}

// pulledLog opens img header-only and wraps it in a pulled rank log.
func pulledLog(t *testing.T, img []byte) *rankLog {
	t.Helper()
	r, err := trace.NewBlockReader(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	return newPulledRankLog(r)
}

// pushedLog returns a pushed rank log over an empty chunk decoder and the
// step that uploads img to it a few bytes at a time, the way
// Live.FeedChunk does: append, attach the reader once the header is in,
// pull what is whole. step returns once a pull published something; the
// last step closes the stream.
func pushedLog(t *testing.T, img []byte) (*rankLog, func()) {
	t.Helper()
	lg := newRankLog()
	lg.pushed = true
	dec := trace.NewChunkDecoder(nil)
	rng := rand.New(rand.NewSource(5))
	off := 0
	return lg, func() {
		for published := 0; published == 0; {
			k := min(1+rng.Intn(3000), len(img)-off)
			if err := dec.Append(img[off : off+k]); err != nil {
				t.Fatalf("Append at byte %d: %v", off, err)
			}
			if off += k; off == len(img) {
				if err := dec.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if lg.src == nil {
				if dec.Reader() == nil {
					continue
				}
				lg.attach(dec.Reader())
			}
			for {
				n, err := lg.pull()
				if err != nil {
					t.Fatalf("pull at byte %d: %v", off, err)
				}
				if n == 0 {
					break
				}
				published += n
			}
		}
	}
}

// TestRankLogBlockHandoff drives all three feeders over the same events:
// pushed (a v2 image uploaded in pieces: full blocks, then a short last
// one), preloaded, and pulled out of the complete image. Whoever feeds,
// the sweep sees the same event sequence and time bounds, no published
// event ever moves, every block comes back once the sweep has passed it,
// and — all but the preloaded log, which is one block — little more than
// the sweep's own block is ever resident.
func TestRankLogBlockHandoff(t *testing.T) {
	for _, stride := range []int{1, 7, 4095, 4096, 5000} {
		n := 2*stride + stride/2 + 1 // two full blocks and a short one
		if stride == 1 {
			n = 40
		}
		n += n % 2
		want := logEvents(n)
		img := v2Image(t, want, stride, blockCounts(n, stride)...)
		for _, mode := range []string{"whole-blocks", "preloaded", "pulled"} {
			t.Run(fmt.Sprintf("%s/stride=%d", mode, stride), func(t *testing.T) {
				// open returns a fresh log and, for the pushed mode, the
				// step that uploads more of the image.
				open := func() (*rankLog, func()) {
					switch mode {
					case "preloaded":
						return newPreloadedRankLog(want), nil
					case "pulled":
						return pulledLog(t, img), nil
					}
					return pushedLog(t, img)
				}
				// sweep reads the log to its end, stepping a pushed feeder
				// whenever the cursor has used up what is published.
				sweep := func(lg *rankLog, step func(), release bool) []*trace.Event {
					sc := newSweepCursor(lg)
					seen := make([]*trace.Event, 0, n)
					for i := 0; ; i++ {
						if step != nil && i < n && lg.published() == i {
							step()
							if i == 0 {
								sc = newSweepCursor(lg) // the stride came with the header
							}
						}
						if !sc.at(i) {
							if sc.err != nil {
								t.Fatalf("log ended at event %d: %v", i, sc.err)
							}
							return seen
						}
						if release {
							sc.release(i)
						}
						seen = append(seen, sc.ev(i))
					}
				}

				lg, step := open()
				seen := sweep(lg, step, false)
				if len(seen) != n {
					t.Fatalf("swept %d events, want %d", len(seen), n)
				}
				if first, last, ok := lg.bounds(); !ok || first != 0 || last != float64(n-1) {
					t.Fatalf("bounds = (%g, %g, %v), want (0, %d, true)", first, last, ok, n-1)
				}
				if res, peak := lg.residentEvents(); res != n || peak != n {
					t.Fatalf("resident %d, peak %d before any release, want %d", res, peak, n)
				}
				for k, blk := range lg.blocks {
					if k < len(lg.blocks)-1 && len(blk) != stride {
						t.Fatalf("block %d holds %d events, want the stride %d", k, len(blk), stride)
					}
				}
				// Published events never moved and read back identically
				// through a second cursor.
				sc2 := newSweepCursor(lg)
				for i := range want {
					if *seen[i] != want[i] {
						t.Fatalf("event %d changed after publication: %+v", i, *seen[i])
					}
					if got := sc2.ev(i); got != seen[i] {
						t.Fatalf("event %d moved: first seen at %p, now at %p", i, seen[i], got)
					}
					sc2.release(i)
				}
				lg.releaseBefore(len(lg.blocks) * lg.stride)
				if res, _ := lg.residentEvents(); res != 0 {
					t.Fatalf("%d events resident after the sweep released everything", res)
				}

				// A sweep that releases behind itself bounds the window: the
				// block it reads and the one ahead of it, plus — pushed, at
				// the smaller strides — what one 3000-byte chunk completes.
				lg, step = open()
				if got := len(sweep(lg, step, true)); got != n {
					t.Fatalf("releasing sweep saw %d events, want %d", got, n)
				}
				if _, peak := lg.residentEvents(); mode != "preloaded" && peak > 2*stride+3000/6 {
					t.Fatalf("peak residency %d events, want at most two blocks of %d", peak, stride)
				}
				if len(lg.free) != 0 {
					t.Fatalf("%d blocks still parked after the log closed", len(lg.free))
				}
			})
		}
	}
}

// TestRankLogParksOnlyWhileOpen: a released block is kept for the next
// decode only while there is one to come. A pushed log whose upload
// finished before the sweep began is closed already: the sweep's
// releases park nothing, and residency falls block by block exactly as
// it does without a free list.
func TestRankLogParksOnlyWhileOpen(t *testing.T) {
	const stride, n = 8, 80
	lg, step := pushedLog(t, v2Image(t, logEvents(n), stride, blockCounts(n, stride)...))
	for lg.published() < n {
		step()
	}
	if res, _ := lg.residentEvents(); !lg.closed || res != n {
		t.Fatalf("closed = %v with %d of %d events resident after the upload", lg.closed, res, n)
	}
	sc := newSweepCursor(lg)
	for i := 0; sc.at(i); i++ {
		sc.release(i)
		sc.ev(i)
		if len(lg.free) != 0 {
			t.Fatalf("event %d: a closed log parked %d blocks", i, len(lg.free))
		}
		if res, _ := lg.residentEvents(); res != n-i/stride*stride {
			t.Fatalf("event %d: %d events resident, want %d", i, res, n-i/stride*stride)
		}
	}
}

// TestReleaseBeforeIsLinear: the sweep calls releaseBefore once per block
// boundary, and each call starts where the last one stopped. Rescanning
// the released prefix every time is quadratic in a rank's blocks — ten
// billion steps on this log — on the one path meant for archives larger
// than memory.
func TestReleaseBeforeIsLinear(t *testing.T) {
	const n = 200_000
	events := logEvents(n)
	lg := newRankLog()
	lg.stride = 1
	for i := range events {
		if err := lg.publish(events[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	for i := 1; i <= n; i++ {
		lg.releaseBefore(i)
		if lg.released != i {
			t.Fatalf("released %d blocks below event %d", lg.released, i)
		}
	}
	if res, _ := lg.residentEvents(); res != 0 {
		t.Fatalf("%d events resident after every block was released", res)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("releasing %d one-event blocks took %v", n, d)
	}
}

// TestRankLogRejectsShortInnerBlock: fixed-stride indexing cannot place
// a block that follows a short one; the log refuses it instead of
// mis-indexing the sweep.
func TestRankLogRejectsShortInnerBlock(t *testing.T) {
	want := logEvents(20)
	lg := newRankLog()
	lg.stride = 8
	for _, run := range [][]trace.Event{want[:8], want[8:13]} { // a whole block of five: nothing may follow it
		if err := lg.publish(run); err != nil {
			t.Fatal(err)
		}
	}
	err := lg.publish(want[13:])
	if err == nil || !strings.Contains(err.Error(), "block 1 holds 5 events, want 8") {
		t.Fatalf("err = %v, want the short-block error", err)
	}
	if res, _ := lg.residentEvents(); res != 13 {
		t.Fatalf("rejected block changed residency to %d", res)
	}
}

// TestPulledRankLogRejectsCorruptImages: faults past the header are
// invisible when the image is opened; the pulled feeder reports them
// when the sweep reaches the block, in the words the lazy log always
// used, and the log ends there.
func TestPulledRankLogRejectsCorruptImages(t *testing.T) {
	want := logEvents(20)
	good := v2Image(t, want, 8, 8, 8, 4)
	for _, tc := range []struct {
		name string
		img  []byte
		err  string
		seen int // events the sweep reads before the log fails
	}{
		// The short block itself is a block like any other; the one
		// after it is what cannot be placed.
		{"short inner block", v2Image(t, want, 8, 8, 5, 7),
			"trace A:rank0@0/0/0: block 1 holds 5 events, want 8", 13},
		{"truncated last block", good[:len(good)-3],
			"trace: block payload length 47 exceeds remaining input (44 bytes)", 16},
		{"trailing bytes", append(good[:len(good):len(good)], 0, 0),
			"trace A:rank0@0/0/0: 2 trailing byte(s) after 20 declared events", 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := newSweepCursor(pulledLog(t, tc.img))
			i := 0
			for ; sc.at(i); i++ {
				if ev := sc.ev(i); *ev != want[i] {
					t.Fatalf("event %d decoded as %+v, want %+v", i, *ev, want[i])
				}
			}
			if sc.err == nil || sc.err.Error() != tc.err {
				t.Fatalf("err = %v, want %q", sc.err, tc.err)
			}
			if i != tc.seen {
				t.Fatalf("sweep read %d events before the failure, want %d", i, tc.seen)
			}
		})
	}
}

// TestHostileRegionIDs: a header may declare any region ids — past the
// ids writers number from zero, at the top of the id space, the same id
// twice — and an Enter of an id it does not declare is refused at that
// event with the one message, whichever reader meets it: Validate on the
// decoded trace, the lazy pull and ChunkDecoder. A trace that enters only
// declared ids analyses the same preloaded and pulled, and a repeated id
// names its last declaration's region, as it always did.
func TestHostileRegionIDs(t *testing.T) {
	// The table indexes ids 0, 1 and 2 — 3 is the first id past its dense
	// bound — and searches for 5, 1<<16 and 0xFFFFFFFE.
	regions := []trace.Region{
		{ID: 0, Name: "main"}, {ID: 1, Name: "MPI_Send", Kind: trace.RegionMPIP2P}, {ID: 2, Name: "work"},
		{ID: 5, Name: "first"}, {ID: 1 << 16, Name: "far"}, {ID: 5, Name: "second"}, {ID: 0xFFFFFFFE, Name: "top"},
	}
	cfg := Config{Scheme: vclock.FlatSingle, Title: "hostile regions", Obs: obs.NewRecorder()}
	for _, tc := range []struct {
		name string
		id   trace.RegionID
		ok   bool
	}{
		{"declared 1<<16", 1 << 16, true},
		{"declared 0xFFFFFFFE", 0xFFFFFFFE, true},
		{"declared twice", 5, true},
		{"just past the dense bound", 3, false},
		{"in a hole", 4, false},
		{"just past a declared far id", 1<<16 + 1, false},
		{"0xFFFFFFFF", 0xFFFFFFFF, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := synth(0, 0, []trace.Event{
				enter(0, 0), enter(1, 2), exit(2, 2), enter(3, tc.id), exit(4, tc.id), enter(5, 2), exit(6, 2), exit(7, 0),
			}, trace.CommDef{ID: 0, Ranks: []int32{0}})
			tr.Regions = regions
			img := v2Blocks(t, tr, 2, 2, 2, 2, 2) // the Enter at event 3 sits in the second block
			want := fmt.Sprintf("trace %v: event 3 enters unknown region %d", tr.Loc, tc.id)
			check := func(reader string, err error) {
				t.Helper()
				if tc.ok && err != nil {
					t.Errorf("%s refused a declared id: %v", reader, err)
				}
				if !tc.ok && (err == nil || err.Error() != want) {
					t.Errorf("%s: err = %v, want %q", reader, err, want)
				}
			}

			check("Validate", tr.Validate())
			sc := newSweepCursor(pulledLog(t, img))
			i := 0
			for sc.at(i) {
				i++
			}
			check("lazy pull", sc.err)
			if !tc.ok && i != 2 {
				t.Errorf("lazy pull published %d events before the refused block, want 2", i)
			}
			c := trace.NewChunkDecoder(nil)
			_, err := c.Feed(img)
			if err == nil {
				_, err = c.Finish()
			}
			check("ChunkDecoder", err)

			if !tc.ok {
				return
			}
			pre := outcomeOf(Analyze([]*trace.Trace{tr}, cfg))
			if pre.err != nil {
				t.Fatal(pre.err)
			}
			if lazy, _ := pulledOutcome(t, context.Background(), cfg, [][]byte{img}); lazy.err != nil ||
				!bytes.Equal(lazy.report, pre.report) || !bytes.Equal(lazy.prof, pre.prof) {
				t.Errorf("pulled analysis differs from preloaded (err %v)", lazy.err)
			}
			if tc.id == 5 && (!bytes.Contains(pre.report, []byte(`"second"`)) || bytes.Contains(pre.report, []byte(`"first"`))) {
				t.Error("a repeated region id does not name its last declaration's region")
			}
		})
	}
}

// exchangeTraces repeats the three-rank exchange of liveTraces the given
// number of times inside one main region, so that every rank's image
// spans several small blocks.
func exchangeTraces(rounds int) []*trace.Trace {
	traces := liveTraces()
	for _, tr := range traces {
		one := tr.Events[1 : len(tr.Events)-1]
		evs := []trace.Event{tr.Events[0]}
		for i := 0; i < rounds; i++ {
			for _, ev := range one {
				ev.Time += 12 * float64(i)
				evs = append(evs, ev)
			}
		}
		last := tr.Events[len(tr.Events)-1]
		last.Time += 12 * float64(rounds-1)
		tr.Events = append(evs, last)
	}
	return traces
}

// v2Blocks renders tr as a v2 image that declares block size bs and
// holds blocks of the given event counts (each at most the encoder's own
// block size): the single blocks the encoder writes for each run of
// events, spliced under one header.
func v2Blocks(t testing.TB, tr *trace.Trace, bs int, counts ...int) []byte {
	t.Helper()
	encode := func(events []trace.Event) []byte {
		one := *tr
		one.Events = events
		var buf bytes.Buffer
		if err := one.EncodeV2(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// An empty image ends with its event count (0, one byte) and the
	// encoder's block size (4096, two bytes).
	empty := encode(nil)
	prefix := len(empty) - 3
	img := binary.AppendUvarint(empty[:prefix:prefix], uint64(len(tr.Events)))
	img = binary.AppendUvarint(img, uint64(bs))
	events := tr.Events
	for _, n := range counts {
		one := encode(events[:n])
		img = append(img, one[prefix+len(binary.AppendUvarint(nil, uint64(n)))+2:]...)
		events = events[n:]
	}
	return img
}

// v2HeaderLen is the offset of the first block in v2Blocks(t, tr, bs, …).
func v2HeaderLen(t testing.TB, tr *trace.Trace, bs int) int {
	none := *tr
	none.Events = nil
	return len(v2Blocks(t, &none, bs)) - 1 + len(binary.AppendUvarint(nil, uint64(len(tr.Events))))
}

// feedOutcome is what an analysis of one set of rank images came to: the
// rendered artifacts, or the error.
type feedOutcome struct {
	report, prof, phases []byte
	err                  error
}

func outcomeOf(res *Result, err error) feedOutcome {
	if err != nil {
		return feedOutcome{err: err}
	}
	var rb, pb, hb bytes.Buffer
	for _, werr := range []error{res.Report.Write(&rb), res.Profile.WriteJSON(&pb), res.Phases.WriteJSON(&hb)} {
		if werr != nil {
			return feedOutcome{err: werr}
		}
	}
	return feedOutcome{report: rb.Bytes(), prof: pb.Bytes(), phases: hb.Bytes()}
}

// feedersArchive is an in-memory archive, on metahost 0, of the rank
// images.
func feedersArchive(t testing.TB, images [][]byte) (mounts *archive.Mounts, dir string) {
	t.Helper()
	fs := archive.NewMemFS("feeders")
	mounts = archive.NewMounts()
	mounts.Mount(0, fs)
	dir = "epik_feeders"
	if err := fs.Mkdir(dir); err != nil {
		t.Fatal(err)
	}
	for r, img := range images {
		w, err := fs.Create(archive.TraceFile(dir, r))
		if err != nil {
			t.Fatal(err)
		}
		w.Write(img)
		w.Close()
	}
	return mounts, dir
}

// pulledOutcome writes the images into an archive and analyses it
// lazily. loaded reports whether the loader took the archive — a fault
// the loader refuses is named in its own words, with the file.
func pulledOutcome(t testing.TB, ctx context.Context, cfg Config, images [][]byte) (out feedOutcome, loaded bool) {
	t.Helper()
	mounts, dir := feedersArchive(t, images)
	ar, err := LoadArchiveLazyCtx(ctx, mounts, []int{0}, dir, obs.NewRecorder())
	if err != nil {
		return feedOutcome{err: err}, false
	}
	return outcomeOf(analyzeCtx(ctx, ar, cfg)), true
}

// pushedOutcome uploads the images to a live session, rank 0 cut at the
// given offsets and the other ranks whole, and finalizes it.
func pushedOutcome(t testing.TB, ctx context.Context, cfg LiveConfig, images [][]byte, cuts ...int) feedOutcome {
	t.Helper()
	cfg.Ranks = len(images)
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ferr error
	feed := func(rank int, chunk []byte) {
		if ferr == nil {
			ferr = l.FeedChunk(rank, chunk)
		}
	}
	prev := 0
	for _, cut := range append(cuts, len(images[0])) {
		if cut = min(cut, len(images[0])); cut > prev {
			feed(0, images[0][prev:cut])
			prev = cut
		}
	}
	for r := 1; r < len(images); r++ {
		feed(r, images[r])
	}
	res, err := l.Finalize(ctx)
	if ferr != nil {
		return feedOutcome{err: ferr} // the PUT that carried the fault said so first
	}
	return outcomeOf(res, err)
}

// everyN returns the offsets that cut n bytes into size-byte chunks.
func everyN(n, size int) []int {
	var cuts []int
	for off := size; off < n; off += size {
		cuts = append(cuts, off)
	}
	return cuts
}

// TestFeedersAgree: same bytes, same outcome, whoever feeds. For every
// fault a v2 image can carry past its header, a lazy analysis of the
// archive and a live session fed the same images — whole, byte by byte,
// in 64 KiB chunks, or cut inside the first block's length prefix — fail
// with the identical message; on clean images all of them, and the
// analysis of the preloaded traces, render byte-identical artifacts —
// also in blocks of one, two and three events, where the look-ahead for
// a Send's region exit crosses a block boundary every time and a
// collective's event is held across its gather while the next block
// lands in one the sweep released: an event pointer that outlived its
// block is then a differing artifact.
func TestFeedersAgree(t *testing.T) {
	cfg := Config{Scheme: vclock.FlatSingle, Title: "feeders", Obs: obs.NewRecorder()}
	const bs = 32
	image := func(tr *trace.Trace, counts ...int) []byte { return v2Blocks(t, tr, bs, counts...) }
	traces := exchangeTraces(8)
	clean := make([][]byte, len(traces))
	for r, tr := range traces {
		clean[r] = image(tr, blockCounts(len(tr.Events), bs)...)
	}
	t0 := traces[0]
	n0 := len(t0.Events) // 32 + 32 + 10
	first := v2HeaderLen(t, t0, bs)
	if n, w := binary.Uvarint(clean[0][first:]); w != 2 || first+w+int(n) >= len(clean[0]) {
		t.Fatalf("test setup: first block's length prefix is %d byte(s)", w)
	}
	patch := func(img []byte, off int, b byte) []byte {
		out := append([]byte(nil), img...)
		out[off] = b
		return out
	}
	edit := func(fn func(evs []trace.Event) []trace.Event) *trace.Trace {
		tr := *t0
		tr.Events = fn(append([]trace.Event(nil), t0.Events...))
		return &tr
	}
	fan := fanoutTraces()
	fanImages := make([][]byte, len(fan))
	for r, tr := range fan {
		fanImages[r] = image(tr, blockCounts(len(tr.Events), bs)...)
	}
	type fault struct {
		name string
		img  []byte // rank 0's image
		// differ: the two feeders both refuse, each in its own words.
		differ string
		// clean: the traces behind the images, all of them sound.
		clean []*trace.Trace
		rest  [][]byte // the other ranks' images, clean[1:] if nil
		// eager: the eager decode and analysis refuse the image too, in the
		// same words — a well-formed encoding of unsound events, or bytes
		// after the last declared event.
		eager bool
	}
	faults := []fault{
		{name: "clean", img: clean[0], clean: traces},
		{name: "clean multi-receiver", img: fanImages[0], clean: fan, rest: fanImages[1:]},
		{name: "truncated mid-block", img: clean[0][:len(clean[0])-3]},
		{name: "truncated at a block boundary", img: image(t0, 32, 32)},
		{name: "trailing byte", eager: true, img: append(clean[0][:len(clean[0]):len(clean[0])], 0)},
		{name: "block count 0", img: patch(clean[0], first+2, 0)},
		{name: "block count over the block size", img: patch(clean[0], first+2, bs+1)},
		{name: "block count over the events owed", img: func() []byte {
			// The last block holds 10 events and says 11.
			img := image(t0, 32, 32, 10)
			tail := image(edit(func(evs []trace.Event) []trace.Event { return evs[64:] }), 10)
			return patch(img, len(img)-(len(tail)-first)+1, 11)
		}()},
		// A block of one event that says 30.
		{name: "block count over what the payload can hold", img: patch(image(t0, 1, 32, 32, 9), first+1, 30)},
		{name: "short inner block", img: image(t0, 32, 10, 32)},
		{name: "non-monotone time", img: func() []byte {
			tr := edit(func(evs []trace.Event) []trace.Event {
				evs[40].Time = evs[39].Time - 1
				return evs
			})
			return image(tr, blockCounts(n0, bs)...)
		}()},
		// Both formats carry raw float64 bits. Every comparison with a NaN
		// is false, so only an explicit check stops one; an infinity is in
		// order after any time stamp and used to surface at render time.
		{name: "nan-time", eager: true, img: func() []byte {
			tr := edit(func(evs []trace.Event) []trace.Event {
				evs[n0-2].Time, evs[n0-1].Time = math.NaN(), math.NaN()
				return evs
			})
			return image(tr, blockCounts(n0, bs)...)
		}()},
		{name: "inf-time", eager: true, img: func() []byte {
			tr := edit(func(evs []trace.Event) []trace.Event {
				evs[n0-2].Time, evs[n0-1].Time = math.Inf(1), math.Inf(1)
				return evs
			})
			return image(tr, blockCounts(n0, bs)...)
		}()},
		{name: "unbalanced exit", img: func() []byte {
			tr := edit(func(evs []trace.Event) []trace.Event { return evs[:len(evs)-1] })
			return image(tr, blockCounts(n0-1, bs)...)
		}()},
		{name: "rank mismatch", img: clean[1], differ: "trace of rank 1"},
	}
	for _, small := range []int{1, 2, 3} { // one-byte block sizes like bs: the header length is the same
		for name, trs := range map[string][]*trace.Trace{"clean": traces, "clean multi-receiver": fan} {
			imgs := make([][]byte, len(trs))
			for r, tr := range trs {
				imgs[r] = v2Blocks(t, tr, small, blockCounts(len(tr.Events), small)...)
			}
			faults = append(faults, fault{name: fmt.Sprintf("%s, %d-event blocks", name, small), img: imgs[0], clean: trs, rest: imgs[1:]})
		}
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if f.rest == nil {
				f.rest = clean[1:]
			}
			images := append([][]byte{f.img}, f.rest...)
			want, _ := pulledOutcome(t, ctx, cfg, images)
			if (want.err == nil) != (f.clean != nil) {
				t.Fatalf("lazy analysis: err = %v", want.err)
			}
			hdr := first // every faulty image keeps t0's header
			if f.eager {
				bad, err := trace.DecodeBytesInterned(f.img, nil)
				if err == nil {
					_, err = Analyze(append([]*trace.Trace{bad}, traces[1:]...), cfg)
				}
				if err == nil || err.Error() != want.err.Error() {
					t.Errorf("preloaded analysis says %v, lazy analysis says %q", err, want.err)
				}
			}
			if f.clean != nil {
				hdr = v2HeaderLen(t, f.clean[0], bs)
				got := outcomeOf(Analyze(f.clean, cfg))
				if got.err != nil {
					t.Fatalf("preloaded analysis failed: %v", got.err)
				}
				if !bytes.Equal(got.report, want.report) || !bytes.Equal(got.prof, want.prof) || !bytes.Equal(got.phases, want.phases) {
					t.Error("preloaded artifacts differ from the lazy analysis of the same events")
				}
			}
			for name, cuts := range map[string][]int{
				"whole":                nil,
				"1-byte":               everyN(len(f.img), 1),
				"64 KiB":               everyN(len(f.img), 64<<10),
				"inside length prefix": {hdr + 1},
			} {
				got := pushedOutcome(t, ctx, LiveConfig{Config: cfg}, images, cuts...)
				switch {
				case want.err == nil:
					if got.err != nil {
						t.Fatalf("%s: live session failed: %v", name, got.err)
					}
					if !bytes.Equal(got.report, want.report) || !bytes.Equal(got.prof, want.prof) || !bytes.Equal(got.phases, want.phases) {
						t.Errorf("%s: live artifacts differ from the lazy analysis of the same bytes", name)
					}
				case got.err == nil:
					t.Errorf("%s: live session accepted what the lazy analysis refuses: %v", name, want.err)
				case f.differ != "":
					if !strings.Contains(got.err.Error(), f.differ) || !strings.Contains(want.err.Error(), f.differ) {
						t.Errorf("%s: live %q, lazy %q; want both to name %q", name, got.err, want.err, f.differ)
					}
				case got.err.Error() != want.err.Error() || !strings.HasPrefix(got.err.Error(), "trace"):
					t.Errorf("%s: live session says %q, lazy analysis says %q", name, got.err, want.err)
				}
			}
		})
	}
}

// TestTrailingBytesRefusedByEveryFeeder: a rank file with bytes after
// its last declared event is refused whoever reads it, in the same words
// — the eager load of AnalyzeArchiveContext (what metascope analyze and
// served jobs run), which names the file as it does for every decode
// fault, a lazy analysis, and a live session. A v1 file, which only the
// loaders read, too.
func TestTrailingBytesRefusedByEveryFeeder(t *testing.T) {
	cfg := Config{Scheme: vclock.FlatSingle, Title: "trailing", Obs: obs.NewRecorder()}
	ctx := context.Background()
	traces := exchangeTraces(8)
	want := fmt.Sprintf("trace %v: 2 trailing byte(s) after %d declared events", traces[0].Loc, len(traces[0].Events))
	for _, format := range []trace.Format{trace.FormatV2, trace.FormatV1} {
		t.Run(format.String(), func(t *testing.T) {
			images := make([][]byte, len(traces))
			for r, tr := range traces {
				var buf bytes.Buffer
				if err := tr.EncodeFormat(&buf, format); err != nil {
					t.Fatal(err)
				}
				images[r] = buf.Bytes()
			}
			images[0] = append(images[0], 0, 0)
			named := func(feeder string, err error) {
				t.Helper()
				if err == nil || !strings.HasPrefix(err.Error(), "replay: decoding trace.0.") || errors.Unwrap(err).Error() != want {
					t.Errorf("%s: err = %v, want %q naming the file", feeder, err, want)
				}
			}
			mounts, dir := feedersArchive(t, images)
			_, err := AnalyzeArchiveContext(ctx, mounts, []int{0}, dir, cfg)
			named("eager", err)
			lazy, _ := pulledOutcome(t, ctx, cfg, images)
			if format == trace.FormatV1 {
				named("lazy", lazy.err) // a v1 rank decodes whole
				return
			}
			if lazy.err == nil || lazy.err.Error() != want {
				t.Errorf("lazy: err = %v, want %q", lazy.err, want)
			}
			if live := pushedOutcome(t, ctx, LiveConfig{Config: cfg}, images); live.err == nil || live.err.Error() != want {
				t.Errorf("live: err = %v, want %q", live.err, want)
			}
		})
	}
}

// TestLedgerLogsSizedByOneCount: over a resident log one counting pass
// sizes the first page of the three ledger logs — volume samples by Send,
// receive records by Recv, ops by Exit of a non-user region, none for a
// user region's exit — so the receive and the op log are one page,
// exactly full; a pulled log is not counted, because that would decode it
// whole; and the counts are hints, never answers: exits that name the
// wrong region change the page reserved and not one byte of the result.
func TestLedgerLogsSizedByOneCount(t *testing.T) {
	cfg := Config{Scheme: vclock.FlatSingle, Title: "hints", Obs: obs.NewRecorder()}.withDefaults(3)
	sweep := func(traces []*trace.Trace) *analyzer {
		t.Helper()
		corr, err := BuildCorrections(traces, cfg.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		logs := make([]*rankLog, len(traces))
		for i, tr := range traces {
			logs[i] = newPreloadedRankLog(tr.Events)
		}
		a, err := newAnalyzer(traces, logs, corr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.run()
		return a
	}
	traces := exchangeTraces(8)
	for r, rr := range sweep(traces).results {
		if rr.err != nil {
			t.Fatal(rr.err)
		}
		tr := traces[r]
		regions := trace.NewRegionTable(tr.Regions)
		mpi := 0
		for _, ev := range tr.Events {
			if ev.Kind == trace.KindExit && regions.Lookup(ev.Region).Kind != trace.RegionUser {
				mpi++
			}
		}
		if pages := rr.opLog.pages; len(pages) != 1 || len(pages[0]) != mpi || cap(pages[0]) != mpi {
			t.Errorf("rank %d: op log in %d pages, %d bytes for %d ops; want one page of exactly %d (one per non-user exit)",
				r, len(pages), rr.opLog.bytes(), rr.opLog.len(), mpi)
		}
		n := tr.CountKind(trace.KindRecv)
		if pages := rr.recvLog.pages; n > 0 && (len(pages) != 1 || len(pages[0]) != n || cap(pages[0]) != n) {
			t.Errorf("rank %d: receive log in %d pages, %d bytes for %d records; want one page of exactly %d",
				r, len(pages), rr.recvLog.bytes(), rr.recvLog.len(), n)
		}
		if n == 0 && len(rr.recvLog.pages) != 0 {
			t.Errorf("rank %d: %d receive pages for a rank that receives nothing", r, len(rr.recvLog.pages))
		}
		// Wait states add to the volume samples, so the sample log may
		// outgrow its first page; that page is never below the count.
		if n := tr.CountKind(trace.KindSend); rr.profLog.len() < n || (n > 0 && cap(rr.profLog.pages[0]) != n) {
			t.Errorf("rank %d: sample log of %d records, first page of %d, for %d sends", r, rr.profLog.len(), cap(rr.profLog.pages[0]), n)
		}
	}

	img := v2Blocks(t, traces[0], 8, blockCounts(len(traces[0].Events), 8)...)
	br, err := trace.NewBlockReader(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	regions := trace.NewRegionTable(traces[0].Regions)
	if _, ok := newPulledRankLog(br).countIfResident(&regions); ok {
		t.Error("a pulled log was counted: that decodes every block up front")
	}

	// Every exit names the user region — no op page is reserved — then
	// every exit names an MPI one — a page for one op too many is. The
	// run is long enough for an unreserved log to reach full-size pages.
	// Either way the analysis is the same, and each log holds at most one
	// page beyond its records.
	const rounds = 400
	want := outcomeOf(Analyze(exchangeTraces(rounds), cfg))
	for _, region := range []trace.RegionID{0, 1} {
		lying := exchangeTraces(rounds)
		for _, tr := range lying {
			for i := range tr.Events {
				if tr.Events[i].Kind == trace.KindExit {
					tr.Events[i].Region = region
				}
			}
		}
		got := outcomeOf(Analyze(lying, cfg))
		if got.err != nil || !bytes.Equal(got.report, want.report) || !bytes.Equal(got.prof, want.prof) || !bytes.Equal(got.phases, want.phases) {
			t.Errorf("exits naming region %d changed the analysis (err %v)", region, got.err)
		}
		for r, rr := range sweep(lying).results {
			ops := rr.opLog.len()
			if first := cap(rr.opLog.pages[0]); (region == 0) != (first == firstPageRecords) || (region == 1) != (first == ops+1) {
				t.Errorf("exits naming region %d: rank %d's first op page holds %d for %d ops", region, r, first, ops)
			}
			for name, held := range map[string][2]int{
				"sample":  {rr.profLog.len(), rr.profLog.bytes() / 32},
				"receive": {rr.recvLog.len(), rr.recvLog.bytes() / 32},
				"op":      {ops, rr.opLog.bytes() / 24},
			} {
				if held[1] > held[0]+maxPageRecords {
					t.Errorf("exits naming region %d: rank %d's %s log holds %d records in pages for %d", region, r, name, held[0], held[1])
				}
			}
			if last := rr.opLog.pages[len(rr.opLog.pages)-1]; region == 0 && cap(last) != maxPageRecords {
				t.Errorf("rank %d's op log never reached a full-size page: %d ops", r, ops)
			}
		}
	}
}

// FuzzLiveFeed: whatever a byte patch does to rank 0's image and
// wherever its upload is cut, a live session neither panics nor outlives
// its context, and it comes to what the lazy analysis of the same bytes
// comes to — the same artifacts, or a refusal; in the same words when
// the patch lies past the header, where both feeders take the same step
// over the same bytes.
func FuzzLiveFeed(f *testing.F) {
	traces := exchangeTraces(4)
	images := make([][]byte, len(traces))
	for r, tr := range traces {
		images[r] = v2Blocks(f, tr, 8, blockCounts(len(tr.Events), 8)...)
	}
	n := len(images[0])
	header := v2HeaderLen(f, traces[0], 8)
	f.Add(uint16(0), uint16(0), uint16(0), byte(0))             // clean, whole
	f.Add(uint16(1), uint16(n-1), uint16(n-1), byte(0x80))      // last byte
	f.Add(uint16(n/2), uint16(n/2+1), uint16(n/2), byte(0xff))  // mid-block
	f.Add(uint16(5), uint16(60), uint16(4), byte(0x03))         // version byte 2 → 1
	f.Add(uint16(n/3), uint16(2*n/3), uint16(n-40), byte(0x01)) // a count or a column length
	f.Add(uint16(161), uint16(533), uint16(338), byte('!'))     // an unknown communicator: peers must unwind
	f.Add(uint16(44), uint16(819), uint16(520), byte('\v'))     // a negative peer
	f.Add(uint16(22), uint16(767), uint16(437), byte(0x03))     // a collective root outside its communicator
	f.Add(uint16(230), uint16(488), uint16(661), byte(')'))     // a time stamp 1e13 s out
	f.Add(uint16(100), uint16(400), uint16(312), byte(0x01))    // a NaN time stamp
	cfg := Config{Scheme: vclock.FlatSingle, Title: "fuzz", Obs: obs.NewRecorder()}
	live := LiveConfig{Config: cfg}
	f.Fuzz(func(t *testing.T, cut1, cut2, at uint16, xor byte) {
		img := append([]byte(nil), images[0]...)
		img[int(at)%n] ^= xor
		fed := [][]byte{img, images[1], images[2]}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		want, loaded := pulledOutcome(t, ctx, cfg, fed)
		lo, hi := int(cut1)%(n+1), int(cut2)%(n+1)
		got := pushedOutcome(t, ctx, live, fed, min(lo, hi), max(lo, hi))
		switch {
		case want.err == nil && got.err != nil && strings.Contains(got.err.Error(), "stream windows"):
			// A patched time stamp stretched a wait over more windows than
			// one deposit may touch: only a session has windows to refuse.
		case (want.err == nil) != (got.err == nil):
			t.Fatalf("lazy analysis: %v; live session: %v", want.err, got.err)
		case want.err == nil:
			if !bytes.Equal(got.report, want.report) || !bytes.Equal(got.prof, want.prof) || !bytes.Equal(got.phases, want.phases) {
				t.Fatal("live artifacts differ from the lazy analysis of the same bytes")
			}
		case ctx.Err() != nil:
			// A receive the patch left without its send: only the context
			// ends such a replay, and it ended both.
		case loaded && int(at)%n >= header && got.err.Error() != want.err.Error():
			t.Fatalf("lazy analysis says %q, live session says %q", want.err, got.err)
		}
	})
}
