package replay

import (
	"fmt"
	"sync"

	"metascope/internal/trace"
)

// rankLog is the append-only event log one analysis process sweeps: a
// store of published blocks with one way for events to become visible,
// publish, and three feeders. A preloaded log (Analyze over loaded
// traces) publishes the rank's whole event slice as a single block and
// closes. The other two hold a block reader over the rank's v2 byte
// image and take the one ingest step, pull, which publishes the image's
// next block as the reader hands it over, decoded and validated in the
// same passes: a pulled log (AnalyzeLazy) has the whole image and the
// sweep pulls, through more, whenever it runs out of published events; a
// pushed log (a live session) has an image that is still being uploaded
// and Live.FeedChunk pulls whenever bytes arrive — a sweep that catches
// up with it finds the log dry, and the feeder wakes the rank once it
// published more. The sweep never sees a difference beyond *when* events
// become visible, which is the whole trick behind byte-identical
// results: the sweep's event order, and therefore every accumulator's
// addition order, is the trace order whoever feeds.
//
// Events are stored in fixed-stride blocks, so releaseBefore can let go
// of the already-swept prefix — the bounded-memory window that lets an
// archive larger than RAM stream through one analysis. The stride is the
// image's block-size header, so a decoded v2 block is a log block as it
// stands; every block but the last must therefore be full, which the
// encoder guarantees. A preloaded log's stride is its length: one block,
// which the sweep never passes and so never releases.
//
// A block the sweep releases while the image still owes blocks is the
// room the next decode needs, of exactly that size: it is parked on the
// log's free list and room hands it back to pull, so a sweep allocates
// the few blocks of its window once instead of one per block decoded.
// The list is per log, under the log's lock, and holds only blocks that
// were resident a moment ago; once the log is closed nothing is parked
// and released blocks go to the garbage collector. It is not a
// sync.Pool: a pool is emptied by every GC cycle, so what it saves
// depends on when the collector runs, and a per-log list is bounded by
// the window the log held anyway.
type rankLog struct {
	mu     sync.Mutex
	closed bool
	err    error // why a pulled log ended early, sticky; set with closed

	blocks   [][]trace.Event
	stride   int
	n        int             // events published
	released int             // blocks[:released] are released (nil)
	free     [][]trace.Event // released blocks awaiting reuse by room

	// The image pull reads, set by attach; nil for a preloaded log. Only
	// the pulling goroutine touches the reader: the rank's sweep, or —
	// pushed set — the rank's feeder.
	src    *trace.BlockReader
	pushed bool

	// Memory accounting (events, not bytes: one Event is a fixed-size
	// struct). resident counts events currently held in block storage;
	// maxResident is the high-water mark a bounded-memory run pins.
	resident    int
	maxResident int

	// Raw (uncorrected) first/last event times, tracked so the profile
	// axis can be derived without re-reading events — most of them are
	// released by the time the analyzer asks.
	haveTime            bool
	firstTime, lastTime float64

	// sizes is the preloaded trace's tally, what its sweep will append
	// to the ledger logs and so the size of their first pages; zero, no
	// hint, for any other log.
	sizes trace.Tally
}

// newRankLog returns an open, empty log.
func newRankLog() *rankLog { return &rankLog{} }

// newPreloadedRankLog publishes an already complete event slice as one
// block, without copying, and closes the log; sizes is the events' tally
// (trace.Trace.Checked).
func newPreloadedRankLog(events []trace.Event, sizes trace.Tally) *rankLog {
	lg := newRankLog()
	lg.sizes = sizes
	lg.stride = max(len(events), 1)
	_ = lg.publish(events) // the first block of a log is never refused
	lg.closed = true
	return lg
}

// newPulledRankLog returns a log that decodes r's blocks as the sweep
// reaches them and frees them behind it.
func newPulledRankLog(r *trace.BlockReader) *rankLog {
	lg := newRankLog()
	r.Reset()
	lg.attach(r)
	return lg
}

// attach gives the log the image its events come from, once the image's
// header is known. The reader validates events as it decodes them, with
// exactly the checks (*Trace).Validate applies to a materialized trace.
func (lg *rankLog) attach(r *trace.BlockReader) {
	lg.mu.Lock()
	lg.stride = r.BlockSize()
	lg.src = r
	lg.mu.Unlock()
}

// publish makes a decoded block visible to the sweep, without copying
// it. Fixed-stride indexing needs every block before the last to be
// full; a stream that starts another block after a short one is
// rejected.
func (lg *rankLog) publish(blk []trace.Event) error {
	if len(blk) == 0 {
		return nil
	}
	lg.mu.Lock()
	if off := lg.n % lg.stride; off != 0 {
		lg.mu.Unlock()
		return fmt.Errorf("block %d holds %d events, want %d", lg.n/lg.stride, off, lg.stride)
	}
	lg.blocks = append(lg.blocks, blk)
	if !lg.haveTime {
		lg.haveTime = true
		lg.firstTime = blk[0].Time
	}
	lg.lastTime = blk[len(blk)-1].Time
	lg.n += len(blk)
	lg.resident += len(blk)
	if lg.resident > lg.maxResident {
		lg.maxResident = lg.resident
	}
	lg.mu.Unlock()
	return nil
}

// newBlock is the one place block storage is allocated.
func newBlock(n int) []trace.Event { return make([]trace.Event, n) }

// room is what pull decodes its next block of n events into: a block the
// sweep has released, when one is parked, else a fresh one. The decoder
// stores every field of every event, so a reused block needs no
// clearing.
func (lg *rankLog) room(n int) []trace.Event {
	var blk []trace.Event
	lg.mu.Lock()
	if k := len(lg.free) - 1; k >= 0 && cap(lg.free[k]) >= n {
		blk, lg.free[k], lg.free = lg.free[k][:n], nil, lg.free[:k]
	}
	lg.mu.Unlock()
	if blk == nil {
		blk = newBlock(n)
	}
	return blk
}

// pull is the one ingest step, whoever calls it: have the reader decode
// and validate the image's next block, publish it, and return how many
// events that made visible — zero when the image has no further whole
// block, because it is complete or because the rest has not arrived.
// The block that reaches the declared event count, which the reader has
// also checked for balanced regions and trailing bytes, closes the log.
func (lg *rankLog) pull() (int, error) {
	r := lg.src
	blk, err := r.NextInto(lg.room)
	if err != nil {
		return 0, err
	}
	if err := lg.publish(blk); err != nil {
		return 0, fmt.Errorf("trace %v: %w", r.Trace().Loc, err)
	}
	if r.Decoded() == r.Total() {
		lg.close()
	}
	return len(blk), nil
}

// drop frees the blocks still held, and the image with its buffer, once
// nothing will feed or sweep the log again. The counters keep their last
// values.
func (lg *rankLog) drop() {
	lg.mu.Lock()
	lg.blocks, lg.free, lg.src = nil, nil, nil
	lg.mu.Unlock()
}

// close marks the log complete: no more events will arrive, so no parked
// block will be asked for.
func (lg *rankLog) close() {
	lg.mu.Lock()
	lg.closed, lg.free = true, nil
	lg.mu.Unlock()
}

// more returns once the log holds more than have events or is closed,
// with the published count and flags. Until then it pulls the next block
// when the log's image is complete; a pushed log whose feeder has not
// delivered more returns at once, dry. A failed pull closes the log; err
// is its cause.
func (lg *rankLog) more(have int) (n int, closed, dry bool, err error) {
	lg.mu.Lock()
	for lg.n == have && !lg.closed {
		if lg.pushed {
			dry = true
			break
		}
		lg.mu.Unlock()
		_, perr := lg.pull()
		lg.mu.Lock()
		if perr != nil {
			lg.err, lg.closed, lg.free = perr, true, nil
		}
	}
	n, closed, err = lg.n, lg.closed, lg.err
	lg.mu.Unlock()
	return n, closed, dry, err
}

// published returns the number of events the log has made visible —
// after the sweep, the rank's event count.
func (lg *rankLog) published() int {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.n
}

// bounds returns the raw first/last event times the log has published;
// the analyzer reads it after the sweep, when that is every event.
func (lg *rankLog) bounds() (first, last float64, ok bool) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.firstTime, lg.lastTime, lg.haveTime
}

// residentEvents returns the current and peak number of events held in
// storage.
func (lg *rankLog) residentEvents() (resident, peak int) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.resident, lg.maxResident
}

// window returns the block containing published event i plus the global
// index of its first element.
func (lg *rankLog) window(i int) ([]trace.Event, int) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	k := i / lg.stride
	blk := lg.blocks[k]
	if blk == nil {
		// The single-reader discipline (release only below the sweep
		// frontier) makes this unreachable; a hit is a replay bug.
		panic(fmt.Sprintf("replay: rank log block %d used after release", k))
	}
	return blk, k * lg.stride
}

// releaseBefore lets go of every block that lies entirely below event
// index i, parking it for room while the log's image still owes blocks.
// Only the rank's sweep calls it, and only with its own frontier, so no
// released block can still be referenced.
func (lg *rankLog) releaseBefore(i int) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	park := lg.src != nil && !lg.closed
	for limit := min(i/lg.stride, len(lg.blocks)); lg.released < limit; lg.released++ {
		blk := lg.blocks[lg.released]
		lg.blocks[lg.released] = nil
		lg.resident -= len(blk)
		if park {
			lg.free = append(lg.free, blk)
		}
	}
}

// sweepCursor is one rank's forward view of a rankLog. at(i) reports
// whether event i exists; ev(i) returns the event itself, caching one
// block so the sequential sweep touches the log's lock once per block,
// not once per event. The sweep reads an event inside the cached block,
// published and short of nextRelease straight from blk, and calls at,
// release and ev only at a block edge (stepper.sweep).
type sweepCursor struct {
	lg     *rankLog
	blk    []trace.Event
	base   int // global index of blk[0]
	n      int // published-event count last observed
	closed bool
	dry    bool  // a pushed log had no more when last asked: the sweep parks on it
	err    error // why a pulled log ended short of its declared events

	stride      int
	nextRelease int // first event index whose block has blocks below it to release
}

func newSweepCursor(lg *rankLog) sweepCursor {
	sc := sweepCursor{lg: lg, stride: lg.stride, nextRelease: lg.stride, base: -1}
	lg.mu.Lock()
	sc.n, sc.closed = lg.n, lg.closed
	lg.mu.Unlock()
	return sc
}

// at reports whether event i is published — pulling it first from a
// complete image — or returns false: when the log closed before reaching
// i (sc.err says why if that was a failure), or, sc.dry set, when a
// pushed log has not received it yet.
func (sc *sweepCursor) at(i int) bool {
	for i >= sc.n {
		if sc.closed {
			return false
		}
		if sc.n, sc.closed, sc.dry, sc.err = sc.lg.more(sc.n); sc.dry {
			return false
		}
	}
	return true
}

// ev returns event i, which at(i) must have admitted. The pointer is
// into the log's block storage, and a block below the sweep frontier may
// be decoded into again at any moment: the sweep may hold event pointers
// only into blocks at or above the frontier it last passed to release.
func (sc *sweepCursor) ev(i int) *trace.Event {
	if off := i - sc.base; off >= 0 && off < len(sc.blk) {
		return &sc.blk[off]
	}
	sc.blk, sc.base = sc.lg.window(i)
	return &sc.blk[i-sc.base]
}

// release frees the log's blocks below the sweep frontier i. It touches
// the log only when the frontier crosses a block boundary.
func (sc *sweepCursor) release(i int) {
	if i < sc.nextRelease {
		return
	}
	sc.nextRelease = (i/sc.stride + 1) * sc.stride
	sc.lg.releaseBefore(i)
}
