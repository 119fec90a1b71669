package replay

import (
	"fmt"
	"io"
	"sync"

	"metascope/internal/trace"
)

// liveLogStride is the events-per-block granularity of a rank log fed
// by a v1 stream, which has no blocks of its own (a v2 stream brings
// its stride in its header). Each block is one allocation, so releasing
// the swept prefix actually returns memory; 4096 events keeps the
// bookkeeping to one block handoff per few hundred KiB of trace.
const liveLogStride = 1 << 12

// rankLog is the append-only event log one analysis process sweeps: a
// store of published blocks with one way for events to become visible,
// publish, and three feeders. A preloaded log (Analyze over loaded
// traces) publishes the rank's whole event slice as a single block and
// closes. A pulled log (AnalyzeLazy) decodes the next v2 block out of
// the archive's byte image whenever the sweep runs out of published
// events. A pushed log (a live session) is fed by Live.FeedChunk as the
// rank's bytes arrive and closes when its stream finishes. The sweep
// never sees a difference beyond *when* events become visible, which is
// the whole trick behind byte-identical results: the worker's event
// order, and therefore every accumulator's addition order, is the trace
// order whoever feeds.
//
// Events are stored in fixed-stride blocks, each its own allocation, so
// releaseBefore can free the already-swept prefix — the bounded-memory
// window that lets an archive larger than RAM stream through one
// analysis. Pulled and pushed logs take the stride from the stream's
// block-size header, so a decoded v2 block is a log block as it stands;
// every block but the last must therefore be full, which the encoder
// guarantees. A preloaded log's stride is its length: one block, which
// the sweep never passes and so never releases.
type rankLog struct {
	mu      sync.Mutex
	cond    sync.Cond
	closed  bool
	aborted bool
	err     error // pulled decode/validation failure, sticky; set with closed

	blocks [][]trace.Event
	stride int
	n      int // events published

	// Pulled feeder: wait decodes the next block from src when the sweep
	// has used up what is published. Nil for preloaded and pushed logs.
	src *trace.BlockReader
	val *trace.StreamValidator

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
}

// newRankLog returns an open, empty log for a pushed feeder.
func newRankLog() *rankLog {
	lg := &rankLog{stride: liveLogStride}
	lg.cond.L = &lg.mu
	return lg
}

// newPreloadedRankLog publishes an already complete event slice as one
// block, without copying, and closes the log.
func newPreloadedRankLog(events []trace.Event) *rankLog {
	lg := newRankLog()
	lg.stride = max(len(events), 1)
	_ = lg.publish(events) // the first block of a log is never refused
	lg.closed = true
	return lg
}

// newPulledRankLog returns a log that decodes r's blocks as the sweep
// reaches them and frees them behind it. Events are validated as they
// decode, with exactly the checks (*Trace).Validate applies to a
// materialized trace.
func newPulledRankLog(r *trace.BlockReader) *rankLog {
	lg := newRankLog()
	lg.stride = r.BlockSize()
	lg.src = r
	lg.val = trace.NewStreamValidator(r.Trace())
	r.Reset()
	return lg
}

// reserve returns room for up to max more events at the tail of the
// log: what is left of a part-filled tail block (a v1 stream fills its
// blocks a few events at a time), else a fresh block. The feeding
// goroutine writes events into the room and hands the filled prefix to
// publish; until then the sweep cannot see them.
func (lg *rankLog) reserve(max int) []trace.Event {
	lg.mu.Lock()
	var room []trace.Event
	if off := lg.n % lg.stride; off != 0 {
		tail := lg.blocks[lg.n/lg.stride]
		room = tail[off:cap(tail)]
	}
	lg.mu.Unlock()
	if len(room) == 0 {
		return make([]trace.Event, min(max, lg.stride))
	}
	return room[:min(max, len(room))]
}

// publish makes the events the feeding goroutine wrote into the room
// reserve last returned visible to the sweep, without copying them, and
// wakes the sweeping worker. Fixed-stride indexing needs every block
// before the one being filled to be full; a stream that starts another
// block after a short one is rejected.
func (lg *rankLog) publish(blk []trace.Event) error {
	if len(blk) == 0 {
		return nil
	}
	lg.mu.Lock()
	k, off := lg.n/lg.stride, lg.n%lg.stride
	switch {
	case off == 0:
		lg.blocks = append(lg.blocks, blk)
	case cap(lg.blocks[k])-off >= len(blk) && &lg.blocks[k][:off+1][off] == &blk[0]:
		lg.blocks[k] = lg.blocks[k][:off+len(blk)]
	default:
		lg.mu.Unlock()
		return fmt.Errorf("block %d holds %d events, want %d", k, off, lg.stride)
	}
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
	lg.cond.Broadcast()
	return nil
}

// pull is the pulled feeder: it decodes the block after the have events
// published so far into reserved room, validates it in stream order and
// publishes it. Reaching the declared event count also checks the
// end-of-trace invariants (balanced regions, no trailing bytes) that a
// one-shot decode enforces eagerly, and closes the log. Only the
// sweeping worker calls it, through wait.
func (lg *rankLog) pull(have int) error {
	r, total := lg.src, lg.src.Total()
	var blk []trace.Event
	if have < total {
		room := lg.reserve(total - have)
		n, err := r.Next(room)
		if err == io.EOF {
			err = fmt.Errorf("trace %v: blocks ended after %d of %d declared events: %w",
				r.Trace().Loc, have, total, io.ErrUnexpectedEOF)
		}
		if err != nil {
			return err
		}
		// The capacity is clipped so that a short block leaves no room
		// behind it: whatever follows is refused by publish.
		blk = room[:n:n]
		for i := range blk {
			if err := lg.val.Event(&blk[i]); err != nil {
				return err
			}
		}
	}
	last := have+len(blk) == total
	if last {
		if err := lg.val.Close(); err != nil {
			return err
		}
		if t := r.Trailing(); t > 0 {
			return fmt.Errorf("trace %v: %d trailing byte(s) after %d declared events",
				r.Trace().Loc, t, total)
		}
	}
	if err := lg.publish(blk); err != nil {
		return fmt.Errorf("trace %v: %w", r.Trace().Loc, err)
	}
	if last {
		lg.close()
	}
	return nil
}

// drop frees the blocks still held once nothing will sweep the log
// again. The residency counters keep their last values.
func (lg *rankLog) drop() {
	lg.mu.Lock()
	lg.blocks = nil
	lg.mu.Unlock()
}

// close marks the log complete: no more events will arrive.
func (lg *rankLog) close() {
	lg.mu.Lock()
	lg.closed = true
	lg.mu.Unlock()
	lg.cond.Broadcast()
}

// abort wakes a blocked sweep so a cancelled analysis unwinds.
func (lg *rankLog) abort() {
	lg.mu.Lock()
	lg.aborted = true
	lg.mu.Unlock()
	lg.cond.Broadcast()
}

// wait returns once the log holds more than have events, is closed, or
// is aborted, with the published count and flags. Until then it pulls
// the next block when the log has a pull source and blocks for the
// feeder otherwise. A failed pull closes the log; err is its cause.
func (lg *rankLog) wait(have int) (n int, closed, aborted bool, err error) {
	lg.mu.Lock()
	for lg.n == have && !lg.closed && !lg.aborted {
		if lg.src == nil {
			lg.cond.Wait()
			continue
		}
		lg.mu.Unlock()
		perr := lg.pull(have)
		lg.mu.Lock()
		if perr != nil {
			lg.err, lg.closed = perr, true
		}
	}
	n, closed, aborted, err = lg.n, lg.closed, lg.aborted, lg.err
	lg.mu.Unlock()
	return n, closed, aborted, err
}

// recvCountIfResident counts the Recv events when the log is complete
// and holds every event — closed with nothing released: a preloaded
// log, or a pushed one whose stream finished before the sweep began —
// which lets the worker pre-size its receive log. Any other log returns
// ok=false (a pulled log closes only once its last block is decoded):
// counting would force every block resident, defeating the window.
func (lg *rankLog) recvCountIfResident() (int, bool) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if !lg.closed || lg.resident != lg.n {
		return 0, false
	}
	nrecv := 0
	for _, blk := range lg.blocks {
		for i := range blk {
			if blk[i].Kind == trace.KindRecv {
				nrecv++
			}
		}
	}
	return nrecv, true
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
// index of its first element. The returned slice is stable: extending a
// tail block in place does not move published elements.
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

// releaseBefore frees every block that lies entirely below event index
// i. Only the sweeping worker calls it, and only with its own frontier,
// so no released block can still be referenced.
func (lg *rankLog) releaseBefore(i int) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	limit := min(i/lg.stride, len(lg.blocks))
	for k := 0; k < limit; k++ {
		if lg.blocks[k] != nil {
			lg.resident -= len(lg.blocks[k])
			lg.blocks[k] = nil
		}
	}
}

// sweepCursor is one worker's forward view of a rankLog. at(i) reports
// whether event i exists, blocking while it may still arrive; ev(i)
// returns the event itself, caching one block so the sequential sweep
// touches the log's lock once per block, not once per event.
type sweepCursor struct {
	lg      *rankLog
	blk     []trace.Event
	base    int // global index of blk[0]
	n       int // published-event count last observed
	closed  bool
	aborted bool
	err     error // why a pulled log ended short of its declared events

	stride      int
	nextRelease int // first event index whose block has blocks below it to release
}

func newSweepCursor(lg *rankLog) *sweepCursor {
	sc := &sweepCursor{lg: lg, stride: lg.stride, nextRelease: lg.stride, base: -1}
	lg.mu.Lock()
	sc.n, sc.closed, sc.aborted = lg.n, lg.closed, lg.aborted
	lg.mu.Unlock()
	return sc
}

// at blocks until event i is published and returns true, or returns
// false when the log ended first: closed before reaching i (sc.err says
// why if that was a failure) or aborted.
func (sc *sweepCursor) at(i int) bool {
	for i >= sc.n {
		if sc.closed || sc.aborted {
			return false
		}
		sc.n, sc.closed, sc.aborted, sc.err = sc.lg.wait(sc.n)
	}
	return true
}

// ev returns event i, which at(i) must have admitted.
func (sc *sweepCursor) ev(i int) *trace.Event {
	if off := i - sc.base; off >= 0 && off < len(sc.blk) {
		return &sc.blk[off]
	}
	sc.blk, sc.base = sc.lg.window(i)
	return &sc.blk[i-sc.base]
}

// release frees the log's blocks below the sweep frontier i. Called
// once per event; it touches the log only when the frontier crosses a
// block boundary.
func (sc *sweepCursor) release(i int) {
	if i < sc.nextRelease {
		return
	}
	sc.nextRelease = (i/sc.stride + 1) * sc.stride
	sc.lg.releaseBefore(i)
}
