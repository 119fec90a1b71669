package replay

import (
	"fmt"
	"io"
	"sync"

	"metascope/internal/trace"
)

// liveLogStride is the events-per-block granularity of a live rank log
// fed by a v1 stream, which has no blocks of its own (a v2 stream
// brings its stride in its header). Each block is one allocation, so
// releasing the swept prefix actually returns memory; 4096 events keeps
// the bookkeeping to one block handoff per few hundred KiB of trace.
const liveLogStride = 1 << 12

// rankLog is the append-only event log one analysis process sweeps.
// Post-mortem analysis wraps the fully loaded trace in a closed log; a
// live session's chunk decoder writes each event once, straight into a
// block the log owns, and the log publishes the block once it validated
// and closes when the rank's stream finishes; a lazy log decodes v2
// event blocks on demand, straight out of the archive's backing byte
// image. The sweep never sees a difference beyond *when* events become
// visible, which is the whole trick behind byte-identical streaming
// results: the worker's event order, and therefore every accumulator's
// addition order, is the trace order either way.
//
// Live and lazy logs store events in fixed-stride blocks, each its own
// allocation, so releaseBefore can free the already-swept prefix — the
// bounded-memory window that lets an archive larger than RAM stream
// through one analysis. Both take the stride from the stream's
// block-size header, so a decoded v2 block is a log block as it stands;
// both therefore require every block but the last to be full, which the
// encoder guarantees.
type rankLog struct {
	mu      sync.Mutex
	cond    sync.Cond
	closed  bool
	aborted bool
	err     error // lazy decode/validation failure, sticky

	// flat is the post-mortem fast path: the complete, immutable event
	// slice. When non-nil, blocks/stride are unused and nothing is ever
	// released (the memory is one allocation the caller owns anyway).
	flat []trace.Event

	// Block storage (append and lazy modes).
	blocks [][]trace.Event
	stride int
	n      int // events visible to the sweep

	// Lazy mode: blocks decode on demand from the reader.
	lazy          *trace.BlockReader
	val           *trace.StreamValidator
	decodedBlocks int

	// Memory accounting (events, not bytes: one Event is a fixed-size
	// struct). resident counts events currently held in block storage;
	// maxResident is the high-water mark a bounded-memory run pins.
	resident    int
	maxResident int

	// Raw (uncorrected) first/last event times, tracked so the profile
	// axis can be derived without re-reading events — the trace they
	// came from may hold no event slice at all.
	haveTime            bool
	firstTime, lastTime float64
}

func newRankLog() *rankLog {
	lg := &rankLog{stride: liveLogStride}
	lg.cond.L = &lg.mu
	return lg
}

// newClosedRankLog wraps an already complete event slice (post-mortem
// analysis) without copying.
func newClosedRankLog(events []trace.Event) *rankLog {
	lg := newRankLog()
	lg.flat = events
	lg.n = len(events)
	lg.resident = len(events)
	lg.maxResident = len(events)
	if len(events) > 0 {
		lg.haveTime = true
		lg.firstTime = events[0].Time
		lg.lastTime = events[len(events)-1].Time
	}
	lg.closed = true
	return lg
}

// newLazyRankLog wraps a v2 block reader: the log is closed (the event
// count is declared up front), but blocks materialize only when the
// sweep reaches them and are freed behind it. Events are validated as
// they decode, with exactly the checks (*Trace).Validate applies to a
// materialized trace.
func newLazyRankLog(r *trace.BlockReader) (*rankLog, error) {
	lg := &rankLog{
		lazy:   r,
		val:    trace.NewStreamValidator(r.Trace()),
		stride: r.BlockSize(),
		n:      r.Total(),
		closed: true,
	}
	lg.cond.L = &lg.mu
	lg.blocks = make([][]trace.Event, (lg.n+lg.stride-1)/lg.stride)
	r.Reset()
	if lg.n == 0 {
		if t := r.Trailing(); t > 0 {
			return nil, fmt.Errorf("trace %v: %d trailing byte(s) after 0 declared events",
				r.Trace().Loc, t)
		}
	}
	return lg, nil
}

// reserve returns room for up to max more events at the tail of a live
// log: what is left of a part-filled tail block (a v1 stream fills its
// blocks a few events at a time), else a fresh block. The ingesting
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

// publish makes the events the ingesting goroutine wrote into the room
// reserve last returned visible to the sweep, without copying them, and
// wakes the sweeping worker. Fixed-stride indexing needs every block
// before the one being filled to be full; a stream that starts another
// block after a short one is rejected as the lazy log rejects it.
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

// wait blocks until the log holds more than have events, is closed, or
// is aborted, and returns the visible count and flags.
func (lg *rankLog) wait(have int) (n int, closed, aborted bool) {
	lg.mu.Lock()
	for lg.n == have && !lg.closed && !lg.aborted {
		lg.cond.Wait()
	}
	n, closed, aborted = lg.n, lg.closed, lg.aborted
	lg.mu.Unlock()
	return n, closed, aborted
}

// recvCountIfFlat counts the Recv events when the whole log is present
// as one materialized slice — the post-mortem fast path, which lets the
// worker pre-size its receive log. Lazy and live logs return ok=false:
// counting would force every block resident, defeating the window.
func (lg *rankLog) recvCountIfFlat() (int, bool) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if lg.flat == nil || !lg.closed {
		return 0, false
	}
	nrecv := 0
	for i := range lg.flat {
		if lg.flat[i].Kind == trace.KindRecv {
			nrecv++
		}
	}
	return nrecv, true
}

// bounds returns the raw first/last event times the log has seen.
// Valid for a flat or lazy log immediately, and for a live log once
// every chunk was appended; the analyzer reads it after the sweep.
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

// window returns the block slice containing event i plus the global
// index of its first element, decoding lazy blocks on demand. The
// returned slice is stable: a live append extends the same backing
// array without moving published elements.
func (lg *rankLog) window(i int) ([]trace.Event, int, error) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if lg.flat != nil {
		return lg.flat, 0, nil
	}
	k := i / lg.stride
	if lg.lazy != nil {
		if err := lg.decodeToLocked(k); err != nil {
			return nil, 0, err
		}
	}
	blk := lg.blocks[k]
	if blk == nil {
		// The single-reader discipline (release only below the sweep
		// frontier) makes this unreachable; a hit is a replay bug.
		panic(fmt.Sprintf("replay: rank log block %d used after release", k))
	}
	return blk, k * lg.stride, nil
}

// decodeToLocked materializes lazy blocks up to and including index k.
// Decoded events are validated in stream order; the final block also
// checks the end-of-trace invariants (balanced regions, no trailing
// bytes) that a one-shot decode enforces eagerly.
func (lg *rankLog) decodeToLocked(k int) error {
	if lg.err != nil {
		return lg.err
	}
	for lg.decodedBlocks <= k {
		buf := make([]trace.Event, lg.stride)
		n, err := lg.lazy.Next(buf)
		if err == io.EOF {
			err = fmt.Errorf("trace %v: blocks ended after %d of %d declared events: %w",
				lg.lazy.Trace().Loc, lg.decodedBlocks*lg.stride, lg.n, io.ErrUnexpectedEOF)
		}
		if err != nil {
			lg.err = err
			return err
		}
		last := lg.decodedBlocks == len(lg.blocks)-1
		if !last && n != lg.stride {
			// Fixed-stride indexing depends on every non-final block
			// being full, which the encoder guarantees; a short inner
			// block is a corrupt image.
			lg.err = fmt.Errorf("trace %v: block %d holds %d events, want %d",
				lg.lazy.Trace().Loc, lg.decodedBlocks, n, lg.stride)
			return lg.err
		}
		for i := 0; i < n; i++ {
			if err := lg.val.Event(&buf[i]); err != nil {
				lg.err = err
				return err
			}
		}
		if n > 0 {
			if !lg.haveTime {
				lg.haveTime = true
				lg.firstTime = buf[0].Time
			}
			lg.lastTime = buf[n-1].Time
		}
		lg.blocks[lg.decodedBlocks] = buf[:n:n]
		lg.decodedBlocks++
		lg.resident += n
		if lg.resident > lg.maxResident {
			lg.maxResident = lg.resident
		}
		if last {
			if err := lg.val.Close(); err != nil {
				lg.err = err
				return err
			}
			if t := lg.lazy.Trailing(); t > 0 {
				lg.err = fmt.Errorf("trace %v: %d trailing byte(s) after %d declared events",
					lg.lazy.Trace().Loc, t, lg.n)
				return lg.err
			}
		}
	}
	return nil
}

// releaseBefore frees every block that lies entirely below event index
// i. Only the sweeping worker calls it, and only with its own frontier,
// so no released block can still be referenced. Flat logs ignore it.
func (lg *rankLog) releaseBefore(i int) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if lg.flat != nil {
		return
	}
	limit := i / lg.stride
	if limit > len(lg.blocks) {
		limit = len(lg.blocks)
	}
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
	n       int // visible-event count last observed
	closed  bool
	aborted bool
	err     error // lazy decode failure surfaced through ev

	stride   int
	canFree  bool // block-structured log: release swept blocks
	released int  // last block index already released
}

func newSweepCursor(lg *rankLog) *sweepCursor {
	sc := &sweepCursor{lg: lg, stride: lg.stride, base: -1}
	lg.mu.Lock()
	sc.n, sc.closed, sc.aborted = lg.n, lg.closed, lg.aborted
	sc.canFree = lg.flat == nil
	if lg.flat != nil {
		sc.blk, sc.base = lg.flat, 0
	}
	lg.mu.Unlock()
	return sc
}

// at blocks until event i is visible and returns true, or returns
// false when the log ended (closed before reaching i, or aborted).
func (sc *sweepCursor) at(i int) bool {
	for i >= sc.n {
		if sc.closed || sc.aborted {
			return false
		}
		sc.n, sc.closed, sc.aborted = sc.lg.wait(sc.n)
	}
	return true
}

// ev returns event i, which at(i) must have admitted. A nil result
// means the log failed to materialize the event (a lazy decode or
// validation error); the cause is in sc.err and is the same error the
// post-mortem validator would have reported for the same bytes.
func (sc *sweepCursor) ev(i int) *trace.Event {
	if off := i - sc.base; off >= 0 && off < len(sc.blk) {
		return &sc.blk[off]
	}
	blk, base, err := sc.lg.window(i)
	if err != nil {
		sc.err = err
		return nil
	}
	sc.blk, sc.base = blk, base
	return &sc.blk[i-base]
}

// release frees the log's blocks below the sweep frontier i. Called
// once per event; it touches the log only when the frontier crosses a
// block boundary.
func (sc *sweepCursor) release(i int) {
	if !sc.canFree {
		return
	}
	if k := i / sc.stride; k > sc.released {
		sc.released = k
		sc.lg.releaseBefore(i)
	}
}
