package replay

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"metascope/internal/trace"
	"metascope/internal/vclock"
)

func rec(comm, src, tag int32, bytes int64) sendRecord {
	return sendRecord{comm: comm, srcWorld: src, tag: tag, bytes: bytes}
}

// takeOK is take asserting a record was pending — the only case these
// matching tests exercise.
func (mb *mailbox) takeOK(comm, src, tag int32) sendRecord {
	r, ok := mb.take(comm, src, tag)
	if !ok {
		panic("mailbox: take found no record")
	}
	return r
}

func TestMailboxFIFOPerSignature(t *testing.T) {
	mb := &mailbox{}
	mb.put(rec(0, 1, 7, 100))
	mb.put(rec(0, 1, 7, 200))
	mb.put(rec(0, 1, 7, 300))
	for i, want := range []int64{100, 200, 300} {
		if got := mb.takeOK(0, 1, 7); got.bytes != want {
			t.Fatalf("take %d: bytes = %d, want %d", i, got.bytes, want)
		}
	}
}

func TestMailboxSignaturesAreIndependent(t *testing.T) {
	mb := &mailbox{}
	// Interleave four signatures; each must match only its own cell.
	mb.put(rec(0, 1, 1, 11))
	mb.put(rec(0, 2, 1, 21)) // different source
	mb.put(rec(0, 1, 2, 12)) // different tag
	mb.put(rec(1, 1, 1, 31)) // different communicator
	if got := mb.takeOK(1, 1, 1); got.bytes != 31 {
		t.Errorf("comm 1 take = %d, want 31", got.bytes)
	}
	if got := mb.takeOK(0, 1, 2); got.bytes != 12 {
		t.Errorf("tag 2 take = %d, want 12", got.bytes)
	}
	if got := mb.takeOK(0, 2, 1); got.bytes != 21 {
		t.Errorf("src 2 take = %d, want 21", got.bytes)
	}
	if got := mb.takeOK(0, 1, 1); got.bytes != 11 {
		t.Errorf("src 1 take = %d, want 11", got.bytes)
	}
}

// TestMailboxTakeReleasesMatchedRecords is the regression test for the
// old scan-and-splice take, whose append(msgs[:i], msgs[i+1:]...) left
// a dead copy of the last record alive in the slice's spare capacity.
// After a take, the mailbox's backing storage must hold no trace of
// the matched record.
func TestMailboxTakeReleasesMatchedRecords(t *testing.T) {
	mb := &mailbox{}
	mb.put(rec(0, 1, 7, 42))
	mb.put(rec(0, 1, 7, 43))
	mb.put(rec(0, 1, 7, 44))
	if got := mb.takeOK(0, 1, 7); got.bytes != 42 {
		t.Fatalf("take = %d, want 42", got.bytes)
	}

	mb.mu.Lock()
	k, ok := mb.find(sig{comm: 0, src: 1, tag: 7})
	if !ok {
		t.Fatal("signature FIFO vanished with records pending")
	}
	f := mb.fifos[k]
	if n := 1 + len(f.rest) - f.head; n != 2 || f.first.bytes != 43 {
		t.Fatalf("FIFO after take: %d records, first %d, want 2/43", n, f.first.bytes)
	}
	// Every shifted spill slot — and the spare capacity beyond the live
	// window — must be zeroed.
	zero := sendRecord{}
	for i := 0; i < f.head; i++ {
		if f.rest[i] != zero {
			t.Errorf("spill slot %d still holds matched record %+v", i, f.rest[i])
		}
	}
	for _, r := range f.rest[len(f.rest):cap(f.rest)] {
		if r != zero {
			t.Errorf("spare spill capacity holds dead record %+v", r)
		}
	}
	mb.mu.Unlock()

	// Draining the signature deletes its FIFO outright — no cached state,
	// and no reference to any record, survives.
	mb.takeOK(0, 1, 7)
	mb.takeOK(0, 1, 7)
	mb.assertDrained(t)
}

// assertDrained checks that a mailbox whose records were all taken keeps
// none of them: no FIFO, and nothing left in the FIFO slice's capacity.
func (mb *mailbox) assertDrained(t *testing.T) {
	t.Helper()
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if len(mb.fifos) != 0 || mb.senders != 0 || mb.pending != 0 {
		t.Errorf("drained mailbox holds %d FIFOs of %d senders, %d records", len(mb.fifos), mb.senders, mb.pending)
	}
	for i, f := range mb.fifos[:cap(mb.fifos)] {
		if f.first != (sendRecord{}) || f.rest != nil {
			t.Errorf("FIFO slot %d of a drained mailbox still holds records", i)
		}
	}
}

// TestMailboxBlockingTake checks that a take posted before the matching
// put finds nothing and parks the receiver on its signature — receivers
// may replay ahead of their senders — and that the put of exactly that
// signature, and only that put, reports the wake the scheduler re-queues
// the receiver on.
func TestMailboxBlockingTake(t *testing.T) {
	mb := &mailbox{}
	if _, ok := mb.take(0, 1, 9); ok {
		t.Fatal("a take from an empty mailbox matched")
	}
	if mb.put(rec(0, 1, 8, 66)) {
		t.Fatal("a put of another tag woke the parked receiver")
	}
	if !mb.put(rec(0, 1, 9, 77)) {
		t.Fatal("the put the receiver parked on did not wake it")
	}
	if mb.put(rec(0, 1, 9, 78)) {
		t.Fatal("a second put woke a receiver that is no longer parked")
	}
	if r := mb.takeOK(0, 1, 9); r.bytes != 77 {
		t.Fatalf("woken take = %d, want 77", r.bytes)
	}
}

// TestMailboxConcurrentPairs drives many senders into one receiver's
// mailbox concurrently while the receiver takes their records in turn,
// parking whenever the next one has not arrived; under -race this checks
// the cell shuffling in put/take and the park-and-wake handshake against
// simultaneous access from both sides — a lost wake hangs the receiver.
func TestMailboxConcurrentPairs(t *testing.T) {
	const senders = 8
	const msgs = 200
	mb := &mailbox{}
	woken := make(chan struct{}, 1) // the receiver parks on one signature at a time
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int32) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				if mb.put(rec(0, s, s%3, int64(i))) {
					woken <- struct{}{}
				}
			}
		}(int32(s))
	}
	for i := 0; i < msgs; i++ {
		for s := int32(0); s < senders; s++ {
			got, ok := mb.take(0, s, s%3)
			if !ok {
				select {
				case <-woken:
				case <-time.After(5 * time.Second):
					t.Fatalf("src %d take %d: parked receiver never woken", s, i)
				}
				got = mb.takeOK(0, s, s%3)
			}
			if got.bytes != int64(i) {
				t.Fatalf("src %d take %d: bytes = %d, want %d", s, i, got.bytes, i)
			}
		}
	}
	wg.Wait()
}

// TestMailboxAbortWakesBlockedTake checks the cancellation path: a
// receiver parked on a message that will never arrive, while its sender's
// stream is still open — so nothing is deadlocked yet — is re-queued by
// the abort and unwinds with the abort's cause.
func TestMailboxAbortWakesBlockedTake(t *testing.T) {
	traces := []*trace.Trace{
		synth(0, 0, []trace.Event{enter(0, 0), exit(10, 0)}),
		synth(1, 0, []trace.Event{
			enter(0, 0),
			enter(1, 2), recv(5, 0, 7, 100), exit(5, 2),
			exit(10, 0),
		}),
	}
	l, err := NewLive(LiveConfig{Config: Config{Scheme: vclock.FlatSingle}, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0's header only: its sweep parks on its log. Rank 1 whole: its
	// sweep parks in the mailbox.
	img := v2Blocks(t, traces[0], 8, blockCounts(len(traces[0].Events), 8)...)
	if err := l.FeedChunk(0, img[:v2HeaderLen(t, traces[0], 8)]); err != nil {
		t.Fatal(err)
	}
	if err := l.FeedChunk(1, v2Blocks(t, traces[1], 8, blockCounts(len(traces[1].Events), 8)...)); err != nil {
		t.Fatal(err)
	}
	a := l.a
	for deadline := time.Now().Add(cancelDeadline); ; time.Sleep(time.Millisecond) {
		sh := a.sched.shardOf(1)
		sh.mu.Lock()
		st := a.sched.state[1]
		sh.mu.Unlock()
		if st == parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rank 1 never parked in its mailbox")
		}
	}
	l.Abort(context.Canceled)
	select {
	case <-a.sched.done:
	case <-time.After(cancelDeadline):
		t.Fatal("the abort did not wake the parked receiver")
	}
	if err := a.results[1].err; !errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("rank 1 unwound with %v, want the abort's cause", err)
	}
	if _, err := l.Finalize(context.Background()); err == nil {
		t.Fatal("finalize of an aborted session succeeded")
	}
}

// TestMailboxVaryingPairsStaysCompact replays the clockbench
// varying-pairs pattern — every signature used exactly once — and
// checks that a signature costs no heap object and leaves nothing behind:
// a drained FIFO is deleted, so the mailbox stays at its floor no matter
// how many distinct pairs pass through.
func TestMailboxVaryingPairsStaysCompact(t *testing.T) {
	mb := &mailbox{}
	src := int32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		mb.put(rec(0, src, 4100, int64(src)))
		if got := mb.takeOK(0, src, 4100); got.bytes != int64(src) {
			t.Fatalf("src %d: bytes = %d", src, got.bytes)
		}
		src++
	})
	if allocs != 0 {
		t.Errorf("a signature used once costs %v allocations", allocs)
	}
	mb.assertDrained(t)
	if mb.sendersMax != 1 || mb.pendingMax != 1 {
		t.Errorf("matching shape senders_max=%d pending_max=%d, want 1/1", mb.sendersMax, mb.pendingMax)
	}
}

// TestMailboxManySenders has 4096 senders put three records each, on two
// tags, into one receiver's mailbox before it takes any, in reverse rank
// order: the fan-in of a gather to one root. Each pair's records must come
// out in the order they were sent, the mailbox must have had one sender
// slot per sender, and none of the records may stay behind once it
// drained.
func TestMailboxManySenders(t *testing.T) {
	const senders = 4096
	mb := &mailbox{}
	for i := int64(0); i < 3; i++ {
		for src := int32(0); src < senders; src++ {
			mb.put(rec(0, src, int32(i%2), int64(src)*10+i))
		}
	}
	if mb.sendersMax != senders || mb.pendingMax != 3*senders {
		t.Fatalf("matching shape senders_max=%d pending_max=%d, want %d/%d", mb.sendersMax, mb.pendingMax, senders, 3*senders)
	}
	for src := int32(senders - 1); src >= 0; src-- {
		for _, want := range []struct {
			tag   int32
			bytes int64
		}{{1, 1}, {0, 0}, {0, 2}} {
			if got := mb.takeOK(0, src, want.tag); got.bytes != int64(src)*10+want.bytes {
				t.Fatalf("src %d tag %d: bytes = %d, want %d", src, want.tag, got.bytes, int64(src)*10+want.bytes)
			}
		}
	}
	if _, ok := mb.take(0, 0, 0); ok {
		t.Fatal("a drained mailbox matched")
	}
	mb.assertDrained(t)
}
