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
	mb := newMailbox()
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
	mb := newMailbox()
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
	mb := newMailbox()
	s := sig{comm: 0, src: 1, tag: 7}
	mb.put(rec(0, 1, 7, 42))
	mb.put(rec(0, 1, 7, 43))
	mb.put(rec(0, 1, 7, 44))
	if got := mb.takeOK(0, 1, 7); got.bytes != 42 {
		t.Fatalf("take = %d, want 42", got.bytes)
	}

	mb.mu.Lock()
	c, ok := mb.q[s]
	if !ok {
		t.Fatal("signature cell vanished with records pending")
	}
	if c.count != 2 || c.first.bytes != 43 {
		t.Fatalf("cell after take: count=%d first=%d, want 2/43", c.count, c.first.bytes)
	}
	// Every shifted spill slot — and the spare capacity beyond the live
	// window — must be zeroed.
	zero := sendRecord{}
	for i := 0; i < c.head; i++ {
		if c.rest[i] != zero {
			t.Errorf("spill slot %d still holds matched record %+v", i, c.rest[i])
		}
	}
	for _, r := range c.rest[len(c.rest):cap(c.rest)] {
		if r != zero {
			t.Errorf("spare spill capacity holds dead record %+v", r)
		}
	}
	mb.mu.Unlock()

	// Draining the signature deletes its cell outright — no cached
	// state (and no reference to any record) survives.
	mb.takeOK(0, 1, 7)
	mb.takeOK(0, 1, 7)
	mb.mu.Lock()
	if _, ok := mb.q[s]; ok {
		t.Error("drained signature still has a cell in the mailbox")
	}
	if len(mb.q) != 0 {
		t.Errorf("drained mailbox holds %d cells", len(mb.q))
	}
	mb.mu.Unlock()
}

// TestMailboxBlockingTake checks that a take posted before the matching
// put finds nothing and parks the receiver on its signature — receivers
// may replay ahead of their senders — and that the put of exactly that
// signature, and only that put, reports the wake the scheduler re-queues
// the receiver on.
func TestMailboxBlockingTake(t *testing.T) {
	mb := newMailbox()
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
	mb := newMailbox()
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
// checks the mailbox does not accumulate state: drained cells are
// deleted, so the signature map stays at its floor no matter how many
// distinct pairs pass through.
func TestMailboxVaryingPairsStaysCompact(t *testing.T) {
	mb := newMailbox()
	for src := int32(0); src < 1000; src++ {
		mb.put(rec(0, src, 4100, int64(src)))
		if got := mb.takeOK(0, src, 4100); got.bytes != int64(src) {
			t.Fatalf("src %d: bytes = %d", src, got.bytes)
		}
	}
	mb.mu.Lock()
	n := len(mb.q)
	mb.mu.Unlock()
	if n != 0 {
		t.Fatalf("mailbox retains %d cells after 1000 drained pairs", n)
	}
}
