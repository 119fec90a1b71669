package replay

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"metascope/internal/vclock"
)

// drainedSession feeds the rank images to a live session step by step —
// round robin, each rank's image cut at the given offsets — and, once the
// replay runs, lets the sweeps settle and drains by hand after every step.
// The drain loop never ticks, so the stream is a function of the images
// and the cuts. It returns the session, not yet finalized, and the number
// of drains.
func drainedSession(t *testing.T, cfg LiveConfig, images [][]byte, cuts func(r int) []int) (l *Live, drains int) {
	t.Helper()
	setEmitEvery(t, time.Hour)
	cfg.Ranks = len(images)
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	offs := make([][]int, len(images))
	for r, img := range images {
		offs[r] = append(cuts(r), len(img))
	}
	for k, prev := 0, make([]int, len(images)); ; k++ {
		fed := false
		for r, img := range images {
			if k >= len(offs[r]) {
				continue
			}
			if err := l.FeedChunk(r, img[prev[r]:offs[r][k]]); err != nil {
				t.Fatal(err)
			}
			prev[r], fed = offs[r][k], true
		}
		if !fed {
			return l, drains
		}
		l.mu.Lock()
		started := l.a != nil
		l.mu.Unlock()
		if started {
			settle(t, l)
			l.drainAndEmit(false)
			drains++
		}
	}
}

// streamBytes is the JSON size of the session's stream history.
func streamBytes(t testing.TB, l *Live) (total, frontiers, maxFrontier int) {
	t.Helper()
	events, _, _ := l.Events(0)
	for _, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		total += len(b)
		if ev.Frontier != nil {
			frontiers++
			maxFrontier = max(maxFrontier, len(b))
		}
	}
	return total, frontiers, maxFrontier
}

// TestLiveFramesUnchanged: the window, state and summary frames of a
// session drained by hand are the ones the stream carried before frontier
// events lost their per-rank vector and superseded frontiers left the
// history — byte for byte, sequence numbers included — under 64 KiB,
// one-block and 7-byte chunkings. The digests were taken from that
// earlier engine with this same test.
func TestLiveFramesUnchanged(t *testing.T) {
	traces := exchangeTraces(8)
	images := make([][]byte, len(traces))
	blocks := make([][]int, len(traces))
	for r, tr := range traces {
		counts := blockCounts(len(tr.Events), 8)
		images[r] = v2Blocks(t, tr, 8, counts...)
		for k := range counts {
			blocks[r] = append(blocks[r], len(v2Blocks(t, tr, 8, counts[:k]...)))
		}
	}
	for _, c := range []struct {
		name string
		cuts func(r int) []int
		want string
	}{
		{"64KiB", func(r int) []int { return everyN(len(images[r]), 64<<10) }, "a4211f6396108b6b"},
		{"one-block", func(r int) []int { return blocks[r] }, "bc70ebb3f197e278"},
		{"7-byte", func(r int) []int { return everyN(len(images[r]), 7) }, "b38b36c23c6d1a8a"},
	} {
		t.Run(c.name, func(t *testing.T) {
			l, _ := drainedSession(t, LiveConfig{Config: Config{Scheme: vclock.FlatSingle, Title: "frames"}, WindowSec: 2}, images, c.cuts)
			if _, err := l.Finalize(context.Background()); err != nil {
				t.Fatal(err)
			}
			events, _, _ := l.Events(0)
			h := sha256.New()
			windows := 0
			for _, ev := range events {
				if ev.Frontier != nil {
					continue
				}
				if ev.Window != nil {
					windows++
				}
				data, err := json.Marshal(ev)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
			}
			got := hex.EncodeToString(h.Sum(nil))[:16]
			t.Logf("%d events, %d windows, frames digest %s", len(events), windows, got)
			if got != c.want {
				t.Errorf("window, state and summary frames digest %s, want %s", got, c.want)
			}
		})
	}
}

// TestLiveStreamLinearInRanks: a ring fed in four pieces per rank, with a
// drain after each piece, leaves a stream whose JSON at 4096 ranks is
// within 1.2× of the one at 256 ranks, and no frontier event of the
// larger world is larger than 1.2× the smaller one's.
func TestLiveStreamLinearInRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a 4096-rank ring")
	}
	measure := func(n int) (total, frontiers, maxFrontier int) {
		world := make([]int32, n)
		for i := range world {
			world[i] = int32(i)
		}
		images := make([][]byte, n)
		var buf bytes.Buffer
		for r := range images {
			buf.Reset()
			if err := ringTrace(r, world).EncodeV2(&buf); err != nil {
				t.Fatal(err)
			}
			images[r] = bytes.Clone(buf.Bytes())
		}
		quarters := func(r int) []int {
			n := len(images[r])
			return []int{n / 4, n / 2, 3 * n / 4}
		}
		l, _ := drainedSession(t, LiveConfig{Config: Config{Scheme: vclock.Hierarchical, Title: "ring"}}, images, quarters)
		if _, err := l.Finalize(context.Background()); err != nil {
			t.Fatal(err)
		}
		return streamBytes(t, l)
	}
	small, smallN, smallF := measure(256)
	large, largeN, largeF := measure(4096)
	t.Logf("stream JSON: %d B (%d frontier events, largest %d B) at 256 ranks, %d B (%d, largest %d B) at 4096 ranks: ×%.2f",
		small, smallN, smallF, large, largeN, largeF, float64(large)/float64(small))
	if float64(large) > 1.2*float64(small) {
		t.Errorf("the stream grows from %d B at 256 ranks to %d B at 4096", small, large)
	}
	if float64(largeF) > 1.2*float64(smallF) {
		t.Errorf("a frontier event grows from %d B at 256 ranks to %d B at 4096", smallF, largeF)
	}
}

// TestLiveLaggingHistoryBounded: a session held open while one rank's
// upload trickles in 7 bytes at a time, drained after every piece, keeps
// at most one frontier event more than it has window events: a frontier
// that the next one supersedes leaves the history. The frontier it keeps
// names the lagging rank first.
func TestLiveLaggingHistoryBounded(t *testing.T) {
	traces := exchangeTraces(8)
	const held = 2
	images := make([][]byte, len(traces))
	for r, tr := range traces {
		images[r] = v2Blocks(t, tr, 8, blockCounts(len(tr.Events), 8)...)
	}
	images[held] = images[held][:len(images[held])-4] // its last block never completes
	trickle := func(r int) []int {
		if r != held {
			return nil
		}
		return everyN(len(images[r]), 7)
	}
	l, drains := drainedSession(t, LiveConfig{Config: Config{Scheme: vclock.FlatSingle}, WindowSec: 2}, images, trickle)
	defer l.Finalize(context.Background())
	defer l.Abort(context.Canceled)
	events, _, _ := l.Events(0)
	windows, frontiers := 0, 0
	var last *FrontierEvent
	for i, ev := range events {
		if i > 0 && ev.Seq <= events[i-1].Seq {
			t.Fatalf("sequence number %d follows %d", ev.Seq, events[i-1].Seq)
		}
		switch {
		case ev.Window != nil:
			windows++
		case ev.Frontier != nil:
			frontiers++
			last = ev.Frontier
		}
	}
	t.Logf("%d drains: %d window and %d frontier events of %d, last sequence number %d",
		drains, windows, frontiers, len(events), events[len(events)-1].Seq)
	if drains < 50 {
		t.Fatalf("only %d drains", drains)
	}
	if frontiers > windows+1 {
		t.Errorf("the history keeps %d frontier events next to %d window events", frontiers, windows)
	}
	if last == nil || len(last.Slowest) == 0 || last.Slowest[0].Rank != held {
		t.Errorf("the last frontier %+v does not name rank %d first", last, held)
	}
}
