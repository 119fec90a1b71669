package metascope_test

import (
	"context"
	"runtime"
	"testing"

	"metascope/internal/archive"
	"metascope/internal/replay"
	"metascope/internal/vclock"
)

// TestLiveIngestAllocBudget enforces ROADMAP's "streaming ingest within
// 2x of lazy load" where it is cheapest to hold: in bytes allocated.
// Feeding a generated MetaTrace archive (several event blocks per rank,
// so block storage and not per-session fixtures decides the total)
// through a live session in round-robin 64 KiB chunks may allocate at
// most 1.5x what the lazy post-mortem analysis of the same bytes
// allocates. The live path decodes each event once, into the block the
// sweep reads; what it spends over the lazy path is chunk buffering and
// window bookkeeping. Pinned by name in script/check.sh.
func TestLiveIngestAllocBudget(t *testing.T) {
	e := metatraceExperiment(t, 4)
	cfg := replay.Config{Scheme: vclock.Hierarchical, Title: "ingest-budget"}
	blobs := make([][]byte, e.Place.N())
	for r := range blobs {
		var err error
		fsys := e.Mounts().For(e.Place.Loc(r).Metahost)
		if blobs[r], err = archive.ReadFile(fsys, archive.TraceFile(e.ArchiveDir, r)); err != nil {
			t.Fatal(err)
		}
	}

	allocated := func(run func() (*replay.Result, error)) (uint64, *replay.Result) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, res
	}
	lazyBytes, lazy := allocated(func() (*replay.Result, error) {
		ar, err := e.TracesLazy()
		if err != nil {
			return nil, err
		}
		return replay.AnalyzeLazy(ar, cfg)
	})
	liveBytes, live := allocated(func() (*replay.Result, error) {
		l, err := replay.NewLive(replay.LiveConfig{Config: cfg, Ranks: len(blobs)})
		if err != nil {
			return nil, err
		}
		const chunk = 64 << 10
		for off, sent := 0, true; sent; off += chunk {
			sent = false
			for r, b := range blobs {
				if off < len(b) {
					if err := l.FeedChunk(r, b[off:min(off+chunk, len(b))]); err != nil {
						return nil, err
					}
					sent = true
				}
			}
		}
		return l.Finalize(context.Background())
	})
	if live.Messages != lazy.Messages || live.Messages == 0 {
		t.Fatalf("live replayed %d messages, lazy %d", live.Messages, lazy.Messages)
	}
	ratio := float64(liveBytes) / float64(lazyBytes)
	t.Logf("live ingest allocated %d bytes, lazy analysis %d: %.2fx", liveBytes, lazyBytes, ratio)
	if ratio > 1.5 {
		t.Errorf("live ingest allocates %.2fx what the lazy analysis of the same archive does, budget 1.5x", ratio)
	}
}
