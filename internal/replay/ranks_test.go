package replay

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"
	"time"

	"metascope/internal/archive"
	"metascope/internal/obs"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// ringRounds is the number of ring-plus-barrier rounds of a ringArchive
// rank: 2 + 9·ringRounds = 38 events, however many ranks.
const ringRounds = 4

// ringTrace is rank r of an n-rank ring: per round, a send to the right
// neighbour, a receive from the left one and a barrier, over two
// metahosts of n/2 ranks. Every rank records the whole world, as a
// measured run does.
func ringTrace(r int, world []int32) *trace.Trace {
	n := len(world)
	mh := 2 * r / n
	evs := []trace.Event{enter(0, 0)}
	at := 0.0
	for round := range ringRounds {
		right, left := int32((r+1)%n), int32((r+n-1)%n)
		t := func(k int) float64 { return at + float64(k)*(1e-3+1e-6*float64(r%7)) }
		evs = append(evs,
			enter(t(1), 1), trace.Event{Kind: trace.KindSend, Time: t(1), Peer: right, Tag: int32(round), Bytes: 64}, exit(t(2), 1),
			enter(t(3), 2), trace.Event{Kind: trace.KindRecv, Time: t(4), Peer: left, Tag: int32(round), Bytes: 64}, exit(t(4), 2),
			enter(t(5), 3), collExit(t(6), trace.CollBarrier, -1), exit(t(6), 3))
		at = t(6)
	}
	evs = append(evs, exit(at+1e-3, 0))
	return &trace.Trace{
		Loc:     trace.Location{Rank: r, Metahost: mh, MetahostName: []string{"A", "B"}[mh], Node: r},
		Sync:    trace.SyncData{SharedNodeClock: true},
		Regions: testRegions,
		Comms:   []trace.CommDef{{ID: 0, Ranks: world}},
		Events:  evs,
	}
}

// ringArchive writes an n-rank ring through the v2 writer into an
// in-memory archive and returns its mounts, directory and byte count.
func ringArchive(tb testing.TB, n int) (*archive.Mounts, string, int) {
	tb.Helper()
	fs := archive.NewMemFS("ring")
	mounts := archive.NewMounts()
	mounts.Mount(0, fs)
	const dir = "epik_ring"
	if err := fs.Mkdir(dir); err != nil {
		tb.Fatal(err)
	}
	world := make([]int32, n)
	for i := range world {
		world[i] = int32(i)
	}
	total := 0
	var buf bytes.Buffer
	for r := range n {
		buf.Reset()
		if err := ringTrace(r, world).EncodeV2(&buf); err != nil {
			tb.Fatal(err)
		}
		total += buf.Len()
		if err := fs.Store(archive.TraceFile(dir, r), bytes.Clone(buf.Bytes())); err != nil {
			tb.Fatal(err)
		}
	}
	return mounts, dir, total
}

// ringCost is one load and analysis of a ring archive.
type ringCost struct {
	events              int
	decodeNs, analyzeNs float64 // per event
	heapPerEvent        float64 // bytes allocated per event, load and analysis
}

func analyzeRing(tb testing.TB, mounts *archive.Mounts, dir string) ringCost {
	tb.Helper()
	rec := obs.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	traces, err := LoadArchiveObs(mounts, []int{0}, dir, rec)
	if err != nil {
		tb.Fatal(err)
	}
	t1 := time.Now()
	if _, err := Analyze(traces, Config{Scheme: vclock.Hierarchical, Title: "ring", Obs: rec}); err != nil {
		tb.Fatal(err)
	}
	t2 := time.Now()
	runtime.ReadMemStats(&after)
	events := 0
	for _, t := range traces {
		events += len(t.Events)
	}
	ev := float64(events)
	return ringCost{
		events:       events,
		decodeNs:     float64(t1.Sub(t0)) / ev,
		analyzeNs:    float64(t2.Sub(t1)) / ev,
		heapPerEvent: float64(after.TotalAlloc-before.TotalAlloc) / ev,
	}
}

// TestLinearInRanks: a rank's trace file and what its analysis allocates
// per event do not grow with the world. A 4096-rank ring's archive bytes
// per rank and heap bytes per event stay within 20 % of a 256-rank one's,
// which fails when every file lists the world member by member or every
// decoded trace keeps its own copy of the list.
func TestLinearInRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes a 4096-rank archive")
	}
	type point struct {
		bytesPerRank, heapPerEvent float64
	}
	measure := func(n int) point {
		mounts, dir, total := ringArchive(t, n)
		runtime.GC()
		c := analyzeRing(t, mounts, dir)
		return point{float64(total) / float64(n), c.heapPerEvent}
	}
	small, large := measure(256), measure(4096)
	t.Logf("256 ranks: %.0f B/rank, %.0f heap B/event; 4096 ranks: %.0f B/rank, %.0f heap B/event",
		small.bytesPerRank, small.heapPerEvent, large.bytesPerRank, large.heapPerEvent)
	if large.bytesPerRank > 1.2*small.bytesPerRank {
		t.Errorf("archive bytes per rank grow from %.0f at 256 ranks to %.0f at 4096", small.bytesPerRank, large.bytesPerRank)
	}
	if large.heapPerEvent > 1.2*small.heapPerEvent {
		t.Errorf("heap bytes per event grow from %.0f at 256 ranks to %.0f at 4096", small.heapPerEvent, large.heapPerEvent)
	}
}

// BenchmarkAnalyzeRanks loads and analyzes a ring plus a barrier per
// round at 38 events per rank, written by the v2 writer, at growing
// worlds. Archive bytes per rank, decode and analyze ns per event and
// heap bytes per event should not grow with the world.
func BenchmarkAnalyzeRanks(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			mounts, dir, total := ringArchive(b, n)
			var sum ringCost
			b.ResetTimer()
			for range b.N {
				c := analyzeRing(b, mounts, dir)
				sum.decodeNs += c.decodeNs
				sum.analyzeNs += c.analyzeNs
				sum.heapPerEvent += c.heapPerEvent
			}
			k := float64(b.N)
			b.ReportMetric(float64(total)/float64(n), "archive-B/rank")
			b.ReportMetric(sum.decodeNs/k, "decode-ns/event")
			b.ReportMetric(sum.analyzeNs/k, "analyze-ns/event")
			b.ReportMetric(sum.heapPerEvent/k, "B/event")
		})
	}
}
