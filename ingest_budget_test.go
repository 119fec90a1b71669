package metascope_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"metascope"
	"metascope/internal/apps/metatrace"
	"metascope/internal/archive"
	"metascope/internal/measure"
	"metascope/internal/obs"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/serve"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// metatraceExperiment runs MetaTrace on the VIOLA testbed (32 ranks,
// seed 42) at the given instrumentation detail and returns the measured
// experiment, its v2 archive in memory.
func metatraceExperiment(t *testing.T, detail int) *metascope.Experiment {
	t.Helper()
	topo := metascope.VIOLA()
	e := metascope.NewExperiment("bench", topo, metascope.ViolaExperiment1Placement(topo), 42)
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	p := metatrace.Default(16)
	p.Detail = detail
	params, err := metatrace.Setup(e.World(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(func(m *measure.M) { metatrace.Body(m, params) }); err != nil {
		t.Fatal(err)
	}
	return e
}

// allocated runs one analysis and returns the bytes it allocated.
func allocated(t *testing.T, run func() (*replay.Result, error)) (uint64, *replay.Result) {
	t.Helper()
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

// TestLiveIngestAllocBudget holds the streaming-ingest cost where it is
// cheapest to hold, in bytes allocated, and the way BENCHMARK.json
// defines it: as the difference between the live session and the lazy
// analysis of the same archive. Feeding a generated MetaTrace archive
// (several event blocks per rank, so block storage and not per-session
// fixtures decides the total; 208 224 events) through a live session in
// round-robin 64 KiB chunks may allocate at most 5.2 MB — 25 B/event —
// more than the lazy post-mortem analysis of the same bytes: the live
// path decodes each event once, into the block the sweep reads, and
// spends over the lazy path chunk buffering and window bookkeeping, 4.8
// MB here. The live total has its own pin, 1.25x the 71.1 B/event
// measured, like its three siblings. The budget used to be a ratio, live
// <= 1.5x lazy; a ratio to a shared denominator tightens whenever the
// shared part shrinks — the paged ledger took 4 MB off both sides, and
// 18.6 / 13.9 MB = 1.33x became 14.8 / 10.0 MB = 1.48x while the ingest
// cost itself moved from 4.7 to 4.8 MB. Pinned by name in
// script/check.sh.
func TestLiveIngestAllocBudget(t *testing.T) {
	e := metatraceExperiment(t, 4)
	cfg := replay.Config{Scheme: vclock.Hierarchical, Title: "ingest-budget"}
	traces, err := e.Traces()
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	blobs := make([][]byte, len(traces))
	for r, tr := range traces {
		events += len(tr.Events)
		fsys := e.Mounts().For(e.Place.Loc(r).Metahost)
		if blobs[r], err = archive.ReadFile(fsys, archive.TraceFile(e.ArchiveDir, r)); err != nil {
			t.Fatal(err)
		}
	}

	lazyBytes, lazy := allocated(t, func() (*replay.Result, error) {
		ar, err := e.TracesLazy()
		if err != nil {
			return nil, err
		}
		return replay.AnalyzeLazy(ar, cfg)
	})
	liveBytes, live := allocated(t, func() (*replay.Result, error) {
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
	const (
		ingestBudget = 25.0 // B/event over the lazy analysis
		measured     = 71.1 // B/event, the live session in all
	)
	ingest := (float64(liveBytes) - float64(lazyBytes)) / float64(events)
	perEvent := float64(liveBytes) / float64(events)
	t.Logf("live ingest allocated %d bytes, lazy analysis %d, for %d events: %.1f B/event, %.1f of them over the lazy analysis",
		liveBytes, lazyBytes, events, perEvent, ingest)
	if ingest > ingestBudget {
		t.Errorf("live ingest allocates %.1f B/event more than the lazy analysis of the same archive, budget %.1f", ingest, ingestBudget)
	}
	if perEvent > 1.25*measured {
		t.Errorf("the live session allocates %.1f B/event, budget 1.25 x %.1f", perEvent, measured)
	}
}

// TestLazyAllocPerEventBudget pins what a lazy analysis allocates per
// event: the sweep decodes into the blocks it has just released and phase
// detection searches its candidates in place, so neither a block per
// block decoded nor a phase sequence per candidate partition is on the
// bill, and the loader borrows each file's bytes from the in-memory file
// system instead of copying them, and the ledger logs of a pulled rank
// grow in pages that are written once, not by append. On this archive
// (MetaTrace at detail 4, 208 224 events) the analysis allocates 10.0 MB,
// 47.9 B/event; with ledger logs regrown by append it was 13.9 MB, 66.9
// B/event, with a copy of every file and 48-byte events 20.3 MB, 97.6
// B/event, and with a fresh block per decode and a sequence copy per
// candidate before that 34.8 MB, 167.0 B/event. The budget is 1.25x the
// first. Pinned by name in script/check.sh.
func TestLazyAllocPerEventBudget(t *testing.T) {
	e := metatraceExperiment(t, 4)
	traces, err := e.Traces()
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for _, tr := range traces {
		events += len(tr.Events)
	}
	lazyBytes, _ := allocated(t, func() (*replay.Result, error) {
		ar, err := e.TracesLazy()
		if err != nil {
			return nil, err
		}
		return replay.AnalyzeLazy(ar, replay.Config{Scheme: vclock.Hierarchical, Title: "alloc-budget"})
	})
	const measured = 47.9 // B/event
	perEvent := float64(lazyBytes) / float64(events)
	t.Logf("lazy analysis allocated %d bytes for %d events: %.1f B/event", lazyBytes, events, perEvent)
	if perEvent > 1.25*measured {
		t.Errorf("lazy analysis allocates %.1f B/event, budget 1.25 x %.1f", perEvent, measured)
	}
}

// TestEagerAllocPerEventBudget pins what the post-mortem path allocates
// per event on a communication-bound archive — a 48-rank halo2d run, one
// message per four events: the eager load (the trace files borrowed from
// the in-memory file system, events in 40-byte records), the analysis
// (ledger logs sized by one counting pass, the coverage union merged
// rank by rank, one suffix-minimum buffer) and the cube, profile and
// phase artifacts written into reused buffers, as a CLI rewrites its
// output files. On this archive (21 088 events) that is 108.3 B/event;
// with a copy of every file, 48-byte events, logs grown by doubling, a
// sorted list of every op span and reflective JSON renders it was
// 256.4 B/event. The budget is 1.25x the former. Pinned by name in
// script/check.sh.
func TestEagerAllocPerEventBudget(t *testing.T) {
	e := haloBudgetExperiment(t)
	cfg := replay.Config{Scheme: vclock.Hierarchical, Title: "eager-budget"}
	var report, prof, phases bytes.Buffer
	events := 0
	op := func() (*replay.Result, error) {
		traces, err := e.Traces()
		if err != nil {
			return nil, err
		}
		events = 0
		for _, tr := range traces {
			events += len(tr.Events)
		}
		res, err := replay.Analyze(traces, cfg)
		if err != nil {
			return nil, err
		}
		report.Reset()
		prof.Reset()
		phases.Reset()
		for _, werr := range []error{res.Report.Write(&report), res.Profile.WriteJSON(&prof), res.Phases.WriteJSON(&phases)} {
			if werr != nil {
				return nil, werr
			}
		}
		return res, nil
	}
	if _, err := op(); err != nil { // sizes the three output buffers
		t.Fatal(err)
	}
	eagerBytes, res := allocated(t, op)
	if res.Messages == 0 {
		t.Fatal("the archive holds no messages")
	}
	perEvent := float64(eagerBytes) / float64(events)
	t.Logf("eager load, analysis and artifact writes allocated %d bytes for %d events: %.1f B/event", eagerBytes, events, perEvent)
	if perEvent > 1.25*eagerBytesPerEvent {
		t.Errorf("the post-mortem path allocates %.1f B/event, budget 1.25 x %.1f", perEvent, eagerBytesPerEvent)
	}
}

// eagerBytesPerEvent is what the post-mortem path is known to allocate
// per event on haloBudgetExperiment's archive; the eager and the served
// budget both stand on it.
const eagerBytesPerEvent = 108.3

// haloBudgetExperiment measures the communication-bound archive of the
// eager and the served budget: a 48-rank halo2d run, one message per four
// events, in format v2.
func haloBudgetExperiment(t *testing.T) *metascope.Experiment {
	t.Helper()
	prog, err := scenario.Load([]byte(`{"name": "eager-budget", "kernel": "halo2d", "ranks": 48,
		"iterations": 32, "params": {"px": 8, "py": 6}, "topology": {"preset": "conformance", "count": 4},
		"schedule": {"align": 6, "slack": 4}}`))
	if err != nil {
		t.Fatal(err)
	}
	prog.Spec.Format = trace.FormatV2
	e, err := prog.Run("eager-budget", 3)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestServedAllocPerEventBudget pins what the same archive costs through
// the analysis service — submitted as a bundle over HTTP, waited for,
// cube and profile fetched, result cache off: what the post-mortem path
// allocates, plus the data itself written twice — the bundle as it
// arrives, each trace file as it is inflated — and nothing a second
// time: the body is read into one buffer sized by its declared length,
// each entry inflated into one buffer the in-memory file system adopts,
// and the digest and the loader borrow from there. The budget is 1.25x
// that sum; with the body and every entry regrown from 512 bytes, a copy
// into the file system and a copy for the digest the service added 90
// B/event on the bench's archive, more than the analysis itself. Pinned
// by name in script/check.sh.
func TestServedAllocPerEventBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("counts bytes: archive/zip's pooled inflaters are dropped at random under the race detector")
	}
	e := haloBudgetExperiment(t)
	traces, err := e.Traces()
	if err != nil {
		t.Fatal(err)
	}
	events, inflated := 0, 0
	for r, tr := range traces {
		events += len(tr.Events)
		fsys := e.Mounts().For(e.Place.Loc(r).Metahost)
		inflated += fsys.(archive.Sizer).Size(archive.TraceFile(e.ArchiveDir, r))
	}
	var bundle bytes.Buffer
	if err := serve.EncodeZip(&bundle, e.Mounts(), e.Place.MetahostsUsed(), e.ArchiveDir); err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder()
	rec.Log.SetLevel(obs.LevelWarn)
	srv := serve.New(serve.Options{Workers: 1, CacheEntries: -1, Obs: rec})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		if err := srv.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	var cube, prof bytes.Buffer
	fetch := func(method, path string, body []byte, dst *bytes.Buffer) error {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		dst.Reset()
		if _, err := dst.ReadFrom(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, dst.Bytes())
		}
		return nil
	}
	op := func() (*replay.Result, error) {
		var st serve.JobStatus
		if err := fetch(http.MethodPost, "/v1/jobs", bundle.Bytes(), &cube); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(cube.Bytes(), &st); err != nil {
			return nil, err
		}
		if err := fetch(http.MethodGet, "/v1/jobs/"+st.ID+"?wait=60s", nil, &cube); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(cube.Bytes(), &st); err != nil {
			return nil, err
		}
		if st.State != serve.StateDone || st.Cached || st.Messages == 0 {
			return nil, fmt.Errorf("job %s ended %s (cached %v, %d messages): %s", st.ID, st.State, st.Cached, st.Messages, st.Error)
		}
		if err := fetch(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, &cube); err != nil {
			return nil, err
		}
		return nil, fetch(http.MethodGet, "/v1/jobs/"+st.ID+"/profile", nil, &prof)
	}
	if _, err := op(); err != nil { // opens the connection, sizes the two buffers
		t.Fatal(err)
	}
	servedBytes, _ := allocated(t, op)
	data := float64(bundle.Len()+inflated) / float64(events)
	perEvent := float64(servedBytes) / float64(events)
	t.Logf("submit, analysis and two fetches allocated %d bytes for %d events: %.1f B/event, %.1f of them the bundle (%d bytes) and its inflated files (%d bytes)",
		servedBytes, events, perEvent, data, bundle.Len(), inflated)
	if budget := 1.25 * (eagerBytesPerEvent + data); perEvent > budget {
		t.Errorf("the served path allocates %.1f B/event, budget 1.25 x (%.1f post-mortem + %.1f bundle and inflated bytes) = %.1f",
			perEvent, eagerBytesPerEvent, data, budget)
	}
}

// TestLazyShortRanksAllocBudget: a lazy analysis sizes each block's
// buffer by the events the rank still owes, not by the stride, so an
// archive of many ranks far shorter than one 4096-event block — a
// 12-rank halo2d run, a few hundred events per rank — costs it at most
// 1.25x what loading and analyzing the same bytes eagerly allocates. A
// stride-sized buffer per rank alone is several times the eager total.
func TestLazyShortRanksAllocBudget(t *testing.T) {
	prog, err := scenario.Load([]byte(`{"name": "short-ranks", "kernel": "halo2d", "ranks": 12,
		"iterations": 8, "params": {"px": 4, "py": 3}, "topology": {"preset": "conformance", "count": 4}}`))
	if err != nil {
		t.Fatal(err)
	}
	prog.Spec.Format = trace.FormatV2
	e, err := prog.Run("short-ranks", 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := replay.Config{Scheme: vclock.Hierarchical, Title: "short-ranks"}
	eagerBytes, eager := allocated(t, func() (*replay.Result, error) {
		traces, err := e.Traces()
		if err != nil {
			return nil, err
		}
		return replay.Analyze(traces, cfg)
	})
	lazyBytes, lazy := allocated(t, func() (*replay.Result, error) {
		ar, err := e.TracesLazy()
		if err != nil {
			return nil, err
		}
		return replay.AnalyzeLazy(ar, cfg)
	})
	if lazy.Messages != eager.Messages || lazy.Messages == 0 {
		t.Fatalf("lazy replayed %d messages, eager %d", lazy.Messages, eager.Messages)
	}
	ratio := float64(lazyBytes) / float64(eagerBytes)
	t.Logf("lazy analysis allocated %d bytes, eager %d: %.2fx", lazyBytes, eagerBytes, ratio)
	if ratio > 1.25 {
		t.Errorf("lazy analysis allocates %.2fx what the eager analysis of the same archive does, budget 1.25x", ratio)
	}
}
