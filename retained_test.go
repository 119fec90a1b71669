//go:build !race

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

	"metascope/internal/obs"
	"metascope/internal/replay"
	"metascope/internal/serve"
	"metascope/internal/vclock"
)

// heapAfterGC returns the live heap after two collections: the first
// moves the sync.Pools to their victim caches, the second drops those.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retainedPer returns the heap that n calls of keep leave live, per
// call, holding what each call returns. keep itself, and so what it
// refers to, stays live until the second reading.
func retainedPer(n int, keep func() any) float64 {
	held := make([]any, n)
	before := heapAfterGC()
	for i := range held {
		held[i] = keep()
	}
	after := heapAfterGC()
	runtime.KeepAlive(held)
	runtime.KeepAlive(keep)
	return (float64(after) - float64(before)) / float64(n)
}

// TestSettledAnalysesKeepWhatTheyServe: the service's store keeps, per
// finished analysis, what its endpoints read — the cube report, the
// profile and the counts — and lets the rest of the analysis's result
// go. MetaTrace at detail 4 is an archive whose phase profile outweighs
// its severity profile, so a store that kept the whole result would
// retain several times what the report and profile retain alone. The
// heap retained per finished job (two collections, the delta over n
// jobs) may be at most 1.25x what the same analysis's report and profile
// retain when kept alone. The race detector instruments allocation, so
// the test is built without it; script/check.sh runs it by name.
func TestSettledAnalysesKeepWhatTheyServe(t *testing.T) {
	const n = 6
	e := metatraceExperiment(t, 4)
	var bundle bytes.Buffer
	if err := serve.EncodeZip(&bundle, e.Mounts(), e.Place.MetahostsUsed(), e.ArchiveDir); err != nil {
		t.Fatal(err)
	}

	// What one analysis's report and profile retain alone, measured the
	// same way, after one analysis that warms the pools.
	cfg := replay.Config{Scheme: vclock.Hierarchical, Title: e.ArchiveDir + " (hier)"}
	analyze := func() any {
		res, err := replay.AnalyzeArchiveContext(context.Background(), e.Mounts(), e.Place.MetahostsUsed(), e.ArchiveDir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Profile != res.Profile {
			t.Fatal("the report does not carry the analysis's profile")
		}
		return res.Report // a report holds its profile
	}
	analyze()
	alone := retainedPer(n, analyze)

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
	var body bytes.Buffer
	job := func() error {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/zip", bytes.NewReader(bundle.Bytes()))
		if err != nil {
			return err
		}
		var st serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		resp, err = ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "?wait=60s")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body.Reset()
		if _, err := body.ReadFrom(resp.Body); err != nil {
			return err
		}
		if err := json.Unmarshal(body.Bytes(), &st); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || st.State != serve.StateDone || st.Cached || st.Messages == 0 {
			return fmt.Errorf("job %s ended %s (HTTP %d, cached %v, %d messages): %s",
				st.ID, st.State, resp.StatusCode, st.Cached, st.Messages, st.Error)
		}
		return nil
	}
	if err := job(); err != nil { // opens the connection and warms the pools
		t.Fatal(err)
	}
	perJob := retainedPer(n, func() any {
		if err := job(); err != nil {
			t.Fatal(err)
		}
		return nil // the server holds what it keeps
	})

	const mb = 1 << 20
	t.Logf("a finished job retains %.3f MB; its report and profile kept alone %.3f MB (%.2fx)", perJob/mb, alone/mb, perJob/alone)
	if perJob > 1.25*alone {
		t.Errorf("a finished job retains %.3f MB, over 1.25x the %.3f MB its report and profile retain alone", perJob/mb, alone/mb)
	}
}
