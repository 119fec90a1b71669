package metascope_test

// End-to-end pipeline over real on-disk archives (what metascope run and
// metascope analyze do), in a temporary directory: measure → per-metahost
// directories → load → analyze → write cube → read cube back.

import (
	"os"
	"path/filepath"
	"testing"

	"metascope"
	"metascope/internal/apps/metatrace"
	"metascope/internal/archive"
	"metascope/internal/cube"
	"metascope/internal/measure"
	"metascope/internal/pattern"
	"metascope/internal/replay"
	"metascope/internal/vclock"
)

func TestOnDiskPipeline(t *testing.T) {
	root := t.TempDir()
	topo := metascope.VIOLA()
	place := metascope.ViolaExperiment1Placement(topo)
	e := metascope.NewExperiment("disk", topo, place, 42)
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	mounts := archive.NewMounts()
	for _, mh := range topo.Metahosts {
		fs, err := archive.NewDirFS(filepath.Join(root, mh.Name))
		if err != nil {
			t.Fatal(err)
		}
		mounts.Mount(mh.ID, fs)
	}
	e.UseMounts(mounts)

	params := metatrace.Default(16)
	params.Steps = 2
	params, err := metatrace.Setup(e.World(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(func(m *measure.M) { metatrace.Body(m, params) }); err != nil {
		t.Fatal(err)
	}

	// The trace files must be real files, split by metahost: FH-BRS
	// hosts ranks 0-7, CAESAR 8-15, FZJ 16-31.
	for rank, wantDir := range map[int]string{0: "FH-BRS", 8: "CAESAR", 16: "FZJ"} {
		p := filepath.Join(root, wantDir, "epik_disk", archive.TraceFile("", rank)[1:])
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("trace %d missing at %s: %v", rank, p, err)
		}
	}

	// Re-load from disk as a fresh process would (metascope analyze's path).
	loadMounts := archive.NewMounts()
	id := 0
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		fs, err := archive.NewDirFS(filepath.Join(root, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		loadMounts.Mount(id, fs)
		id++
	}
	metahosts := make([]int, id)
	for i := range metahosts {
		metahosts[i] = i
	}
	res, err := replay.AnalyzeArchive(loadMounts, metahosts, "epik_disk", replay.Config{Scheme: vclock.Hierarchical})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Errorf("violations %d", res.Violations)
	}
	gwb := res.Report.MetricTotal(res.Report.MetricIndex(pattern.KeyGridWB))
	if gwb <= 0 {
		t.Errorf("no grid barrier waiting after disk round trip")
	}

	// Cube write → read round trip through a real file.
	cubePath := filepath.Join(root, "analysis.cube")
	f, err := os.Create(cubePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Report.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rf, err := os.Open(cubePath)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	back, err := cube.Read(rf)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.MetricTotal(back.MetricIndex(pattern.KeyGridWB)); got != gwb {
		t.Errorf("cube round trip changed Grid WB: %g vs %g", got, gwb)
	}

	// Timeline export to a real file parses as JSON (smoke).
	traces, err := replay.LoadArchive(loadMounts, metahosts, "epik_disk")
	if err != nil {
		t.Fatal(err)
	}
	tf, err := os.Create(filepath.Join(root, "timeline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.ExportTimeline(tf, traces, vclock.Hierarchical); err != nil {
		t.Fatal(err)
	}
	tf.Close()
}
