package metascope_test

// End-to-end determinism of the time-resolved profile: two independent
// simulated runs with the same seed, measured to disk, reloaded, and
// analyzed (metascope analyze's -profile-out path) must serialize to
// byte-identical profile artifacts.

import (
	"bytes"
	"path/filepath"
	"testing"

	"metascope"
	"metascope/internal/apps/metatrace"
	"metascope/internal/archive"
	"metascope/internal/measure"
	"metascope/internal/profile"
	"metascope/internal/replay"
	"metascope/internal/vclock"
)

// runProfiledPipeline measures one seeded metatrace run into root and
// analyzes it from disk through the autodetecting mount helper,
// returning the profile artifact bytes.
func runProfiledPipeline(t *testing.T, root string) ([]byte, *profile.Profile) {
	t.Helper()
	topo := metascope.VIOLA()
	place := metascope.ViolaExperiment1Placement(topo)
	e := metascope.NewExperiment("profdet", topo, place, 42)
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

	loadMounts, metahosts, dir, err := archive.MountTree(root, "")
	if err != nil {
		t.Fatal(err)
	}
	if dir != "epik_profdet" {
		t.Fatalf("autodetected archive %q, want epik_profdet", dir)
	}
	res, err := replay.AnalyzeArchive(loadMounts, metahosts, dir, replay.Config{
		Scheme: vclock.Hierarchical,
		Title:  "profdet",
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Profile.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res.Profile
}

func TestProfilePipelineDeterministic(t *testing.T) {
	first, p := runProfiledPipeline(t, t.TempDir())
	second, _ := runProfiledPipeline(t, t.TempDir())
	if !bytes.Equal(first, second) {
		t.Fatal("profile artifacts differ between identical seeded runs")
	}
	if p.Empty() {
		t.Fatal("profile empty")
	}
	// The simulated metacomputer moves wide-area traffic (VIOLA has
	// three metahosts) and produces wait states; both series families
	// must be present and positive.
	sums := make(map[string]float64)
	for _, s := range p.Series {
		for _, v := range s.Values {
			sums[s.Metric] += v
		}
	}
	if sums[profile.KeyBytesWide] <= 0 {
		t.Errorf("no wide-area volume recorded: %v", sums)
	}
	if sums[profile.KeyBytesIntra] <= 0 {
		t.Errorf("no intra-metahost volume recorded: %v", sums)
	}
	waits := 0.0
	for m, v := range sums {
		if m != profile.KeyBytesWide && m != profile.KeyBytesIntra {
			waits += v
		}
	}
	if waits <= 0 {
		t.Errorf("no wait-state severity in the profile: %v", sums)
	}
	// A same-run diff is identically zero everywhere.
	d, err := profile.Diff(p, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Series {
		for i, v := range s.Values {
			if v != 0 {
				t.Fatalf("self-diff non-zero at %s bucket %d: %g", s.Metric, i, v)
			}
		}
	}
}
