package scenario

import (
	"bytes"
	"runtime"
	"testing"

	"metascope"
	"metascope/internal/archive"
	"metascope/internal/serve"
	"metascope/internal/trace"
)

// archiveDigest is the experiment archive's content digest, the one the
// analysis service keys its result cache on.
func archiveDigest(t *testing.T, e *metascope.Experiment) string {
	t.Helper()
	d, err := serve.Digest(e.Mounts(), e.Place.MetahostsUsed(), e.ArchiveDir)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func runLibrary(t *testing.T, name, title string, format trace.Format, seed int64) *metascope.Experiment {
	t.Helper()
	p, err := LoadLibrary(name)
	if err != nil {
		t.Fatal(err)
	}
	p.Spec.Format = format
	e, err := p.Run(title, seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestArchiveDeterminismAcrossGOMAXPROCS runs the same scenario and
// seed under GOMAXPROCS=1 and under the test default, requiring
// byte-identical archives: the simulation and trace writers must be
// free of scheduling-dependent output.
func TestArchiveDeterminismAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	d1 := archiveDigest(t, runLibrary(t, "halo2d", "det-gmp", trace.FormatV2, 5))
	runtime.GOMAXPROCS(old)
	dN := archiveDigest(t, runLibrary(t, "halo2d", "det-gmp", trace.FormatV2, 5))
	if d1 != dN {
		t.Fatalf("archive digest differs across GOMAXPROCS: %s vs %s", d1, dN)
	}
}

// TestArchiveDeterminismAcrossFormats runs the same scenario and seed
// once per trace format and converts the v1 archive to v2 the way
// metascope trace -convert does (decode, re-encode); the converted bytes must
// equal the directly generated v2 archive, file by file.
func TestArchiveDeterminismAcrossFormats(t *testing.T) {
	t.Parallel()
	e1 := runLibrary(t, "masterworker", "det-fmt", trace.FormatV1, 9)
	e2 := runLibrary(t, "masterworker", "det-fmt", trace.FormatV2, 9)
	p, err := LoadLibrary("masterworker")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p.N(); r++ {
		loc := e1.Place.Loc(r)
		path := archive.TraceFile(e1.ArchiveDir, r)
		v1, err := archive.ReadFile(e1.Mounts().For(loc.Metahost), path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.DecodeBytes(v1)
		if err != nil {
			t.Fatalf("rank %d: decoding v1: %v", r, err)
		}
		var conv bytes.Buffer
		if err := tr.EncodeFormat(&conv, trace.FormatV2); err != nil {
			t.Fatalf("rank %d: re-encoding: %v", r, err)
		}
		v2, err := archive.ReadFile(e2.Mounts().For(loc.Metahost), path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(conv.Bytes(), v2) {
			t.Errorf("rank %d: converted v1 archive differs from direct v2 (%d vs %d bytes)",
				r, conv.Len(), len(v2))
		}
	}
}

// TestRunDeterminismSameSeed is the base case: two runs of the same
// compiled program and seed produce byte-identical archives.
func TestRunDeterminismSameSeed(t *testing.T) {
	t.Parallel()
	a := archiveDigest(t, runLibrary(t, "amr", "det-seed", trace.FormatV2, 3))
	b := archiveDigest(t, runLibrary(t, "amr", "det-seed", trace.FormatV2, 3))
	if a != b {
		t.Fatalf("same scenario, same seed, different archives: %s vs %s", a, b)
	}
	c := archiveDigest(t, runLibrary(t, "amr", "det-seed", trace.FormatV2, 4))
	if a == c {
		t.Fatal("different experiment seeds produced identical archives; the digest is not sensitive")
	}
}
