package replay

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"metascope/internal/archive"
	"metascope/internal/obs"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// unsafeStringData exposes a string's backing pointer so tests can
// check two equal strings are one interned instance.
func unsafeStringData(s string) *byte { return unsafe.StringData(s) }

// loadFixture builds a single-FS archive with n well-formed rank
// traces and returns the mounts and directory.
func loadFixture(t *testing.T, n int) (*archive.Mounts, archive.FS, string) {
	t.Helper()
	fs := archive.NewMemFS("load")
	mounts := archive.NewMounts()
	mounts.Mount(0, fs)
	dir := "epik_parallel"
	if err := fs.Mkdir(dir); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		writeRank(t, fs, dir, r)
	}
	return mounts, fs, dir
}

func writeRank(t *testing.T, fs archive.FS, dir string, rank int) {
	t.Helper()
	tr := synth(rank, 0, []trace.Event{enter(0, 0), exit(1, 0)})
	tr.Loc.Rank = rank
	w, err := fs.Create(archive.TraceFile(dir, rank))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Encode(w); err != nil {
		t.Fatal(err)
	}
	w.Close()
}

func corruptRank(t *testing.T, fs archive.FS, dir string, rank int) {
	t.Helper()
	// Valid magic and version, then a header that declares more events
	// than the remaining bytes can hold — the decode fails mid-flight,
	// after other workers already started.
	w, err := fs.Create(archive.TraceFile(dir, rank))
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("MSCP\x01garbage"))
	w.Close()
}

func TestLoadArchiveParallelDecodesAllRanks(t *testing.T) {
	const n = 16
	mounts, _, dir := loadFixture(t, n)
	traces, err := LoadArchive(mounts, []int{0}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != n {
		t.Fatalf("loaded %d traces, want %d", len(traces), n)
	}
	for r, tr := range traces {
		if tr.Loc.Rank != r {
			t.Fatalf("slot %d holds rank %d", r, tr.Loc.Rank)
		}
	}
}

func TestLoadArchiveNonDenseRankRange(t *testing.T) {
	fs := archive.NewMemFS("sparse")
	mounts := archive.NewMounts()
	mounts.Mount(0, fs)
	dir := "epik_sparse"
	fs.Mkdir(dir)
	writeRank(t, fs, dir, 0)
	writeRank(t, fs, dir, 5) // gap: ranks 1..4 missing
	_, err := LoadArchive(mounts, []int{0}, dir)
	if err == nil || !strings.Contains(err.Error(), "dense range") {
		t.Fatalf("non-dense rank range not detected: %v", err)
	}
}

func TestLoadArchiveDuplicateRankAcrossFS(t *testing.T) {
	mounts, _, dir := loadFixture(t, 3)
	other := archive.NewMemFS("dup")
	mounts.Mount(1, other)
	other.Mkdir(dir)
	writeRank(t, other, dir, 1)
	_, err := LoadArchive(mounts, []int{0, 1}, dir)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate rank not detected: %v", err)
	}
}

// TestLoadArchiveDecodeFailureFirstErrorWins corrupts one rank of a
// wide archive and checks that (a) the load fails with that rank's
// decode error on every attempt — first error wins deterministically,
// independent of which workers were in flight — and (b) the decode
// pool leaks no goroutines.
func TestLoadArchiveDecodeFailureFirstErrorWins(t *testing.T) {
	const n = 16
	mounts, fs, dir := loadFixture(t, n)
	corruptRank(t, fs, dir, 7)

	before := runtime.NumGoroutine()
	var first string
	for i := 0; i < 25; i++ {
		_, err := LoadArchive(mounts, []int{0}, dir)
		if err == nil {
			t.Fatalf("attempt %d: corrupt archive loaded", i)
		}
		if !strings.Contains(err.Error(), "trace.7.mscp") {
			t.Fatalf("attempt %d: error names wrong file: %v", i, err)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("attempt %d: error changed:\n  first: %s\n  now:   %s", i, first, err.Error())
		}
	}

	// Workers must have drained; allow the runtime a moment to retire.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestLoadArchiveTwoFailuresLowestWins corrupts two ranks; the
// reported error must always belong to the lexically-first trace file,
// not to whichever worker failed first on the clock.
func TestLoadArchiveTwoFailuresLowestWins(t *testing.T) {
	const n = 12
	mounts, fs, dir := loadFixture(t, n)
	corruptRank(t, fs, dir, 3)
	corruptRank(t, fs, dir, 9)
	for i := 0; i < 25; i++ {
		_, err := LoadArchive(mounts, []int{0}, dir)
		if err == nil {
			t.Fatalf("attempt %d: corrupt archive loaded", i)
		}
		if !strings.Contains(err.Error(), "trace.3.mscp") {
			t.Fatalf("attempt %d: want the error of trace.3.mscp, got: %v", i, err)
		}
	}
}

// TestLoadArchiveWrongRankInFile covers the file-content/rank-name
// mismatch path under the parallel loader.
func TestLoadArchiveWrongRankInFile(t *testing.T) {
	mounts, fs, dir := loadFixture(t, 4)
	// Overwrite trace.2.mscp with a trace claiming rank 3.
	tr := synth(3, 0, []trace.Event{enter(0, 0), exit(1, 0)})
	w, err := fs.Create(archive.TraceFile(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Encode(w); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, lerr := LoadArchive(mounts, []int{0}, dir)
	if lerr == nil || !strings.Contains(lerr.Error(), "contains trace of rank 3") {
		t.Fatalf("rank mismatch not detected: %v", lerr)
	}
}

// TestLoadArchiveInternsSharedNames verifies that the loader's shared
// interner collapses the region and metahost names and the communicator
// member lists replicated in every rank's trace file to single instances.
func TestLoadArchiveInternsSharedNames(t *testing.T) {
	const n = 8
	mounts, _, dir := loadFixture(t, n)
	traces, err := LoadArchive(mounts, []int{0}, dir)
	if err != nil {
		t.Fatal(err)
	}
	// All ranks replicate the same region table; interning must make
	// the name strings share backing storage (pointer-equal headers).
	for r := 1; r < n; r++ {
		for i := range traces[r].Regions {
			a, b := traces[0].Regions[i].Name, traces[r].Regions[i].Name
			if a != b {
				t.Fatalf("rank %d region %d name %q != %q", r, i, b, a)
			}
			if len(a) > 0 && unsafeStringData(a) != unsafeStringData(b) {
				t.Errorf("rank %d region %d name %q not interned", r, i, b)
			}
		}
		// So does the world every rank declares: one member slice.
		if a, b := traces[0].Comms[0].Ranks, traces[r].Comms[0].Ranks; &a[0] != &b[0] {
			t.Errorf("rank %d holds its own copy of the world", r)
		}
	}
}

// copyOnlyFS hides everything of a MemFS but the FS interface, as a file
// system whose bytes are not in memory would.
type copyOnlyFS struct{ archive.FS }

// TestLoadBorrowsWithoutWriting: the loader borrows a trace file's bytes
// from a file system that holds them in memory and reads any other into a
// buffer; both give the same traces, eager and lazy, and neither the load
// nor the analyses that read a lazy image write to the borrowed bytes.
func TestLoadBorrowsWithoutWriting(t *testing.T) {
	traces := exchangeTraces(8)
	fs := archive.NewMemFS("borrow")
	const dir = "epik_borrow"
	if err := fs.Mkdir(dir); err != nil {
		t.Fatal(err)
	}
	before := make([][]byte, len(traces))
	for r, tr := range traces {
		w, err := fs.Create(archive.TraceFile(dir, r))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.EncodeV2(w); err != nil {
			t.Fatal(err)
		}
		w.Close()
		if before[r], err = archive.ReadFile(fs, archive.TraceFile(dir, r)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Scheme: vclock.FlatSingle, Title: "borrow", Obs: obs.NewRecorder()}
	var outcomes []feedOutcome
	for _, lend := range []bool{true, false} {
		mounts := archive.NewMounts()
		if lend {
			mounts.Mount(0, fs)
		} else {
			mounts.Mount(0, copyOnlyFS{fs})
		}
		eager, err := LoadArchiveObs(mounts, []int{0}, dir, cfg.Obs)
		if err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, outcomeOf(Analyze(eager, cfg)))
		lazy, err := LoadArchiveLazy(mounts, []int{0}, dir)
		if err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, outcomeOf(AnalyzeLazy(lazy, cfg)), outcomeOf(AnalyzeLazy(lazy, cfg)))
	}
	for i, o := range outcomes {
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !bytes.Equal(o.report, outcomes[0].report) || !bytes.Equal(o.prof, outcomes[0].prof) || !bytes.Equal(o.phases, outcomes[0].phases) {
			t.Errorf("analysis %d differs from the first", i)
		}
	}
	for r := range traces {
		now, err := fs.View(archive.TraceFile(dir, r))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(now, before[r]) {
			t.Errorf("rank %d: the file's bytes changed under the loader", r)
		}
	}
}
