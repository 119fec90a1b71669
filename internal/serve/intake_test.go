package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"metascope/internal/archive"
	"metascope/internal/obs"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// The intake contract: from the socket to the sweep a trace byte is
// written twice — once as it arrives compressed, once as it is inflated —
// and from then on only lent. These tests pin each copy that went.

// haloArchive is the bench's served input in small: a 192-rank halo2d run
// on four metahosts, one trace file per rank, as an upload bundle.
type haloArchive struct {
	zip      []byte
	inflated int64
	files    int
}

var haloOnce = sync.OnceValues(func() (*haloArchive, error) {
	prog, err := scenario.Load([]byte(`{"name": "intake", "kernel": "halo2d", "ranks": 192,
		"iterations": 16, "params": {"px": 16, "py": 12}, "topology": {"preset": "conformance", "count": 4},
		"schedule": {"align": 6, "slack": 4}}`))
	if err != nil {
		return nil, err
	}
	prog.Spec.Format = trace.FormatV2
	e, err := prog.Run("intake", 7)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := EncodeZip(&buf, e.Mounts(), e.Place.MetahostsUsed(), e.ArchiveDir); err != nil {
		return nil, err
	}
	h := &haloArchive{zip: buf.Bytes()}
	u, err := decodeZip(h.zip, DefaultMaxUploadBytes)
	if err != nil {
		return nil, err
	}
	h.inflated, h.files = u.inflated, u.files
	return h, nil
})

func haloBundle(t testing.TB) *haloArchive {
	t.Helper()
	h, err := haloOnce()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestDecodeZipAllocatesInflatedSizeOnce: decoding a bundle allocates its
// inflated bytes once — each entry in one buffer of its declared size,
// which the file system adopts — plus a fixed cost per entry (the zip
// directory record, the reader over the entry, the map slot), not a
// buffer regrown from 512 bytes and a second copy into the file system.
func TestDecodeZipAllocatesInflatedSizeOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("counts bytes: archive/zip's pooled inflaters are dropped at random under the race detector")
	}
	h := haloBundle(t)
	if h.files != 192 {
		t.Fatalf("bundle holds %d files, want 192", h.files)
	}
	DecodeZip(h.zip, DefaultMaxUploadBytes) // fills archive/zip's pool of inflaters
	var err error
	grew := allocatedBy(func() { _, _, _, err = DecodeZip(h.zip, DefaultMaxUploadBytes) })
	if err != nil {
		t.Fatal(err)
	}
	const perEntry = 3 << 10 // bytes; measured ~2.3 KB, half of it the inflater's Huffman tables
	budget := uint64(float64(h.inflated)*1.1) + uint64(h.files)*perEntry
	t.Logf("DecodeZip allocated %d bytes for %d inflated bytes in %d files (budget %d)", grew, h.inflated, h.files, budget)
	if grew > budget {
		t.Errorf("DecodeZip allocated %d bytes for %d inflated bytes in %d files: budget 1.1 x inflated + %d per entry = %d",
			grew, h.inflated, h.files, perEntry, budget)
	}
}

// memArchive builds a one-metahost in-memory archive of n trace files of
// size bytes each.
func memArchive(t testing.TB, n, size int) (*archive.Mounts, []int, string) {
	t.Helper()
	fs := archive.NewMemFS("m")
	must(t, fs.Mkdir("epik_d"))
	for r := 0; r < n; r++ {
		must(t, fs.Store(archive.TraceFile("epik_d", r), bytes.Repeat([]byte{byte(r)}, size)))
	}
	mounts := archive.NewMounts()
	mounts.Mount(0, fs)
	return mounts, []int{0}, "epik_d"
}

// TestDigestBorrows: hashing an in-memory archive copies none of it — what
// Digest allocates does not depend on the archive's size —, the digest of
// an archive is the same whether its file system lends (MemFS) or is read
// (DirFS), and it is the value the result cache has always keyed on.
func TestDigestBorrows(t *testing.T) {
	// TotalAlloc is process-wide: a goroutine of an earlier test still
	// winding down adds to it, never takes from it. So each size is
	// measured several times after a collection and the least is the
	// digest's own.
	digestAlloc := func(size int) uint64 {
		mounts, mhs, dir := memArchive(t, 8, size)
		least := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			runtime.GC()
			var err error
			least = min(least, allocatedBy(func() { _, err = Digest(mounts, mhs, dir) }))
			must(t, err)
		}
		return least
	}
	small, large := digestAlloc(1<<10), digestAlloc(1<<20)
	t.Logf("Digest allocated %d bytes over 8 KB of traces, %d over 8 MB", small, large)
	if large > small+1024 || large > 16<<10 {
		t.Errorf("Digest allocated %d bytes over 8 MB of traces and %d over 8 KB: it copies what it hashes", large, small)
	}

	// The same archive in memory and on disk.
	b := oracleBundles(t)[0]
	mounts, mhs, dir, err := DecodeZip(b.zip, DefaultMaxUploadBytes)
	must(t, err)
	inMemory, err := Digest(mounts, mhs, dir)
	must(t, err)
	root := t.TempDir()
	must(t, extractZipTree(root, b.zip))
	dmounts, dmhs, ddir, err := archive.MountTree(root, "")
	must(t, err)
	if _, lends := dmounts.For(dmhs[0]).(archive.Viewer); lends {
		t.Fatal("the on-disk archive lends its bytes: the comparison is not between a view and a read")
	}
	onDisk, err := Digest(dmounts, dmhs, ddir)
	must(t, err)
	if inMemory != onDisk {
		t.Errorf("digest %s in memory, %s on disk", inMemory, onDisk)
	}
	// The digest hashes the files' bytes, so the same bytes must still hit
	// the cache key an older server stored: eight fixed files keep the key
	// pinned before the intake borrowed. The oracle archive's key is
	// pinned to the trace writer's bytes, which run-coded member lists
	// changed once.
	fmounts, fmhs, fdir := memArchive(t, 8, 1<<10)
	fixed, err := Digest(fmounts, fmhs, fdir)
	must(t, err)
	if want := "e6e5cd2f68e07e63d9b3f3b5651f05e9ee906597e6fddeb3305d3ae8a0d265a3"; fixed != want {
		t.Errorf("digest of eight fixed files = %s, want %s as before", fixed, want)
	}
	const pinned = "f24a792bd3d8d96018cb31199767bafbbe61e2b69b5ba5b3eb8c6e7f3c0bad91"
	if inMemory != pinned {
		t.Errorf("digest of %s = %s, want %s as before", b.s.Name, inMemory, pinned)
	}
}

// storedSums hashes every file of a decoded archive.
func storedSums(t testing.TB, mounts *archive.Mounts, metahosts []int, dir string) map[string][32]byte {
	t.Helper()
	sums := make(map[string][32]byte)
	for _, mh := range metahosts {
		fs := mounts.For(mh)
		names, err := fs.List(dir)
		must(t, err)
		for _, name := range names {
			data, err := archive.ReadFile(fs, dir+"/"+name)
			must(t, err)
			sums[fmt.Sprintf("%d/%s", mh, name)] = sha256.Sum256(data)
		}
	}
	return sums
}

// TestBorrowersDoNotWrite: the three borrowers — the digest, the bundle
// writer and the archive loader with the whole analysis behind it — leave
// every stored file as it was.
func TestBorrowersDoNotWrite(t *testing.T) {
	b := oracleBundles(t)[0]
	mounts, mhs, dir, err := DecodeZip(b.zip, DefaultMaxUploadBytes)
	must(t, err)
	before := storedSums(t, mounts, mhs, dir)
	if len(before) == 0 {
		t.Fatal("decoded archive holds no files")
	}
	borrowers := []struct {
		name string
		run  func() error
	}{
		{"Digest", func() error { _, err := Digest(mounts, mhs, dir); return err }},
		{"EncodeZip", func() error { return EncodeZip(io.Discard, mounts, mhs, dir) }},
		{"analysis", func() error {
			_, err := replay.AnalyzeArchive(mounts, mhs, dir, replay.Config{Scheme: vclock.Hierarchical, Obs: obs.NewRecorder()})
			return err
		}},
	}
	for _, bw := range borrowers {
		must(t, bw.run())
		for name, sum := range storedSums(t, mounts, mhs, dir) {
			if sum != before[name] {
				t.Errorf("%s changed stored file %s", bw.name, name)
			}
		}
	}
}

// TestSubmitBodyReadOnce covers the ways an upload body can arrive at
// POST /v1/jobs, through the reader the chunk route uses: with a declared
// length (one sized read), chunked (read to EOF), shorter or longer than
// declared (refused), and declared huge with nothing behind it — which
// must not size a buffer: a declaration alone reserves at most
// chunkBufKeep.
func TestSubmitBodyReadOnce(t *testing.T) {
	b := oracleBundles(t)[0]
	s, ts := newTestServer(t, Options{Workers: 1})

	st, resp := submitZip(t, ts.URL, b.zip, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("declared length: status %d", resp.StatusCode)
	}
	sized := st.Digest

	// A reader that is not a *bytes.Reader has no length to declare.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/zip", io.MultiReader(bytes.NewReader(b.zip)))
	must(t, err)
	var chunked JobStatus
	must(t, json.NewDecoder(resp.Body).Decode(&chunked))
	resp.Body.Close()
	if resp.StatusCode/100 != 2 || chunked.Digest != sized {
		t.Fatalf("chunked encoding: status %d, digest %q, want that of the sized upload %q", resp.StatusCode, chunked.Digest, sized)
	}

	// The HTTP server never lets a body through that breaks its declared
	// length, so the handler is called directly.
	direct := func(body io.Reader, declared int64) (int, string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", body)
		r.ContentLength = declared
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		return w.Code, w.Body.String()
	}
	if code, msg := direct(bytes.NewReader(b.zip), int64(len(b.zip)-3)); code != http.StatusBadRequest || !strings.Contains(msg, "longer than its declared Content-Length") {
		t.Errorf("long body: HTTP %d %s", code, msg)
	}
	if code, msg := direct(bytes.NewReader(b.zip[:10]), 20); code != http.StatusBadRequest || !strings.Contains(msg, "10 of 20 declared bytes") {
		t.Errorf("short body: HTTP %d %s", code, msg)
	}
	// The byte count is the whole process's: the jobs above are done
	// before it is taken, so none of their analysis falls into it.
	for _, id := range []string{st.ID, chunked.ID} {
		awaitJob(t, ts.URL, id)
	}
	var code int
	var msg string
	grew := allocatedBy(func() { code, msg = direct(strings.NewReader(""), 200<<20) })
	if code != http.StatusBadRequest || !strings.Contains(msg, "0 of 209715200 declared bytes") {
		t.Errorf("declared 200 MB, sent nothing: HTTP %d %s", code, msg)
	}
	if grew > chunkBufKeep+64<<10 && !raceEnabled { // the detector instruments Buffer.Grow into two allocations
		t.Errorf("a declared length of 200 MB with no byte behind it allocated %d bytes, more than chunkBufKeep = %d", grew, chunkBufKeep)
	}
}

// TestIntakePhases: an upload and a path submission each leave their
// intake steps in the obs phase tree under the handler's own span, and
// the steps tile the intake exactly: one clock reading ends a step and
// begins the next, so their sum is the span from admission to the
// digest that the "job accepted" line reports, which a scheduling gap
// between steps cannot break. That line also carries what the intake
// measured.
func TestIntakePhases(t *testing.T) {
	h := haloBundle(t)
	root := t.TempDir()
	if err := extractZipTree(filepath.Join(root, "run1"), h.zip); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query string
		body  []byte
		steps []string
		want  string
	}{
		{"", h.zip, []string{"read-body", "decode-zip", "digest"},
			fmt.Sprintf("body_bytes=%d inflated_bytes=%d files=%d", len(h.zip), h.inflated, h.files)},
		{"?path=run1", nil, []string{"mount-path", "digest"}, "source=path"},
	} {
		rec := obs.NewRecorder()
		logged := &logLines{}
		rec.Log = obs.NewLogger(logged)
		rec.Log.SetLevel(obs.LevelDebug)
		_, ts := newTestServer(t, Options{Workers: 1, Obs: rec, Root: root})
		st, resp := submitZip(t, ts.URL, c.body, c.query)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit%s: status %d", c.query, resp.StatusCode)
		}

		// The handler records its own span after it has answered.
		var handler time.Duration
		steps := map[string]time.Duration{}
		for deadline := time.Now().Add(10 * time.Second); handler == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			for _, p := range rec.Phases.Breakdown() {
				if p.Path == "serve-intake" {
					handler = p.Total
				} else if rest, ok := strings.CutPrefix(p.Path, "serve-intake/"); ok {
					steps[rest] = p.Total
				}
			}
		}
		awaitJob(t, ts.URL, st.ID)
		var sum time.Duration
		for _, name := range c.steps {
			if steps[name] <= 0 {
				t.Errorf("submit%s: phase serve-intake/%s missing (have %v)", c.query, name, steps)
			}
			sum += steps[name]
		}
		if len(steps) != len(c.steps) {
			t.Errorf("submit%s: serve-intake has children %v, want exactly %v", c.query, steps, c.steps)
		}

		lines := logged.matching("job accepted")
		if len(lines) != 1 || !strings.Contains(lines[0], c.want) || !strings.Contains(lines[0], "id="+st.ID) {
			t.Fatalf("submit%s: acceptance logged as %q, want one line carrying %q", c.query, lines, c.want)
		}
		_, field, _ := strings.Cut(lines[0], " intake=")
		intake, err := time.ParseDuration(strings.TrimSpace(field)) // the line's last field
		if err != nil {
			t.Fatalf("submit%s: no intake span in %q: %v", c.query, lines[0], err)
		}
		if sum != intake || sum > handler {
			t.Errorf("submit%s: the steps sum to %v, want exactly the intake's %v, inside the handler's %v", c.query, sum, intake, handler)
		}
	}
}

func BenchmarkDecodeZip(b *testing.B) {
	h := haloBundle(b)
	b.SetBytes(h.inflated)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := DecodeZip(h.zip, DefaultMaxUploadBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDigest(b *testing.B) {
	h := haloBundle(b)
	mounts, mhs, dir, err := DecodeZip(h.zip, DefaultMaxUploadBytes)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(h.inflated)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Digest(mounts, mhs, dir); err != nil {
			b.Fatal(err)
		}
	}
}
