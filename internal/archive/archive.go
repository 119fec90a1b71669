// Package archive manages experiment archives — the per-experiment
// directories holding local trace files and analysis reports — in a
// metacomputing environment where no file system is shared by all
// processes (§4, "Runtime archive management").
//
// Metahosts may be owned by different organizations, so each metahost
// mounts its own file system; an archive directory therefore has to
// exist once per file system rather than once globally. The package
// provides the simulated file systems, the mount table, and the
// paper's hierarchical creation protocol:
//
//  1. rank 0 attempts to create the archive directory and broadcasts
//     the outcome; every process continues only on success,
//  2. each metahost's local master checks whether it can see the
//     directory and creates one on its own file system if not,
//  3. all processes verify visibility and combine the results with an
//     all-reduce; if any process cannot see an archive the measurement
//     is aborted.
//
// The protocol needs only a rank-0 broadcast and one all-reduce, so it
// avoids a thundering herd of simultaneous mkdir attempts and scales
// with the number of metahosts, not processes.
package archive

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"metascope/internal/obs"
)

// FS is the minimal file-system interface the measurement and analysis
// layers need. Implementations must be safe for concurrent use: the
// parallel analyzer reads trace files from many goroutines.
type FS interface {
	// Mkdir creates a directory. Parents must exist; creating an
	// existing directory fails with ErrExist.
	Mkdir(dir string) error
	// Exists reports whether a directory or file is present.
	Exists(p string) bool
	// Create creates (or truncates) a file inside an existing directory.
	Create(p string) (io.WriteCloser, error)
	// Open opens a file for reading.
	Open(p string) (io.ReadCloser, error)
	// List returns the names (not full paths) of entries in dir, sorted.
	List(dir string) ([]string, error)
}

// Sizer is an optional capability of an FS: report a file's size in
// bytes (or -1 if absent) so readers can allocate their destination
// buffer in one exact-size allocation. MemFS and DirFS implement it.
type Sizer interface {
	Size(p string) int
}

// Viewer is an optional capability of an FS whose files already sit in
// memory: lend a closed file's stored bytes instead of copying them. The
// slice is the file system's own storage and stays valid and unchanged
// for as long as the borrower holds it: a later Create or Store of the
// same path stores a new slice; it never writes into the old one. Callers
// go through Borrow, which states the one condition. MemFS implements
// Viewer; DirFS, whose bytes live on disk, does not.
type Viewer interface {
	View(p string) ([]byte, error)
}

// Borrow returns a file's bytes for reading only: the file system's own
// storage when fs is a Viewer, a buffer read with ReadFile otherwise. The
// caller must not write to the result — a write through a view would
// change the file for every later reader. The borrowers are the archive
// loader, whose decoders never write to their input, and the service's
// digest and bundle writer, which hash and compress; anything that edits
// the bytes it gets calls ReadFile.
func Borrow(fs FS, p string) ([]byte, error) {
	if v, ok := fs.(Viewer); ok {
		return v.View(p)
	}
	return ReadFile(fs, p)
}

// ReadFile reads a whole file from fs into memory. The result is a
// fresh copy the caller owns and may modify (the fault corpus and the
// scenario post-processor edit it in place and write it back). When fs
// implements Sizer, the destination buffer is allocated once at the
// file's exact size; otherwise it grows geometrically like io.ReadAll.
func ReadFile(fs FS, p string) ([]byte, error) {
	f, err := fs.Open(p)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hint := 512
	if s, ok := fs.(Sizer); ok {
		if n := s.Size(p); n >= 0 {
			hint = n
		}
	}
	// One spare byte keeps the final Read returning (0, io.EOF) from
	// forcing a growth of an exactly-sized buffer.
	buf := make([]byte, 0, hint+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Errors returned by MemFS and the protocol.
var (
	ErrExist    = errors.New("archive: already exists")
	ErrNotExist = errors.New("archive: does not exist")
	// ErrAborted is returned when the verification all-reduce finds a
	// process without archive access; the measurement must not proceed.
	ErrAborted = errors.New("archive: not every process can access an archive directory; measurement aborted")
)

// MemFS is an in-memory file system standing in for one metahost's
// storage. The zero value is not usable; use NewMemFS.
type MemFS struct {
	mu    sync.Mutex
	name  string
	dirs  map[string]bool
	files map[string][]byte

	// FailMkdir injects a creation failure (e.g. a read-only or
	// quota-exhausted file system) for testing the abort path.
	FailMkdir bool
}

// NewMemFS creates an empty file system with a diagnostic name.
func NewMemFS(name string) *MemFS {
	return &MemFS{
		name:  name,
		dirs:  map[string]bool{".": true},
		files: make(map[string][]byte),
	}
}

// Name returns the diagnostic name given at creation.
func (m *MemFS) Name() string { return m.name }

func clean(p string) string { return path.Clean(strings.TrimPrefix(p, "/")) }

// Mkdir implements FS.
func (m *MemFS) Mkdir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.FailMkdir {
		return fmt.Errorf("archive: mkdir %s on %s: permission denied (injected)", dir, m.name)
	}
	dir = clean(dir)
	if m.dirs[dir] {
		return fmt.Errorf("mkdir %s on %s: %w", dir, m.name, ErrExist)
	}
	parent := path.Dir(dir)
	if !m.dirs[parent] {
		return fmt.Errorf("mkdir %s on %s: parent: %w", dir, m.name, ErrNotExist)
	}
	m.dirs[dir] = true
	return nil
}

// Exists implements FS.
func (m *MemFS) Exists(p string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	p = clean(p)
	if m.dirs[p] {
		return true
	}
	_, ok := m.files[p]
	return ok
}

type memFile struct {
	buf bytes.Buffer
	fs  *MemFS
	p   string
}

func (f *memFile) Write(b []byte) (int, error) { return f.buf.Write(b) }

func (f *memFile) Close() error { return f.fs.Store(f.p, f.buf.Bytes()) }

// Create implements FS.
func (m *MemFS) Create(p string) (io.WriteCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p = clean(p)
	parent := path.Dir(p)
	if !m.dirs[parent] {
		return nil, fmt.Errorf("create %s on %s: directory: %w", p, m.name, ErrNotExist)
	}
	return &memFile{fs: m, p: p}, nil
}

// Store creates (or replaces) a file whose contents are data itself: the
// file system adopts the slice instead of copying it through Create, so
// the caller must not write to it afterwards. The upload decoder hands
// over each entry it has just inflated this way.
func (m *MemFS) Store(p string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p = clean(p)
	if !m.dirs[path.Dir(p)] {
		return fmt.Errorf("store %s on %s: directory: %w", p, m.name, ErrNotExist)
	}
	m.files[p] = data
	return nil
}

// Open implements FS.
func (m *MemFS) Open(p string) (io.ReadCloser, error) {
	data, err := m.View(p)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// List implements FS.
func (m *MemFS) List(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = clean(dir)
	if !m.dirs[dir] {
		return nil, fmt.Errorf("list %s on %s: %w", dir, m.name, ErrNotExist)
	}
	var names []string
	prefix := dir + "/"
	if dir == "." {
		prefix = ""
	}
	seen := make(map[string]bool)
	add := func(p string) {
		rest := strings.TrimPrefix(p, prefix)
		if rest == p && prefix != "" {
			return
		}
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		if rest != "" && rest != "." && !seen[rest] {
			seen[rest] = true
			names = append(names, rest)
		}
	}
	for p := range m.files {
		add(p)
	}
	for p := range m.dirs {
		if p != dir {
			add(p)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Remove deletes a file. Directories cannot be removed. The
// fault-injection corpus uses it to simulate lost trace files; the
// measurement and analysis layers never delete anything.
func (m *MemFS) Remove(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p = clean(p)
	if _, ok := m.files[p]; !ok {
		return fmt.Errorf("remove %s on %s: %w", p, m.name, ErrNotExist)
	}
	delete(m.files, p)
	return nil
}

// View implements Viewer: the stored bytes themselves, read-only to the
// caller.
func (m *MemFS) View(p string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p = clean(p)
	data, ok := m.files[p]
	if !ok {
		return nil, fmt.Errorf("open %s on %s: %w", p, m.name, ErrNotExist)
	}
	return data, nil
}

// Size returns the stored size of a file in bytes, or -1 if absent.
func (m *MemFS) Size(p string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[clean(p)]
	if !ok {
		return -1
	}
	return len(data)
}

// Mounts maps each metahost to the file system its processes see.
// Distinct metahosts may share a file system (the single-machine case)
// or mount disjoint ones (the metacomputing case).
type Mounts struct {
	byMetahost map[int]FS
}

// NewMounts creates an empty mount table.
func NewMounts() *Mounts { return &Mounts{byMetahost: make(map[int]FS)} }

// Mount attaches fs to a metahost.
func (m *Mounts) Mount(metahost int, fs FS) { m.byMetahost[metahost] = fs }

// For returns the file system visible from a metahost. It panics on an
// unmounted metahost, which indicates an experiment-setup bug.
func (m *Mounts) For(metahost int) FS {
	fs, ok := m.byMetahost[metahost]
	if !ok {
		panic(fmt.Sprintf("archive: no file system mounted for metahost %d", metahost))
	}
	return fs
}

// Shared reports whether all mounted metahosts see the same file
// system object.
func (m *Mounts) Shared() bool {
	var first FS
	for _, fs := range m.byMetahost {
		if first == nil {
			first = fs
			continue
		}
		if fs != first {
			return false
		}
	}
	return true
}

// Comm abstracts the two collective operations the creation protocol
// needs, so the package does not depend on the message-passing layer.
// The measurement runtime adapts its instrumented communicator.
type Comm interface {
	Rank() int
	Size() int
	// BcastBool broadcasts v from root and returns the root's value.
	BcastBool(root int, v bool) bool
	// AllAnd returns the logical AND of v across all processes.
	AllAnd(v bool) bool
}

// EnsureObs runs the hierarchical archive-creation protocol for the
// calling process. fs is the process's metahost file system,
// localMaster marks the metahost's elected master process, and dir is
// the archive directory path. On success every process of the job can
// see dir on its own file system; otherwise every process receives
// ErrAborted (or the root's creation error).
//
// It reports protocol-step timings and create/check/abort counters into
// the recorder (nil selects obs.Default). Counters are per calling
// process: every rank counts its own visibility checks and abort
// observations; only ranks that actually attempt a mkdir count
// creations.
func EnsureObs(c Comm, fs FS, localMaster bool, dir string, rec *obs.Recorder) error {
	rec = obs.OrDefault(rec)
	creates := rec.Reg.Counter("metascope_archive_mkdir_total",
		"archive directory creation attempts", "outcome")
	checks := rec.Reg.Counter("metascope_archive_checks_total",
		"archive visibility checks (Exists probes)")
	aborts := rec.Reg.Counter("metascope_archive_aborts_total",
		"processes observing an archive-protocol abort")
	steps := rec.Reg.Histogram("metascope_archive_step_seconds",
		"per-process wall time of archive-protocol steps", obs.SecondsBuckets, "step")

	// Step 1: the global master creates the (possibly only) archive.
	t0 := time.Now()
	ok := true
	if c.Rank() == 0 {
		if err := fs.Mkdir(dir); err != nil && !errors.Is(err, ErrExist) {
			ok = false
			creates.With("fail").Inc()
		} else {
			creates.With("ok").Inc()
		}
	}
	bcastOK := c.BcastBool(0, ok)
	steps.With("create").Observe(time.Since(t0).Seconds())
	if !bcastOK {
		aborts.Inc()
		return fmt.Errorf("archive: global master failed to create %q", dir)
	}
	// Step 2: each metahost's local master creates a partial archive if
	// the global one is not visible here (different file system).
	t1 := time.Now()
	if localMaster {
		checks.Inc()
		if !fs.Exists(dir) {
			// A failure here is detected by the verification step below —
			// aborting unilaterally would deadlock the collectives.
			if err := fs.Mkdir(dir); err != nil {
				creates.With("fail").Inc()
			} else {
				creates.With("ok").Inc()
			}
		}
	}
	// Synchronize before verifying: a slave must not look for the
	// directory before its local master had the chance to create it.
	c.AllAnd(true)
	steps.With("local-create").Observe(time.Since(t1).Seconds())
	// Step 3: global verification.
	t2 := time.Now()
	checks.Inc()
	verified := c.AllAnd(fs.Exists(dir))
	steps.With("verify").Observe(time.Since(t2).Seconds())
	if !verified {
		aborts.Inc()
		return ErrAborted
	}
	return nil
}

// TraceFile returns the canonical local trace file path for a rank.
func TraceFile(dir string, rank int) string {
	return fmt.Sprintf("%s/trace.%d.mscp", dir, rank)
}

// TraceRank parses a trace file's base name, trace.<rank>.mscp: the
// files of an archive directory that are traces, which the loader reads
// and the service digests, and no others.
func TraceRank(name string) (int, bool) {
	mid, ok := strings.CutPrefix(name, "trace.")
	if !ok {
		return 0, false
	}
	if mid, ok = strings.CutSuffix(mid, ".mscp"); !ok {
		return 0, false
	}
	r, err := strconv.Atoi(mid)
	if err != nil || r < 0 {
		return 0, false
	}
	return r, true
}
