package archive

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestMemFSMkdirCreateOpenList(t *testing.T) {
	fs := NewMemFS("m0")
	if err := fs.Mkdir("exp"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("exp"); !errors.Is(err, ErrExist) {
		t.Fatalf("second mkdir: %v", err)
	}
	if err := fs.Mkdir("no/parent/here"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("orphan mkdir: %v", err)
	}
	w, err := fs.Create("exp/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("exp/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r)
	r.Close()
	if string(data) != "hello world" {
		t.Fatalf("read back %q", data)
	}
	if fs.Size("exp/data.bin") != 11 {
		t.Fatalf("Size = %d", fs.Size("exp/data.bin"))
	}
	if fs.Size("exp/ghost") != -1 {
		t.Fatalf("ghost size")
	}
	if _, err := fs.Open("exp/ghost"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("ghost open: %v", err)
	}
	if _, err := fs.Create("nodir/file"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("create without dir: %v", err)
	}
	names, err := fs.List("exp")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"data.bin"}) {
		t.Fatalf("List = %v", names)
	}
	if _, err := fs.List("ghostdir"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("list ghost dir: %v", err)
	}
}

func TestMemFSListNestedAndRoot(t *testing.T) {
	fs := NewMemFS("m")
	fs.Mkdir("a")
	fs.Mkdir("a/b")
	w, _ := fs.Create("a/x")
	w.Close()
	w, _ = fs.Create("a/b/y")
	w.Close()
	names, err := fs.List("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"b", "x"}) {
		t.Fatalf("List(a) = %v", names)
	}
	root, err := fs.List(".")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(root, []string{"a"}) {
		t.Fatalf("List(.) = %v", root)
	}
}

func TestMemFSExists(t *testing.T) {
	fs := NewMemFS("m")
	fs.Mkdir("d")
	w, _ := fs.Create("d/f")
	w.Close()
	for p, want := range map[string]bool{"d": true, "d/f": true, "d/g": false, "e": false} {
		if fs.Exists(p) != want {
			t.Errorf("Exists(%q) = %v", p, !want)
		}
	}
}

func TestMemFSOverwrite(t *testing.T) {
	fs := NewMemFS("m")
	fs.Mkdir("d")
	for i := 0; i < 2; i++ {
		w, _ := fs.Create("d/f")
		fmt.Fprintf(w, "version %d", i)
		w.Close()
	}
	r, _ := fs.Open("d/f")
	data, _ := io.ReadAll(r)
	if string(data) != "version 1" {
		t.Fatalf("overwrite failed: %q", data)
	}
}

// TestViewLendsAndReadFileCopies pins the two ownership contracts: View
// hands out the file system's own bytes, which a later Create of the same
// path replaces and never rewrites; ReadFile hands out a copy the caller
// may edit.
func TestViewLendsAndReadFileCopies(t *testing.T) {
	fs := NewMemFS("m")
	fs.Mkdir("d")
	write := func(s string) {
		w, _ := fs.Create("d/f")
		io.WriteString(w, s)
		w.Close()
	}
	write("version 0")
	lent, err := fs.View("d/f")
	if err != nil {
		t.Fatal(err)
	}
	again, _ := fs.View("d/f")
	if string(lent) != "version 0" || &lent[0] != &again[0] {
		t.Fatalf("View returned %q, a copy = %v; want the stored bytes themselves", lent, &lent[0] != &again[0])
	}
	owned, err := ReadFile(fs, "d/f")
	if err != nil {
		t.Fatal(err)
	}
	if &owned[0] == &lent[0] {
		t.Fatal("ReadFile returned the file system's own bytes")
	}
	owned[0] = 'X' // the caller's to edit
	write("another one")
	if string(lent) != "version 0" {
		t.Fatalf("a borrowed view changed under its holder: %q", lent)
	}
	if now, _ := fs.View("d/f"); string(now) != "another one" {
		t.Fatalf("View after overwrite = %q", now)
	}
	if _, err := fs.View("d/missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("View of a missing file: %v", err)
	}
	var _ Viewer = fs
	if _, ok := FS(&DirFS{}).(Viewer); ok {
		t.Fatal("DirFS lends bytes it does not hold")
	}
}

// TestStoreAdoptsAndViewLends: Store keeps the slice it is given, View
// and Borrow lend that same slice, ReadFile still copies, Borrow of a
// file system that is no Viewer reads, and a later Create or Store of
// the path never writes into a slice that was lent.
func TestStoreAdoptsAndViewLends(t *testing.T) {
	fs := NewMemFS("m")
	fs.Mkdir("d")
	in := []byte("inflated once")
	if err := fs.Store("d/f", in); err != nil {
		t.Fatal(err)
	}
	if err := fs.Store("nodir/f", in); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Store into a missing directory: %v", err)
	}
	lent, err := fs.View("d/f")
	if err != nil {
		t.Fatal(err)
	}
	borrowed, err := Borrow(fs, "d/f")
	if err != nil {
		t.Fatal(err)
	}
	if &lent[0] != &in[0] || &borrowed[0] != &in[0] || len(lent) != len(in) {
		t.Fatal("Store copied its argument, or View / Borrow lent a copy: want the same backing array in and out")
	}
	owned, err := ReadFile(fs, "d/f")
	if err != nil {
		t.Fatal(err)
	}
	if &owned[0] == &in[0] || string(owned) != string(in) {
		t.Fatalf("ReadFile returned %q sharing storage = %v; want a distinct copy", owned, &owned[0] == &in[0])
	}

	// Replacing the file, either way, leaves the lent slice alone.
	w, _ := fs.Create("d/f")
	io.WriteString(w, "written over!")
	w.Close()
	if string(lent) != "inflated once" {
		t.Fatalf("Create wrote into a lent slice: %q", lent)
	}
	fs.Store("d/f", []byte("stored over!!"))
	if string(lent) != "inflated once" {
		t.Fatalf("Store wrote into a lent slice: %q", lent)
	}
	if now, _ := Borrow(fs, "d/f"); string(now) != "stored over!!" {
		t.Fatalf("Borrow after replacement = %q", now)
	}

	// A file system that holds nothing in memory is read.
	dfs, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dfs.Mkdir("d")
	dw, _ := dfs.Create("d/f")
	dw.Write(in)
	dw.Close()
	if got, err := Borrow(dfs, "d/f"); err != nil || string(got) != string(in) {
		t.Fatalf("Borrow from a DirFS = %q, %v", got, err)
	}
}

func TestMemFSConcurrentAccess(t *testing.T) {
	fs := NewMemFS("m")
	fs.Mkdir("d")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := fs.Create(fmt.Sprintf("d/f%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			fmt.Fprintf(w, "data%d", i)
			w.Close()
			r, err := fs.Open(fmt.Sprintf("d/f%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			io.ReadAll(r)
			r.Close()
			fs.List("d")
			fs.Exists("d")
		}(i)
	}
	wg.Wait()
	names, _ := fs.List("d")
	if len(names) != 32 {
		t.Fatalf("%d files after concurrent writes", len(names))
	}
}

func TestMountsForAndShared(t *testing.T) {
	m := NewMounts()
	a, b := NewMemFS("a"), NewMemFS("b")
	m.Mount(0, a)
	m.Mount(1, b)
	if m.For(0) != a || m.For(1) != b {
		t.Fatalf("For returned wrong fs")
	}
	if m.Shared() {
		t.Fatalf("distinct mounts reported shared")
	}
	s := NewMounts()
	s.Mount(0, a)
	s.Mount(1, a)
	if !s.Shared() {
		t.Fatalf("shared mounts not detected")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("unmounted metahost did not panic")
		}
	}()
	m.For(7)
}

// coord implements archive.Comm for real concurrent goroutines using a
// generation-counting barrier, so the Ensure tests exercise the actual
// protocol code under genuine interleaving.
type coord struct {
	size  int
	mu    sync.Mutex
	cond  *sync.Cond
	gen   int
	count int
	acc   bool
	res   bool
}

func newCoord(size int) *coord {
	c := &coord{size: size}
	c.cond = sync.NewCond(&c.mu)
	return c
}

type coordComm struct {
	rank int
	c    *coord
}

func (cc *coordComm) Rank() int { return cc.rank }
func (cc *coordComm) Size() int { return cc.c.size }

// barrierLocked blocks until every member arrived; the caller holds mu.
func (c *coord) barrierLocked() {
	gen := c.gen
	c.count++
	if c.count == c.size {
		c.count = 0
		c.gen++
		c.res = c.acc
		c.cond.Broadcast()
		return
	}
	for gen == c.gen {
		c.cond.Wait()
	}
}

func (cc *coordComm) BcastBool(root int, v bool) bool {
	c := cc.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if cc.rank == root {
		c.acc = v
	}
	c.barrierLocked()
	return c.res
}

func (cc *coordComm) AllAnd(v bool) bool {
	c := cc.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count == 0 {
		c.acc = true
	}
	c.acc = c.acc && v
	c.barrierLocked()
	return c.res
}

// runEnsure drives the real EnsureObs protocol concurrently: one
// goroutine per process, local master = first process seen per file
// system.
func runEnsure(t *testing.T, fss []FS, dir string) []error {
	t.Helper()
	n := len(fss)
	co := newCoord(n)
	localMaster := make([]bool, n)
	seen := map[FS]bool{}
	for r := 0; r < n; r++ {
		if !seen[fss[r]] {
			seen[fss[r]] = true
			localMaster[r] = true
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = EnsureObs(&coordComm{rank: r, c: co}, fss[r], localMaster[r], dir, nil)
		}(r)
	}
	wg.Wait()
	return errs
}

func TestEnsureProtocolPhasesSharedFS(t *testing.T) {
	shared := NewMemFS("shared")
	fss := []FS{shared, shared, shared, shared}
	errs := runEnsure(t, fss, "epik_x")
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if !shared.Exists("epik_x") {
		t.Fatalf("archive missing")
	}
}

func TestEnsureProtocolPhasesDistributedFS(t *testing.T) {
	a, b, c := NewMemFS("a"), NewMemFS("b"), NewMemFS("c")
	fss := []FS{a, a, b, b, c}
	errs := runEnsure(t, fss, "epik_y")
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for _, fs := range []*MemFS{a, b, c} {
		if !fs.Exists("epik_y") {
			t.Fatalf("archive missing on %s", fs.Name())
		}
	}
}

func TestEnsureProtocolAbortsOnBrokenFS(t *testing.T) {
	a, b := NewMemFS("a"), NewMemFS("b")
	b.FailMkdir = true // second metahost cannot create directories
	fss := []FS{a, a, b, b}
	errs := runEnsure(t, fss, "epik_z")
	for r, err := range errs {
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("rank %d: err = %v, want ErrAborted", r, err)
		}
	}
}

func TestEnsureProtocolFailsWhenMasterCannotCreate(t *testing.T) {
	a := NewMemFS("a")
	a.FailMkdir = true
	fss := []FS{a, a}
	errs := runEnsure(t, fss, "epik_w")
	for r, err := range errs {
		if err == nil || errors.Is(err, ErrAborted) {
			t.Fatalf("rank %d: err = %v, want master-create failure", r, err)
		}
	}
}

func TestTraceAndReportFileNames(t *testing.T) {
	if got := TraceFile("epik_a", 7); got != "epik_a/trace.7.mscp" {
		t.Errorf("TraceFile = %q", got)
	}
}

func TestMkdirFailureMessageNamesFS(t *testing.T) {
	fs := NewMemFS("fzj-home")
	fs.FailMkdir = true
	err := fs.Mkdir("x")
	if err == nil || !strings.Contains(err.Error(), "fzj-home") {
		t.Errorf("error %v does not name the file system", err)
	}
}
