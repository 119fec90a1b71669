package archive

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// DirFS adapts a directory of the host file system to the FS
// interface, so the command-line tools (mtrun, mtanalyze) can persist
// experiment archives on disk. Each simulated metahost file system
// maps to one subdirectory.
type DirFS struct {
	root string
	name string
}

// NewDirFS returns a DirFS rooted at dir, creating it if necessary.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: creating root %s: %w", dir, err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return &DirFS{root: abs, name: filepath.Base(abs)}, nil
}

// Name returns the root directory's base name.
func (d *DirFS) Name() string { return d.name }

// resolve maps an archive path into the root, rejecting escapes.
func (d *DirFS) resolve(p string) (string, error) {
	clean := filepath.Clean("/" + strings.TrimPrefix(p, "/"))
	if strings.Contains(clean, "..") {
		return "", fmt.Errorf("archive: path %q escapes the archive root", p)
	}
	return filepath.Join(d.root, clean), nil
}

// Mkdir implements FS.
func (d *DirFS) Mkdir(dir string) error {
	p, err := d.resolve(dir)
	if err != nil {
		return err
	}
	if err := os.Mkdir(p, 0o755); err != nil {
		if os.IsExist(err) {
			return fmt.Errorf("mkdir %s on %s: %w", dir, d.name, ErrExist)
		}
		if os.IsNotExist(err) {
			return fmt.Errorf("mkdir %s on %s: parent: %w", dir, d.name, ErrNotExist)
		}
		return err
	}
	return nil
}

// Exists implements FS.
func (d *DirFS) Exists(p string) bool {
	rp, err := d.resolve(p)
	if err != nil {
		return false
	}
	_, statErr := os.Stat(rp)
	return statErr == nil
}

// Create implements FS.
func (d *DirFS) Create(p string) (io.WriteCloser, error) {
	rp, err := d.resolve(p)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Dir(rp)); err != nil {
		return nil, fmt.Errorf("create %s on %s: directory: %w", p, d.name, ErrNotExist)
	}
	return os.Create(rp)
}

// Open implements FS.
func (d *DirFS) Open(p string) (io.ReadCloser, error) {
	rp, err := d.resolve(p)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(rp)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("open %s on %s: %w", p, d.name, ErrNotExist)
		}
		return nil, err
	}
	return f, nil
}

// Size implements Sizer: the file's size in bytes, or -1 if absent.
func (d *DirFS) Size(p string) int {
	rp, err := d.resolve(p)
	if err != nil {
		return -1
	}
	fi, err := os.Stat(rp)
	if err != nil || fi.IsDir() {
		return -1
	}
	return int(fi.Size())
}

// List implements FS.
func (d *DirFS) List(dir string) ([]string, error) {
	rp, err := d.resolve(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(rp)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("list %s on %s: %w", dir, d.name, ErrNotExist)
		}
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}
