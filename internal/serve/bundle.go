package serve

import (
	"archive/zip"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"path"
	"sort"
	"strings"

	"metascope/internal/archive"
)

// The upload wire format is an ordinary zip whose entries follow the
// on-disk layout metascope run writes: one top-level directory per metahost
// file system, each containing the experiment archive directory with
// the local trace files,
//
//	mh0/epik_run/trace.0.mscp
//	mh0/epik_run/trace.1.mscp
//	mh1/epik_run/trace.2.mscp
//
// Exactly three path components per entry; anything else — absolute
// paths, "..", backslashes, loose files — is rejected before a single
// byte of trace data is inflated, and so is a bundle whose directory
// declares more inflated bytes than the upload limit allows, or more
// than deflate could produce from the compressed bytes an entry holds.
// Each entry is then inflated into one buffer of its declared size and
// read on to EOF, where archive/zip checks size and CRC-32: the
// directory is the uploader's word, trusted only for how much to
// allocate, so a hostile upload can neither traverse paths nor balloon
// in memory.

// maxZipFiles bounds the entry count of one upload; an experiment has
// one trace per rank, so this allows jobs far beyond anything the
// analyzer could replay in a request lifetime.
const maxZipFiles = 65536

// EncodeZip writes the experiment archive reachable through mounts as
// an upload bundle: every distinct file system becomes one top-level
// directory (mh0, mh1, … in first-mention order of metahosts), holding
// the archive directory's files.
func EncodeZip(w io.Writer, mounts *archive.Mounts, metahosts []int, dir string) error {
	zw := zip.NewWriter(w)
	seen := make(map[archive.FS]bool)
	top := 0
	for _, mh := range metahosts {
		fs := mounts.For(mh)
		if seen[fs] {
			continue
		}
		seen[fs] = true
		names, err := fs.List(dir)
		if err != nil {
			return fmt.Errorf("serve: listing archive %q: %w", dir, err)
		}
		for _, name := range names {
			data, err := archive.Borrow(fs, dir+"/"+name)
			if err != nil {
				return fmt.Errorf("serve: reading %s: %w", name, err)
			}
			f, err := zw.Create(fmt.Sprintf("mh%d/%s/%s", top, dir, name))
			if err != nil {
				return err
			}
			if _, err := f.Write(data); err != nil {
				return err
			}
		}
		top++
	}
	return zw.Close()
}

// upload is a decoded bundle: the in-memory mounts ready for the
// analysis pipeline, and what the intake reports about them.
type upload struct {
	mounts    *archive.Mounts
	metahosts []int
	dir       string
	files     int
	inflated  int64 // bytes
}

// sizeError refuses a bundle for the inflated size its directory
// declares; the submission handler answers it with 413.
type sizeError struct {
	entry             string
	declared, allowed uint64 // the bundle up to and including entry; the limit
}

func (e *sizeError) Error() string {
	return fmt.Sprintf("serve: bundle entry %q brings the upload to %d inflated bytes, beyond the %d-byte limit",
		e.entry, e.declared, e.allowed)
}

// deflateMaxRatio is the most deflate can expand its input: two bits of
// symbols standing for a 258-byte match.
const deflateMaxRatio = 1032

// DecodeZip parses an upload bundle into in-memory mounts ready for
// the analysis pipeline. maxBytes bounds the total decompressed size.
// It returns the mounts, the metahost ids (one per top-level
// directory, in lexical order), and the experiment archive directory
// (the lexically first epik_* directory when several appear).
func DecodeZip(data []byte, maxBytes int64) (*archive.Mounts, []int, string, error) {
	u, err := decodeZip(data, maxBytes)
	if err != nil {
		return nil, nil, "", err
	}
	return u.mounts, u.metahosts, u.dir, nil
}

func decodeZip(data []byte, maxBytes int64) (*upload, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("serve: upload is not a zip archive: %w", err)
	}
	if len(zr.File) == 0 {
		return nil, fmt.Errorf("serve: upload bundle is empty")
	}
	if len(zr.File) > maxZipFiles {
		return nil, fmt.Errorf("serve: upload bundle has %d entries (limit %d)", len(zr.File), maxZipFiles)
	}

	type entry struct {
		top, dir, name string
		file           *zip.File
	}
	entries := make([]entry, 0, len(zr.File))
	archiveDir := ""
	limit := uint64(max(maxBytes, 0))
	var declared uint64 // inflated bytes the directory promises so far, never over limit
	for _, f := range zr.File {
		name := f.Name
		if f.FileInfo().IsDir() || strings.HasSuffix(name, "/") {
			continue
		}
		if strings.Contains(name, "\\") || path.IsAbs(name) || path.Clean(name) != name {
			return nil, fmt.Errorf("serve: unsafe bundle entry %q", name)
		}
		parts := strings.Split(name, "/")
		if len(parts) != 3 {
			return nil, fmt.Errorf("serve: bundle entry %q: want metahost/archive/file layout", name)
		}
		for _, p := range parts {
			if p == "" || p == "." || p == ".." {
				return nil, fmt.Errorf("serve: unsafe bundle entry %q", name)
			}
		}
		if !archive.IsExperimentDir(parts[1]) {
			return nil, fmt.Errorf("serve: bundle entry %q: %q is not an experiment archive directory (epik_*)", name, parts[1])
		}
		// The declared size is going to size an allocation, so it is held
		// to what the budget has left and to what the entry's compressed
		// bytes could possibly inflate to.
		size := f.UncompressedSize64
		if size > limit-declared {
			// Capping the addend keeps the reported sum from wrapping.
			return nil, &sizeError{entry: name, declared: declared + min(size, math.MaxInt64), allowed: limit}
		}
		if f.CompressedSize64 < size/deflateMaxRatio {
			return nil, fmt.Errorf("serve: bundle entry %q declares %d bytes inflated from %d compressed, more than deflate's %d:1 can yield",
				name, size, f.CompressedSize64, deflateMaxRatio)
		}
		declared += size
		if archiveDir == "" || parts[1] < archiveDir {
			archiveDir = parts[1]
		}
		entries = append(entries, entry{top: parts[0], dir: parts[1], name: parts[2], file: f})
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("serve: upload bundle holds no files")
	}

	tops := make([]string, 0, 4)
	seenTop := make(map[string]*archive.MemFS)
	for _, e := range entries {
		if seenTop[e.top] == nil {
			seenTop[e.top] = archive.NewMemFS(e.top)
			tops = append(tops, e.top)
		}
	}
	sort.Strings(tops)

	u := &upload{mounts: archive.NewMounts(), metahosts: make([]int, len(tops)), dir: archiveDir, files: len(entries)}
	for _, e := range entries {
		fs := seenTop[e.top]
		if !fs.Exists(e.dir) {
			if err := fs.Mkdir(e.dir); err != nil {
				return nil, err
			}
		}
		content, err := inflate(e.file)
		if err != nil {
			return nil, fmt.Errorf("serve: reading bundle entry %q: %w", e.file.Name, err)
		}
		// The file system adopts the buffer: the bytes are not written again.
		if err := fs.Store(e.dir+"/"+e.name, content); err != nil {
			return nil, err
		}
		u.inflated += int64(len(content))
	}
	for i, top := range tops {
		u.mounts.Mount(i, seenTop[top])
		u.metahosts[i] = i
	}
	return u, nil
}

// inflate reads one entry into a buffer of exactly its declared size,
// which decodeZip has already held to the budget, and then reads on to
// EOF, which is where archive/zip compares size and CRC-32 with the
// directory: an entry that holds fewer bytes than declared, more, or
// other bytes is an error, never a truncated file.
func inflate(f *zip.File) ([]byte, error) {
	rc, err := f.Open()
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	content := make([]byte, f.UncompressedSize64)
	if _, err := io.ReadFull(rc, content); err != nil {
		return nil, err
	}
	if n, err := io.Copy(io.Discard, rc); n > 0 || err == zip.ErrFormat { // archive/zip's own word for a byte too many
		return nil, fmt.Errorf("inflates past its declared %d bytes", len(content))
	} else if err != nil {
		return nil, err
	}
	return content, nil
}

// isTraceFile mirrors the loader's trace.<rank>.mscp naming check.
func isTraceFile(name string) bool {
	return strings.HasPrefix(name, "trace.") && strings.HasSuffix(name, ".mscp")
}

// Digest hashes the experiment's trace content: every trace file's
// name, size, and bytes across all distinct file systems, in sorted
// file-name order. Byte-identical archives digest identically no
// matter how they were submitted (upload or server-side path) or how
// their traces are spread over file systems, so the result cache
// collapses them into one entry.
func Digest(mounts *archive.Mounts, metahosts []int, dir string) (string, error) {
	type tf struct {
		name string
		fs   archive.FS
	}
	var files []tf
	seen := make(map[archive.FS]bool)
	for _, mh := range metahosts {
		fs := mounts.For(mh)
		if seen[fs] {
			continue
		}
		seen[fs] = true
		names, err := fs.List(dir)
		if err != nil {
			return "", fmt.Errorf("serve: listing archive %q: %w", dir, err)
		}
		for _, name := range names {
			if isTraceFile(name) {
				files = append(files, tf{name: name, fs: fs})
			}
		}
	}
	if len(files) == 0 {
		return "", fmt.Errorf("serve: archive %q contains no trace files", dir)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })

	h := sha256.New()
	var sz [8]byte
	for _, f := range files {
		data, err := archive.Borrow(f.fs, dir+"/"+f.name)
		if err != nil {
			return "", fmt.Errorf("serve: reading %s: %w", f.name, err)
		}
		io.WriteString(h, f.name)
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(sz[:], uint64(len(data)))
		h.Write(sz[:])
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
