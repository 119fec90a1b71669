package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// experimentPrefix is the EPIK-convention prefix of experiment archive
// directories ("epik_<measurement name>"); the measurement name may be
// empty.
const experimentPrefix = "epik_"

// IsExperimentDir reports whether name follows the experiment archive
// naming convention. Any epik_* name qualifies, including the bare
// prefix.
func IsExperimentDir(name string) bool {
	return strings.HasPrefix(name, experimentPrefix)
}

// DetectExperiment scans the root of fs for experiment archive
// directories and returns the lexically first match, so autodetection
// is deterministic regardless of listing order when several
// measurements share one file system.
func DetectExperiment(fs FS) (string, bool) {
	names, err := fs.List(".")
	if err != nil {
		return "", false
	}
	best := ""
	for _, n := range names {
		if !IsExperimentDir(n) {
			continue
		}
		if best == "" || n < best {
			best = n
		}
	}
	return best, best != ""
}

// MountTree mounts every metahost subdirectory found under root —
// the on-disk layout written by metascope run, one subdirectory per metahost
// file system — and resolves the experiment archive directory: an
// explicit non-empty dir is passed through, otherwise the lexically
// first epik_* entry across all mounts is autodetected. It returns the
// mounts, the metahost ids in mount order, and the resolved archive
// directory name.
func MountTree(root, dir string) (*Mounts, []int, string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, nil, "", err
	}
	mounts := NewMounts()
	detected := ""
	id := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		fs, err := NewDirFS(filepath.Join(root, e.Name()))
		if err != nil {
			return nil, nil, "", err
		}
		mounts.Mount(id, fs)
		if d, ok := DetectExperiment(fs); ok && (detected == "" || d < detected) {
			detected = d
		}
		id++
	}
	if id == 0 {
		return nil, nil, "", fmt.Errorf("no metahost subdirectories under %s", root)
	}
	if dir == "" {
		dir = detected
	}
	if dir == "" {
		return nil, nil, "", fmt.Errorf("no epik_* archive found under %s; pass -archive explicitly", root)
	}
	metahosts := make([]int, id)
	for i := range metahosts {
		metahosts[i] = i
	}
	return mounts, metahosts, dir, nil
}
