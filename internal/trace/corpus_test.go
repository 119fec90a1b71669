package trace

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateCorpus = flag.Bool("update", false, "regenerate the checked-in fuzz seed corpus")

const corpusRoot = "testdata/fuzz"

// corpusSets is the checked-in seed corpus per fuzz target: every
// encoder path in both formats plus the malformed shapes the decoders
// must reject cleanly. The entries are deterministic, so the corpus
// regenerates byte-identically.
func corpusSets(t testing.TB) map[string]map[string][]byte {
	t.Helper()
	// The seeds from before run coding keep their explicit member lists,
	// so the corpus pins that the reader still decodes those images.
	enc := explicitSeeds(t, FormatV1)
	enc2 := explicitSeeds(t, FormatV2)
	runs1, runs2 := encodedSeeds(t), encodedV2Seeds(t)
	world := runWorldImage(t)
	return map[string]map[string][]byte{
		"FuzzDecode": {
			"valid-sample":     enc[0],
			"valid-minimal":    enc[1],
			"valid-p2p":        enc[2],
			"empty":            {},
			"magic-only":       []byte("MSCP"),
			"bad-version":      append([]byte("MSCP"), 0xFF),
			"not-a-trace":      []byte("not a trace"),
			"truncated-header": enc[0][:8],
			"truncated-mid":    enc[2][: len(enc[2])/2 : len(enc[2])/2],
		},
		"FuzzDecodeV2": {
			"v2-valid-sample":      enc2[0],
			"v2-valid-minimal":     enc2[1],
			"v2-valid-multiblock":  enc2[2], // block size 2: several blocks
			"v2-magic-only":        []byte("MSCP\x02"),
			"v2-truncated-block":   enc2[2][: len(enc2[2])*3/4 : len(enc2[2])*3/4],
			"v2-trailing-garbage":  append(append([]byte{}, enc2[1]...), 0xFF),
			"v1-through-v2-target": enc[0], // v1 image: the target must handle both
			"v2-runs-sample":       runs2[0],
			"v2-runs-world":        world,
			"v2-runs-stride0":      withComms(t, 0, 1, 0, 2, 0), // members {0, 0}
			"v2-runs-hostile":      withComms(t, 0, 1, 0, 1<<40, 1),
		},
		"FuzzDecodeDifferential": {
			"diff-v1-sample":   enc[0],
			"diff-v1-p2p":      enc[2],
			"diff-v2-sample":   enc2[0],
			"diff-v2-multiblk": enc2[2],
			"diff-not-a-trace": []byte("not a trace"),
			"diff-v1-runs-p2p": runs1[2],
			"diff-v2-runs":     runs2[2],
			"diff-runs-world":  world,
		},
	}
}

// marshalCorpus renders data in the Go fuzzing corpus file format, the
// same encoding `go test -fuzz` writes for discovered inputs.
func marshalCorpus(data []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data))))
}

// unmarshalCorpus parses a corpus file back into its input bytes.
func unmarshalCorpus(raw []byte) ([]byte, error) {
	lines := strings.SplitN(strings.TrimRight(string(raw), "\n"), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		return nil, fmt.Errorf("missing corpus header")
	}
	body := strings.TrimSpace(lines[1])
	if !strings.HasPrefix(body, "[]byte(") || !strings.HasSuffix(body, ")") {
		return nil, fmt.Errorf("corpus body %q is not a []byte literal", body)
	}
	s, err := strconv.Unquote(body[len("[]byte(") : len(body)-1])
	if err != nil {
		return nil, fmt.Errorf("unquoting corpus body: %w", err)
	}
	return []byte(s), nil
}

// TestFuzzSeedCorpus keeps the checked-in corpora honest: with -update
// it regenerates the files for all three fuzz targets; without, it
// verifies every file parses, matches the expected set, and satisfies
// the shared fuzz invariant (anything a decoder accepts survives a
// re-encode round trip in both formats). The Go tool additionally feeds
// these files to their targets during plain `go test`, so the corpora
// double as the CI fuzz smoke.
func TestFuzzSeedCorpus(t *testing.T) {
	for target, want := range corpusSets(t) {
		t.Run(target, func(t *testing.T) {
			dir := filepath.Join(corpusRoot, target)
			if *updateCorpus {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				for name, data := range want {
					if err := os.WriteFile(filepath.Join(dir, name), marshalCorpus(data), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			files, err := os.ReadDir(dir)
			if err != nil {
				t.Fatalf("reading seed corpus (run `go test ./internal/trace -run TestFuzzSeedCorpus -update` to create it): %v", err)
			}
			seen := make(map[string]bool)
			for _, f := range files {
				raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
				if err != nil {
					t.Fatal(err)
				}
				data, err := unmarshalCorpus(raw)
				if err != nil {
					t.Errorf("%s: %v", f.Name(), err)
					continue
				}
				if wantData, ok := want[f.Name()]; ok {
					seen[f.Name()] = true
					if !bytes.Equal(data, wantData) {
						t.Errorf("%s: corpus drifted from its generator; rerun with -update", f.Name())
					}
				}
				// The fuzz invariant, inline: accepted inputs must
				// round-trip through both encoders.
				tr, err := DecodeBytes(data)
				if err != nil {
					continue
				}
				for _, format := range []Format{FormatV1, FormatV2} {
					var buf bytes.Buffer
					if err := tr.EncodeFormat(&buf, format); err != nil {
						t.Errorf("%s: decoded trace failed to re-encode as %v: %v", f.Name(), format, err)
						continue
					}
					if _, err := DecodeBytes(buf.Bytes()); err != nil {
						t.Errorf("%s: re-encoded %v trace failed to decode: %v", f.Name(), format, err)
					}
				}
			}
			for name := range want {
				if !seen[name] {
					t.Errorf("seed %s missing from %s; rerun with -update", name, dir)
				}
			}
		})
	}
}
