package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The default -o fallback must compose <in>/analysis.cube with
// filepath.Join: a bare string concatenation would produce
// "run1//analysis.cube" for -in values with a trailing slash and break
// on platforms with a different separator.
func TestDefaultOutputPath(t *testing.T) {
	cases := []struct {
		in, out, want string
	}{
		{"run1", "", filepath.Join("run1", "analysis.cube")},
		{"run1/", "", filepath.Join("run1", "analysis.cube")},
		{"./run1", "", filepath.Join("run1", "analysis.cube")},
		{"a/b", "", filepath.Join("a", "b", "analysis.cube")},
		// An explicit -o wins untouched.
		{"run1", "custom.cube", "custom.cube"},
		{"run1", "out/report.cube", "out/report.cube"},
	}
	for _, c := range cases {
		if got := defaultOutputPath(c.in, c.out); got != c.want {
			t.Errorf("defaultOutputPath(%q, %q) = %q, want %q", c.in, c.out, got, c.want)
		}
	}
}

// TestArtifactFilesByExtension drives the profile and phase artifacts
// through the command line: analyze -profile-out / -phases-out and
// diff -profile -o write CSV for a .csv path and JSON otherwise, the
// JSON files read back into print and diff, and a CSV handed to print
// -phases fails naming the file.
func TestArtifactFilesByExtension(t *testing.T) {
	dir := t.TempDir()
	run := func(args ...string) error {
		t.Helper()
		var log bytes.Buffer
		_, err := dispatch(context.Background(), args, &bytes.Buffer{}, &log)
		if err != nil && log.Len() > 0 {
			t.Log(log.String())
		}
		return err
	}
	must := func(args ...string) {
		t.Helper()
		if err := run(args...); err != nil {
			t.Fatalf("%q: %v", args, err)
		}
	}
	head := func(name, prefix string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), prefix) {
			t.Errorf("%s starts %.40q, want %q", name, data, prefix)
		}
	}
	at := func(name string) string { return filepath.Join(dir, name) }

	must("gen", "-library", "halo1d", "-out", dir)
	must("analyze", "-in", dir, "-profile-out", at("p.json"), "-phases-out", at("ph.json"))
	must("analyze", "-in", dir, "-profile-out", at("p.csv"), "-phases-out", at("ph.csv"))
	must("diff", "-profile", "-o", at("d.csv"), at("p.json"), at("p.json"))
	must("diff", "-profile", "-o", at("d.json"), at("p.json"), at("p.json"))
	for name, prefix := range map[string]string{
		"p.json": "{", "ph.json": "{", "d.json": "{",
		"p.csv": "# origin_seconds=", "d.csv": "# origin_seconds=", "ph.csv": "# ranks=",
	} {
		head(name, prefix)
	}

	must("print", "-phases", at("ph.json"))
	must("print", "-profile", at("p.json"), "-html", at("r.html"), at("analysis.cube"))
	must("diff", "-profile", at("d.json"), at("p.json"))
	must("diff", "-phases", at("ph.json"), at("ph.json"))

	err := run("print", "-phases", at("ph.csv"))
	want := at("ph.csv") + ": phase: decoding artifact: invalid character '#' looking for beginning of value"
	if err == nil || err.Error() != want {
		t.Errorf("print -phases on a CSV: err = %v, want %q", err, want)
	}
}
