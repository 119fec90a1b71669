package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"metascope/internal/archive"
	"metascope/internal/obs"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/serve"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

func TestGoldenList(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := gen(context.Background(), genOptions{list: true}, nil, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "list.golden", buf.Bytes())
}

// TestGoldenDescribe pins the compiled plan of two library scenarios:
// the straggler (exact closed form) and the cross-traffic scenario
// (custom topology, burst faults). A drift in scheduling, expectation
// math, or plan rendering shows up here as a readable diff.
func TestGoldenDescribe(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"straggler", "crosstraffic"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := gen(context.Background(), genOptions{library: name, describe: true}, nil, &buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "describe-"+name+".golden", buf.Bytes())
		})
	}
}

// TestGoldenRunDigest runs a scenario end to end under a fixed seed in
// both trace formats and pins the full output including the archive
// sha256: the generator must be byte-deterministic.
func TestGoldenRunDigest(t *testing.T) {
	t.Parallel()
	for _, format := range []string{"v1", "v2"} {
		format := format
		t.Run(format, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			o := genOptions{library: "halo1d", format: format, seed: 1}
			if err := gen(context.Background(), o, nil, &buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "run-halo1d-"+format+".golden", buf.Bytes())
		})
	}
}

// TestGenDigestIsServeDigest pins the identity gen prints: the sha256
// of an in-memory run and of the same run written with -out both equal
// serve.Digest of the archive mounted again from disk, the key the
// service's result cache uses.
func TestGenDigestIsServeDigest(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	digestRe := regexp.MustCompile(`: 6 files, sha256 ([0-9a-f]{64})\n`)
	printed := func(o genOptions) string {
		t.Helper()
		var buf bytes.Buffer
		if err := gen(context.Background(), o, nil, &buf); err != nil {
			t.Fatal(err)
		}
		m := digestRe.FindStringSubmatch(buf.String())
		if m == nil {
			t.Fatalf("no archive digest line in:\n%s", buf.String())
		}
		return m[1]
	}
	inMemory := printed(genOptions{library: "halo1d", seed: 1})
	onDisk := printed(genOptions{library: "halo1d", seed: 1, out: dir})
	mounts, metahosts, archDir, err := archive.MountTree(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.Digest(mounts, metahosts, archDir)
	if err != nil {
		t.Fatal(err)
	}
	if inMemory != want || onDisk != want {
		t.Errorf("gen printed sha256 %s (in memory) and %s (-out); serve.Digest of the mounted archive is %s", inMemory, onDisk, want)
	}
}

// TestRunScenarioFile loads a scenario from a file argument and writes
// the archive to disk.
func TestRunScenarioFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	src := `{"kernel": "halo1d", "name": "filecase", "ranks": 4, "iterations": 2}`
	file := filepath.Join(dir, "s.json")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gen(context.Background(), genOptions{out: filepath.Join(dir, "run"), seed: 3}, []string{file}, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.Bytes())
	}
	// The conformance preset names its metahosts MH0, MH1, ...
	m, err := filepath.Glob(filepath.Join(dir, "run", "*", "epik_filecase", "trace.*.mscp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 4 {
		t.Fatalf("found %d trace files on disk, want 4: %v", len(m), m)
	}
}

// TestRunUsageErrors: every bad combination is refused before anything
// runs or any session is opened (nothing listens on the -serve URL).
func TestRunUsageErrors(t *testing.T) {
	t.Parallel()
	const nowhere = "http://127.0.0.1:1"
	for _, c := range []struct {
		name string
		o    genOptions
		args []string
		want string // substring of the error, when it matters
	}{
		{name: "no scenario source"},
		{name: "library plus file argument", o: genOptions{library: "halo1d"}, args: []string{"also.json"}},
		{name: "unknown library scenario", o: genOptions{library: "nope"}},
		{name: "unknown format", o: genOptions{library: "halo1d", format: "v9"}},
		// A live session takes v2 only, with the hint the server's 422
		// carries.
		{name: "serve v1", o: genOptions{library: "halo1d", format: "v1", serve: nowhere, chunk: 4096},
			want: "metascope trace -convert -format v2"},
		// A zero chunk would PUT empty chunks forever; a negative one
		// would slice out of bounds.
		{name: "serve chunk 0", o: genOptions{library: "halo1d", serve: nowhere, chunk: 0}, want: "-chunk"},
		{name: "serve chunk -1", o: genOptions{library: "halo1d", serve: nowhere, chunk: -1}, want: "-chunk"},
	} {
		var out bytes.Buffer
		err := gen(context.Background(), c.o, c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a refusal mentioning %q", c.name, err, c.want)
		}
		if c.o.serve != "" && out.Len() != 0 {
			t.Errorf("%s: ran before refusing: %q", c.name, out.String())
		}
	}
	err := gen(context.Background(), genOptions{library: "halo1d", format: "v1", serve: nowhere}, nil, io.Discard)
	if !errors.Is(err, trace.ErrV1Stream) {
		t.Errorf("-serve -format v1: err = %v, want trace.ErrV1Stream", err)
	}
}

// TestServeRoundTrip drives -serve against a real in-process service:
// the live session's report and profile must be byte-identical to the
// post-mortem analysis of the same generated archive.
func TestServeRoundTrip(t *testing.T) {
	s := serve.New(serve.Options{Workers: 2, Obs: obs.NewRecorder()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})

	const title = "serve-halo1d"
	var buf bytes.Buffer
	o := genOptions{library: "halo1d", seed: 1, title: title,
		serve: ts.URL, chunk: 611, scheme: "hier"}
	if err := gen(context.Background(), o, nil, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.Bytes())
	}
	m := regexp.MustCompile(`session (exp-\d+) done`).FindSubmatch(buf.Bytes())
	if m == nil {
		t.Fatalf("no finished session in output:\n%s", buf.Bytes())
	}
	id := string(m[1])

	// Post-mortem twin: the same scenario and seed analyzed locally
	// under the same title and scheme.
	p, err := scenario.LoadLibrary("halo1d")
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.Run(title, 1)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := e.Traces()
	if err != nil {
		t.Fatal(err)
	}
	post, err := replay.Analyze(traces, replay.Config{Scheme: vclock.Hierarchical, Title: title})
	if err != nil {
		t.Fatal(err)
	}
	var wantReport, wantProf bytes.Buffer
	if err := post.Report.Write(&wantReport); err != nil {
		t.Fatal(err)
	}
	if err := post.Profile.WriteJSON(&wantProf); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		path string
		want []byte
	}{
		{"/v1/experiments/" + id + "/result", wantReport.Bytes()},
		{"/v1/experiments/" + id + "/profile", wantProf.Bytes()},
	} {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", c.path, resp.StatusCode)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s: served artifact differs from post-mortem (%d vs %d bytes)",
				c.path, len(got), len(c.want))
		}
	}
}
