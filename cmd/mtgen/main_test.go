package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"metascope/internal/obs"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/serve"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (rerun with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from golden file (rerun with -update after intentional changes)\ngot:\n%s", name, got)
	}
}

func TestGoldenList(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run(options{list: true}, nil, &buf); err != nil {
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
			if err := run(options{library: name, describe: true}, nil, &buf); err != nil {
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
			o := options{library: "halo1d", format: format, seed: 1}
			if err := run(o, nil, &buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "run-halo1d-"+format+".golden", buf.Bytes())
		})
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
	if err := run(options{out: filepath.Join(dir, "run"), seed: 3}, []string{file}, &buf); err != nil {
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

func TestRunUsageErrors(t *testing.T) {
	t.Parallel()
	if err := run(options{}, nil, io.Discard); err == nil {
		t.Error("no scenario source accepted")
	}
	if err := run(options{library: "halo1d"}, []string{"also.json"}, io.Discard); err == nil {
		t.Error("library plus file argument accepted")
	}
	if err := run(options{library: "nope"}, nil, io.Discard); err == nil {
		t.Error("unknown library scenario accepted")
	}
	if err := run(options{library: "halo1d", format: "v9"}, nil, io.Discard); err == nil {
		t.Error("unknown format accepted")
	}
	// A live session takes v2 only: refused before anything runs or any
	// session is opened (nothing listens on the URL), with the hint the
	// server's 422 carries.
	var out bytes.Buffer
	err := run(options{library: "halo1d", format: "v1", serve: "http://127.0.0.1:1"}, nil, &out)
	if !errors.Is(err, trace.ErrV1Stream) || !strings.Contains(err.Error(), "mttrace -convert -format v2") {
		t.Errorf("-serve -format v1: err = %v, want the live-streams-are-v2 refusal", err)
	}
	if out.Len() != 0 {
		t.Errorf("-serve -format v1 ran before refusing: %q", out.String())
	}
}

// TestServeRoundTrip drives -serve against a real in-process mtserved:
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
	o := options{library: "halo1d", seed: 1, title: title,
		serve: ts.URL, chunk: 611, scheme: "hier"}
	if err := run(o, nil, &buf); err != nil {
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
