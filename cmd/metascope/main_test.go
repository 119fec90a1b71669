package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
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

// TestDispatch drives the verbs the way the command line does: each
// row runs its command lines in order in one temporary directory (DIR
// in an argument stands for it), and checks the last one.
func TestDispatch(t *testing.T) {
	measure := [][]string{
		{"run", "-workload", "clockbench", "-rounds", "20", "-out", "DIR"},
		{"analyze", "-in", "DIR"},
	}
	for _, c := range []struct {
		name    string
		cmds    [][]string
		cancel  bool     // cancel the last command's context once it runs
		wantErr string   // substring of the last command's error ("" = success)
		wantOut string   // substring of its stdout
		wantLog []string // substrings of its stderr
		wantDir string   // path (under DIR) it must have created
	}{
		{
			name: "run-analyze-print-timeline",
			cmds: slices.Concat(measure, [][]string{
				{"print", "DIR/analysis.cube"},
				{"timeline", "-counters", "-in", "DIR", "-o", "DIR/tl.json"},
			}),
			wantOut: "(32 processes, two hierarchical offsets) written to DIR/tl.json",
		},
		{name: "experiments", cmds: [][]string{{"experiments", "-only", "topology"}},
			wantOut: "=== Figures 2 and 5: metacomputer topology ==="},
		{name: "experiments-unknown", cmds: [][]string{{"experiments", "-only", "bogus"}},
			wantErr: "unknown experiment"},
		{name: "no-verb", cmds: [][]string{{}}, wantErr: errUsage.Error(),
			wantLog: []string{"usage: metascope <verb>", "  experiments  "}},
		{name: "unknown-verb", cmds: [][]string{{"mtanalyze"}}, wantErr: errUsage.Error(),
			wantLog: []string{"unknown verb \"mtanalyze\"", "usage: metascope <verb>", "  gen  "}},
		{name: "bad-flag", cmds: [][]string{{"analyze", "-n", "32"}}, wantErr: errUsage.Error(),
			wantLog: []string{"flag provided but not defined: -n", "Usage of metascope analyze:"}},
		// Every verb writes -trace-out archives, print included.
		{name: "print-trace-out",
			cmds:    slices.Concat(measure, [][]string{{"print", "-trace-out", "DIR/flight", "DIR/analysis.cube"}}),
			wantDir: "flight/metascope/epik_flight"},
		{name: "serve-drains", cmds: [][]string{{"serve", "-addr", "127.0.0.1:0"}}, cancel: true},
		// A request picks its scheme with ?scheme=; the server has no default to set.
		{name: "serve-no-scheme-flag", cmds: [][]string{{"serve", "-addr", "127.0.0.1:0", "-scheme", "flat1"}},
			cancel: true, wantErr: errUsage.Error(), wantLog: []string{"flag provided but not defined: -scheme"}},
		{name: "analyze-profile-buckets-over-limit",
			cmds:    slices.Concat(measure, [][]string{{"analyze", "-in", "DIR", "-profile-buckets", "65537"}}),
			wantErr: "profile bucket count 65537 is above the limit of 65536"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			var out, log bytes.Buffer
			var err error
			for i, cmd := range c.cmds {
				args := make([]string, len(cmd))
				for j, a := range cmd {
					args[j] = strings.ReplaceAll(a, "DIR", dir)
				}
				ctx, cancel := context.WithCancel(context.Background())
				if c.cancel && i == len(c.cmds)-1 {
					time.AfterFunc(100*time.Millisecond, cancel)
				}
				out.Reset()
				log.Reset()
				_, err = dispatch(ctx, args, &out, &log)
				cancel()
				if err != nil && i < len(c.cmds)-1 {
					t.Fatalf("%q: %v\n%s", args, err, log.String())
				}
			}
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("err = %v\n%s", err, log.String())
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("err = %v, want %q", err, c.wantErr)
			}
			if want := strings.ReplaceAll(c.wantOut, "DIR", dir); !strings.Contains(out.String(), want) {
				t.Errorf("stdout lacks %q:\n%s", want, out.String())
			}
			for _, want := range c.wantLog {
				if !strings.Contains(log.String(), want) {
					t.Errorf("stderr lacks %q:\n%s", want, log.String())
				}
			}
			if c.wantDir != "" {
				if _, err := os.Stat(filepath.Join(dir, c.wantDir)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestSimulatingVerbsStopOnCancel: a verb that simulates — run, gen,
// experiments — stops before its simulation's next event once its
// context is done (the first SIGINT), and returns the context's cause
// without printing what a finished simulation prints.
func TestSimulatingVerbsStopOnCancel(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		args  []string
		never string // what only a finished simulation prints
	}{
		{[]string{"run", "-workload", "clockbench", "-rounds", "20", "-out", filepath.Join(dir, "run")}, "measured"},
		{[]string{"gen", "-library", "halo1d", "-out", filepath.Join(dir, "gen")}, "scenario"},
		{[]string{"experiments"}, "Table 1"},
		{[]string{"experiments", "-only", "fig6"}, "Figure 6"},
	} {
		var out, log bytes.Buffer
		if _, err := dispatch(ctx, c.args, &out, &log); !errors.Is(err, context.Canceled) {
			t.Errorf("%q: err = %v, want context.Canceled", c.args, err)
		}
		if strings.Contains(out.String(), c.never) {
			t.Errorf("%q printed %q after its context was cancelled:\n%s", c.args, c.never, out.String())
		}
	}
}

// TestRunHintRuns takes the command run prints after measuring and runs
// it on the archive run just wrote.
func TestRunHintRuns(t *testing.T) {
	dir := t.TempDir()
	var out, log bytes.Buffer
	if _, err := dispatch(context.Background(), []string{"run", "-workload", "clockbench", "-rounds", "20", "-out", dir}, &out, &log); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	_, hint, ok := strings.Cut(out.String(), "analyze with: metascope ")
	if !ok {
		t.Fatalf("no analyze hint in:\n%s", out.String())
	}
	args := strings.Fields(strings.SplitN(hint, "\n", 2)[0])
	if _, err := dispatch(context.Background(), args, io.Discard, &log); err != nil {
		t.Fatalf("hint %q: %v\n%s", args, err, log.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "analysis.cube")); err != nil {
		t.Errorf("hint wrote no report: %v", err)
	}
}
